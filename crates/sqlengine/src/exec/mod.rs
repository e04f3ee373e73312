//! Physical plan execution.
//!
//! The executor is organized as one module per operator family:
//!
//! * [`scan`] — scans, index lookups, and the Filter/Project stage function;
//! * [`join`] — hash join (build + probe), sort-merge, nested loop, index
//!   nested loop;
//! * [`aggregate`] — hash aggregation into group tables merged in order;
//! * [`sort`] — sort (parallel run-sort + pairwise merge), top-k
//!   (`ORDER BY ... LIMIT`), and window ranking;
//! * [`setops`] — `UNION ALL`, `DISTINCT`, `LIMIT`.
//!
//! **Sources, steps and breakers.** A plan runs as *pipelines* ([`Pipeline`])
//! joined by *breakers*, source first and sink last — the one driver. A
//! pipeline is made of
//!
//! * its *sources*: rows held in full — a base-table scan's snapshot, a
//!   filled shared slot ([`PhysPlan::Shared`]: the first reference to run
//!   fills it, the others read it), the rows of a table a hash join's key
//!   filter found ([`join`]) — or rows a source hands on as it makes them:
//!   an index lookup, a one-row `SELECT`, a breaker's output ([`push`]);
//! * its *steps*, the streaming operators above the sources: Filter/Project,
//!   the hash-join probe, the nested-loop and index nested-loop joins,
//!   `UNION ALL`. A step passes each row on as it is produced — a scan lends
//!   the table's own row, a step that builds a row builds it in one buffer
//!   it reuses — so a `Scan → HashJoin probe → Aggregate` chain never
//!   materializes the join;
//! * one breaker's *partial* as its sink: the group table, the `DISTINCT`
//!   set ([`fold`]), or the rows a sort, window, build side, nested-loop
//!   inner side or shared slot holds, the `LIMIT` window, the statement
//!   result ([`collect`]) — the breakers that hold their input's rows as
//!   they are, or pass them on ([`hold`]).
//!
//! Whatever a pipeline's steps read — a build side, an inner side, a shared
//! slot — runs first, as pipelines of its own, in the order a serial run
//! reads it. A held row is charged to the statement's memory budget, and an
//! intermediate one counts in `exec.rows_materialized`.
//!
//! **Morsels.** A pipeline into a breaker that folds its input ([`Partial`])
//! fans out when every source holds its rows in full, together at least
//! [`context::FAN_OUT_ROWS`] of them, and `parallelism >= 2`: the sources are
//! cut into fixed-size morsels; the calling thread and the pool's workers
//! each claim the next morsel from one counter ([`ExecContext::fan_out`])
//! and run the whole chain on it into a partial of the breaker of their own,
//! and the breaker combines the partials in morsel order. A pool worker
//! reads its own copy of the text its steps share with every morsel — a
//! build or inner side, a stage's literals — so no two threads write one
//! reference count row after row ([`Pipeline::own`]). Otherwise each source
//! runs whole, in order, on the calling thread. So row order, group order
//! (first seen), `COUNT(DISTINCT)` results, every operator's `(label,
//! rows_in, rows_out)` and `exec.rows_materialized` are the same at every
//! parallelism; float `SUM`/`AVG` partial sums combine in morsel order, not
//! row order. `EXPLAIN ANALYZE` and traced statements run the same paths
//! with statistics switched on, recorded by one rule ([`NodeOut::stats`]).
//!
//! **Errors.** The first error ends the statement. In a pipeline the rows of
//! several operators interleave, so when rows raise in two different
//! operators the one reported is the first raising row's in pipeline order.
//! A morsel runs its rows through the whole chain in order and the error
//! reported is the earliest failing morsel's, which is that row's at every
//! parallelism; what a pipeline runs first (a build side, a shared slot) and
//! fails reports after the rows a serial run would have handed on before it.

mod aggregate;
mod context;
mod join;
mod scan;
mod setops;
mod sort;

pub(crate) use context::check_deadline;
pub use context::{ExecContext, MemoryBudget, OpStats, WorkerPool};
pub(crate) use join::{count_modes, mode_of_label, mode_suffix, node_mode};
pub(crate) use scan::index_positions;

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{EngineError, Result};
use crate::explain::{op_label, reused_label};
use crate::plan::{JoinAlgo, PhysPlan};
use crate::sync::Mutex;
use crate::value::{Row, Value};

use context::{ChargeBuf, Ticker, MORSEL_ROWS};

/// Where an operator hands its output rows, one call per row, in output
/// order. The slice is lent for the call only: a consumer that keeps the row
/// copies it.
pub(crate) type Sink<'a> = dyn FnMut(&[Value]) -> Result<()> + 'a;

/// What an operator reports besides the rows it handed on: how many input
/// rows it consumed and its inputs' stats records (both only kept when the
/// context collects stats), how it ran, and what it booked itself.
pub(crate) struct NodeOut {
    pub rows_in: usize,
    /// Workers a pipeline feeding this operator fanned out to (1 = serial),
    /// and the morsels it was cut into.
    pub workers: usize,
    pub morsels: usize,
    pub children: Vec<OpStats>,
    /// The wall time and the budget charges of the operator's own work,
    /// beside its inputs' records ([`NodeOut::book`]).
    own: Duration,
    charged: u64,
}

impl NodeOut {
    pub(crate) fn new() -> NodeOut {
        NodeOut {
            rows_in: 0,
            workers: 1,
            morsels: 1,
            children: Vec::new(),
            own: Duration::ZERO,
            charged: 0,
        }
    }

    /// Record a child that ran: its stats node, whose output is this
    /// operator's input.
    pub(crate) fn child(&mut self, stats: Option<OpStats>) {
        if let Some(stats) = stats {
            self.rows_in += stats.rows_out;
            self.children.push(stats);
        }
    }

    /// This record followed by what another part of the same operator
    /// recorded (a join's inputs are listed in plan order, whichever of them
    /// ran first).
    fn absorbing(mut self, other: NodeOut) -> NodeOut {
        self.rows_in += other.rows_in;
        self.workers = self.workers.max(other.workers);
        self.morsels = self.morsels.max(other.morsels);
        self.children.extend(other.children);
        self.own += other.own;
        self.charged += other.charged;
        self
    }

    /// Book a run of the operator that took `elapsed` and charged `charged`
    /// bytes to the statement's budget, less what its inputs' records cover.
    fn book(&mut self, elapsed: Duration, charged: u64) {
        let inputs = self.children.iter();
        let (time, mem) = inputs.fold((Duration::ZERO, 0), |(t, m), c| {
            (t + c.elapsed, m + c.mem_bytes)
        });
        self.own += elapsed.saturating_sub(time);
        self.charged += charged.saturating_sub(mem);
    }

    /// The operator's stats record, and the one place `elapsed` and
    /// `mem_bytes` are computed: what the operator booked itself plus its
    /// inputs' figures, so a node's figures contain its children's.
    fn stats(self, label: String, rows_out: usize) -> OpStats {
        let elapsed = self.own + self.children.iter().map(|c| c.elapsed).sum::<Duration>();
        let inputs = self.children.iter().map(|c| c.mem_bytes).sum::<u64>();
        OpStats {
            label,
            rows_in: self.rows_in,
            rows_out,
            elapsed,
            workers: self.workers,
            morsels: self.morsels,
            mem_bytes: self.charged + inputs,
            children: self.children,
        }
    }

    /// A copy of what the operator recorded, for a stats record.
    fn copy(&self) -> NodeOut {
        NodeOut {
            children: self.children.clone(),
            ..*self
        }
    }
}

/// Run `work`, booking to `node` the wall time and budget charges it took
/// beside the records it adds to `node`: how an operator books what it runs
/// before its rows stream (a build side and its hash table, a shared slot).
fn booked<T>(node: &mut NodeOut, ctx: &ExecContext, work: impl FnOnce(&mut NodeOut) -> T) -> T {
    if !ctx.stats_enabled() {
        return work(node);
    }
    let (started, before) = (Instant::now(), ctx.budget().used_bytes());
    let out = work(node);
    let charged = ctx.budget().used_bytes().saturating_sub(before);
    node.book(started.elapsed(), charged);
    out
}

/// Run `work`, an operator that hands its rows to `sink` itself, and — when
/// the context collects stats — make its record, labelled `label`. It books
/// its run's wall time, in which its consumers' work on its rows lies, and
/// the budget charges of that run but for those its consumers made.
fn recorded(
    ctx: &ExecContext,
    label: impl FnOnce() -> String,
    sink: &mut Sink,
    work: impl FnOnce(&mut Sink) -> Result<NodeOut>,
) -> Result<Option<OpStats>> {
    // Operator-boundary timeout check: every loop inside an operator looks
    // at the deadline every `DEADLINE_STRIDE` rows.
    ctx.check_timeout()?;
    if !ctx.stats_enabled() {
        work(sink)?;
        return Ok(None);
    }
    let budget = ctx.budget();
    let (started, before) = (Instant::now(), budget.used_bytes());
    let (mut rows_out, mut consumed) = (0usize, 0u64);
    let mut node = work(&mut |row| {
        let before = budget.used_bytes();
        rows_out += 1;
        sink(row)?;
        consumed += budget.used_bytes() - before;
        Ok(())
    })?;
    let charged = budget.used_bytes() - before;
    node.book(started.elapsed(), charged.saturating_sub(consumed));
    Ok(Some(node.stats(label(), rows_out)))
}

/// Run a source that hands its rows on itself — an index lookup, a one-row
/// `SELECT`, a breaker — into `sink`, and make its stats record.
fn push(plan: &PhysPlan, ctx: &ExecContext, sink: &mut Sink) -> Result<Option<OpStats>> {
    recorded(
        ctx,
        || op_label(plan),
        sink,
        |sink| dispatch(plan, ctx, sink),
    )
}

fn dispatch(plan: &PhysPlan, ctx: &ExecContext, sink: &mut Sink) -> Result<NodeOut> {
    match plan {
        PhysPlan::IndexScan {
            rows, index, keys, ..
        } => match keys {
            Some(keys) => scan::index_scan(rows, index, keys, ctx, sink),
            None => Err(EngineError::exec(
                "probe-driven IndexScan can only run inside an IndexJoin",
            )),
        },
        PhysPlan::OneRow => {
            sink(&[])?;
            Ok(NodeOut::new())
        }
        PhysPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            kind,
            right_width,
            residual,
            algo: JoinAlgo::SortMerge,
            out,
            ..
        } => join::sort_merge_join(
            left,
            right,
            left_keys,
            right_keys,
            *kind,
            *right_width,
            residual,
            out.as_deref(),
            ctx,
            sink,
        ),
        PhysPlan::Aggregate { input, keys, aggs } => {
            aggregate::aggregate(input, keys, aggs, ctx, sink)
        }
        PhysPlan::Window {
            input,
            func,
            partition,
            order,
        } => sort::window_rank(input, *func, partition, order, ctx, sink),
        PhysPlan::Sort { input, keys } => sort::sort(input, keys, ctx, sink),
        PhysPlan::Limit {
            input,
            limit,
            offset,
        } => setops::limit(input, *limit, *offset, ctx, sink),
        PhysPlan::Distinct { input } => setops::distinct(input, ctx, sink),
        _ => unreachable!("a held source or a streaming operator runs in a pipeline"),
    }
}

/// Shared subplan `id`'s rows, and — when this reference filled the slot,
/// running `input` into it — what filling it ran (`None`: an earlier
/// reference did, and this one reads the rows). The slot is the breaker of
/// its input's pipeline and holds the rows for the rest of the run: charged
/// to the statement's budget and counted in `exec.rows_materialized` once,
/// however many references read them. A fill that fails holds nothing and
/// returns the rows produced before the error with it: a serial run hands
/// those on before it raises.
fn slot(
    id: usize,
    input: &PhysPlan,
    ctx: &ExecContext,
) -> (Arc<FlatRows>, Option<NodeOut>, Option<EngineError>) {
    if let Some(rows) = ctx.shared_rows(id) {
        ctx.count_shared_reuse();
        return (rows, None, None);
    }
    let mut fill = NodeOut::new();
    let run = booked(&mut fill, ctx, |fill| collect_flat(input, ctx, fill));
    let held = Arc::new(run.part);
    if run.error.is_none() {
        ctx.count_rows_materialized(held.len());
        ctx.hold_shared(id, Arc::clone(&held));
    }
    (held, Some(fill), run.error)
}

/// Hand already-held rows to `sink` in order, looking at the deadline every
/// `DEADLINE_STRIDE` rows: how sources stream and how collecting operators
/// pass their output on.
pub(crate) fn emit(
    rows: impl Iterator<Item = impl AsRef<[Value]>>,
    ctx: &ExecContext,
    sink: &mut Sink,
) -> Result<()> {
    emit_until(rows, ctx.deadline(), sink)
}

fn emit_until(
    rows: impl Iterator<Item = impl AsRef<[Value]>>,
    deadline: Option<Instant>,
    sink: &mut (impl FnMut(&[Value]) -> Result<()> + ?Sized),
) -> Result<()> {
    let mut ticker = Ticker::default();
    for row in rows {
        ticker.tick(deadline)?;
        sink(row.as_ref())?;
    }
    Ok(())
}

/// Rows per block of [`FlatRows`].
const BLOCK_ROWS: usize = 1024;

/// Rows held flat: `width` values per row, in blocks of [`BLOCK_ROWS`]
/// rows — one allocation per block, not per row. How collected rows are
/// held: a shared subplan's slot, which can be the largest intermediate
/// result of its statement (`partial_fit`'s `xy_njk`), a build side, a sort
/// input.
pub(crate) struct FlatRows {
    width: usize,
    len: usize,
    blocks: Vec<Vec<Value>>,
}

impl FlatRows {
    fn new(width: usize) -> FlatRows {
        FlatRows {
            width,
            len: 0,
            blocks: Vec::new(),
        }
    }

    fn push(&mut self, row: &[Value]) {
        debug_assert_eq!(row.len(), self.width, "a plan's rows have its width");
        if self.len.is_multiple_of(BLOCK_ROWS) {
            // The first block grows with its rows: most shared CTEs are
            // small (a star `n_n` holds one row per item).
            let capacity = match self.blocks.is_empty() {
                true => 0,
                false => BLOCK_ROWS * self.width,
            };
            self.blocks.push(Vec::with_capacity(capacity));
        }
        self.blocks
            .last_mut()
            .expect("a block was opened")
            .extend_from_slice(row);
        self.len += 1;
    }

    fn len(&self) -> usize {
        self.len
    }

    fn row(&self, i: usize) -> &[Value] {
        let at = i % BLOCK_ROWS * self.width;
        &self.blocks[i / BLOCK_ROWS][at..at + self.width]
    }
}

/// Rows an operator holds all of, shared by a cheap clone: a table snapshot,
/// or rows a child was collected into (a shared subplan's slot among them).
#[derive(Clone)]
pub(crate) enum Held {
    Rows(Arc<Vec<Row>>),
    Flat(Arc<FlatRows>),
}

impl Held {
    pub(crate) fn len(&self) -> usize {
        match self {
            Held::Rows(rows) => rows.len(),
            Held::Flat(rows) => rows.len(),
        }
    }

    pub(crate) fn row(&self, i: usize) -> &[Value] {
        match self {
            Held::Rows(rows) => &rows[i],
            Held::Flat(rows) => rows.row(i),
        }
    }

    /// The rows at positions `range`, in order.
    pub(crate) fn rows(&self, range: Range<usize>) -> impl Iterator<Item = &[Value]> {
        range.map(|i| self.row(i))
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &[Value]> {
        self.rows(0..self.len())
    }

    /// A copy whose text values are its own allocations, charged to
    /// `budget`; `None` when no value is text, as then a clone writes
    /// nothing a copy would keep apart.
    fn own_copy(
        &self,
        budget: &Arc<MemoryBudget>,
        deadline: Option<Instant>,
    ) -> Result<Option<Held>> {
        if !self.iter().flatten().any(|v| matches!(v, Value::Str(_))) {
            return Ok(None);
        }
        let mut copy = FlatRows::new(self.row(0).len());
        let (mut charge, mut ticker, mut row) =
            (ChargeBuf::new(budget), Ticker::default(), Vec::new());
        for shared in self.iter() {
            ticker.tick(deadline)?;
            row.clear();
            row.extend(shared.iter().map(Value::unshared));
            charge.add_row(&row)?;
            copy.push(&row);
        }
        charge.flush()?;
        Ok(Some(Held::Flat(Arc::new(copy))))
    }
}

/// Run `plan` into held rows, each charged to the statement's memory budget,
/// recording its stats as a child of `node`: how a shared slot, a build or
/// inner side and a sort or window input hold their input.
fn collect_flat(plan: &PhysPlan, ctx: &ExecContext, node: &mut NodeOut) -> Run<FlatRows> {
    let (mut rows, mut charge) = (FlatRows::new(plan.width()), ChargeBuf::new(ctx.budget()));
    let held = hold(plan, ctx, node, &mut |row| {
        charge.add_row(row)?;
        rows.push(row);
        Ok(())
    });
    let error = held.and_then(|()| charge.flush()).err();
    Run { part: rows, error }
}

/// Run a plan to completion and hold its rows, each charged to the
/// statement's memory budget: the statement result (and what the planner
/// executes itself). The rows outlive the run, so each is its own `Row`.
pub(crate) fn collect(plan: &PhysPlan, ctx: &ExecContext) -> Result<(Vec<Row>, Option<OpStats>)> {
    let (mut rows, mut charge) = (Vec::new(), ChargeBuf::new(ctx.budget()));
    let mut node = NodeOut::new();
    hold(plan, ctx, &mut node, &mut |row| {
        charge.add_row(row)?;
        rows.push(row.to_vec());
        Ok(())
    })?;
    charge.flush()?;
    Ok((rows, node.children.pop()))
}

/// Run an input an operator must hold all of (a build side, a sort input),
/// recording it as a child of `node`.
///
/// Rows already held are handed over as a cheap `Arc` clone: a base-table
/// scan's catalog snapshot, a shared subplan's slot (run into it first if no
/// reference has yet). Any other child is collected — an intermediate
/// result, counted in `exec.rows_materialized`.
pub(crate) fn run_input(plan: &PhysPlan, ctx: &ExecContext, node: &mut NodeOut) -> Result<Held> {
    ctx.check_timeout()?;
    let (rows, ran) = match plan {
        PhysPlan::Scan { rows, .. } | PhysPlan::VirtualScan { rows, .. } => {
            (Held::Rows(Arc::clone(rows)), Some(NodeOut::new()))
        }
        PhysPlan::Shared { id, input, .. } => match slot(*id, input, ctx) {
            (_, _, Some(error)) => return Err(error),
            (rows, fill, None) => (Held::Flat(rows), fill),
        },
        _ => {
            let rows = collect_flat(plan, ctx, node).ok()?;
            ctx.count_rows_materialized(rows.len());
            return Ok(Held::Flat(Arc::new(rows)));
        }
    };
    node.rows_in += rows.len();
    if ctx.stats_enabled() {
        let label = match ran {
            Some(_) => op_label(plan),
            None => reused_label(plan),
        };
        let ran = ran.unwrap_or_else(NodeOut::new);
        node.children.push(ran.stats(label, rows.len()));
    }
    Ok(rows)
}

/// Evaluate `exprs` on `row` as a lookup key: one bare column is borrowed
/// from the row itself, anything else is evaluated into `scratch` (whose
/// capacity is reused from row to row). Unless `nulls_match`, the key is
/// `None` at its first NULL — NULL never equals an equi-join key, while a
/// `GROUP BY` key keeps it.
pub(crate) fn key_of<'a>(
    row: &'a [Value],
    exprs: &[crate::expr::PhysExpr],
    scratch: &'a mut Vec<Value>,
    nulls_match: bool,
) -> Result<Option<&'a [Value]>> {
    if let [crate::expr::PhysExpr::Column(c)] = exprs {
        let v = &row[*c];
        return Ok((nulls_match || !v.is_null()).then(|| std::slice::from_ref(v)));
    }
    scratch.clear();
    for e in exprs {
        let v = e.eval(row)?;
        if !nulls_match && v.is_null() {
            return Ok(None);
        }
        scratch.push(v);
    }
    Ok(Some(scratch))
}

/// The partial of a breaker that folds its input's rows into state of its
/// own — the group table, the `DISTINCT` set — which [`fold`] runs its input
/// into. A pipeline that fans out gives every morsel one of its own and
/// combines them in morsel order.
///
/// The one rule for the others: a breaker that holds its input's rows as
/// they are — the statement result, a shared slot, a build or inner side, a
/// sort or window input — or passes them on, as the `LIMIT` window does,
/// has no partial of this kind. It hands its input's pipeline a sink
/// ([`hold`]), and that pipeline never fans out, though a breaker below it
/// may (the aggregate whose rows a slot holds). Its partials would be the
/// rows themselves, and a worker's rows sit in that thread's malloc arena,
/// whose high-water mark stays resident beside the calling thread's:
/// filling `partial_fit`'s 137,645-row `xy_njk` over morsels raised
/// `bulk_cycle`'s peak RSS by 8–10 MiB (DESIGN.md, "Executor
/// architecture").
pub(crate) trait Partial: Send + 'static {
    fn row(&mut self, row: &[Value]) -> Result<()>;

    /// The rows have ended: flush what the partial buffered.
    fn finish(&mut self) -> Result<()>;

    /// Fold in the partial of the morsel after the last one folded in.
    fn combine(&mut self, later: Self) -> Result<()>;
}

/// What one run of a pipeline hands its breaker: its partial, and the error
/// that ended the run, if one did — then the partial holds the rows that
/// reached the breaker before the error.
pub(crate) struct Run<P> {
    pub(crate) part: P,
    pub(crate) error: Option<EngineError>,
}

impl<P> Run<P> {
    pub(crate) fn ok(self) -> Result<P> {
        self.error.map_or(Ok(self.part), Err)
    }
}

/// Run `input`'s pipeline into `sink`, the partial of a breaker that holds
/// its input's rows as they are or passes them on: serially, on the calling
/// thread (see [`Partial`]), recording `input`'s stats as a child of `node`.
pub(crate) fn hold(
    input: &PhysPlan,
    ctx: &ExecContext,
    node: &mut NodeOut,
    sink: &mut Sink,
) -> Result<()> {
    let (pipe, prepared) = Pipeline::prepare(input, ctx);
    let (ran, streamed) = pipe.serial(ctx, sink);
    streamed.and(prepared)?;
    pipe.record(ctx, node, ran);
    Ok(())
}

/// Run `input`'s pipeline into partials made by `part` (called with the
/// morsel's index), recording `input`'s stats as a child of `node`: over
/// morsels when the sources hold their rows in full and at least
/// [`context::FAN_OUT_ROWS`] of them, else serially into one partial.
pub(crate) fn fold<P: Partial>(
    input: &PhysPlan,
    ctx: &ExecContext,
    node: &mut NodeOut,
    part: impl Fn(usize) -> P + Send + Sync + 'static,
) -> Run<P> {
    let (pipe, prepared) = Pipeline::prepare(input, ctx);
    let fanned;
    let (pipe, (part, error, ran)) = match pipe.fans_out(ctx) {
        true => {
            fanned = Arc::new(pipe.detached(ctx));
            (&*fanned, Pipeline::fan_out(&fanned, ctx, part))
        }
        false => {
            let mut only = part(0);
            let (ran, streamed) = pipe.serial(ctx, &mut |row| only.row(row));
            let error = streamed.and_then(|()| only.finish()).err();
            (&pipe, (only, error, ran))
        }
    };
    let error = error.or(prepared.err());
    if error.is_none() {
        pipe.record(ctx, node, ran);
    }
    Run { part, error }
}

/// A streaming operator as a pipeline holds it. The joins are boxed (a hash
/// probe is 192 bytes), so that the node list every pipeline of every
/// statement builds stays small.
enum Step {
    Stage(scan::StageSpec),
    Probe(Box<join::Probe>),
    NestedLoop(Box<join::NestedLoop>),
    IndexJoin(Box<join::IndexProbe>),
}

/// A step's working state over one source or morsel.
enum Scratch {
    /// The projection's output row, and the worker's own copy of the stage.
    Stage(Vec<Value>, Option<Arc<scan::StageSpec>>),
    Probe(join::ProbeScratch),
    NestedLoop(join::LoopScratch),
    IndexJoin(join::IndexScratch),
}

/// A pool worker's own copy of what a step shares with every morsel (see
/// [`Pipeline::own`]).
#[derive(Clone)]
enum Own {
    /// A Filter/Project whose text literals are the worker's.
    Stage(Arc<scan::StageSpec>),
    /// A hash join's build side or a nested loop's inner side, its text
    /// values the worker's.
    Side(Held),
}

impl Step {
    /// Working state for one run, reading `own` in place of what the step
    /// shares, if given.
    fn scratch(&self, own: Option<Own>) -> Scratch {
        let (stage, side) = match own {
            Some(Own::Stage(stage)) => (Some(stage), None),
            Some(Own::Side(rows)) => (None, Some(rows)),
            None => (None, None),
        };
        match self {
            Step::Stage(_) => Scratch::Stage(Vec::new(), stage),
            Step::Probe(_) => Scratch::Probe(join::ProbeScratch::over(side)),
            Step::NestedLoop(_) => Scratch::NestedLoop(join::LoopScratch::over(side)),
            Step::IndexJoin(_) => Scratch::IndexJoin(Default::default()),
        }
    }

    /// A copy of what the step shares with every morsel whose reference
    /// counts are its own, charged to `budget`; `None` when it shares no
    /// text. An index join's inner side is a whole table and is not copied.
    fn own_copy(
        &self,
        budget: &Arc<MemoryBudget>,
        deadline: Option<Instant>,
    ) -> Result<Option<Own>> {
        Ok(match self {
            Step::Stage(stage) => stage.unshared().map(|stage| Own::Stage(Arc::new(stage))),
            Step::Probe(op) => op.build_rows().own_copy(budget, deadline)?.map(Own::Side),
            Step::NestedLoop(op) => op.inner_rows().own_copy(budget, deadline)?.map(Own::Side),
            Step::IndexJoin(_) => None,
        })
    }

    /// The step's one per-row function: what it does with an input row,
    /// handing its output rows to `sink`.
    fn row(&self, row: &[Value], scratch: &mut Scratch, sink: &mut Sink) -> Result<()> {
        match (self, scratch) {
            (Step::Stage(stage), Scratch::Stage(out, own)) => {
                own.as_deref().unwrap_or(stage).row(row, out, sink)
            }
            (Step::Probe(op), Scratch::Probe(own)) => op.row(row, own, sink),
            (Step::NestedLoop(op), Scratch::NestedLoop(own)) => op.row(row, own, sink),
            (Step::IndexJoin(op), Scratch::IndexJoin(own)) => op.row(row, own, sink),
            _ => unreachable!("a step runs on its own scratch"),
        }
    }

    /// Fold a finished run's scratch into the step's totals.
    fn finish(&self, scratch: Scratch) {
        match (self, scratch) {
            (Step::Probe(op), Scratch::Probe(own)) => op.finish(own),
            (Step::IndexJoin(op), Scratch::IndexJoin(own)) => op.finish(own),
            _ => {}
        }
    }
}

/// A pipeline ready to run: its operators as nodes, the breaker's input
/// first and each node's inputs in plan order, so its sources too.
struct Pipeline<'a> {
    nodes: Vec<PipeNode<'a>>,
    deadline: Option<Instant>,
    budget: Arc<MemoryBudget>,
    /// Each pool worker's own copies of what the steps share, by node, made
    /// by its first morsel (see [`Pipeline::own`]); none when it runs
    /// serially.
    own: Vec<Mutex<Option<Vec<Option<Own>>>>>,
}

/// One operator of a pipeline; its inputs are the nodes it is the parent
/// of, in plan order.
struct PipeNode<'a> {
    /// Its per-row function; `None` at a source and a `UNION ALL`.
    step: Option<Step>,
    parent: Option<usize>,
    rows_out: AtomicUsize,
    label: String,
    role: Role<'a>,
}

/// What a node's stats record holds besides its streamed inputs.
enum Role<'a> {
    /// A source, whose rows pass through its ancestors' steps on their way
    /// to the breaker.
    Source(Source<'a>),
    /// Filter/Project.
    Stream,
    /// `UNION ALL`: its arms' rows pass it unchanged, so it is on no path.
    Union,
    /// A join whose other side ran at preparation: a hash join's build side
    /// (`first` when it is the left input) or a nested loop's inner side.
    Join { side: NodeOut, first: bool },
    /// An index nested-loop join, with the label of its index scan.
    IndexJoin(String),
}

enum Source<'a> {
    /// Rows held in full — a table's snapshot, or a shared slot and what
    /// filling it ran (`None`: it was filled before) — cut into morsels of
    /// rows.
    Rows(Held, Option<NodeOut>),
    /// The rows of a table a hash join probes that the key filter found,
    /// cut into morsels of the table's rows.
    Candidates(join::Candidates),
    /// A plan that hands its rows on itself ([`push`]): it runs whole, on
    /// the calling thread.
    Pushed(&'a PhysPlan),
}

impl Source<'_> {
    /// How many units it holds (rows or morsels), and how many make a
    /// morsel.
    fn units(&self) -> (usize, usize) {
        match self {
            Source::Rows(rows, _) => (rows.len(), MORSEL_ROWS),
            Source::Candidates(rows) => (rows.morsels(), 1),
            Source::Pushed(_) => unreachable!("a pushed source is never cut"),
        }
    }

    /// The rows it streams, as the fan-out gate counts them; all of them are
    /// handed on once every morsel ran.
    fn rows(&self) -> usize {
        match self {
            Source::Rows(rows, _) => rows.len(),
            Source::Candidates(rows) => rows.len(),
            Source::Pushed(_) => 0,
        }
    }

    fn emit(
        &self,
        units: Range<usize>,
        deadline: Option<Instant>,
        sink: &mut (impl FnMut(&[Value]) -> Result<()> + ?Sized),
    ) -> Result<()> {
        match self {
            Source::Rows(rows, _) => emit_until(rows.rows(units), deadline, sink),
            Source::Candidates(rows) => rows.emit(units, deadline, sink),
            Source::Pushed(_) => unreachable!("a pushed source hands its rows on itself"),
        }
    }
}

/// How a pipeline ran, for its operators' stats.
struct Ran {
    workers: usize,
    morsels: usize,
    /// Each source's streaming time, through the steps above it into the
    /// partial, by node: measured when it runs whole, its share of the run's
    /// wall time by the rows it holds when it fans out.
    times: Vec<Duration>,
    /// The records of the sources that hand their rows on themselves, by
    /// node.
    pushed: Vec<(usize, OpStats)>,
}

impl<'a> Pipeline<'a> {
    /// Prepare `input`'s pipeline: its nodes, running what they read first.
    /// After a failure the leaves added so far are the sources whose rows a
    /// serial run hands on before it.
    fn prepare(input: &'a PhysPlan, ctx: &ExecContext) -> (Pipeline<'a>, Result<()>) {
        let mut pipe = Pipeline {
            nodes: Vec::new(),
            deadline: ctx.deadline(),
            budget: Arc::clone(ctx.budget()),
            own: Vec::new(),
        };
        let prepared = pipe.add(input, None, ctx);
        (pipe, prepared)
    }

    /// Add a node under `parent`.
    fn node(
        &mut self,
        parent: Option<usize>,
        step: Option<Step>,
        label: String,
        role: Role<'a>,
    ) -> usize {
        self.nodes.push(PipeNode {
            step,
            parent,
            rows_out: AtomicUsize::new(0),
            label,
            role,
        });
        self.nodes.len() - 1
    }

    fn source(&mut self, parent: Option<usize>, source: Source<'a>, label: String) {
        self.node(parent, None, label, Role::Source(source));
    }

    /// Its sources, in plan order, by node.
    fn sources(&self) -> impl Iterator<Item = (usize, &Source<'a>)> {
        let nodes = self.nodes.iter().enumerate();
        nodes.filter_map(|(n, node)| match &node.role {
            Role::Source(source) => Some((n, source)),
            _ => None,
        })
    }

    /// Add `plan`'s operators under `parent`, running what they read first,
    /// in the order a serial run does.
    fn add(&mut self, plan: &'a PhysPlan, parent: Option<usize>, ctx: &ExecContext) -> Result<()> {
        ctx.check_timeout()?;
        let label = |plan: &PhysPlan| match ctx.stats_enabled() {
            true => op_label(plan),
            false => String::new(),
        };
        match plan {
            PhysPlan::Scan { rows, .. } | PhysPlan::VirtualScan { rows, .. } => {
                let rows = Held::Rows(Arc::clone(rows));
                self.source(parent, Source::Rows(rows, None), label(plan));
            }
            PhysPlan::Filter { input, .. } | PhysPlan::Project { input, .. } => {
                let step = Step::Stage(scan::StageSpec::of(plan));
                let node = self.node(parent, Some(step), label(plan), Role::Stream);
                self.add(input, Some(node), ctx)?;
            }
            PhysPlan::HashJoin {
                algo: JoinAlgo::Hash,
                ..
            } => {
                let mut side = NodeOut::new();
                let built = booked(&mut side, ctx, |side| {
                    join::build_hash_join(plan, ctx, side)
                })?;
                let role = Role::Join {
                    side,
                    first: built.build_left,
                };
                let step = Step::Probe(Box::new(built.probe));
                let node = self.node(parent, Some(step), label(plan), role);
                match built.candidates {
                    Some(rows) => {
                        let source = Source::Candidates(rows);
                        self.source(Some(node), source, label(built.probe_plan));
                    }
                    None => self.add(built.probe_plan, Some(node), ctx)?,
                }
            }
            PhysPlan::NestedLoopJoin { left, .. } => {
                let mut side = NodeOut::new();
                let op = booked(&mut side, ctx, |side| join::inner_side(plan, ctx, side))?;
                let role = Role::Join { side, first: false };
                let step = Step::NestedLoop(Box::new(op));
                let node = self.node(parent, Some(step), label(plan), role);
                self.add(left, Some(node), ctx)?;
            }
            PhysPlan::IndexJoin { probe, inner, .. } => {
                let op = join::IndexProbe::of(plan, ctx)?;
                let role = Role::IndexJoin(label(inner));
                let step = Step::IndexJoin(Box::new(op));
                let node = self.node(parent, Some(step), label(plan), role);
                self.add(probe, Some(node), ctx)?;
            }
            PhysPlan::UnionAll { inputs } => {
                let node = self.node(parent, None, label(plan), Role::Union);
                for arm in inputs {
                    self.add(arm, Some(node), ctx)?;
                }
            }
            PhysPlan::Shared { id, input, .. } => {
                let (rows, fill, error) = slot(*id, input, ctx);
                let label = match (&fill, ctx.stats_enabled()) {
                    (Some(_), true) => op_label(plan),
                    (None, true) => reused_label(plan),
                    (_, false) => String::new(),
                };
                self.source(parent, Source::Rows(Held::Flat(rows), fill), label);
                return error.map_or(Ok(()), Err);
            }
            _ => self.source(parent, Source::Pushed(plan), String::new()),
        }
        Ok(())
    }

    /// Rows its sources hold in full, all together: what the fan-out gate
    /// counts.
    fn rows(&self) -> usize {
        self.sources().map(|(_, source)| source.rows()).sum()
    }

    /// Whether it fans out: every source holds its rows in full, and the
    /// fan-out gate passes them.
    fn fans_out(&self, ctx: &ExecContext) -> bool {
        let pushed = |(_, source): (usize, &Source)| matches!(source, Source::Pushed(_));
        !self.sources().any(pushed) && ctx.fans_out(self.rows())
    }

    /// Run every source whole, in order, on the calling thread, through the
    /// steps above it into `sink`.
    fn serial(&self, ctx: &ExecContext, sink: &mut Sink) -> (Ran, Result<()>) {
        let mut ran = Ran {
            workers: 1,
            morsels: 1,
            times: Vec::new(),
            pushed: Vec::new(),
        };
        let (stats, mut chain) = (ctx.stats_enabled(), Vec::new());
        if stats {
            ran.times = vec![Duration::ZERO; self.nodes.len()];
        }
        let streamed = self.sources().try_for_each(|(n, source)| {
            let started = stats.then(Instant::now);
            self.chain(n, 0, &mut chain)?;
            let streamed = match source {
                Source::Pushed(plan) => push(plan, ctx, &mut |row| drive(&mut chain, row, sink))
                    .map(|record| ran.pushed.extend(record.map(|record| (n, record)))),
                source => source.emit(0..source.units().0, self.deadline, &mut |row| {
                    drive(&mut chain, row, sink)
                }),
            };
            if let Some(started) = started {
                ran.times[n] = started.elapsed();
            }
            streamed
        });
        self.finish(chain);
        (ran, streamed)
    }

    /// This pipeline, ready to fan out: with a slot per pool worker for its
    /// own copies of what the steps share, and no source that borrows the
    /// plan.
    fn detached(self, ctx: &ExecContext) -> Pipeline<'static> {
        let nodes = self.nodes.into_iter().map(|node| PipeNode {
            step: node.step,
            parent: node.parent,
            rows_out: node.rows_out,
            label: node.label,
            role: match node.role {
                Role::Source(Source::Rows(rows, fill)) => Role::Source(Source::Rows(rows, fill)),
                Role::Source(Source::Candidates(rows)) => Role::Source(Source::Candidates(rows)),
                Role::Source(Source::Pushed(_)) => {
                    unreachable!("a pipeline with a pushed source runs serially")
                }
                Role::Stream => Role::Stream,
                Role::Union => Role::Union,
                Role::Join { side, first } => Role::Join { side, first },
                Role::IndexJoin(label) => Role::IndexJoin(label),
            },
        });
        Pipeline {
            nodes: nodes.collect(),
            deadline: self.deadline,
            budget: self.budget,
            own: (1..ctx.parallelism()).map(|_| Mutex::default()).collect(),
        }
    }
    /// Cut the sources into morsels and run them on the calling thread and
    /// the pool's workers, each into a partial of its own made by `part`;
    /// the partials folded in morsel order, and the error of the earliest
    /// morsel that failed.
    fn fan_out<P: Partial>(
        pipe: &Arc<Pipeline<'static>>,
        ctx: &ExecContext,
        part: impl Fn(usize) -> P + Send + Sync + 'static,
    ) -> (P, Option<EngineError>, Ran) {
        let mut morsels: Vec<(usize, Range<usize>)> = Vec::new();
        for (n, source) in pipe.sources() {
            let (units, per) = source.units();
            morsels.extend(
                (0..units)
                    .step_by(per)
                    .map(|at| (n, at..units.min(at + per))),
            );
        }
        let count = morsels.len();
        let started = Instant::now();
        let folded = Arc::new(InOrder::new(count));
        let (folding, running) = (Arc::clone(&folded), Arc::clone(pipe));
        ctx.fan_out(
            count,
            |failed| *failed,
            move |m, who| {
                let ((n, units), mut chain) = (&morsels[m], Vec::new());
                let mut part = part(m);
                let ran = running
                    .chain(*n, who, &mut chain)
                    .and_then(|()| {
                        let Role::Source(source) = &running.nodes[*n].role else {
                            unreachable!("a morsel is cut from a source");
                        };
                        let sink =
                            &mut |row: &[Value]| drive(&mut chain, row, &mut |row| part.row(row));
                        source.emit(units.clone(), running.deadline, sink)
                    })
                    .and_then(|()| part.finish());
                running.finish(chain);
                folding.offer(m, part, ran)
            },
        );
        let (part, error) = folded.finish();
        let (elapsed, rows) = (started.elapsed(), pipe.rows());
        let share = |node: &PipeNode| match (&node.role, rows) {
            (Role::Source(source), 1..) => elapsed.mul_f64(source.rows() as f64 / rows as f64),
            _ => Duration::ZERO,
        };
        let ran = Ran {
            workers: ctx.parallelism(),
            morsels: count,
            times: pipe.nodes.iter().map(share).collect(),
            pushed: Vec::new(),
        };
        (part, error, ran)
    }

    /// Make `chain`, the steps above the source run last (top-down), the
    /// steps above source `n`, ready for a run of its rows — all of them, or
    /// a morsel's — as participant `who` of a fan-out (0 on the calling
    /// thread). The steps both share keep their working state, as the steps
    /// above a `UNION ALL` run once over all its arms; the others are
    /// finished.
    fn chain<'p>(&'p self, n: usize, who: usize, chain: &mut Vec<Link<'p>>) -> Result<()> {
        let (own, ran) = (self.own(who)?, chain.len());
        let mut above = self.nodes[n].parent;
        let shared = loop {
            let Some(node) = above else { break 0 };
            if let Some(at) = chain[..ran].iter().position(|link| link.node == node) {
                break at + 1;
            }
            if let Some(step) = &self.nodes[node].step {
                let own = own.as_ref().and_then(|own| own[node].clone());
                let scratch = step.scratch(own);
                chain.push(Link {
                    step,
                    scratch,
                    rows: 0,
                    node,
                });
            }
            above = self.nodes[node].parent;
        };
        self.finish(chain.drain(shared..ran));
        chain[shared..].reverse();
        Ok(())
    }

    /// Fold finished runs of steps into their totals and row counts.
    fn finish<'p>(&self, chain: impl IntoIterator<Item = Link<'p>>) {
        for link in chain {
            link.step.finish(link.scratch);
            let rows_out = &self.nodes[link.node].rows_out;
            rows_out.fetch_add(link.rows, Ordering::Relaxed);
        }
    }

    /// What participant `who` reads in place of what the steps share, by
    /// node: nothing (`None`) on the thread that fanned out, and on a pool
    /// worker copies of its own, made by its first morsel. Evaluating a
    /// text literal, joining a side's row and keying a group on its text all
    /// clone a text value, and a clone writes the value's reference count:
    /// threads sharing one value would pass that count's cache line between
    /// them on every row, at a cost set by the distance between the cores
    /// rather than by their speed.
    fn own(&self, who: usize) -> Result<Option<Vec<Option<Own>>>> {
        let Some(slot) = who.checked_sub(1).map(|w| &self.own[w]) else {
            return Ok(None);
        };
        let mut own = slot.lock();
        if own.is_none() {
            let copies = self.nodes.iter().map(|node| match &node.step {
                Some(step) => step.own_copy(&self.budget, self.deadline),
                None => Ok(None),
            });
            *own = Some(copies.collect::<Result<_>>()?);
        }
        Ok(own.clone())
    }

    /// Record how the pipeline ran as a child of `node`, and count the probe
    /// rows its hash joins pruned.
    fn record(&self, ctx: &ExecContext, node: &mut NodeOut, mut ran: Ran) {
        for node in &self.nodes {
            if let Some(Step::Probe(probe)) = &node.step {
                ctx.count_probe_rows_pruned(probe.pruned());
            }
        }
        (node.workers, node.morsels) =
            (node.workers.max(ran.workers), node.morsels.max(ran.morsels));
        if ctx.stats_enabled() {
            node.child(Some(self.stats(0, &mut ran)));
        }
    }

    /// Node `n`'s stats record: its streamed inputs' and what ran at
    /// preparation beside them, in plan order. A source books its streaming
    /// time ([`Ran::times`]).
    fn stats(&self, n: usize, ran: &mut Ran) -> OpStats {
        let node = &self.nodes[n];
        let (mut label, mut rows_out) = (node.label.clone(), node.rows_out.load(Ordering::Relaxed));
        let mut out = NodeOut::new();
        for input in (n + 1..self.nodes.len()).filter(|&i| self.nodes[i].parent == Some(n)) {
            out.child(Some(self.stats(input, ran)));
        }
        match &node.role {
            Role::Source(source) => {
                rows_out = source.rows();
                match source {
                    Source::Pushed(_) => {
                        let at = ran.pushed.iter().position(|&(at, _)| at == n);
                        let at = at.expect("a pushed source was recorded");
                        return ran.pushed.swap_remove(at).1;
                    }
                    Source::Rows(_, fill) => {
                        out = fill.as_ref().map_or_else(NodeOut::new, NodeOut::copy);
                    }
                    // The probe's child: the table the candidates came from.
                    Source::Candidates(rows) => rows_out = rows.scan_rows(),
                }
                out.own += ran.times[n];
            }
            Role::Stream | Role::IndexJoin(_) => {}
            Role::Union => rows_out = out.rows_in,
            Role::Join { side, first: true } => out = side.copy().absorbing(out),
            Role::Join { side, first: false } => out = out.absorbing(side.copy()),
        }
        match (&node.step, &node.role) {
            (Some(Step::Probe(probe)), _) => label = format!("{label} pruned={}", probe.pruned()),
            (Some(Step::IndexJoin(op)), Role::IndexJoin(inner)) => {
                out.children
                    .push(OpStats::leaf(inner.clone(), op.fetched()));
            }
            _ => {}
        }
        let mut stats = out.stats(label, rows_out);
        stats.workers = stats.workers.max(ran.workers);
        stats.morsels = stats.morsels.max(ran.morsels);
        stats
    }
}

/// One step on a source's way to the breaker, with its working state for one
/// run and the rows it handed on.
struct Link<'p> {
    step: &'p Step,
    scratch: Scratch,
    rows: usize,
    node: usize,
}

/// Push `row` through the steps of `chain`, the lowest last, into `sink`.
fn drive(chain: &mut [Link], row: &[Value], sink: &mut Sink) -> Result<()> {
    let [above @ .., Link {
        step,
        scratch,
        rows,
        ..
    }] = chain
    else {
        return sink(row);
    };
    step.row(row, scratch, &mut |row| {
        *rows += 1;
        drive(above, row, sink)
    })
}

/// Partials folded in morsel order as their morsels finish: whichever thread
/// finishes the next morsel due folds what is ready, while the others keep
/// claiming morsels; the thread that fanned out folds the rest.
struct InOrder<P> {
    done: Vec<Done<P>>,
    folded: Mutex<Folded<P>>,
}

/// A morsel's partial and how its run ended, once it has.
type Done<P> = Mutex<Option<(P, Result<()>)>>;

/// The partials folded so far: of morsels `0..next`.
struct Folded<P> {
    next: usize,
    part: Option<P>,
    error: Option<EngineError>,
}

impl<P: Partial> InOrder<P> {
    fn new(morsels: usize) -> InOrder<P> {
        InOrder {
            done: (0..morsels).map(|_| Mutex::new(None)).collect(),
            folded: Mutex::new(Folded {
                next: 0,
                part: None,
                error: None,
            }),
        }
    }

    /// Hand over morsel `m`'s partial and how its run ended; fold what is
    /// ready unless another thread is folding. Returns whether it failed.
    fn offer(&self, m: usize, part: P, ran: Result<()>) -> bool {
        let failed = ran.is_err();
        *self.done[m].lock() = Some((part, ran));
        if let Some(mut folded) = self.folded.try_lock() {
            folded.fold(&self.done);
        }
        failed
    }

    /// Fold every partial left, up to the first failure: the combined
    /// partial and that failure's error.
    fn finish(&self) -> (P, Option<EngineError>) {
        let mut folded = self.folded.lock();
        folded.fold(&self.done);
        let part = folded
            .part
            .take()
            .expect("a fan-out runs at least one morsel");
        (part, folded.error.take())
    }
}

impl<P: Partial> Folded<P> {
    /// Fold the partials that are ready, in morsel order: a failed morsel's
    /// (the rows before its error) included, none after it.
    fn fold(&mut self, done: &[Done<P>]) {
        while self.error.is_none() && self.next < done.len() {
            let Some((part, ran)) = done[self.next].lock().take() else {
                return;
            };
            self.next += 1;
            let combined = match &mut self.part {
                None => {
                    self.part = Some(part);
                    Ok(())
                }
                Some(folded) => folded.combine(part),
            };
            self.error = ran.and(combined).err();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::context::DEADLINE_STRIDE;
    use super::*;
    use crate::ast::{AggregateFunc, BinaryOp, JoinKind};
    use crate::error::EngineError;
    use crate::expr::PhysExpr;
    use crate::plan::{AggSpec, JoinAlgo};

    fn scan(rows: &[&[i64]]) -> PhysPlan {
        let rows: Vec<Row> = rows
            .iter()
            .map(|r| r.iter().copied().map(Value::Int).collect())
            .collect();
        PhysPlan::Scan {
            width: rows.first().map_or(0, Vec::len),
            rows: Arc::new(rows),
            derived: None,
        }
    }

    fn ints(rows: &[Row]) -> Vec<Vec<Option<i64>>> {
        let int = |v: &Value| match v {
            Value::Int(i) => Some(*i),
            Value::Null => None,
            other => panic!("not an integer: {other:?}"),
        };
        rows.iter().map(|r| r.iter().map(int).collect()).collect()
    }

    fn hash_join(
        left: PhysPlan,
        right: PhysPlan,
        kind: JoinKind,
        residual: Option<PhysExpr>,
    ) -> PhysPlan {
        PhysPlan::HashJoin {
            left: Box::new(left),
            right: Box::new(right),
            left_keys: vec![PhysExpr::Column(0)],
            right_keys: vec![PhysExpr::Column(0)],
            kind,
            right_width: 2,
            residual,
            algo: JoinAlgo::Hash,
            build_left: false,
            out: None,
        }
    }

    fn gt(a: usize, b: usize) -> PhysExpr {
        PhysExpr::Binary {
            left: Box::new(PhysExpr::Column(a)),
            op: BinaryOp::Gt,
            right: Box::new(PhysExpr::Column(b)),
        }
    }

    /// Parallelism 1, and parallelism 4, where a pipeline whose sources pass
    /// the fan-out threshold fans out (not under Miri).
    fn contexts() -> Vec<ExecContext> {
        let mut ctxs = vec![ExecContext::serial()];
        if !cfg!(miri) {
            ctxs.push(ExecContext::new(4));
        }
        ctxs
    }

    #[test]
    fn a_workers_own_copy_shares_no_text_with_the_original() {
        // A side with text is copied value for value into allocations of its
        // own, charged to the budget; so is a stage's text literal. Without
        // text there is nothing to copy.
        let text = |s: &str| Value::text(s);
        let side = Held::Rows(Arc::new(vec![
            vec![Value::Int(1), text("a")],
            vec![Value::Int(2), text("a")],
        ]));
        let budget = Arc::new(MemoryBudget::unlimited());
        let own = side
            .own_copy(&budget, None)
            .unwrap()
            .expect("text is copied");
        assert!(budget.used_bytes() > 0);
        let stage =
            scan::StageSpec::Project(vec![PhysExpr::Column(0), PhysExpr::Literal(text("p:"))]);
        let Some(scan::StageSpec::Project(own_exprs)) = stage.unshared() else {
            panic!("a text literal is copied");
        };
        let scan::StageSpec::Project(exprs) = &stage else {
            unreachable!()
        };
        let pairs = side.iter().zip(own.iter()).map(|(a, b)| (&a[1], &b[1]));
        let literals = match (&exprs[1], &own_exprs[1]) {
            (PhysExpr::Literal(a), PhysExpr::Literal(b)) => (a, b),
            other => panic!("{other:?}"),
        };
        for (shared, own) in pairs.chain([literals]) {
            match (shared, own) {
                (Value::Str(a), Value::Str(b)) => assert!(a == b && !Arc::ptr_eq(a, b)),
                other => panic!("{other:?}"),
            }
        }
        let numbers = Held::Rows(Arc::new(vec![vec![Value::Int(1)]]));
        assert!(numbers.own_copy(&budget, None).unwrap().is_none());
        assert!(scan::StageSpec::Filter(gt(0, 1)).unshared().is_none());
    }

    #[test]
    fn an_unmatched_left_join_row_is_null_filled_in_probe_order() {
        let left = scan(&[&[1, 10], &[2, 20], &[3, 30]]);
        let right = scan(&[&[3, 300], &[1, 100], &[1, 101]]);
        let plan = hash_join(left, right, JoinKind::Left, None);
        for ctx in contexts() {
            let rows = ctx.execute(&plan).unwrap();
            let n = |i| Some(i);
            assert_eq!(
                ints(&rows),
                vec![
                    vec![n(1), n(10), n(1), n(100)],
                    vec![n(1), n(10), n(1), n(101)],
                    vec![n(2), n(20), None, None],
                    vec![n(3), n(30), n(3), n(300)],
                ]
            );
        }
    }

    #[test]
    fn a_residual_that_rejects_every_match_null_fills_a_left_join() {
        // Keep a match only when the right value exceeds the left one.
        let left = scan(&[&[1, 150], &[2, 5]]);
        let right = scan(&[&[1, 100], &[1, 200], &[2, 1]]);
        let plan = hash_join(left, right, JoinKind::Left, Some(gt(3, 1)));
        for ctx in contexts() {
            let rows = ctx.execute(&plan).unwrap();
            let n = |i| Some(i);
            assert_eq!(
                ints(&rows),
                vec![
                    vec![n(1), n(150), n(1), n(200)],
                    vec![n(2), n(5), None, None]
                ]
            );
        }
        let inner = hash_join(
            scan(&[&[1, 150], &[2, 5]]),
            scan(&[&[1, 100], &[1, 200], &[2, 1]]),
            JoinKind::Inner,
            Some(gt(3, 1)),
        );
        assert_eq!(ExecContext::serial().execute(&inner).unwrap().len(), 1);
    }

    /// The same join with its hash table on the left input.
    fn building_left(mut join: PhysPlan) -> PhysPlan {
        if let PhysPlan::HashJoin { build_left, .. } = &mut join {
            *build_left = true;
        }
        join
    }

    #[test]
    fn a_build_left_join_writes_scope_order_rows_in_probe_order() {
        // The left input is held; the right one streams through the probe,
        // and each joined row is still `left ++ right`.
        let left = scan(&[&[1, 10], &[3, 30], &[1, 11]]);
        let right = scan(&[&[3, 300], &[1, 100], &[2, 200], &[1, 101]]);
        let plan = building_left(hash_join(left, right, JoinKind::Inner, None));
        for ctx in contexts() {
            let (ctx, telemetry) = counted(ctx);
            let rows = ctx.execute(&plan).unwrap();
            let n = |r: [i64; 4]| r.map(Some).to_vec();
            assert_eq!(
                ints(&rows),
                vec![
                    n([3, 30, 3, 300]),
                    n([1, 10, 1, 100]),
                    n([1, 11, 1, 100]),
                    n([1, 10, 1, 101]),
                    n([1, 11, 1, 101]),
                ]
            );
            // The three left rows were hashed; a bare scan is held, not copied.
            assert_eq!(telemetry.join_build_rows.get(), 3);
            assert_eq!(telemetry.rows_materialized.get(), 0);
        }
    }

    /// A join building on its left input — with a NULL key, a duplicate key
    /// and a key nothing matches — whose residual reads both inputs in scope
    /// order, probed by `n` rows; and its rows: in probe order, each probe
    /// row's matches in build order.
    fn a_build_left_join(n: i64) -> (PhysPlan, Vec<Vec<Option<i64>>>) {
        let build: Vec<Vec<i64>> = vec![vec![7, 1], vec![3, 2], vec![7, 3], vec![99, 4]];
        let mut build: Vec<Vec<Value>> = build
            .into_iter()
            .map(|r| r.into_iter().map(Value::Int).collect())
            .collect();
        build.push(vec![Value::Null, Value::Int(5)]);
        let left = PhysPlan::Scan {
            width: 2,
            rows: Arc::new(build),
            derived: None,
        };
        let probe: Vec<Vec<i64>> = (0..n).map(|i| vec![i % 11, i % 4]).collect();
        let probe: Vec<&[i64]> = probe.iter().map(Vec::as_slice).collect();
        let residual = Some(gt(3, 1));
        let plan = building_left(hash_join(left, scan(&probe), JoinKind::Inner, residual));
        let mut want = Vec::new();
        for i in 0..n {
            let (key, x) = (i % 11, i % 4);
            for (bk, bx) in [(7, 1), (3, 2), (7, 3), (99, 4)] {
                if bk == key && x > bx {
                    want.push(vec![Some(bk), Some(bx), Some(key), Some(x)]);
                }
            }
        }
        (plan, want)
    }

    #[test]
    fn a_build_left_probe_runs_the_same_at_parallelism_1_and_4() {
        let (plan, want) = a_build_left_join(600);
        assert!(want.len() > 30);
        let runs: Vec<_> = contexts()
            .into_iter()
            .map(|ctx| ints(&ctx.execute(&plan).unwrap()))
            .collect();
        assert_eq!(runs[0], want);
        assert!(runs.iter().all(|run| *run == runs[0]));
    }

    #[test]
    #[cfg_attr(miri, ignore = "fans out over 10,000+ rows; run natively")]
    fn a_build_left_probe_fans_out_into_a_group_table() {
        // 12,000 probe rows — several morsels at parallelism 4 — stream into
        // a group table keyed on every column: groups come out in the order
        // the joined rows are first seen, with their counts.
        let (join, joined) = a_build_left_join(12_000);
        let plan = aggregate(
            join,
            (0..4).map(PhysExpr::Column).collect(),
            vec![(AggregateFunc::Count, None)],
        );
        let mut want: Vec<Vec<Option<i64>>> = Vec::new();
        for row in joined {
            match want.iter_mut().find(|group| group[..4] == row[..]) {
                Some(group) => group[4] = group[4].map(|n| n + 1),
                None => want.push([&row[..], &[Some(1)]].concat()),
            }
        }
        for ctx in contexts() {
            let parallel = ctx.parallel();
            let (rows, stats) = ctx.execute_with_stats(&plan).unwrap();
            assert_eq!(ints(&rows), want);
            assert_eq!(fanned_out(&stats), parallel);
        }
    }

    #[test]
    fn a_left_join_never_builds_on_its_preserved_side() {
        // A 2-row left input against a 300-row right one: the INNER join
        // builds on the small left input, the LEFT join on the right input,
        // so that every left row can be NULL-filled from its own probe.
        let db = crate::Database::with_config(crate::EngineConfig::default().with_parallelism(1));
        db.execute_script(
            "CREATE TABLE small (n INTEGER); CREATE TABLE big (n INTEGER, x INTEGER);
             INSERT INTO small VALUES (1), (1000);",
        )
        .unwrap();
        let big = (0..300).map(|i| vec![Value::Int(i % 30), Value::Int(i)]);
        db.insert_rows("big", big.collect()).unwrap();
        for (kind, build) in [("", "build=left"), ("LEFT ", "build=right")] {
            let sql =
                format!("SELECT s.n, b.x FROM small s {kind}JOIN big b ON s.n = b.n ORDER BY 1, 2");
            let plan = db.explain(&sql).unwrap();
            assert!(plan.contains(&format!("keys, {build}]")), "{plan}");
            let rows = db.query(&sql).unwrap().rows;
            let mut want: Vec<Row> = (0..10)
                .map(|i| vec![Value::Int(1), Value::Int(1 + 30 * i)])
                .collect();
            if kind == "LEFT " {
                want.push(vec![Value::Int(1000), Value::Null]);
            }
            assert_eq!(rows, want, "{sql}");
        }
    }

    #[test]
    fn union_all_hands_on_its_arms_in_order() {
        let plan = PhysPlan::UnionAll {
            inputs: vec![scan(&[&[3], &[1]]), scan(&[]), scan(&[&[2]]), scan(&[&[1]])],
        };
        for ctx in contexts() {
            let rows = ctx.execute(&plan).unwrap();
            let n = |i| vec![Some(i)];
            assert_eq!(ints(&rows), vec![n(3), n(1), n(2), n(1)]);
        }
    }

    #[test]
    fn a_pipeline_into_an_aggregate_holds_only_the_build_side_and_the_groups() {
        // COUNT(*) of a join whose one probe row matches every build row.
        let build: Vec<Vec<i64>> = (0..3000).map(|i| vec![7, i]).collect();
        let build: Vec<&[i64]> = build.iter().map(Vec::as_slice).collect();
        let join = hash_join(scan(&[&[7, 0]]), scan(&build), JoinKind::Inner, None);
        let plan = PhysPlan::Aggregate {
            input: Box::new(join),
            keys: vec![],
            aggs: vec![AggSpec {
                func: AggregateFunc::Count,
                arg: None,
                distinct: false,
            }],
        };
        let budget = Arc::new(MemoryBudget::unlimited());
        let ctx = ExecContext::serial().with_budget(Arc::clone(&budget));
        assert_eq!(ints(&ctx.execute(&plan).unwrap()), vec![vec![Some(3000)]]);
        // The build table's one key and 3,000 indexes, the one group and the
        // one result row — not 3,000 joined rows.
        assert!(
            budget.used_bytes() < 3000 * 16,
            "{} bytes",
            budget.used_bytes()
        );
    }

    #[test]
    fn a_build_key_that_fans_out_past_the_stride_checks_the_deadline() {
        // One probe row matches 3,000 build rows: the fan-out is the only
        // loop, and it must look at the deadline part-way.
        let build: Vec<Vec<i64>> = (0..3000).map(|i| vec![7, i]).collect();
        let build: Vec<&[i64]> = build.iter().map(Vec::as_slice).collect();
        let plan = hash_join(scan(&[&[7, 0]]), scan(&build), JoinKind::Inner, None);
        let ctx = ExecContext::serial().with_deadline(Instant::now() + Duration::from_millis(50));
        let mut handed = 0usize;
        let err = hold(&plan, &ctx, &mut NodeOut::new(), &mut |_| {
            if handed == 0 {
                std::thread::sleep(Duration::from_millis(60));
            }
            handed += 1;
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, EngineError::Timeout), "{err:?}");
        assert_eq!(handed, DEADLINE_STRIDE - 1, "cut off at the first stride");
    }

    /// A reference to shared subplan 0 over `input`, read by `refs`.
    fn shared(input: PhysPlan, refs: usize) -> PhysPlan {
        PhysPlan::Shared {
            id: 0,
            cte: Arc::from("c"),
            refs,
            input: Box::new(input),
        }
    }

    /// A context counting into a registry of its own.
    fn counted(ctx: ExecContext) -> (ExecContext, Arc<crate::telemetry::Telemetry>) {
        let telemetry = Arc::new(crate::telemetry::Telemetry::new(true, Duration::ZERO, 1));
        (ctx.with_telemetry(Arc::clone(&telemetry)), telemetry)
    }

    #[test]
    fn a_shared_subplan_runs_once_and_its_other_references_read_the_held_rows() {
        // Keep the rows whose second column exceeds the first.
        let input = PhysPlan::Filter {
            input: Box::new(scan(&[&[1, 5], &[7, 2], &[3, 4]])),
            predicate: gt(1, 0),
        };
        let c = shared(input, 3);
        let plan = PhysPlan::UnionAll {
            inputs: vec![c.clone(), c.clone(), c],
        };
        for ctx in contexts() {
            let (ctx, telemetry) = counted(ctx);
            let (rows, stats) = ctx.execute_with_stats(&plan).unwrap();
            let n = |a, b| vec![Some(a), Some(b)];
            let held = [n(1, 5), n(3, 4)];
            assert_eq!(ints(&rows), [&held[..], &held, &held].concat());
            let labels: Vec<&str> = stats.children.iter().map(|s| s.label.as_str()).collect();
            assert_eq!(
                labels,
                [
                    "Shared cte=c refs=3",
                    "Shared cte=c (reused)",
                    "Shared cte=c (reused)"
                ]
            );
            assert_eq!(stats.children[0].children[0].label, "Filter");
            assert!(stats.children[1].children.is_empty());
            assert_eq!(telemetry.shared_reuses.get(), 2);
            // The held rows are the one intermediate result.
            assert_eq!(telemetry.rows_materialized.get(), 2);
        }
    }

    #[test]
    fn a_shared_build_side_is_held_once_and_each_run_starts_without_it() {
        // A self-join whose build side fills the slot its probe side reads,
        // and the same join over two subplans that merely look alike.
        let rows: Vec<Vec<i64>> = (0..3000).map(|i| vec![i % 1000, i]).collect();
        let rows: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        let input = PhysPlan::Filter {
            input: Box::new(scan(&rows)),
            predicate: gt(1, 0),
        };
        let count = |left: PhysPlan, right: PhysPlan| PhysPlan::Aggregate {
            input: Box::new(hash_join(left, right, JoinKind::Inner, None)),
            keys: vec![],
            aggs: vec![AggSpec {
                func: AggregateFunc::Count,
                arg: None,
                distinct: false,
            }],
        };
        let c = shared(input.clone(), 2);
        let twice = count(c.clone(), c);
        let alike = |id| PhysPlan::Shared {
            id,
            cte: Arc::from(format!("d{id}")),
            refs: 1,
            input: Box::new(input.clone()),
        };
        let apart = count(alike(1), alike(2));
        // Rows 1,000 to 2,999 are kept, each key twice.
        let held = 2000;
        let held_bytes = held * context::approx_row_bytes(&[Value::Int(0), Value::Int(0)]);
        for ctx in contexts() {
            let charged = |plan: &PhysPlan, runs: u64| {
                let budget = Arc::new(MemoryBudget::unlimited());
                let (ctx, telemetry) = counted(ctx.clone().with_budget(Arc::clone(&budget)));
                for _ in 0..runs {
                    let rows = ctx.execute(plan).unwrap();
                    assert_eq!(ints(&rows), vec![vec![Some(2 * held as i64)]]);
                }
                (budget.used_bytes(), telemetry.shared_reuses.get())
            };
            let (once, reuses) = charged(&twice, 1);
            assert_eq!(reuses, 1);
            // Every run holds the rows again, and only once.
            assert_eq!(charged(&twice, 2), (2 * once, 2));
            let (both, reuses) = charged(&apart, 1);
            assert_eq!(reuses, 0);
            assert!(both >= once + held_bytes, "{both} vs {once} + {held_bytes}");
        }
    }

    #[test]
    fn a_shared_subplan_that_raises_is_never_read_half_held() {
        // 10 / (x - 5) raises at the last row, after two were handed on.
        let input = PhysPlan::Project {
            input: Box::new(scan(&[&[7], &[6], &[5]])),
            exprs: vec![PhysExpr::Binary {
                left: Box::new(PhysExpr::Literal(Value::Int(10))),
                op: BinaryOp::Div,
                right: Box::new(PhysExpr::Binary {
                    left: Box::new(PhysExpr::Column(0)),
                    op: BinaryOp::Sub,
                    right: Box::new(PhysExpr::Literal(Value::Int(5))),
                }),
            }],
        };
        let c = shared(input, 2);
        let plan = PhysPlan::UnionAll {
            inputs: vec![c.clone(), c],
        };
        for ctx in contexts() {
            let (ctx, telemetry) = counted(ctx);
            for _ in 0..2 {
                let err = ctx.execute(&plan).unwrap_err();
                assert!(err.to_string().contains("division by zero"), "{err}");
            }
            assert_eq!(telemetry.shared_reuses.get(), 0);
        }
    }

    /// `n` rows `[i, i % modulo]`.
    fn numbered(n: i64, modulo: i64) -> PhysPlan {
        let rows: Vec<Vec<i64>> = (0..n).map(|i| vec![i, i % modulo]).collect();
        scan(&rows.iter().map(Vec::as_slice).collect::<Vec<_>>())
    }

    fn aggregate(
        input: PhysPlan,
        keys: Vec<PhysExpr>,
        aggs: Vec<(AggregateFunc, Option<usize>)>,
    ) -> PhysPlan {
        let aggs = aggs.into_iter().map(|(func, arg)| AggSpec {
            func,
            arg: arg.map(PhysExpr::Column),
            distinct: false,
        });
        PhysPlan::Aggregate {
            input: Box::new(input),
            keys,
            aggs: aggs.collect(),
        }
    }

    /// `(label, rows_in, rows_out)` of every operator, preorder.
    fn shape(stats: &OpStats) -> Vec<(String, usize, usize)> {
        let mut out = vec![(stats.label.clone(), stats.rows_in, stats.rows_out)];
        out.extend(stats.children.iter().flat_map(shape));
        out
    }

    fn fanned_out(stats: &OpStats) -> bool {
        stats.workers > 1 || stats.children.iter().any(fanned_out)
    }

    #[test]
    #[cfg_attr(miri, ignore = "fans out over 10,000+ rows; run natively")]
    fn a_pipeline_over_a_union_fans_out_and_matches_the_serial_run() {
        // Two 10,000-row arms — past the fan-out threshold together — probe
        // a collected 97-row dimension and cross a one-row input into a
        // group table: rows, group order, every operator's counts and the
        // rows held are the same at parallelism 1 and over morsels at 4.
        let arm = PhysPlan::Project {
            input: Box::new(numbered(10_000, 97)),
            exprs: vec![PhysExpr::Column(1), PhysExpr::Column(0)],
        };
        let filtered = PhysPlan::Filter {
            input: Box::new(numbered(10_000, 89)),
            predicate: gt(0, 1),
        };
        let dim = PhysPlan::Filter {
            input: Box::new(numbered(97, 97)),
            predicate: PhysExpr::Literal(Value::Int(1)),
        };
        let join = hash_join(
            PhysPlan::UnionAll {
                inputs: vec![arm, filtered],
            },
            dim,
            JoinKind::Inner,
            None,
        );
        let crossed = PhysPlan::NestedLoopJoin {
            left: Box::new(join),
            right: Box::new(scan(&[&[7]])),
            kind: JoinKind::Cross,
            right_width: 1,
            predicate: None,
            out: None,
        };
        let plan = aggregate(
            crossed,
            vec![PhysExpr::Column(2)],
            vec![(AggregateFunc::Count, None), (AggregateFunc::Sum, Some(1))],
        );
        let runs: Vec<_> = contexts()
            .into_iter()
            .map(|ctx| {
                let (ctx, telemetry) = counted(ctx);
                let (rows, stats) = ctx.execute_with_stats(&plan).unwrap();
                (ints(&rows), stats, telemetry.rows_materialized.get())
            })
            .collect();
        let (rows, stats, held) = &runs[0];
        assert_eq!(rows.len(), 97);
        assert_eq!(*held, 97, "the dimension, collected");
        for (other_rows, other_stats, other_held) in &runs[1..] {
            assert_eq!(other_rows, rows);
            assert_eq!(shape(other_stats), shape(stats));
            assert_eq!(other_held, held);
            assert!(fanned_out(other_stats), "{other_stats:#?}");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "fans out over 10,000+ rows; run natively")]
    fn an_error_is_the_earliest_failing_morsels_at_every_parallelism() {
        // A projection raises at row 15,000 (10 / 0) and the aggregate above
        // it at row 100 (the SUM of a text value). Serially, row 100 raises
        // first; over morsels its morsel is the earliest that fails, so the
        // aggregate's error is reported there too.
        let mut rows: Vec<Row> = (0..20_000)
            .map(|i| vec![Value::Int(i), Value::Int(i)])
            .collect();
        rows[100][1] = Value::text("oops");
        let ten_over = PhysExpr::Binary {
            left: Box::new(PhysExpr::Literal(Value::Int(10))),
            op: BinaryOp::Div,
            right: Box::new(PhysExpr::Binary {
                left: Box::new(PhysExpr::Column(0)),
                op: BinaryOp::Sub,
                right: Box::new(PhysExpr::Literal(Value::Int(15_000))),
            }),
        };
        let project = PhysPlan::Project {
            input: Box::new(PhysPlan::Scan {
                width: 2,
                rows: Arc::new(rows),
                derived: None,
            }),
            exprs: vec![PhysExpr::Column(1), ten_over],
        };
        let plan = aggregate(project, vec![], vec![(AggregateFunc::Sum, Some(0))]);
        for ctx in contexts() {
            let err = ctx.execute(&plan).unwrap_err();
            assert!(
                err.to_string().contains("SUM of non-numeric value oops"),
                "{err}"
            );
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "fans out over 10,000+ rows; run natively")]
    fn a_slot_filled_serially_is_read_over_morsels() {
        // A shared subplan over a 20,000-row filter, read twice by one
        // aggregate: the slot fills serially, held once, and the 39,986 rows
        // of its two references fan out into the group table.
        let input = PhysPlan::Filter {
            input: Box::new(numbered(20_000, 7)),
            predicate: gt(0, 1),
        };
        let c = shared(input, 2);
        let plan = aggregate(
            PhysPlan::UnionAll {
                inputs: vec![c.clone(), c],
            },
            vec![PhysExpr::Column(1)],
            vec![(AggregateFunc::Count, None), (AggregateFunc::Sum, Some(0))],
        );
        // Row 7 is the first kept, so group 0 is seen first.
        let want: Vec<_> = (0..7)
            .map(|g| {
                let kept = (7..20_000).filter(|i| i % 7 == g);
                let (count, sum) = kept.fold((0, 0), |(n, s), i| (n + 1, s + i));
                vec![Some(g), Some(2 * count), Some(2 * sum)]
            })
            .collect();
        let mut shapes = Vec::new();
        for ctx in contexts() {
            let parallel = ctx.parallel();
            let (ctx, telemetry) = counted(ctx);
            let (rows, stats) = ctx.execute_with_stats(&plan).unwrap();
            assert_eq!(ints(&rows), want);
            assert_eq!(telemetry.rows_materialized.get(), 19_993);
            assert_eq!(telemetry.shared_reuses.get(), 1);
            assert_eq!(fanned_out(&stats), parallel);
            // The filter under the slot ran serially, as the slot holds it.
            let filled = stats.find("Shared cte=c refs=2").expect("the slot");
            assert!(!fanned_out(&filled.children[0]), "{filled:#?}");
            shapes.push(shape(&stats));
        }
        assert!(shapes.iter().all(|shape| *shape == shapes[0]));
    }

    #[test]
    #[cfg_attr(miri, ignore = "fans out over 10,000+ rows; run natively")]
    fn a_key_filtered_probe_fans_out_over_its_candidates() {
        // 1,000 build keys find 10,000 rows of a 30,000-row table through
        // its derived index, past the fan-out threshold: the joined rows, their
        // order and the pruned count match the pushed run.
        let rows: Vec<Row> = (0..30_000)
            .map(|i| vec![Value::Int(i % 3000), Value::Int(i)])
            .collect();
        let probe = PhysPlan::Scan {
            width: 2,
            rows: Arc::new(rows),
            derived: Some(crate::catalog::DerivedIndexes::default()),
        };
        let keys: Vec<Vec<i64>> = (0..1000).map(|k| vec![k * 3, k]).collect();
        let build = scan(&keys.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let join = hash_join(probe, build, JoinKind::Inner, None);
        let plan = aggregate(
            join,
            vec![PhysExpr::Column(3)],
            vec![(AggregateFunc::Count, None), (AggregateFunc::Sum, Some(1))],
        );
        let want: Vec<_> = (0..1000)
            .map(|k| {
                vec![
                    Some(k),
                    Some(10),
                    Some((0..10).map(|r| k * 3 + r * 3000).sum()),
                ]
            })
            .collect();
        for ctx in contexts() {
            let parallel = ctx.parallel();
            let (ctx, telemetry) = counted(ctx);
            let (rows, stats) = ctx.execute_with_stats(&plan).unwrap();
            assert_eq!(ints(&rows), want);
            let join = stats.find("HashJoin").expect("a hash join ran");
            assert!(
                join.label.ends_with("probe=keyset(index) pruned=20000"),
                "{}",
                join.label
            );
            assert_eq!(telemetry.join_probe_rows_pruned.get(), 20_000);
            assert_eq!(fanned_out(&stats), parallel);
        }
    }

    /// A 10,000-row table probing a collected 97-row dimension, each row
    /// matching one: past the fan-out threshold.
    fn a_large_join() -> PhysPlan {
        let dim = PhysPlan::Filter {
            input: Box::new(numbered(97, 97)),
            predicate: PhysExpr::Literal(Value::Int(1)),
        };
        let probe = PhysPlan::Project {
            input: Box::new(numbered(10_000, 97)),
            exprs: vec![PhysExpr::Column(1), PhysExpr::Column(0)],
        };
        hash_join(probe, dim, JoinKind::Inner, None)
    }

    #[test]
    #[cfg_attr(miri, ignore = "fans out over 10,000+ rows; run natively")]
    fn only_a_breaker_that_folds_its_input_fans_it_out() {
        // At parallelism 4 the same 10,000-row join fans out into a group
        // table, but runs serially into the rows a sort or a shared slot
        // holds; the slot's own 10,000 rows fan out into the group table
        // that reads them.
        let sorted = PhysPlan::Sort {
            input: Box::new(a_large_join()),
            keys: vec![(PhysExpr::Column(1), true)],
        };
        let count = |input| aggregate(input, vec![], vec![(AggregateFunc::Count, None)]);
        let grouped = count(a_large_join());
        let slot = count(shared(a_large_join(), 1));
        for ctx in contexts() {
            let parallel = ctx.parallel();
            let join_of = |plan: &PhysPlan| {
                let (_, stats) = ctx.execute_with_stats(plan).unwrap();
                let join = stats.find("HashJoin").expect("a hash join ran").clone();
                (stats, join)
            };
            let (_, join) = join_of(&sorted);
            assert!(!fanned_out(&join), "a sort input: {join:#?}");
            let (_, join) = join_of(&grouped);
            assert_eq!(fanned_out(&join), parallel, "a group-by input: {join:#?}");
            let (stats, join) = join_of(&slot);
            assert!(!fanned_out(&join), "a slot's input: {join:#?}");
            assert_eq!(stats.workers > 1, parallel, "the slot's rows: {stats:#?}");
        }
    }

    #[test]
    fn a_hash_joins_build_side_charge_shows_on_its_own_record_under_any_breaker() {
        // The same join under a group-by, a sort and a top-k: its record
        // shows the charge of its hash table, the same under each, and the
        // top-k's record contains it beside the rows the top-k holds.
        let (join, _) = a_build_left_join(600);
        let join = PhysPlan::Project {
            input: Box::new(join),
            exprs: vec![PhysExpr::Column(3), PhysExpr::Column(0)],
        };
        let sorted = PhysPlan::Sort {
            input: Box::new(join.clone()),
            keys: vec![(PhysExpr::Column(0), false)],
        };
        let plans = [
            aggregate(
                join,
                vec![PhysExpr::Column(0)],
                vec![(AggregateFunc::Count, None)],
            ),
            sorted.clone(),
            PhysPlan::Limit {
                input: Box::new(sorted),
                limit: Some(3),
                offset: 0,
            },
        ];
        for ctx in contexts() {
            let records: Vec<(OpStats, OpStats)> = plans
                .iter()
                .map(|plan| {
                    let (_, stats) = ctx.execute_with_stats(plan).unwrap();
                    let join = stats.find("HashJoin").expect("a hash join ran").clone();
                    (stats, join)
                })
                .collect();
            let charged = records[0].1.mem_bytes;
            assert!(charged > 0, "{:#?}", records[0].1);
            for (stats, join) in &records {
                assert_eq!(join.mem_bytes, charged, "{stats:#?}");
            }
            let (top_k, _) = &records[2];
            let top_k = top_k.find("Sort").expect("the top-k");
            assert!(top_k.label.contains("top-k"), "{}", top_k.label);
            assert!(top_k.mem_bytes > charged, "{top_k:#?}");
        }
    }
}
