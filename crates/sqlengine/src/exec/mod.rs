//! Physical plan execution.
//!
//! The executor is organized as one module per operator family:
//!
//! * [`scan`] — scans, index lookups, and the Filter/Project stage function;
//! * [`join`] — hash join (partitioned build + probe), sort-merge, nested loop,
//!   index nested loop;
//! * [`aggregate`] — hash aggregation with per-worker partial maps;
//! * [`sort`] — sort (parallel run-sort + pairwise merge), top-k
//!   (`ORDER BY ... LIMIT`), and window ranking;
//! * [`setops`] — `UNION ALL`, `DISTINCT` (hash-partitioned dedup), `LIMIT`.
//!
//! **Push pipelines.** Execution is push-based: [`push`] runs a node and
//! hands each of its output rows to a [`Sink`], source first, sink last.
//! Scans, index scans, Filter, Project, the hash-join probe, the nested-loop
//! and index nested-loop joins, `UNION ALL` and `LIMIT` *stream*: they pass
//! each row on as it is produced — a scan lends the table's own row, an
//! operator that builds a row builds it in one buffer it reuses — so a
//! `Scan → HashJoin probe → Aggregate` chain never materializes the join.
//! Only the operators that must hold rows collect them: the aggregate's group
//! table, sort / top-k, window, distinct's dedup set, the hash-join build
//! side, the nested-loop inner side, and the statement result ([`collect`]).
//! A CTE that several references read adds one more: the first reference to
//! run collects the rows into a slot of the run ([`PhysPlan::Shared`]), and
//! the others read that instead of running the CTE again. A collected row is
//! charged to the statement's memory budget where it is held, and an
//! intermediate one counts in `exec.rows_materialized`.
//!
//! **One per-row function per operator.** A streaming operator states what
//! it does with one input row once ([`RowOp::row`]). At parallelism 1 (the
//! release default) its input pushes rows straight into that function. With
//! `parallelism >= 2` an operator that has a morsel path collects its input,
//! splits it into morsels, and runs the same function over each morsel on
//! the worker pool with a collecting sink ([`morsels`]); the morsels' rows go
//! downstream in morsel order, so row order and content match the push path
//! — the only permitted difference is float rounding in parallel
//! aggregation, where partial sums are combined in chunk order rather than
//! row order. `EXPLAIN ANALYZE` and traced statements run the same paths
//! with statistics switched on.
//!
//! **Errors.** The first error ends the statement. In a pipeline the rows of
//! several operators interleave, so when rows raise in two different
//! operators the one reported is the first raising row in pipeline order.
//! At `parallelism >= 2` an operator with a morsel path runs its whole input
//! before it sees a row, so there it is the lower operator's error — the one
//! way a serial and a parallel run of a statement can fail differently.

mod aggregate;
mod context;
mod join;
mod scan;
mod setops;
mod sort;
mod vector;

pub(crate) use context::check_deadline;
pub use context::{ExecContext, MemoryBudget, OpStats, WorkerPool};
pub(crate) use join::keyset_mode;
pub(crate) use scan::index_positions;
pub(crate) use vector::{count_modes, mode_of_label, mode_suffix, node_mode};

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use crate::column::CHUNK_ROWS;
use crate::error::Result;
use crate::explain::{op_label, reused_label};
use crate::plan::PhysPlan;
use crate::value::{Row, Value};

use context::{ChargeBuf, ChunkJob, Ticker};

/// Where an operator hands its output rows, one call per row, in output
/// order. The slice is lent for the call only: a consumer that keeps the row
/// copies it.
pub(crate) type Sink<'a> = dyn FnMut(&[Value]) -> Result<()> + 'a;

/// What an operator reports to the dispatcher besides the rows it pushed:
/// how many input rows it consumed and the stats of its children (both only
/// kept when the context collects stats), and how it ran.
pub(crate) struct NodeOut {
    pub rows_in: usize,
    /// Workers this operator actually fanned out to (1 = serial path).
    pub workers: usize,
    pub children: Vec<OpStats>,
    /// Hash joins: probe rows that found no build key, shown by `EXPLAIN
    /// ANALYZE` as ` pruned=N` after the label.
    pub pruned: Option<usize>,
    /// A shared-subplan reference that handed on held rows instead of
    /// running its input, labelled `(reused)` by `EXPLAIN ANALYZE`.
    pub reused: bool,
}

impl NodeOut {
    pub(crate) fn new() -> NodeOut {
        NodeOut {
            rows_in: 0,
            workers: 1,
            children: Vec::new(),
            pruned: None,
            reused: false,
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

    /// Append what another part of the same operator recorded (a join's
    /// inputs are listed in plan order, whichever of them ran first).
    pub(crate) fn absorb(&mut self, other: NodeOut) {
        self.rows_in += other.rows_in;
        self.workers = self.workers.max(other.workers);
        self.children.extend(other.children);
    }
}

/// Execute one node, handing its rows to `sink`, and wrap what the operator
/// reports in an [`OpStats`] record when stats are enabled. `elapsed` and
/// `mem_bytes` (the statement-budget charge delta) span the node's whole
/// run: its children, and the work its consumers do on the rows it pushes
/// them — in a push pipeline those happen inside the producer's call.
pub(crate) fn push(plan: &PhysPlan, ctx: &ExecContext, sink: &mut Sink) -> Result<Option<OpStats>> {
    // Operator-boundary timeout check: every node passes through here, and
    // every loop inside an operator looks at the deadline every
    // `DEADLINE_STRIDE` rows.
    ctx.check_timeout()?;
    if !ctx.stats_enabled() {
        dispatch(plan, ctx, sink)?;
        return Ok(None);
    }
    let (started, mem_before) = (Instant::now(), ctx.budget().used_bytes());
    let mut rows_out = 0usize;
    let out = dispatch(plan, ctx, &mut |row| {
        rows_out += 1;
        sink(row)
    })?;
    Ok(Some(OpStats {
        label: match (out.reused, out.pruned) {
            (true, _) => reused_label(plan),
            (false, Some(pruned)) => format!("{} pruned={pruned}", op_label(plan)),
            (false, None) => op_label(plan),
        },
        rows_in: out.rows_in,
        rows_out,
        elapsed: started.elapsed(),
        workers: out.workers,
        morsels: if out.workers > 1 {
            ctx.morsels(out.rows_in).len()
        } else {
            1
        },
        mem_bytes: ctx.budget().used_bytes().saturating_sub(mem_before),
        children: out.children,
    }))
}

fn dispatch(plan: &PhysPlan, ctx: &ExecContext, sink: &mut Sink) -> Result<NodeOut> {
    match plan {
        PhysPlan::Scan { rows, .. } | PhysPlan::VirtualScan { rows, .. } => {
            emit(rows.iter(), ctx, sink)?;
            Ok(NodeOut::new())
        }
        PhysPlan::IndexScan {
            rows, index, keys, ..
        } => match keys {
            Some(keys) => scan::index_scan(rows, index, keys, ctx, sink),
            None => Err(crate::error::EngineError::exec(
                "probe-driven IndexScan can only run inside an IndexJoin",
            )),
        },
        PhysPlan::IndexJoin {
            probe,
            probe_keys,
            inner,
            inner_is_left,
            kind,
            inner_width,
            residual,
        } => join::index_join(
            probe,
            probe_keys,
            inner,
            *inner_is_left,
            *kind,
            *inner_width,
            residual,
            ctx,
            sink,
        ),
        PhysPlan::OneRow => {
            sink(&[])?;
            Ok(NodeOut::new())
        }
        PhysPlan::Filter { input, .. } | PhysPlan::Project { input, .. } => {
            if node_mode(plan) == Some(true) {
                if let Some(node) = vector::vectorized_chain(plan, ctx, sink)? {
                    return Ok(node);
                }
            }
            let mut node = NodeOut::new();
            stream(
                &Arc::new(scan::StageSpec::of(plan)),
                input,
                ctx,
                &mut node,
                sink,
            )?;
            Ok(node)
        }
        PhysPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            kind,
            right_width,
            residual,
            algo,
            ..
        } => match algo {
            crate::plan::JoinAlgo::Hash => join::hash_join(plan, ctx, sink),
            crate::plan::JoinAlgo::SortMerge => join::sort_merge_join(
                left,
                right,
                left_keys,
                right_keys,
                *kind,
                *right_width,
                residual,
                ctx,
                sink,
            ),
        },
        PhysPlan::NestedLoopJoin {
            left,
            right,
            kind,
            right_width,
            predicate,
        } => join::nested_loop_join(left, right, *kind, *right_width, predicate, ctx, sink),
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
        PhysPlan::UnionAll { inputs } => setops::union_all(inputs, ctx, sink),
        PhysPlan::Distinct { input } => setops::distinct(input, ctx, sink),
        PhysPlan::Shared { id, input, .. } => shared(*id, input, ctx, sink),
    }
}

/// One reference to shared subplan `id`: the first to run is a collecting
/// sink that runs `input` to completion, hands each row on as it goes and
/// then holds them all for the rest of the run — charged to the statement's
/// budget and counted in `exec.rows_materialized` once; a later reference
/// hands on the held rows.
fn shared(id: usize, input: &PhysPlan, ctx: &ExecContext, sink: &mut Sink) -> Result<NodeOut> {
    let mut node = NodeOut::new();
    if let Some(rows) = ctx.shared_rows(id) {
        ctx.count_shared_reuse();
        node.reused = true;
        emit(rows.iter(), ctx, sink)?;
        return Ok(node);
    }
    let (mut held, mut charge) = (FlatRows::new(input.width()), ChargeBuf::new(ctx.budget()));
    node.child(push(input, ctx, &mut |row| {
        charge.add_row(row)?;
        held.push(row);
        sink(row)
    })?);
    charge.flush()?;
    ctx.count_rows_materialized(held.len());
    ctx.hold_shared(id, Arc::new(held));
    Ok(node)
}

/// Hand already-held rows to `sink` in order, looking at the deadline every
/// `DEADLINE_STRIDE` rows: how scans stream and how collecting operators
/// pass their output on.
pub(crate) fn emit(
    rows: impl Iterator<Item = impl AsRef<[Value]>>,
    ctx: &ExecContext,
    sink: &mut Sink,
) -> Result<()> {
    let (mut ticker, deadline) = (Ticker::default(), ctx.deadline());
    for row in rows {
        ticker.tick(deadline)?;
        sink(row.as_ref())?;
    }
    Ok(())
}

/// Rows held flat: `width` values per row, in blocks of
/// [`CHUNK_ROWS`](crate::column::CHUNK_ROWS) rows — one allocation per
/// block, not per row. How a shared subplan's slot holds what can be the
/// largest intermediate result of its statement (`partial_fit`'s
/// `xy_njk`).
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
        if self.len.is_multiple_of(CHUNK_ROWS) {
            // The first block grows with its rows: most shared CTEs are
            // small (a star `n_n` holds one row per item).
            let capacity = match self.blocks.is_empty() {
                true => 0,
                false => CHUNK_ROWS * self.width,
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
        let at = i % CHUNK_ROWS * self.width;
        &self.blocks[i / CHUNK_ROWS][at..at + self.width]
    }

    fn iter(&self) -> impl Iterator<Item = &[Value]> {
        (0..self.len).map(|i| self.row(i))
    }
}

/// Rows an operator holds all of, shared by a cheap clone: a table snapshot
/// or rows a child was collected into, or a shared subplan's slot.
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
}

/// The collecting sink: holds every row it is handed, each charged to the
/// statement's memory budget.
pub(crate) struct Collector<'a> {
    rows: Vec<Row>,
    charge: ChargeBuf<'a>,
}

impl<'a> Collector<'a> {
    pub(crate) fn new(budget: &'a MemoryBudget) -> Collector<'a> {
        Collector {
            rows: Vec::new(),
            charge: ChargeBuf::new(budget),
        }
    }

    pub(crate) fn push(&mut self, row: &[Value]) -> Result<()> {
        self.charge.add_row(row)?;
        self.rows.push(row.to_vec());
        Ok(())
    }

    pub(crate) fn finish(mut self) -> Result<Vec<Row>> {
        self.charge.flush()?;
        Ok(self.rows)
    }
}

/// Run a plan to completion and hold its rows: the statement result (and
/// what the planner executes itself).
pub(crate) fn collect(plan: &PhysPlan, ctx: &ExecContext) -> Result<(Vec<Row>, Option<OpStats>)> {
    let mut out = Collector::new(ctx.budget());
    let stats = push(plan, ctx, &mut |row| out.push(row))?;
    Ok((out.finish()?, stats))
}

/// Run an input an operator must hold all of (a build side, a sort input,
/// a morsel source), recording it as a child of `node`.
///
/// Rows already held are handed over as a cheap `Arc` clone: a base-table
/// scan's catalog snapshot, a shared subplan's slot (run into it first if no
/// reference has yet). Any other child is collected — an intermediate
/// result, counted in `exec.rows_materialized`.
pub(crate) fn run_input(plan: &PhysPlan, ctx: &ExecContext, node: &mut NodeOut) -> Result<Held> {
    let mut held = |rows: Held, label: String| {
        ctx.check_timeout()?;
        node.rows_in += rows.len();
        if ctx.stats_enabled() {
            node.children.push(OpStats::leaf(label, rows.len()));
        }
        Ok(rows)
    };
    match plan {
        PhysPlan::Scan { rows, .. } | PhysPlan::VirtualScan { rows, .. } => {
            held(Held::Rows(Arc::clone(rows)), op_label(plan))
        }
        PhysPlan::Shared { id, .. } => match ctx.shared_rows(*id) {
            Some(rows) => {
                ctx.count_shared_reuse();
                held(Held::Flat(rows), reused_label(plan))
            }
            None => {
                // Its one collecting sink is the slot: nothing else keeps
                // the rows it hands on.
                node.child(push(plan, ctx, &mut |_| Ok(()))?);
                let rows = ctx.shared_rows(*id);
                Ok(Held::Flat(
                    rows.expect("a shared subplan that ran holds its rows"),
                ))
            }
        },
        _ => {
            let (rows, stats) = collect(plan, ctx)?;
            ctx.count_rows_materialized(rows.len());
            node.child(stats);
            Ok(Held::Rows(Arc::new(rows)))
        }
    }
}

/// A streaming operator's one per-row function: what it does with each
/// input row, handing its output rows to `sink`. The push path calls it as
/// the input produces rows; the morsel path calls it over each morsel of the
/// collected input, on the worker pool, with a collecting sink.
pub(crate) trait RowOp: Send + Sync + 'static {
    /// Working state of one run over a stream or a morsel: reused buffers
    /// and counters.
    type Scratch: Default;

    fn row(&self, row: &[Value], scratch: &mut Self::Scratch, sink: &mut Sink) -> Result<()>;

    /// Fold a finished run's scratch into the operator's totals.
    fn finish(&self, _scratch: Self::Scratch) {}
}

/// Run `op` over every row of `input`, in input order, recording `input` as
/// a child of `node`: pushed straight from the input at parallelism 1, over
/// morsels of the collected input otherwise.
pub(crate) fn stream<O: RowOp>(
    op: &Arc<O>,
    input: &PhysPlan,
    ctx: &ExecContext,
    node: &mut NodeOut,
    sink: &mut Sink,
) -> Result<()> {
    if !ctx.parallel() {
        let mut scratch = O::Scratch::default();
        let stats = push(input, ctx, &mut |row| op.row(row, &mut scratch, sink))?;
        op.finish(scratch);
        node.child(stats);
        return Ok(());
    }
    let rows = run_input(input, ctx, node)?;
    let (op, deadline) = (Arc::clone(op), ctx.deadline());
    let parallel = ctx.should_parallelize(rows.len());
    let len = rows.len();
    let run = move |range: Range<usize>, sink: &mut Sink| {
        let (mut scratch, mut ticker) = (O::Scratch::default(), Ticker::default());
        for row in rows.rows(range) {
            ticker.tick(deadline)?;
            op.row(row, &mut scratch, sink)?;
        }
        op.finish(scratch);
        Ok(())
    };
    morsels(ctx, len, parallel, node, run, sink)
}

/// Run `run` over `0..units`. Unless `parallel`, that is one call straight
/// into `sink`; otherwise the units are split into morsels run on the worker
/// pool, each into a collecting sink, and the morsels' rows are handed to
/// `sink` in morsel order.
pub(crate) fn morsels<F>(
    ctx: &ExecContext,
    units: usize,
    parallel: bool,
    node: &mut NodeOut,
    run: F,
    sink: &mut Sink,
) -> Result<()>
where
    F: Fn(Range<usize>, &mut Sink) -> Result<()> + Send + Sync + 'static,
{
    if !parallel {
        return run(0..units, sink);
    }
    node.workers = ctx.parallelism();
    let run = Arc::new(run);
    let jobs: Vec<ChunkJob<Result<Vec<Row>>>> = ctx
        .morsels(units)
        .into_iter()
        .map(|range| {
            let (run, budget) = (Arc::clone(&run), Arc::clone(ctx.budget()));
            let job: ChunkJob<Result<Vec<Row>>> = Box::new(move || {
                let mut out = Collector::new(&budget);
                run(range, &mut |row| out.push(row))?;
                out.finish()
            });
            job
        })
        .collect();
    for part in ctx.run_jobs(jobs) {
        let part = part?;
        ctx.count_rows_materialized(part.len());
        emit(part.iter(), ctx, sink)?;
    }
    Ok(())
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
            chunks: None,
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
        }
    }

    fn gt(a: usize, b: usize) -> PhysExpr {
        PhysExpr::Binary {
            left: Box::new(PhysExpr::Column(a)),
            op: BinaryOp::Gt,
            right: Box::new(PhysExpr::Column(b)),
        }
    }

    /// Both drivers of the one per-row function: pushed, and over morsels.
    fn contexts() -> Vec<ExecContext> {
        let mut ctxs = vec![ExecContext::serial()];
        if !cfg!(miri) {
            ctxs.push(ExecContext::new(4));
        }
        ctxs
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

    #[test]
    fn a_build_left_probe_runs_the_same_pushed_and_over_morsels() {
        // 600 probe rows (several morsels at parallelism 4) against a build
        // side with a NULL key, a duplicate key and a key nothing matches; a
        // residual reads both inputs in scope order.
        let build: Vec<Vec<i64>> = vec![vec![7, 1], vec![3, 2], vec![7, 3], vec![99, 4]];
        let mut build: Vec<Vec<Value>> = build
            .into_iter()
            .map(|r| r.into_iter().map(Value::Int).collect())
            .collect();
        build.push(vec![Value::Null, Value::Int(5)]);
        let left = PhysPlan::Scan {
            width: 2,
            rows: Arc::new(build),
            chunks: None,
        };
        let probe: Vec<Vec<i64>> = (0..600).map(|i| vec![i % 11, i % 4]).collect();
        let probe: Vec<&[i64]> = probe.iter().map(Vec::as_slice).collect();
        let residual = Some(gt(3, 1));
        let plan = building_left(hash_join(left, scan(&probe), JoinKind::Inner, residual));
        // In probe order, each probe row's matches in build order.
        let mut want = Vec::new();
        for i in 0..600i64 {
            let (key, x) = (i % 11, i % 4);
            for (bk, bx) in [(7, 1), (3, 2), (7, 3), (99, 4)] {
                if bk == key && x > bx {
                    want.push(vec![Some(bk), Some(bx), Some(key), Some(x)]);
                }
            }
        }
        assert!(want.len() > 30);
        for ctx in contexts() {
            assert_eq!(ints(&ctx.execute(&plan).unwrap()), want);
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
        let err = push(&plan, &ctx, &mut |_| {
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
            assert_eq!(stats.children[0].children[0].label, "Filter mode=row");
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
}
