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
//! A collected row is charged to the statement's memory budget where it is
//! held, and an intermediate one counts in `exec.rows_materialized`.
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

use crate::error::Result;
use crate::explain::op_label;
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
}

impl NodeOut {
    pub(crate) fn new() -> NodeOut {
        NodeOut {
            rows_in: 0,
            workers: 1,
            children: Vec::new(),
            pruned: None,
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
    /// build side, run before the probe but listed after it).
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
        label: match out.pruned {
            Some(pruned) => format!("{} pruned={pruned}", op_label(plan)),
            None => op_label(plan),
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
        } => match algo {
            crate::plan::JoinAlgo::Hash => join::hash_join(
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
    }
}

/// Hand already-held rows to `sink` in order, looking at the deadline every
/// `DEADLINE_STRIDE` rows: how scans stream and how collecting operators
/// pass their output on.
pub(crate) fn emit<'r>(
    rows: impl Iterator<Item = &'r Row>,
    ctx: &ExecContext,
    sink: &mut Sink,
) -> Result<()> {
    let (mut ticker, deadline) = (Ticker::default(), ctx.deadline());
    for row in rows {
        ticker.tick(deadline)?;
        sink(row)?;
    }
    Ok(())
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
/// A base-table scan is handed over as a cheap `Arc` clone of the catalog
/// snapshot; any other child is collected — an intermediate result, counted
/// in `exec.rows_materialized`.
pub(crate) fn run_input(
    plan: &PhysPlan,
    ctx: &ExecContext,
    node: &mut NodeOut,
) -> Result<Arc<Vec<Row>>> {
    match plan {
        PhysPlan::Scan { rows, .. } | PhysPlan::VirtualScan { rows, .. } => {
            ctx.check_timeout()?;
            node.rows_in += rows.len();
            if ctx.stats_enabled() {
                node.children
                    .push(OpStats::leaf(op_label(plan), rows.len()));
            }
            Ok(Arc::clone(rows))
        }
        _ => {
            let (rows, stats) = collect(plan, ctx)?;
            ctx.count_rows_materialized(rows.len());
            node.child(stats);
            Ok(Arc::new(rows))
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
        for row in &rows[range] {
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
}
