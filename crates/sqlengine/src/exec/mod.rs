//! Physical plan execution.
//!
//! The executor is organized as one module per operator family:
//!
//! * [`scan`] — scans plus chunked Filter/Project morsel pipelines;
//! * [`join`] — hash join (partitioned build + probe), sort-merge, nested loop;
//! * [`aggregate`] — hash aggregation with per-worker partial maps;
//! * [`sort`] — sort (parallel run-sort + pairwise merge), top-k
//!   (`ORDER BY ... LIMIT`), and window ranking;
//! * [`setops`] — `UNION ALL`, `DISTINCT` (hash-partitioned dedup), `LIMIT`.
//!
//! Every operator executes through an [`ExecContext`], which carries the
//! parallelism knob, the shared worker pool, and the `EXPLAIN ANALYZE` stats
//! switch. With `parallelism = 1` each operator takes its exact serial path,
//! producing byte-identical results to the original single-function
//! interpreter; with `parallelism >= 2` the data-parallel operators split
//! their inputs into morsels and merge per-worker results deterministically
//! (chunk order), so row order and content still match the serial executor —
//! the only permitted difference is float rounding in parallel aggregation,
//! where partial sums are combined in chunk order rather than row order.
//!
//! Operators materialize their outputs (`Vec<Row>`); inputs are shared with
//! workers as `Arc<Vec<Row>>`, which also lets operators consume table scans
//! without the defensive full-copy the old interpreter made.

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

use std::sync::Arc;
use std::time::Instant;

use crate::error::Result;
use crate::explain::op_label;
use crate::plan::PhysPlan;
use crate::value::Row;

/// What an operator hands back to the dispatcher: its output rows, how many
/// input rows it consumed, and the stats of its children (empty unless the
/// context collects stats).
pub(crate) struct NodeOut {
    pub rows: Vec<Row>,
    pub rows_in: usize,
    /// Workers this operator actually fanned out to (1 = serial path).
    pub workers: usize,
    pub children: Vec<OpStats>,
    /// Hash joins: probe rows that found no build key, shown by `EXPLAIN
    /// ANALYZE` as ` pruned=N` after the label.
    pub pruned: Option<usize>,
}

impl NodeOut {
    pub(crate) fn new(rows: Vec<Row>) -> NodeOut {
        NodeOut {
            rows,
            rows_in: 0,
            workers: 1,
            children: Vec::new(),
            pruned: None,
        }
    }
}

/// Execute one node, wrapping the operator output in an [`OpStats`] record
/// when stats are enabled. `mem_bytes` is the statement-budget charge delta
/// across the node (inclusive of children, like `elapsed`), attributing
/// materialized pipeline-breaker state to the operator that built it.
pub(crate) fn run(plan: &PhysPlan, ctx: &ExecContext) -> Result<(Vec<Row>, Option<OpStats>)> {
    let start = ctx
        .stats_enabled()
        .then(|| (Instant::now(), ctx.budget().used_bytes()));
    let out = dispatch(plan, ctx)?;
    let stats = start.map(|(t, mem_before)| OpStats {
        label: match out.pruned {
            Some(pruned) => format!("{} pruned={pruned}", op_label(plan)),
            None => op_label(plan),
        },
        rows_in: out.rows_in,
        rows_out: out.rows.len(),
        elapsed: t.elapsed(),
        workers: out.workers,
        morsels: if out.workers > 1 {
            ctx.morsels(out.rows_in).len()
        } else {
            1
        },
        mem_bytes: ctx.budget().used_bytes().saturating_sub(mem_before),
        children: out.children,
    });
    Ok((out.rows, stats))
}

fn dispatch(plan: &PhysPlan, ctx: &ExecContext) -> Result<NodeOut> {
    // Operator-boundary timeout check: every node passes through here, so a
    // deep plan cannot run past its deadline by more than one operator's
    // work (tight loops inside operators check at morsel boundaries too).
    ctx.check_timeout()?;
    match plan {
        PhysPlan::Scan { rows, .. } | PhysPlan::VirtualScan { rows, .. } => {
            Ok(NodeOut::new(rows.as_ref().clone()))
        }
        PhysPlan::IndexScan {
            rows, index, keys, ..
        } => match keys {
            Some(keys) => scan::index_scan(rows, index, keys),
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
        ),
        PhysPlan::OneRow => Ok(NodeOut::new(vec![Vec::new()])),
        PhysPlan::Filter { .. } | PhysPlan::Project { .. } => scan::run_pipeline(plan, ctx),
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
            ),
        },
        PhysPlan::NestedLoopJoin {
            left,
            right,
            kind,
            right_width,
            predicate,
        } => join::nested_loop_join(left, right, *kind, *right_width, predicate, ctx),
        PhysPlan::Aggregate { input, keys, aggs } => aggregate::aggregate(input, keys, aggs, ctx),
        PhysPlan::Window {
            input,
            func,
            partition,
            order,
        } => sort::window_rank(input, *func, partition, order, ctx),
        PhysPlan::Sort { input, keys } => sort::sort(input, keys, ctx),
        PhysPlan::Limit {
            input,
            limit,
            offset,
        } => setops::limit(input, *limit, *offset, ctx),
        PhysPlan::UnionAll { inputs } => setops::union_all(inputs, ctx),
        PhysPlan::Distinct { input } => setops::distinct(input, ctx),
    }
}

/// Execute a child plan for an operator that only *reads* its input.
///
/// Base-table scans are returned as a cheap `Arc` clone of the catalog
/// snapshot instead of a deep row copy; any other child runs normally and its
/// output is wrapped. The child's stats node (when collected) and row count
/// are appended to `children` / `rows_in`.
pub(crate) fn run_input(
    plan: &PhysPlan,
    ctx: &ExecContext,
    children: &mut Vec<OpStats>,
    rows_in: &mut usize,
) -> Result<Arc<Vec<Row>>> {
    let rows = match plan {
        PhysPlan::Scan { rows, .. } | PhysPlan::VirtualScan { rows, .. } => {
            if ctx.stats_enabled() {
                children.push(OpStats::leaf(op_label(plan), rows.len()));
            }
            Arc::clone(rows)
        }
        _ => {
            let (rows, stats) = run(plan, ctx)?;
            if let Some(s) = stats {
                children.push(s);
            }
            Arc::new(rows)
        }
    };
    *rows_in += rows.len();
    Ok(rows)
}

/// Recover owned rows from a shared input, cloning only when the snapshot is
/// still referenced elsewhere (i.e. the child was a base-table scan).
pub(crate) fn into_owned(rows: Arc<Vec<Row>>) -> Vec<Row> {
    Arc::try_unwrap(rows).unwrap_or_else(|shared| shared.as_ref().clone())
}
