//! Scan-side operators: chunked Filter/Project morsel pipelines.
//!
//! Consecutive `Filter`/`Project` nodes over a common source are executed as
//! one fused pipeline: the source is materialized (or borrowed straight from
//! the base-table snapshot), then every morsel of it flows through all
//! stages before the next morsel starts. In parallel mode the morsels are
//! processed by the worker pool; per-stage row counters and (when
//! `EXPLAIN ANALYZE` runs) per-stage worker time are accumulated so the
//! stats tree still reports each operator individually.

use std::sync::Arc;
use std::time::Instant;

use crate::error::Result;
use crate::explain::op_label;
use crate::expr::{column_only, PhysExpr};
use crate::plan::{IndexRef, PhysPlan};
use crate::value::{Row, Value};

use super::context::{ChunkJob, StageCounter};
use super::{ExecContext, NodeOut, OpStats};

/// One owned stage of a fused pipeline (owned so morsel jobs are `'static`;
/// the clone happens once per operator per query, not per row). Shared with
/// the vectorized kernels in [`super::vector`], which run the same stages
/// over columnar chunks.
pub(super) enum StageSpec {
    Filter(PhysExpr),
    Project(Vec<PhysExpr>),
}

/// A morsel flowing between pipeline stages. Filters over a shared source
/// keep row *references* — nothing is cloned until a `Project` rebuilds the
/// rows or the morsel is materialized at the end of the pipeline. This makes
/// the common `Scan → Filter → Project` shape clone-free on the parallel
/// path, matching the move-only serial path's allocation behaviour.
enum Morsel<'a> {
    Borrowed(Vec<&'a Row>),
    Owned(Vec<Row>),
}

impl Morsel<'_> {
    fn len(&self) -> usize {
        match self {
            Morsel::Borrowed(refs) => refs.len(),
            Morsel::Owned(rows) => rows.len(),
        }
    }

    /// Materialize the morsel; clones only if no stage ever owned the rows
    /// (i.e. a filter-only pipeline over a shared source).
    fn into_rows(self) -> Vec<Row> {
        match self {
            Morsel::Borrowed(refs) => refs.into_iter().cloned().collect(),
            Morsel::Owned(rows) => rows,
        }
    }
}

impl StageSpec {
    pub(super) fn of(node: &PhysPlan) -> StageSpec {
        match node {
            PhysPlan::Filter { predicate, .. } => StageSpec::Filter(predicate.clone()),
            PhysPlan::Project { exprs, .. } => StageSpec::Project(exprs.clone()),
            _ => unreachable!("pipeline stages are Filter/Project only"),
        }
    }

    /// First stage: read from the shared source slice.
    fn apply_slice<'a>(&self, rows: &'a [Row]) -> Result<Morsel<'a>> {
        match self {
            StageSpec::Filter(pred) => {
                let mut out = Vec::new();
                for row in rows {
                    if pred.eval(row)?.as_bool()? == Some(true) {
                        out.push(row);
                    }
                }
                Ok(Morsel::Borrowed(out))
            }
            StageSpec::Project(exprs) => {
                let mut out = Vec::with_capacity(rows.len());
                project_into(rows, exprs, &mut out)?;
                Ok(Morsel::Owned(out))
            }
        }
    }

    /// Later stages: consume the morsel produced by the previous stage.
    fn apply<'a>(&self, morsel: Morsel<'a>) -> Result<Morsel<'a>> {
        match (self, morsel) {
            (StageSpec::Filter(pred), Morsel::Borrowed(refs)) => {
                let mut out = Vec::new();
                for row in refs {
                    if pred.eval(row)?.as_bool()? == Some(true) {
                        out.push(row);
                    }
                }
                Ok(Morsel::Borrowed(out))
            }
            (StageSpec::Filter(pred), Morsel::Owned(rows)) => {
                Ok(Morsel::Owned(filter_owned(rows, pred)?))
            }
            (StageSpec::Project(exprs), Morsel::Borrowed(refs)) => {
                // Column-only projections skip expression dispatch and clone
                // exactly the referenced columns.
                if let Some(cols) = column_only(exprs) {
                    let out = refs
                        .into_iter()
                        .map(|row| cols.iter().map(|&i| row[i].clone()).collect())
                        .collect();
                    return Ok(Morsel::Owned(out));
                }
                let mut out = Vec::with_capacity(refs.len());
                let mut scratch: Vec<Value> = Vec::with_capacity(exprs.len());
                for row in refs {
                    for e in exprs {
                        scratch.push(e.eval(row)?);
                    }
                    out.push(scratch.split_off(0));
                }
                Ok(Morsel::Owned(out))
            }
            (StageSpec::Project(exprs), Morsel::Owned(rows)) => {
                Ok(Morsel::Owned(project_owned(rows, exprs)?))
            }
        }
    }
}

/// The row positions a point / multi-point index lookup selects: those
/// stored under each key tuple. Key tuples are constant expressions
/// (literals once any parameters are bound). Tuples containing NULL are
/// skipped (`col = NULL` and `col IN (..., NULL, ...)` never match), and the
/// positions come back ascending and deduplicated — table order, so the rows
/// they name are exactly the ones a full scan + filter would produce, in the
/// same order. Shared by [`index_scan`] and DML row selection.
pub(crate) fn index_positions(index: &IndexRef, keys: &[Vec<PhysExpr>]) -> Result<Vec<usize>> {
    let mut idxs: Vec<usize> = Vec::new();
    let mut key: Vec<Value> = Vec::new();
    for tuple in keys {
        key.clear();
        for e in tuple {
            key.push(e.eval_const()?);
        }
        if key.iter().any(Value::is_null) {
            continue;
        }
        index.lookup_into(&key, &mut idxs);
    }
    idxs.sort_unstable();
    idxs.dedup();
    Ok(idxs)
}

/// Point / multi-point index lookup: the rows at [`index_positions`].
pub(crate) fn index_scan(
    rows: &Arc<Vec<Row>>,
    index: &IndexRef,
    keys: &[Vec<PhysExpr>],
) -> Result<NodeOut> {
    let idxs = index_positions(index, keys)?;
    Ok(NodeOut::new(
        idxs.iter().map(|&i| rows[i].clone()).collect(),
    ))
}

/// Walk a chain of `Filter`/`Project` nodes down to its source. Returns the
/// stage nodes innermost-first plus the source plan.
pub(super) fn collect_chain(mut plan: &PhysPlan) -> (Vec<&PhysPlan>, &PhysPlan) {
    let mut nodes = Vec::new();
    while let PhysPlan::Filter { input, .. } | PhysPlan::Project { input, .. } = plan {
        nodes.push(plan);
        plan = input;
    }
    nodes.reverse();
    (nodes, plan)
}

/// Execute the Filter/Project chain rooted at `plan`.
///
/// When the source scan carries a columnar chunk slot, the eligible
/// innermost stages run vectorized first ([`super::vector::prefix_run`]);
/// any remaining stages continue on the row machinery below, consuming the
/// prefix output. Stage counters are shared across both halves, so the
/// `EXPLAIN ANALYZE` stats are identical in shape to the pure row path.
pub(crate) fn run_pipeline(plan: &PhysPlan, ctx: &ExecContext) -> Result<NodeOut> {
    let (nodes, source) = collect_chain(plan);
    let n_stages = nodes.len();

    let counters: Arc<Vec<StageCounter>> =
        Arc::new((0..n_stages).map(|_| StageCounter::default()).collect());
    let timed = ctx.stats_enabled();
    let deadline = ctx.deadline();

    let mut children = Vec::new();
    let mut source_count = 0usize;
    let (source_rows, first_row_stage, prefix_parallel) =
        match super::vector::prefix_run(&nodes, source, &counters, ctx)? {
            Some(out) => {
                if timed {
                    children.push(OpStats::leaf(op_label(source), out.source_rows));
                }
                (Arc::new(out.rows), out.stages_done, out.parallel)
            }
            None => {
                let rows = super::run_input(source, ctx, &mut children, &mut source_count)?;
                (rows, 0, false)
            }
        };

    let remaining = &nodes[first_row_stage..];
    let source_len = source_rows.len();
    let mut parallel = prefix_parallel;
    let rows = if remaining.is_empty() {
        super::into_owned(source_rows)
    } else if ctx.should_parallelize(source_rows.len()) {
        parallel = true;
        let specs: Arc<Vec<StageSpec>> =
            Arc::new(remaining.iter().map(|n| StageSpec::of(n)).collect());
        let jobs: Vec<ChunkJob<Result<Vec<Row>>>> = ctx
            .morsels(source_rows.len())
            .into_iter()
            .map(|range| {
                let specs = Arc::clone(&specs);
                let counters = Arc::clone(&counters);
                let source = Arc::clone(&source_rows);
                let job: ChunkJob<Result<Vec<Row>>> = Box::new(move || {
                    run_morsel(
                        &source[range],
                        &specs,
                        &counters[first_row_stage..],
                        timed,
                        deadline,
                    )
                });
                job
            })
            .collect();
        let mut rows = Vec::new();
        for chunk in ctx.run_jobs(jobs) {
            rows.extend(chunk?);
        }
        rows
    } else {
        // Serial path: stage-at-a-time over the whole input, moving rows
        // between stages exactly like the original interpreter. When the
        // source is an intermediate result (sole owner), unwrap the Arc so
        // the first stage moves rows too instead of cloning survivors.
        let specs: Vec<StageSpec> = remaining.iter().map(|n| StageSpec::of(n)).collect();
        if Arc::strong_count(&source_rows) == 1 {
            run_chain_owned(
                super::into_owned(source_rows),
                &specs,
                &counters[first_row_stage..],
                timed,
                deadline,
            )?
        } else {
            run_morsel(
                &source_rows,
                &specs,
                &counters[first_row_stage..],
                timed,
                deadline,
            )?
        }
    };

    // Assemble per-stage stats for every stage but the outermost (which the
    // dispatcher wraps with wall-clock time).
    let workers = if parallel { ctx.parallelism() } else { 1 };
    let morsels = if parallel {
        ctx.morsels(source_len).len()
    } else {
        1
    };
    if ctx.stats_enabled() {
        for (i, node) in nodes.iter().enumerate().take(n_stages - 1) {
            let (rows_in, rows_out, elapsed) = counters[i].snapshot();
            children = vec![OpStats {
                label: op_label(node),
                rows_in,
                rows_out,
                elapsed,
                // Inner fused stages run on the same morsel workers as the
                // outermost stage.
                workers,
                morsels,
                mem_bytes: 0,
                children: std::mem::take(&mut children),
            }];
        }
    }
    let rows_in = counters[n_stages - 1].snapshot().0;
    Ok(NodeOut {
        rows,
        rows_in,
        workers,
        children,
        pruned: None,
    })
}

/// Push one morsel through every stage. The first stage reads the shared
/// slice; later stages consume the previous stage's output in place.
fn run_morsel(
    source: &[Row],
    specs: &[StageSpec],
    counters: &[StageCounter],
    timed: bool,
    deadline: Option<Instant>,
) -> Result<Vec<Row>> {
    let mut cur: Option<Morsel> = None;
    for (spec, counter) in specs.iter().zip(counters) {
        super::context::check_deadline(deadline)?;
        let started = timed.then(Instant::now);
        let (rows_in, out) = match cur.take() {
            None => (source.len(), spec.apply_slice(source)?),
            Some(morsel) => (morsel.len(), spec.apply(morsel)?),
        };
        let nanos = started.map_or(0, |t| t.elapsed().as_nanos() as u64);
        counter.add(rows_in, out.len(), nanos);
        cur = Some(out);
    }
    Ok(cur.expect("pipeline has at least one stage").into_rows())
}

/// Serial variant of [`run_morsel`] that owns its input outright, so every
/// stage (including the first) moves rows instead of cloning them.
fn run_chain_owned(
    rows: Vec<Row>,
    specs: &[StageSpec],
    counters: &[StageCounter],
    timed: bool,
    deadline: Option<Instant>,
) -> Result<Vec<Row>> {
    let mut cur = rows;
    for (spec, counter) in specs.iter().zip(counters) {
        super::context::check_deadline(deadline)?;
        let started = timed.then(Instant::now);
        let rows_in = cur.len();
        cur = match spec.apply(Morsel::Owned(cur))? {
            Morsel::Owned(rows) => rows,
            Morsel::Borrowed(_) => unreachable!("owned morsels stay owned"),
        };
        let nanos = started.map_or(0, |t| t.elapsed().as_nanos() as u64);
        counter.add(rows_in, cur.len(), nanos);
    }
    Ok(cur)
}

/// Filter owned rows, moving survivors (the original serial behaviour).
pub(crate) fn filter_owned(rows: Vec<Row>, predicate: &PhysExpr) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    for row in rows {
        if predicate.eval(&row)?.as_bool()? == Some(true) {
            out.push(row);
        }
    }
    Ok(out)
}

/// Project a shared slice into `out`.
///
/// Pure-column projections skip expression evaluation entirely; general
/// expression lists are evaluated through one reused scratch buffer instead
/// of allocating a fresh working `Vec` per row.
pub(crate) fn project_into(rows: &[Row], exprs: &[PhysExpr], out: &mut Vec<Row>) -> Result<()> {
    out.reserve(rows.len());
    if let Some(cols) = column_only(exprs) {
        for row in rows {
            out.push(cols.iter().map(|&i| row[i].clone()).collect());
        }
        return Ok(());
    }
    let mut scratch: Vec<Value> = Vec::with_capacity(exprs.len());
    for row in rows {
        for e in exprs {
            scratch.push(e.eval(row)?);
        }
        out.push(scratch.split_off(0));
    }
    Ok(())
}

/// Project owned rows without cloning pass-through columns: non-column
/// expressions are evaluated first against the intact row, then each
/// bare-column output slot takes its value by *move* on that column's last
/// reference (earlier duplicate references clone). `SELECT` lists that only
/// reorder or narrow columns — including the planner's hidden-sort-column
/// strip — clone no values at all.
pub(crate) fn project_owned(rows: Vec<Row>, exprs: &[PhysExpr]) -> Result<Vec<Row>> {
    let col_slots: Vec<Option<usize>> = exprs
        .iter()
        .map(|e| match e {
            PhysExpr::Column(i) => Some(*i),
            _ => None,
        })
        .collect();
    let movable: Vec<bool> = col_slots
        .iter()
        .enumerate()
        .map(|(j, c)| c.is_some() && !col_slots[j + 1..].contains(c))
        .collect();
    let mut out = Vec::with_capacity(rows.len());
    let mut scratch: Vec<Value> = Vec::with_capacity(exprs.len());
    for mut row in rows {
        for (j, e) in exprs.iter().enumerate() {
            scratch.push(match col_slots[j] {
                Some(_) => Value::Null, // filled by the move pass below
                None => e.eval(&row)?,
            });
        }
        for (j, c) in col_slots.iter().enumerate() {
            if let Some(i) = c {
                scratch[j] = if movable[j] {
                    std::mem::replace(&mut row[*i], Value::Null)
                } else {
                    row[*i].clone()
                };
            }
        }
        out.push(scratch.split_off(0));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    fn keys(tuples: &[&[Value]]) -> Vec<Vec<PhysExpr>> {
        let tuple = |t: &&[Value]| t.iter().cloned().map(PhysExpr::Literal).collect();
        tuples.iter().map(tuple).collect()
    }

    #[test]
    fn positions_are_ascending_distinct_and_skip_null_tuples() {
        // Postings lists are unordered after in-place UPDATE maintenance.
        let map = HashMap::from([
            (vec![Value::Int(1)], vec![7, 2]),
            (vec![Value::Int(2)], vec![5]),
            (vec![Value::Null], vec![0]),
        ]);
        let index = IndexRef::Multi(Arc::new(map));
        let probe = keys(&[
            &[Value::Int(2)],
            &[Value::Null],
            &[Value::Float(1.0)],
            &[Value::Int(2)],
            &[Value::Int(9)],
        ]);
        assert_eq!(index_positions(&index, &probe).unwrap(), vec![2, 5, 7]);
        assert_eq!(index_positions(&index, &[]).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn a_composite_tuple_with_a_null_component_matches_nothing() {
        let map = HashMap::from([
            (vec![Value::Int(1), Value::Null], 3),
            (vec![Value::Int(1), Value::text("a")], 1),
        ]);
        let index = IndexRef::Unique(Arc::new(map));
        let probe = keys(&[
            &[Value::Int(1), Value::Null],
            &[Value::Int(1), Value::text("a")],
        ]);
        assert_eq!(index_positions(&index, &probe).unwrap(), vec![1]);
    }

    #[test]
    fn an_unbound_key_expression_is_an_error() {
        let index = IndexRef::Unique(Arc::new(HashMap::new()));
        assert!(index_positions(&index, &[vec![PhysExpr::Param(1)]]).is_err());
    }
}
