//! Join operators: hash join (serial and partitioned-parallel), sort-merge
//! join, and nested-loop join.
//!
//! The parallel hash join runs in three phases: (1) morsel-parallel key
//! extraction over the build (right) side, (2) one build job per partition
//! (`hash(key) % P`) assembling that partition's table in original row
//! order, (3) morsel-parallel probe over the left side. Because every probe
//! chunk preserves left order and match lists preserve right order, the
//! concatenated output is identical to the serial join's output.
//!
//! A probe never allocates per row: the key is borrowed in place (one bare
//! column) or built in one reused scratch vector, and a row is cloned only
//! once it has matched. When the probe child is a bare base-table scan with
//! a columnar image, an INNER join on one bare column against a small build
//! side goes further and filters whole chunks by the build side's key set
//! ([`super::vector::key_filter`]) before touching any row.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use crate::ast::JoinKind;
use crate::column::{ChunkedTable, CHUNK_ROWS};
use crate::error::Result;
use crate::expr::PhysExpr;
use crate::plan::PhysPlan;
use crate::value::{Row, Value};

use super::context::{approx_row_bytes, check_deadline, ChargeBuf, ChunkJob, MemoryBudget};
use super::vector::{key_filter, KeySet};
use super::{ExecContext, NodeOut};

/// Loops over rows look at the statement deadline once per this many rows.
const DEADLINE_STRIDE: usize = 1024;

/// The chunk key filter runs only when the probe side holds at least this
/// many rows per distinct build key: a key set nearly as large as the table
/// it filters cannot prune enough to pay for building it (and for the
/// table's columnar image, if nothing else has).
const KEY_FILTER_SELECTIVITY: usize = 8;

/// A build-side row reduced to (key hash, key values, original index).
type KeyedRow = (u64, Vec<Value>, usize);

/// One partition of a build table: key → build-row indexes, ascending.
type KeyTable = HashMap<Vec<Value>, Vec<usize>>;

/// Hash of an equi-join key. `DefaultHasher::new()` is deterministic within
/// a process, so build and probe agree on partition assignment.
fn hash_key(key: &[Value]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// Evaluate join-key expressions for one row; `None` when any key is NULL
/// (NULL never matches an equi-join key).
fn eval_key(row: &[Value], keys: &[PhysExpr]) -> Result<Option<Vec<Value>>> {
    let mut out = Vec::with_capacity(keys.len());
    for k in keys {
        let v = k.eval(row)?;
        if v.is_null() {
            return Ok(None);
        }
        out.push(v);
    }
    Ok(Some(out))
}

/// The probe-side form of [`eval_key`], allocation-free: a single bare
/// column is borrowed from the row itself, anything else is evaluated into
/// `scratch` (whose capacity is reused from row to row).
fn probe_key<'a>(
    row: &'a [Value],
    keys: &[PhysExpr],
    scratch: &'a mut Vec<Value>,
) -> Result<Option<&'a [Value]>> {
    if let [PhysExpr::Column(c)] = keys {
        let v = &row[*c];
        return Ok((!v.is_null()).then(|| std::slice::from_ref(v)));
    }
    scratch.clear();
    for k in keys {
        let v = k.eval(row)?;
        if v.is_null() {
            return Ok(None);
        }
        scratch.push(v);
    }
    Ok(Some(scratch))
}

/// Whether `i` is a row at which a loop should look at the deadline.
fn at_stride(i: usize) -> bool {
    i.is_multiple_of(DEADLINE_STRIDE)
}

/// Everything a hash-join probe needs besides the probe rows themselves;
/// shared by every probe morsel.
struct Probe {
    keys: Vec<PhysExpr>,
    /// One table per partition (`hash(key) % len`); a single one when the
    /// build ran serially.
    tables: Vec<KeyTable>,
    right_rows: Arc<Vec<Row>>,
    kind: JoinKind,
    right_width: usize,
    residual: Option<PhysExpr>,
    deadline: Option<Instant>,
}

/// What one probe morsel produced: the joined rows, and how many probe rows
/// found no build key.
#[derive(Default)]
struct Probed {
    rows: Vec<Row>,
    pruned: usize,
}

impl Probe {
    fn lookup(&self, key: &[Value]) -> Option<&Vec<usize>> {
        match self.tables.as_slice() {
            [only] => only.get(key),
            tables => tables[hash_key(key) as usize % tables.len()].get(key),
        }
    }

    /// Probe with one left row, appending joined rows (and the LEFT JOIN
    /// NULL-fill when unmatched) to `out`.
    fn row(&self, lrow: &Row, scratch: &mut Vec<Value>, out: &mut Probed) -> Result<()> {
        let mut matched = false;
        let hit = match probe_key(lrow, &self.keys, scratch)? {
            Some(key) => self.lookup(key),
            None => None,
        };
        match hit {
            Some(idxs) => {
                for (m, &ri) in idxs.iter().enumerate() {
                    // A popular key fans one probe row out to many.
                    if m > 0 && at_stride(m) {
                        check_deadline(self.deadline)?;
                    }
                    let mut joined = lrow.clone();
                    joined.extend(self.right_rows[ri].iter().cloned());
                    if let Some(r) = &self.residual {
                        if r.eval(&joined)?.as_bool()? != Some(true) {
                            continue;
                        }
                    }
                    matched = true;
                    out.rows.push(joined);
                }
            }
            None => out.pruned += 1,
        }
        if !matched && self.kind == JoinKind::Left {
            let mut joined = lrow.clone();
            joined.extend(std::iter::repeat_n(Value::Null, self.right_width));
            out.rows.push(joined);
        }
        Ok(())
    }

    /// Probe with a run of left rows, in order.
    fn rows(&self, rows: &[Row], out: &mut Probed) -> Result<()> {
        let mut scratch = Vec::with_capacity(self.keys.len());
        for (i, lrow) in rows.iter().enumerate() {
            if at_stride(i) {
                check_deadline(self.deadline)?;
            }
            self.row(lrow, &mut scratch, out)?;
        }
        Ok(())
    }

    /// Probe with one morsel of the left side: a run of rows, or a run of
    /// chunks when the key filter applies — it picks each chunk's candidate
    /// offsets from the typed key column, and only those rows are probed and
    /// joined. A chunk the filter cannot decide (mixed column, keys of
    /// another variant) is probed row by row.
    fn morsel(&self, left: &ProbeSide, range: Range<usize>) -> Result<Probed> {
        let mut out = Probed::default();
        match left {
            ProbeSide::Rows(rows) => self.rows(&rows[range], &mut out)?,
            ProbeSide::Chunks {
                rows,
                chunked,
                column,
                keys,
            } => {
                let mut scratch = Vec::new();
                for ci in range {
                    check_deadline(self.deadline)?;
                    let chunk = &chunked.chunks()[ci];
                    let base = ci * CHUNK_ROWS;
                    match key_filter(chunk.column(*column), keys) {
                        Some(selected) => {
                            out.pruned += chunk.len() - selected.len();
                            for offset in selected {
                                self.row(&rows[base + offset as usize], &mut scratch, &mut out)?;
                            }
                        }
                        None => self.rows(&rows[base..base + chunk.len()], &mut out)?,
                    }
                }
            }
        }
        Ok(out)
    }
}

/// The probe (left) input of a hash join as the executor runs it.
enum ProbeSide {
    /// Any child's output, probed row by row.
    Rows(Arc<Vec<Row>>),
    /// A bare base-table scan with a columnar image, joined INNER on the one
    /// bare column `column`: chunks are filtered by the build side's keys.
    Chunks {
        rows: Arc<Vec<Row>>,
        chunked: Arc<ChunkedTable>,
        column: usize,
        keys: KeySet,
    },
}

impl ProbeSide {
    /// Units of work to split into morsels: rows, or chunks.
    fn len(&self) -> usize {
        match self {
            ProbeSide::Rows(rows) => rows.len(),
            ProbeSide::Chunks { chunked, .. } => chunked.chunk_count(),
        }
    }
}

/// How the probe side of a hash join will run, from what the operator can
/// observe: `Some(true)` = key filter over chunks, `Some(false)` = row by
/// row straight off a base-table scan with bare-column keys, `None` = row
/// by row over some other child. The one statement of that rule — `EXPLAIN`
/// labels, the mode counters and the executor all read it.
pub(crate) fn keyset_mode(left: &PhysPlan, left_keys: &[PhysExpr], kind: JoinKind) -> Option<bool> {
    let PhysPlan::Scan { chunks, .. } = left else {
        return None;
    };
    if !left_keys.iter().all(|k| matches!(k, PhysExpr::Column(_))) {
        return None;
    }
    Some(chunks.is_some() && left_keys.len() == 1 && kind == JoinKind::Inner)
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn hash_join(
    left: &PhysPlan,
    right: &PhysPlan,
    left_keys: &[PhysExpr],
    right_keys: &[PhysExpr],
    kind: JoinKind,
    right_width: usize,
    residual: &Option<PhysExpr>,
    ctx: &ExecContext,
) -> Result<NodeOut> {
    let mut children = Vec::new();
    let mut rows_in = 0usize;
    let left_rows = super::run_input(left, ctx, &mut children, &mut rows_in)?;
    let right_rows = super::run_input(right, ctx, &mut children, &mut rows_in)?;

    let parallel = ctx.should_parallelize(left_rows.len().max(right_rows.len()));
    let tables = if parallel {
        parallel_build(&right_rows, right_keys, ctx)?
    } else {
        vec![serial_build(&right_rows, right_keys, ctx)?]
    };
    let distinct_keys: usize = tables.iter().map(KeyTable::len).sum();
    let selective = distinct_keys.saturating_mul(KEY_FILTER_SELECTIVITY) <= left_rows.len();
    let left_side = match (left, left_keys) {
        (
            PhysPlan::Scan {
                chunks: Some(slot),
                width,
                ..
            },
            [PhysExpr::Column(column)],
        ) if selective && keyset_mode(left, left_keys, kind) == Some(true) => ProbeSide::Chunks {
            chunked: slot.get_or_build(&left_rows, *width),
            rows: left_rows,
            column: *column,
            keys: KeySet::of(tables.iter().flat_map(|t| t.keys())),
        },
        _ => ProbeSide::Rows(left_rows),
    };
    let probe = Probe {
        keys: left_keys.to_vec(),
        tables,
        right_rows,
        kind,
        right_width,
        residual: residual.clone(),
        deadline: ctx.deadline(),
    };

    // Probe in left order; parallel morsels concatenate in submission order,
    // so the output matches the serial join's.
    let Probed { rows, pruned } = if parallel {
        let (probe, left_side) = (Arc::new(probe), Arc::new(left_side));
        let jobs = ctx
            .morsels(left_side.len())
            .into_iter()
            .map(|range| {
                let (probe, left_side) = (Arc::clone(&probe), Arc::clone(&left_side));
                let job: ChunkJob<Result<Probed>> =
                    Box::new(move || probe.morsel(&left_side, range));
                job
            })
            .collect();
        let mut all = Probed::default();
        for part in ctx.run_jobs(jobs) {
            let part = part?;
            all.rows.extend(part.rows);
            all.pruned += part.pruned;
        }
        all
    } else {
        probe.morsel(&left_side, 0..left_side.len())?
    };
    ctx.count_probe_rows_pruned(pruned);
    Ok(NodeOut {
        rows,
        rows_in,
        workers: if parallel { ctx.parallelism() } else { 1 },
        children,
        pruned: Some(pruned),
    })
}

/// Build the hash table on the right side (the probe runs over the left,
/// which preserves left order and gives LEFT JOIN for free). The table is
/// pre-sized from the build side's row count.
fn serial_build(
    right_rows: &[Row],
    right_keys: &[PhysExpr],
    ctx: &ExecContext,
) -> Result<KeyTable> {
    let mut table = KeyTable::with_capacity(right_rows.len());
    let mut charge = ChargeBuf::new(ctx.budget());
    for (i, row) in right_rows.iter().enumerate() {
        if at_stride(i) {
            ctx.check_timeout()?;
        }
        if let Some(key) = eval_key(row, right_keys)? {
            // The build table owns the key values plus one index per row.
            charge.add(approx_row_bytes(&key) + std::mem::size_of::<usize>() as u64)?;
            table.entry(key).or_default().push(i);
        }
    }
    charge.flush()?;
    Ok(table)
}

/// Phases 1 and 2 of the parallel hash join: one table per partition.
fn parallel_build(
    right_rows: &Arc<Vec<Row>>,
    right_keys: &[PhysExpr],
    ctx: &ExecContext,
) -> Result<Vec<KeyTable>> {
    let partitions = ctx.parallelism();
    let deadline = ctx.deadline();

    // Phase 1: morsel-parallel key extraction over the build side. The
    // extracted keyed rows are what the per-partition build tables own, so
    // charging the statement budget here covers the parallel build too.
    let right_keys_arc: Arc<Vec<PhysExpr>> = Arc::new(right_keys.to_vec());
    let extract_jobs: Vec<ChunkJob<Result<Vec<KeyedRow>>>> = ctx
        .morsels(right_rows.len())
        .into_iter()
        .map(|range| {
            let rows = Arc::clone(right_rows);
            let keys = Arc::clone(&right_keys_arc);
            let budget = Arc::clone(ctx.budget());
            let job: ChunkJob<Result<Vec<KeyedRow>>> = Box::new(move || {
                let mut out = Vec::with_capacity(range.len());
                let mut charge = ChargeBuf::new(&budget);
                for i in range {
                    if at_stride(i) {
                        check_deadline(deadline)?;
                    }
                    if let Some(key) = eval_key(&rows[i], &keys)? {
                        charge.add(approx_row_bytes(&key) + 16)?;
                        out.push((hash_key(&key), key, i));
                    }
                }
                charge.flush()?;
                Ok(out)
            });
            job
        })
        .collect();
    let mut keyed: Vec<Vec<KeyedRow>> = Vec::new();
    for chunk in ctx.run_jobs(extract_jobs) {
        keyed.push(chunk?);
    }
    let keyed = Arc::new(keyed);
    let keyed_total: usize = keyed.iter().map(Vec::len).sum();

    // Phase 2: one build job per partition. Chunks are walked in order, so
    // each partition's match lists hold right indices in ascending order.
    let build_jobs: Vec<ChunkJob<Result<KeyTable>>> = (0..partitions)
        .map(|p| {
            let keyed = Arc::clone(&keyed);
            let cap = keyed_total / partitions + 1;
            let job: ChunkJob<Result<KeyTable>> = Box::new(move || {
                let mut table = KeyTable::with_capacity(cap);
                for chunk in keyed.iter() {
                    check_deadline(deadline)?;
                    for (h, key, i) in chunk {
                        if *h as usize % partitions == p {
                            table.entry(key.clone()).or_default().push(*i);
                        }
                    }
                }
                Ok(table)
            });
            job
        })
        .collect();
    ctx.run_jobs(build_jobs).into_iter().collect()
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn sort_merge_join(
    left: &PhysPlan,
    right: &PhysPlan,
    left_keys: &[PhysExpr],
    right_keys: &[PhysExpr],
    kind: JoinKind,
    right_width: usize,
    residual: &Option<PhysExpr>,
    ctx: &ExecContext,
) -> Result<NodeOut> {
    let mut children = Vec::new();
    let mut rows_in = 0usize;
    let left_rows = super::run_input(left, ctx, &mut children, &mut rows_in)?;
    let right_rows = super::run_input(right, ctx, &mut children, &mut rows_in)?;

    // Materialize (key, index) pairs and sort both sides. NULL keys never
    // match and are dropped from the merge (LEFT JOIN keeps their rows).
    // This operator emulates an engine without hash joins (profile C), so it
    // stays serial by design.
    let keyed = |rows: &[Row], keys: &[PhysExpr]| -> Result<Vec<(Vec<Value>, usize)>> {
        let mut out = Vec::with_capacity(rows.len());
        let mut charge = ChargeBuf::new(ctx.budget());
        for (i, row) in rows.iter().enumerate() {
            if at_stride(i) {
                ctx.check_timeout()?;
            }
            if let Some(k) = eval_key(row, keys)? {
                charge.add(approx_row_bytes(&k) + 8)?;
                out.push((k, i));
            }
        }
        charge.flush()?;
        out.sort_by(|(a, _), (b, _)| cmp_keys(a, b));
        Ok(out)
    };
    let lk = keyed(&left_rows, left_keys)?;
    let rk = keyed(&right_rows, right_keys)?;

    let mut matched_left = vec![false; left_rows.len()];
    let mut out = Vec::new();
    let (mut li, mut ri) = (0usize, 0usize);
    while li < lk.len() && ri < rk.len() {
        match cmp_keys(&lk[li].0, &rk[ri].0) {
            std::cmp::Ordering::Less => li += 1,
            std::cmp::Ordering::Greater => ri += 1,
            std::cmp::Ordering::Equal => {
                // Extent of the equal run on each side.
                let lstart = li;
                while li < lk.len() && cmp_keys(&lk[li].0, &rk[ri].0).is_eq() {
                    li += 1;
                }
                let rstart = ri;
                while ri < rk.len() && cmp_keys(&lk[lstart].0, &rk[ri].0).is_eq() {
                    ri += 1;
                }
                for &(_, l_idx) in &lk[lstart..li] {
                    // One equal run can be quadratic in its length.
                    ctx.check_timeout()?;
                    for &(_, r_idx) in &rk[rstart..ri] {
                        let mut joined = left_rows[l_idx].clone();
                        joined.extend(right_rows[r_idx].iter().cloned());
                        if let Some(r) = residual {
                            if r.eval(&joined)?.as_bool()? != Some(true) {
                                continue;
                            }
                        }
                        matched_left[l_idx] = true;
                        out.push(joined);
                    }
                }
            }
        }
    }
    if kind == JoinKind::Left {
        for (i, row) in left_rows.iter().enumerate() {
            if !matched_left[i] {
                let mut joined = row.clone();
                joined.extend(std::iter::repeat_n(Value::Null, right_width));
                out.push(joined);
            }
        }
    }
    Ok(NodeOut {
        rows: out,
        rows_in,
        workers: 1,
        children,
        pruned: None,
    })
}

fn cmp_keys(a: &[Value], b: &[Value]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b) {
        let ord = x.total_cmp(y);
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

pub(crate) fn nested_loop_join(
    left: &PhysPlan,
    right: &PhysPlan,
    kind: JoinKind,
    right_width: usize,
    predicate: &Option<PhysExpr>,
    ctx: &ExecContext,
) -> Result<NodeOut> {
    let mut children = Vec::new();
    let mut rows_in = 0usize;
    let left_rows = super::run_input(left, ctx, &mut children, &mut rows_in)?;
    let right_rows = super::run_input(right, ctx, &mut children, &mut rows_in)?;

    let deadline = ctx.deadline();
    let parallel = ctx.should_parallelize(left_rows.len());
    let rows = if parallel {
        let predicate_arc: Arc<Option<PhysExpr>> = Arc::new(predicate.clone());
        let jobs: Vec<ChunkJob<Result<Vec<Row>>>> = ctx
            .morsels(left_rows.len())
            .into_iter()
            .map(|range| {
                let left = Arc::clone(&left_rows);
                let right = Arc::clone(&right_rows);
                let predicate = Arc::clone(&predicate_arc);
                let budget = Arc::clone(ctx.budget());
                let job: ChunkJob<Result<Vec<Row>>> = Box::new(move || {
                    nested_loop_chunk(
                        &left[range],
                        &right,
                        kind,
                        right_width,
                        &predicate,
                        deadline,
                        &budget,
                    )
                });
                job
            })
            .collect();
        let mut out = Vec::new();
        for chunk in ctx.run_jobs(jobs) {
            out.extend(chunk?);
        }
        out
    } else {
        nested_loop_chunk(
            &left_rows,
            &right_rows,
            kind,
            right_width,
            predicate,
            deadline,
            ctx.budget(),
        )?
    };
    Ok(NodeOut {
        rows,
        rows_in,
        workers: if parallel { ctx.parallelism() } else { 1 },
        children,
        pruned: None,
    })
}

fn nested_loop_chunk(
    left_rows: &[Row],
    right_rows: &[Row],
    kind: JoinKind,
    right_width: usize,
    predicate: &Option<PhysExpr>,
    deadline: Option<std::time::Instant>,
    budget: &MemoryBudget,
) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    let mut charge = ChargeBuf::new(budget);
    for lrow in left_rows {
        // The one operator whose output is quadratic in its input: check the
        // deadline per outer row so an unconstrained cross join cannot run
        // unbounded.
        check_deadline(deadline)?;
        let mut matched = false;
        for rrow in right_rows {
            let mut joined = lrow.clone();
            joined.extend(rrow.iter().cloned());
            let keep = match predicate {
                None => true,
                Some(p) => p.eval(&joined)?.as_bool()? == Some(true),
            };
            if keep {
                matched = true;
                // The one operator whose *output* is quadratic in its input:
                // charge every materialized row, so an unconstrained cross
                // join aborts on budget instead of OOMing.
                charge.add_row(&joined)?;
                out.push(joined);
            }
        }
        if !matched && kind == JoinKind::Left {
            let mut joined = lrow.clone();
            joined.extend(std::iter::repeat_n(Value::Null, right_width));
            charge.add_row(&joined)?;
            out.push(joined);
        }
    }
    charge.flush()?;
    Ok(out)
}

/// Index-nested-loop join: run the probe side, then look each probe row's key
/// tuple up in the inner side's index — the inner table is never scanned.
///
/// Matched inner row indexes are sorted ascending per probe row (secondary
/// index postings lists are unordered after in-place UPDATE maintenance), so
/// with the probe on the left the output ordering matches the serial hash
/// join exactly. `inner_is_left` flips the column order of the output rows to
/// match the FROM-clause scope when the indexed table was the left item.
#[allow(clippy::too_many_arguments)]
pub(crate) fn index_join(
    probe: &PhysPlan,
    probe_keys: &[PhysExpr],
    inner: &PhysPlan,
    inner_is_left: bool,
    kind: JoinKind,
    inner_width: usize,
    residual: &Option<PhysExpr>,
    ctx: &ExecContext,
) -> Result<NodeOut> {
    let PhysPlan::IndexScan {
        rows: inner_rows,
        index,
        ..
    } = inner
    else {
        return Err(crate::error::EngineError::exec(
            "IndexJoin inner side must be an IndexScan",
        ));
    };
    let mut children = Vec::new();
    let mut rows_in = 0usize;
    let probe_rows = super::run_input(probe, ctx, &mut children, &mut rows_in)?;

    let mut out = Vec::new();
    let mut idxs: Vec<usize> = Vec::new();
    let mut scratch: Vec<Value> = Vec::new();
    let mut fetched = 0usize;
    for (i, prow) in probe_rows.iter().enumerate() {
        if at_stride(i) {
            ctx.check_timeout()?;
        }
        let mut matched = false;
        if let Some(key) = probe_key(prow, probe_keys, &mut scratch)? {
            idxs.clear();
            index.lookup_into(key, &mut idxs);
            idxs.sort_unstable();
            fetched += idxs.len();
            for &ii in &idxs {
                let irow = &inner_rows[ii];
                let joined: Row = if inner_is_left {
                    irow.iter().chain(prow.iter()).cloned().collect()
                } else {
                    prow.iter().chain(irow.iter()).cloned().collect()
                };
                if let Some(r) = residual {
                    if r.eval(&joined)?.as_bool()? != Some(true) {
                        continue;
                    }
                }
                matched = true;
                out.push(joined);
            }
        }
        if !matched && kind == JoinKind::Left {
            // The probe side is the outer side; null-fill the inner columns.
            let mut joined = prow.clone();
            joined.extend(std::iter::repeat_n(Value::Null, inner_width));
            out.push(joined);
        }
    }
    if ctx.stats_enabled() {
        children.push(super::OpStats::leaf(
            crate::explain::op_label(inner),
            fetched,
        ));
    }
    Ok(NodeOut {
        rows: out,
        rows_in,
        workers: 1,
        children,
        pruned: None,
    })
}
