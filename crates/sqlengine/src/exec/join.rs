//! Join operators: hash join (serial and partitioned-parallel), sort-merge
//! join, nested-loop join, and index nested-loop join.
//!
//! Every join collects one side and streams the other. The hash join builds
//! its table on the side the planner chose ([`PhysPlan::join_sides`]: the
//! left input of an INNER join estimated at no more than half the right,
//! the right input otherwise) and streams the other through the probe: each
//! probe row's matches are joined, in scope order, in one reused buffer and
//! handed on, so the joined rows are never held. The parallel build runs in
//! two phases: (1) morsel-parallel key extraction over the build side, (2)
//! one build job per partition (`hash(key) % P`) assembling that
//! partition's table in original row order; the probe then runs over
//! morsels of the probe side. Because every probe morsel preserves probe
//! order and match lists preserve build order, the output is identical to
//! the pushed probe's.
//!
//! A probe never allocates per row: the key is borrowed in place (one bare
//! column) or built in one reused scratch vector, and a matched row is built
//! in one reused buffer. When the probe child is a bare base-table scan with
//! a columnar image, an INNER join on one bare column against a small build
//! side goes further and filters whole chunks by the build side's key set
//! ([`super::vector::key_filter`]) before touching any row.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::ast::JoinKind;
use crate::column::{ChunkedTable, CHUNK_ROWS};
use crate::error::Result;
use crate::explain::op_label;
use crate::expr::PhysExpr;
use crate::plan::{JoinInput, PhysPlan};
use crate::value::{Row, Value};

use super::context::{approx_row_bytes, check_deadline, ChargeBuf, ChunkJob, Ticker};
use super::vector::{key_filter, KeySet};
use super::{key_of, ExecContext, Held, NodeOut, OpStats, RowOp, Sink};

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

/// `left ++ right` in `joined`, which keeps its capacity from row to row.
fn join_into(joined: &mut Vec<Value>, left: &[Value], right: &[Value]) {
    joined.clear();
    joined.extend_from_slice(left);
    joined.extend_from_slice(right);
}

/// `row` followed by `width` NULLs: the LEFT JOIN row of an unmatched outer
/// row.
fn null_fill(joined: &mut Vec<Value>, row: &[Value], width: usize) {
    joined.clear();
    joined.extend_from_slice(row);
    joined.extend(std::iter::repeat_n(Value::Null, width));
}

/// Whether a joined row passes the join's residual predicate.
fn keeps(residual: &Option<PhysExpr>, joined: &[Value]) -> Result<bool> {
    match residual {
        None => Ok(true),
        Some(r) => Ok(r.eval(joined)?.as_bool()? == Some(true)),
    }
}

/// Everything a hash-join probe needs besides the probe rows themselves;
/// shared by every probe morsel.
struct Probe {
    /// The probe side's key expressions.
    keys: Vec<PhysExpr>,
    /// One table per partition (`hash(key) % len`); a single one when the
    /// build ran serially.
    tables: Vec<KeyTable>,
    build_rows: Held,
    /// The build rows are the left input: a joined row is `build ++ probe`.
    build_left: bool,
    kind: JoinKind,
    /// The NULL fill of a LEFT JOIN, which always builds on the right.
    right_width: usize,
    residual: Option<PhysExpr>,
    deadline: Option<Instant>,
    /// Probe rows that found no build key, over every run.
    pruned: AtomicUsize,
}

/// One probe run's working state.
#[derive(Default)]
struct ProbeScratch {
    key: Vec<Value>,
    joined: Vec<Value>,
    ticker: Ticker,
    pruned: usize,
}

impl Probe {
    fn lookup(&self, key: &[Value]) -> Option<&Vec<usize>> {
        match self.tables.as_slice() {
            [only] => only.get(key),
            tables => tables[hash_key(key) as usize % tables.len()].get(key),
        }
    }

    /// Probe a run of chunks of the probe side's columnar image: the key
    /// filter picks each chunk's candidate offsets from the typed key
    /// column, and only those rows are probed. A chunk the filter cannot
    /// decide (mixed column, keys of another variant) is probed row by row.
    fn chunks(&self, side: &ChunkSide, range: Range<usize>, sink: &mut Sink) -> Result<()> {
        let mut scratch = ProbeScratch::default();
        for ci in range {
            check_deadline(self.deadline)?;
            let chunk = &side.chunked.chunks()[ci];
            let base = ci * CHUNK_ROWS;
            match key_filter(chunk.column(side.column), &side.keys) {
                Some(selected) => {
                    scratch.pruned += chunk.len() - selected.len();
                    for offset in selected {
                        self.row(&side.rows[base + offset as usize], &mut scratch, sink)?;
                    }
                }
                None => {
                    for row in &side.rows[base..base + chunk.len()] {
                        self.row(row, &mut scratch, sink)?;
                    }
                }
            }
        }
        self.finish(scratch);
        Ok(())
    }
}

impl RowOp for Probe {
    type Scratch = ProbeScratch;

    /// Probe with one row of the probe side: hand on its joined rows, each
    /// written in scope order (left input first), or the LEFT JOIN NULL-fill
    /// when none matched.
    fn row(&self, prow: &[Value], scratch: &mut ProbeScratch, sink: &mut Sink) -> Result<()> {
        let ProbeScratch {
            key,
            joined,
            ticker,
            pruned,
        } = scratch;
        let hit = match key_of(prow, &self.keys, key, false)? {
            Some(key) => self.lookup(key),
            None => None,
        };
        let mut matched = false;
        match hit {
            Some(idxs) => {
                for &bi in idxs {
                    // A popular key fans one probe row out to many.
                    ticker.tick(self.deadline)?;
                    let brow = self.build_rows.row(bi);
                    if self.build_left {
                        join_into(joined, brow, prow);
                    } else {
                        join_into(joined, prow, brow);
                    }
                    if keeps(&self.residual, joined)? {
                        matched = true;
                        sink(joined)?;
                    }
                }
            }
            None => *pruned += 1,
        }
        if !matched && self.kind == JoinKind::Left {
            null_fill(joined, prow, self.right_width);
            sink(joined)?;
        }
        Ok(())
    }

    fn finish(&self, scratch: ProbeScratch) {
        self.pruned.fetch_add(scratch.pruned, Ordering::Relaxed);
    }
}

/// The probe side of a hash join over a bare base-table scan with a
/// columnar image, joined INNER on the one bare column `column`: chunks are
/// filtered by the build side's keys.
struct ChunkSide {
    rows: Arc<Vec<Row>>,
    chunked: Arc<ChunkedTable>,
    column: usize,
    keys: KeySet,
}

/// How the probe side of a hash join will run, from what the operator can
/// observe of the input it probes ([`PhysPlan::join_sides`]): `Some(true)` =
/// key filter over chunks, `Some(false)` = row by row straight off a
/// base-table scan with bare-column keys, `None` = row by row over some
/// other child. The one statement of that rule — `EXPLAIN` labels, the mode
/// counters and the executor all read it.
pub(crate) fn keyset_mode((probe, keys): JoinInput, kind: JoinKind) -> Option<bool> {
    let PhysPlan::Scan { chunks, .. } = probe else {
        return None;
    };
    if !keys.iter().all(|k| matches!(k, PhysExpr::Column(_))) {
        return None;
    }
    Some(chunks.is_some() && keys.len() == 1 && kind == JoinKind::Inner)
}

/// Run a [`PhysPlan::HashJoin`] with [`crate::plan::JoinAlgo::Hash`]:
/// collect the build input into a hash table, then stream the probe input
/// through it.
pub(crate) fn hash_join(join: &PhysPlan, ctx: &ExecContext, sink: &mut Sink) -> Result<NodeOut> {
    let PhysPlan::HashJoin {
        kind,
        right_width,
        residual,
        build_left,
        ..
    } = join
    else {
        unreachable!("hash_join runs hash joins");
    };
    let ((build, build_keys), probe_side @ (probe, probe_keys)) =
        join.join_sides().expect("a hash join has two sides");
    // The build side runs first. Its stats are listed in plan order: before
    // the probe's when it is the left input, after them when the right.
    let mut build_node = NodeOut::new();
    let build_rows = super::run_input(build, ctx, &mut build_node)?;
    let tables = if ctx.should_parallelize(build_rows.len()) {
        build_node.workers = ctx.parallelism();
        parallel_build(&build_rows, build_keys, ctx)?
    } else {
        vec![serial_build(&build_rows, build_keys, ctx)?]
    };

    let chunk_side = match probe_side {
        (
            PhysPlan::Scan {
                rows,
                chunks: Some(slot),
                width,
            },
            [PhysExpr::Column(column)],
        ) if keyset_mode(probe_side, *kind) == Some(true) => {
            let distinct_keys: usize = tables.iter().map(KeyTable::len).sum();
            (distinct_keys.saturating_mul(KEY_FILTER_SELECTIVITY) <= rows.len()).then(|| {
                ChunkSide {
                    chunked: slot.get_or_build(rows, *width),
                    rows: Arc::clone(rows),
                    column: *column,
                    keys: KeySet::of(tables.iter().flat_map(|t| t.keys())),
                }
            })
        }
        _ => None,
    };
    let op = Arc::new(Probe {
        keys: probe_keys.to_vec(),
        tables,
        build_rows,
        build_left: *build_left,
        kind: *kind,
        right_width: *right_width,
        residual: residual.clone(),
        deadline: ctx.deadline(),
        pruned: AtomicUsize::new(0),
    });

    // Probe in probe-side order; parallel morsels are handed on in
    // submission order, so the output matches the pushed probe's.
    let mut node = NodeOut::new();
    match chunk_side {
        Some(side) => {
            let rows = side.rows.len();
            node.rows_in += rows;
            if ctx.stats_enabled() {
                node.children.push(OpStats::leaf(op_label(probe), rows));
            }
            let (units, parallel) = (side.chunked.chunk_count(), ctx.should_parallelize(rows));
            let run = {
                let op = Arc::clone(&op);
                move |range, sink: &mut Sink| op.chunks(&side, range, sink)
            };
            super::morsels(ctx, units, parallel, &mut node, run, sink)?;
        }
        None => super::stream(&op, probe, ctx, &mut node, sink)?,
    }
    if *build_left {
        build_node.absorb(node);
        node = build_node;
    } else {
        node.absorb(build_node);
    }
    let pruned = op.pruned.load(Ordering::Relaxed);
    ctx.count_probe_rows_pruned(pruned);
    node.pruned = Some(pruned);
    Ok(node)
}

/// Build the hash table on the build side (the probe runs over the other,
/// in its order; a LEFT JOIN builds on the right, so probing the left gives
/// its NULL fill for free). The table owns one key per distinct key plus
/// one index per row with a non-NULL key, and is pre-sized from the build
/// side's row count.
fn serial_build(build_rows: &Held, build_keys: &[PhysExpr], ctx: &ExecContext) -> Result<KeyTable> {
    let mut table = KeyTable::with_capacity(build_rows.len());
    let mut charge = ChargeBuf::new(ctx.budget());
    let (mut scratch, mut ticker, mut inserted) = (Vec::new(), Ticker::default(), 0);
    for (i, row) in build_rows.iter().enumerate() {
        ticker.tick(ctx.deadline())?;
        let Some(key) = key_of(row, build_keys, &mut scratch, false)? else {
            continue;
        };
        charge.add(std::mem::size_of::<usize>() as u64)?;
        inserted += 1;
        match table.get_mut(key) {
            Some(idxs) => idxs.push(i),
            None => {
                charge.add(approx_row_bytes(key))?;
                table.insert(key.to_vec(), vec![i]);
            }
        }
    }
    charge.flush()?;
    ctx.count_join_build_rows(inserted);
    Ok(table)
}

/// Phases 1 and 2 of the parallel hash join: one table per partition.
fn parallel_build(
    build_rows: &Held,
    build_keys: &[PhysExpr],
    ctx: &ExecContext,
) -> Result<Vec<KeyTable>> {
    let partitions = ctx.parallelism();
    let deadline = ctx.deadline();

    // Phase 1: morsel-parallel key extraction over the build side. The
    // extracted keyed rows are what the per-partition build tables own, so
    // charging the statement budget here covers the parallel build too.
    let build_keys: Arc<Vec<PhysExpr>> = Arc::new(build_keys.to_vec());
    let extract_jobs: Vec<ChunkJob<Result<Vec<KeyedRow>>>> = ctx
        .morsels(build_rows.len())
        .into_iter()
        .map(|range| {
            let rows = build_rows.clone();
            let keys = Arc::clone(&build_keys);
            let budget = Arc::clone(ctx.budget());
            let job: ChunkJob<Result<Vec<KeyedRow>>> = Box::new(move || {
                let mut out = Vec::with_capacity(range.len());
                let mut charge = ChargeBuf::new(&budget);
                let (mut scratch, mut ticker) = (Vec::new(), Ticker::default());
                for i in range {
                    ticker.tick(deadline)?;
                    if let Some(key) = key_of(rows.row(i), &keys, &mut scratch, false)? {
                        charge.add(approx_row_bytes(key) + 16)?;
                        out.push((hash_key(key), key.to_vec(), i));
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
    ctx.count_join_build_rows(keyed_total);

    // Phase 2: one build job per partition. Chunks are walked in order, so
    // each partition's match lists hold build indices in ascending order.
    let build_jobs: Vec<ChunkJob<Result<KeyTable>>> = (0..partitions)
        .map(|p| {
            let keyed = Arc::clone(&keyed);
            let cap = keyed_total / partitions + 1;
            let job: ChunkJob<Result<KeyTable>> = Box::new(move || {
                let mut table = KeyTable::with_capacity(cap);
                for chunk in keyed.iter() {
                    check_deadline(deadline)?;
                    for (h, key, i) in chunk {
                        if *h as usize % partitions != p {
                            continue;
                        }
                        match table.get_mut(key) {
                            Some(idxs) => idxs.push(*i),
                            None => {
                                table.insert(key.clone(), vec![*i]);
                            }
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
    sink: &mut Sink,
) -> Result<NodeOut> {
    let mut node = NodeOut::new();
    let left_rows = super::run_input(left, ctx, &mut node)?;
    let right_rows = super::run_input(right, ctx, &mut node)?;

    // Materialize (key, index) pairs and sort both sides. NULL keys never
    // match and are dropped from the merge (LEFT JOIN keeps their rows).
    // This operator emulates an engine without hash joins (profile C), so it
    // stays serial by design.
    let deadline = ctx.deadline();
    let keyed = |rows: &Held, keys: &[PhysExpr]| -> Result<Vec<(Vec<Value>, usize)>> {
        let mut out = Vec::with_capacity(rows.len());
        let mut charge = ChargeBuf::new(ctx.budget());
        let (mut scratch, mut ticker) = (Vec::new(), Ticker::default());
        for (i, row) in rows.iter().enumerate() {
            ticker.tick(deadline)?;
            if let Some(k) = key_of(row, keys, &mut scratch, false)? {
                charge.add(approx_row_bytes(k) + 8)?;
                out.push((k.to_vec(), i));
            }
        }
        charge.flush()?;
        out.sort_by(|(a, _), (b, _)| cmp_keys(a, b));
        Ok(out)
    };
    let lk = keyed(&left_rows, left_keys)?;
    let rk = keyed(&right_rows, right_keys)?;

    let mut matched_left = vec![false; left_rows.len()];
    let (mut joined, mut ticker) = (Vec::new(), Ticker::default());
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
                // One equal run can be quadratic in its length.
                for &(_, l_idx) in &lk[lstart..li] {
                    for &(_, r_idx) in &rk[rstart..ri] {
                        ticker.tick(deadline)?;
                        join_into(&mut joined, left_rows.row(l_idx), right_rows.row(r_idx));
                        if keeps(residual, &joined)? {
                            matched_left[l_idx] = true;
                            sink(&joined)?;
                        }
                    }
                }
            }
        }
    }
    if kind == JoinKind::Left {
        for (row, _) in left_rows.iter().zip(&matched_left).filter(|(_, m)| !**m) {
            null_fill(&mut joined, row, right_width);
            sink(&joined)?;
        }
    }
    Ok(node)
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

/// The inner side of a nested-loop join and what each outer row is joined
/// with it under.
struct NestedLoop {
    right_rows: Held,
    kind: JoinKind,
    right_width: usize,
    predicate: Option<PhysExpr>,
    deadline: Option<Instant>,
}

impl RowOp for NestedLoop {
    type Scratch = (Vec<Value>, Ticker);

    /// Join one outer row with every inner row — the one operator whose
    /// output is quadratic in its input, so the fan-out ticks the deadline.
    fn row(&self, lrow: &[Value], scratch: &mut Self::Scratch, sink: &mut Sink) -> Result<()> {
        let (joined, ticker) = scratch;
        let mut matched = false;
        for rrow in self.right_rows.iter() {
            ticker.tick(self.deadline)?;
            join_into(joined, lrow, rrow);
            if keeps(&self.predicate, joined)? {
                matched = true;
                sink(joined)?;
            }
        }
        if !matched && self.kind == JoinKind::Left {
            null_fill(joined, lrow, self.right_width);
            sink(joined)?;
        }
        Ok(())
    }
}

pub(crate) fn nested_loop_join(
    left: &PhysPlan,
    right: &PhysPlan,
    kind: JoinKind,
    right_width: usize,
    predicate: &Option<PhysExpr>,
    ctx: &ExecContext,
    sink: &mut Sink,
) -> Result<NodeOut> {
    // The inner side runs first; its stats are listed after the outer's.
    let mut inner = NodeOut::new();
    let right_rows = super::run_input(right, ctx, &mut inner)?;
    let op = Arc::new(NestedLoop {
        right_rows,
        kind,
        right_width,
        predicate: predicate.clone(),
        deadline: ctx.deadline(),
    });
    let mut node = NodeOut::new();
    super::stream(&op, left, ctx, &mut node, sink)?;
    node.absorb(inner);
    Ok(node)
}

/// Index-nested-loop join: stream the probe side, then look each probe
/// row's key tuple up in the inner side's index — the inner table is never
/// scanned.
///
/// Matched inner row indexes are sorted ascending per probe row (secondary
/// index postings lists are unordered after in-place UPDATE maintenance), so
/// with the probe on the left the output ordering matches the hash join
/// exactly. `inner_is_left` flips the column order of the output rows to
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
    sink: &mut Sink,
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
    let deadline = ctx.deadline();
    let (mut idxs, mut key_buf, mut joined) = (Vec::new(), Vec::new(), Vec::new());
    let (mut ticker, mut fetched) = (Ticker::default(), 0usize);
    let probe_stats = super::push(probe, ctx, &mut |prow| {
        let mut matched = false;
        if let Some(key) = key_of(prow, probe_keys, &mut key_buf, false)? {
            idxs.clear();
            index.lookup_into(key, &mut idxs);
            idxs.sort_unstable();
            fetched += idxs.len();
            for &ii in &idxs {
                ticker.tick(deadline)?;
                let irow = &inner_rows[ii];
                if inner_is_left {
                    join_into(&mut joined, irow, prow);
                } else {
                    join_into(&mut joined, prow, irow);
                }
                if keeps(residual, &joined)? {
                    matched = true;
                    sink(&joined)?;
                }
            }
        }
        if !matched && kind == JoinKind::Left {
            // The probe side is the outer side; null-fill the inner columns.
            null_fill(&mut joined, prow, inner_width);
            sink(&joined)?;
        }
        Ok(())
    })?;
    let mut node = NodeOut::new();
    node.child(probe_stats);
    if ctx.stats_enabled() {
        node.children.push(OpStats::leaf(op_label(inner), fetched));
    }
    Ok(node)
}
