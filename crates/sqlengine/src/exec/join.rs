//! Join operators: hash join, sort-merge join, nested-loop join, and index
//! nested-loop join.
//!
//! Every join collects one side and streams the other. The hash join builds
//! its table on the side the planner chose ([`PhysPlan::join_sides`]: the
//! left input of an INNER join estimated at no more than half the right,
//! the right input otherwise) and streams the other through the probe: each
//! probe row's matches are joined, in scope order, in one reused buffer and
//! handed on, so the joined rows are never held. One table is hashed from
//! the build side serially: a table split by partition would cost every
//! probe row a second hash, and the probe side is the larger.
//!
//! Every join builds its rows with [`join_into`] and [`null_fill`], which
//! copy only the columns the plan reads above the join (its `out`, set by
//! [`crate::plan::narrow_joins`]) once the residual has seen the whole row.
//!
//! The probe, the nested loop's outer side and the index nested loop are
//! steps of the pipeline their streamed input runs in: the other side runs
//! first, when the pipeline is prepared.
//!
//! A probe never allocates per row: the key is borrowed in place (one bare
//! column) or built in one reused scratch vector, and a matched row is built
//! in one reused buffer. When the probe child is a bare base-table scan with
//! a columnar image, an INNER join on one bare column against a small build
//! side goes further and filters whole chunks by the build side's key set
//! ([`super::vector::key_filter`]) before touching any row: all chunks up
//! front, once the table is built, and the rows it kept ([`Candidates`])
//! are the source of the probe's pipeline.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::ast::JoinKind;
use crate::column::{ChunkedTable, CHUNK_ROWS};
use crate::error::{EngineError, Result};
use crate::expr::PhysExpr;
use crate::plan::{IndexRef, JoinInput, PhysPlan};
use crate::value::{Row, Value, ValueHash};

use super::context::{approx_row_bytes, check_deadline, ChargeBuf, Ticker};
use super::vector::{key_filter, KeySet};
use super::{key_of, ExecContext, Held, NodeOut, Sink};

/// The chunk key filter runs only when the probe side holds at least this
/// many rows per distinct build key: a key set nearly as large as the table
/// it filters cannot prune enough to pay for building it (and for the
/// table's columnar image, if nothing else has).
const KEY_FILTER_SELECTIVITY: usize = 8;

/// A build table: key → build-row indexes, ascending.
type KeyTable = HashMap<Vec<Value>, Vec<usize>, ValueHash>;

/// Join `left ++ right` in `joined`, which keeps its capacity from row to
/// row, and say whether it passes `residual`, which reads the whole joined
/// row. A row that passes holds the columns `out` lists ([`PhysPlan`]'s
/// join `out`), or all of them: without a residual only those are copied.
fn join_into(
    joined: &mut Vec<Value>,
    (left, right): (&[Value], &[Value]),
    residual: &Option<PhysExpr>,
    out: Option<&[usize]>,
) -> Result<bool> {
    joined.clear();
    if let (Some(out), None) = (out, residual) {
        joined.extend(out.iter().map(|&at| match at.checked_sub(left.len()) {
            None => left[at].clone(),
            Some(at) => right[at].clone(),
        }));
        return Ok(true);
    }
    joined.extend_from_slice(left);
    joined.extend_from_slice(right);
    if let Some(residual) = residual {
        if residual.eval(joined)?.as_bool()? != Some(true) {
            return Ok(false);
        }
    }
    if let Some(out) = out {
        // `out` ascends, so each column moves down onto a slot already read.
        for (to, &from) in out.iter().enumerate() {
            joined.swap(to, from);
        }
        joined.truncate(out.len());
    }
    Ok(true)
}

/// `row` followed by `width` NULLs — the LEFT JOIN row of an unmatched outer
/// row — narrowed to `out`.
fn null_fill(joined: &mut Vec<Value>, row: &[Value], width: usize, out: Option<&[usize]>) {
    joined.clear();
    match out {
        Some(out) => joined.extend(
            out.iter()
                .map(|&at| row.get(at).cloned().unwrap_or(Value::Null)),
        ),
        None => {
            joined.extend_from_slice(row);
            joined.extend(std::iter::repeat_n(Value::Null, width));
        }
    }
}

/// Everything a hash-join probe needs besides the probe rows themselves;
/// shared by every run of the probe.
pub(super) struct Probe {
    /// The probe side's key expressions.
    keys: Vec<PhysExpr>,
    table: KeyTable,
    build_rows: Held,
    /// The build rows are the left input: a joined row is `build ++ probe`.
    build_left: bool,
    kind: JoinKind,
    /// The NULL fill of a LEFT JOIN, which always builds on the right.
    right_width: usize,
    residual: Option<PhysExpr>,
    out: Option<Vec<usize>>,
    deadline: Option<Instant>,
    /// Probe rows that found no build key, over every run.
    pruned: AtomicUsize,
}

/// One probe run's working state.
#[derive(Default)]
pub(super) struct ProbeScratch {
    key: Vec<Value>,
    joined: Vec<Value>,
    ticker: Ticker,
    pruned: usize,
    /// This run's own copy of the build rows, if it has one.
    build: Option<Held>,
}

impl ProbeScratch {
    /// A run that reads `build` (an own copy of the build rows) instead of
    /// the rows the table was built from.
    pub(super) fn over(build: Option<Held>) -> ProbeScratch {
        ProbeScratch {
            build,
            ..ProbeScratch::default()
        }
    }
}

impl Probe {
    /// Probe rows that found no build key so far.
    pub(super) fn pruned(&self) -> usize {
        self.pruned.load(Ordering::Relaxed)
    }

    /// The rows the table indexes.
    pub(super) fn build_rows(&self) -> &Held {
        &self.build_rows
    }

    /// Probe with one row of the probe side: hand on its joined rows, each
    /// written in scope order (left input first), or the LEFT JOIN NULL-fill
    /// when none matched.
    pub(super) fn row(
        &self,
        prow: &[Value],
        scratch: &mut ProbeScratch,
        sink: &mut Sink,
    ) -> Result<()> {
        let ProbeScratch {
            key,
            joined,
            ticker,
            pruned,
            build,
        } = scratch;
        let build_rows = build.as_ref().unwrap_or(&self.build_rows);
        let hit = match key_of(prow, &self.keys, key, false)? {
            Some(key) => self.table.get(key),
            None => None,
        };
        let mut matched = false;
        match hit {
            Some(idxs) => {
                for &bi in idxs {
                    // A popular key fans one probe row out to many.
                    ticker.tick(self.deadline)?;
                    let brow = build_rows.row(bi);
                    let sides = match self.build_left {
                        true => (brow, prow),
                        false => (prow, brow),
                    };
                    if join_into(joined, sides, &self.residual, self.out.as_deref())? {
                        matched = true;
                        sink(joined)?;
                    }
                }
            }
            None => *pruned += 1,
        }
        if !matched && self.kind == JoinKind::Left {
            null_fill(joined, prow, self.right_width, self.out.as_deref());
            sink(joined)?;
        }
        Ok(())
    }

    /// Fold a finished run's count of pruned rows into the total.
    pub(super) fn finish(&self, scratch: ProbeScratch) {
        self.pruned.fetch_add(scratch.pruned, Ordering::Relaxed);
    }
}

/// The rows of a key-filtered probe side a probe must look at: the offsets
/// within its chunk of every row the key filter kept (every row of a chunk
/// it could not decide: a mixed column, keys of another variant), chunk
/// after chunk.
pub(super) struct Candidates {
    rows: Arc<Vec<Row>>,
    offsets: Vec<u32>,
    /// Where each chunk's offsets end.
    chunks: Vec<usize>,
}

impl Candidates {
    /// Run the key filter over every chunk of `chunked`, the columnar image
    /// of `rows`, by the build side's `keys` in column `column`: the
    /// candidates, and how many rows it ruled out.
    fn filter(
        rows: &Arc<Vec<Row>>,
        chunked: &ChunkedTable,
        column: usize,
        keys: &KeySet,
        deadline: Option<Instant>,
    ) -> Result<(Candidates, usize)> {
        let (mut offsets, mut pruned) = (Vec::new(), 0);
        let mut chunks = Vec::with_capacity(chunked.chunk_count());
        for chunk in chunked.chunks() {
            check_deadline(deadline)?;
            let kept = match key_filter(chunk.column(column), keys) {
                Some(selected) => {
                    offsets.extend_from_slice(&selected);
                    selected.len()
                }
                None => {
                    offsets.extend(0..chunk.len() as u32);
                    chunk.len()
                }
            };
            pruned += chunk.len() - kept;
            chunks.push(offsets.len());
        }
        let rows = Arc::clone(rows);
        let candidates = Candidates {
            rows,
            offsets,
            chunks,
        };
        Ok((candidates, pruned))
    }

    /// Rows kept, over every chunk.
    pub(super) fn len(&self) -> usize {
        self.offsets.len()
    }

    pub(super) fn chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Rows in the table the candidates were taken from.
    pub(super) fn scan_rows(&self) -> usize {
        self.rows.len()
    }

    /// Hand on the candidates of chunks `range`, in table order.
    pub(super) fn emit(
        &self,
        range: Range<usize>,
        deadline: Option<Instant>,
        sink: &mut (impl FnMut(&[Value]) -> Result<()> + ?Sized),
    ) -> Result<()> {
        let mut from = range.start.checked_sub(1).map_or(0, |c| self.chunks[c]);
        for ci in range {
            check_deadline(deadline)?;
            let base = ci * CHUNK_ROWS;
            for &offset in &self.offsets[from..self.chunks[ci]] {
                sink(&self.rows[base + offset as usize])?;
            }
            from = self.chunks[ci];
        }
        Ok(())
    }
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

/// A hash join with its table built, ready to stream its probe side.
pub(super) struct BuiltJoin<'a> {
    pub(super) probe: Probe,
    /// The build side is the left input: its stats are listed before the
    /// probe side's.
    pub(super) build_left: bool,
    pub(super) probe_plan: &'a PhysPlan,
    /// The rows of the probe side's table the build side's keys kept, when
    /// they filter its chunk image.
    pub(super) candidates: Option<Candidates>,
}

/// Run a [`PhysPlan::HashJoin`]'s build side, recording it as a child of
/// `node`, and hash it.
pub(super) fn build_hash_join<'a>(
    join: &'a PhysPlan,
    ctx: &ExecContext,
    node: &mut NodeOut,
) -> Result<BuiltJoin<'a>> {
    let PhysPlan::HashJoin {
        kind,
        right_width,
        residual,
        build_left,
        out,
        ..
    } = join
    else {
        unreachable!("build_hash_join builds hash joins");
    };
    let ((build, build_keys), probe_side @ (probe, probe_keys)) =
        join.join_sides().expect("a hash join has two sides");
    let build_rows = super::run_input(build, ctx, node)?;
    let table = hash_build(&build_rows, build_keys, ctx)?;

    let (candidates, pruned) = match probe_side {
        (
            PhysPlan::Scan {
                rows,
                chunks: Some(slot),
                width,
            },
            [PhysExpr::Column(column)],
        ) if keyset_mode(probe_side, *kind) == Some(true)
            && table.len().saturating_mul(KEY_FILTER_SELECTIVITY) <= rows.len() =>
        {
            let chunked = slot.get_or_build(rows, *width);
            let keys = KeySet::of(table.keys());
            let (candidates, pruned) =
                Candidates::filter(rows, &chunked, *column, &keys, ctx.deadline())?;
            (Some(candidates), pruned)
        }
        _ => (None, 0),
    };
    let probe_op = Probe {
        keys: probe_keys.to_vec(),
        table,
        build_rows,
        build_left: *build_left,
        kind: *kind,
        right_width: *right_width,
        residual: residual.clone(),
        out: out.clone(),
        deadline: ctx.deadline(),
        pruned: AtomicUsize::new(pruned),
    };
    Ok(BuiltJoin {
        probe: probe_op,
        build_left: *build_left,
        probe_plan: probe,
        candidates,
    })
}

/// Build the hash table on the build side (the probe runs over the other,
/// in its order; a LEFT JOIN builds on the right, so probing the left gives
/// its NULL fill for free). The table owns one key per distinct key plus
/// one index per row with a non-NULL key, and is pre-sized from the build
/// side's row count.
fn hash_build(build_rows: &Held, build_keys: &[PhysExpr], ctx: &ExecContext) -> Result<KeyTable> {
    let mut table = KeyTable::with_capacity_and_hasher(build_rows.len(), ValueHash::default());
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

#[allow(clippy::too_many_arguments)]
pub(crate) fn sort_merge_join(
    left: &PhysPlan,
    right: &PhysPlan,
    left_keys: &[PhysExpr],
    right_keys: &[PhysExpr],
    kind: JoinKind,
    right_width: usize,
    residual: &Option<PhysExpr>,
    out: Option<&[usize]>,
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
                        let sides = (left_rows.row(l_idx), right_rows.row(r_idx));
                        if join_into(&mut joined, sides, residual, out)? {
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
            null_fill(&mut joined, row, right_width, out);
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
pub(super) struct NestedLoop {
    right_rows: Held,
    kind: JoinKind,
    right_width: usize,
    predicate: Option<PhysExpr>,
    out: Option<Vec<usize>>,
    deadline: Option<Instant>,
}

/// One nested-loop run's working state.
#[derive(Default)]
pub(super) struct LoopScratch {
    joined: Vec<Value>,
    ticker: Ticker,
    /// This run's own copy of the inner rows, if it has one.
    inner: Option<Held>,
}

impl LoopScratch {
    /// A run that reads `inner` (an own copy of the inner rows).
    pub(super) fn over(inner: Option<Held>) -> LoopScratch {
        LoopScratch {
            inner,
            ..LoopScratch::default()
        }
    }
}

impl NestedLoop {
    /// The inner rows every outer row is joined with.
    pub(super) fn inner_rows(&self) -> &Held {
        &self.right_rows
    }

    /// Join one outer row with every inner row — the one operator whose
    /// output is quadratic in its input, so the fan-out ticks the deadline.
    pub(super) fn row(
        &self,
        lrow: &[Value],
        scratch: &mut LoopScratch,
        sink: &mut Sink,
    ) -> Result<()> {
        let LoopScratch {
            joined,
            ticker,
            inner,
        } = scratch;
        let mut matched = false;
        for rrow in inner.as_ref().unwrap_or(&self.right_rows).iter() {
            ticker.tick(self.deadline)?;
            if join_into(joined, (lrow, rrow), &self.predicate, self.out.as_deref())? {
                matched = true;
                sink(joined)?;
            }
        }
        if !matched && self.kind == JoinKind::Left {
            null_fill(joined, lrow, self.right_width, self.out.as_deref());
            sink(joined)?;
        }
        Ok(())
    }
}

/// Run a [`PhysPlan::NestedLoopJoin`]'s inner side, recording it as a child
/// of `node` (listed after the outer side): the operator its outer rows
/// stream through.
pub(super) fn inner_side(
    join: &PhysPlan,
    ctx: &ExecContext,
    node: &mut NodeOut,
) -> Result<NestedLoop> {
    let PhysPlan::NestedLoopJoin {
        right,
        kind,
        right_width,
        predicate,
        out,
        ..
    } = join
    else {
        unreachable!("inner_side runs nested-loop joins");
    };
    let right_rows = super::run_input(right, ctx, node)?;
    Ok(NestedLoop {
        right_rows,
        kind: *kind,
        right_width: *right_width,
        predicate: predicate.clone(),
        out: out.clone(),
        deadline: ctx.deadline(),
    })
}

/// Index-nested-loop join: look each probe row's key tuple up in the inner
/// side's index — the inner table is never scanned.
///
/// Matched inner row indexes are sorted ascending per probe row (secondary
/// index postings lists are unordered after in-place UPDATE maintenance), so
/// with the probe on the left the output ordering matches the hash join
/// exactly. `inner_is_left` flips the column order of the output rows to
/// match the FROM-clause scope when the indexed table was the left item.
pub(super) struct IndexProbe {
    probe_keys: Vec<PhysExpr>,
    inner_rows: Arc<Vec<Row>>,
    index: IndexRef,
    inner_is_left: bool,
    kind: JoinKind,
    inner_width: usize,
    residual: Option<PhysExpr>,
    out: Option<Vec<usize>>,
    deadline: Option<Instant>,
    /// Inner rows looked up, over every run.
    fetched: AtomicUsize,
}

/// One index probe run's working state.
#[derive(Default)]
pub(super) struct IndexScratch {
    idxs: Vec<usize>,
    key: Vec<Value>,
    joined: Vec<Value>,
    ticker: Ticker,
    fetched: usize,
}

impl IndexProbe {
    pub(super) fn of(join: &PhysPlan, ctx: &ExecContext) -> Result<IndexProbe> {
        let PhysPlan::IndexJoin {
            probe_keys,
            inner,
            inner_is_left,
            kind,
            inner_width,
            residual,
            out,
            ..
        } = join
        else {
            unreachable!("an index probe runs an index join");
        };
        let PhysPlan::IndexScan { rows, index, .. } = &**inner else {
            return Err(EngineError::exec(
                "IndexJoin inner side must be an IndexScan",
            ));
        };
        Ok(IndexProbe {
            probe_keys: probe_keys.clone(),
            inner_rows: Arc::clone(rows),
            index: index.clone(),
            inner_is_left: *inner_is_left,
            kind: *kind,
            inner_width: *inner_width,
            residual: residual.clone(),
            out: out.clone(),
            deadline: ctx.deadline(),
            fetched: AtomicUsize::new(0),
        })
    }

    /// Inner rows looked up so far.
    pub(super) fn fetched(&self) -> usize {
        self.fetched.load(Ordering::Relaxed)
    }

    /// Join one probe row with the inner rows its key looks up.
    pub(super) fn row(
        &self,
        prow: &[Value],
        scratch: &mut IndexScratch,
        sink: &mut Sink,
    ) -> Result<()> {
        let IndexScratch {
            idxs,
            key,
            joined,
            ticker,
            fetched,
        } = scratch;
        let mut matched = false;
        if let Some(key) = key_of(prow, &self.probe_keys, key, false)? {
            idxs.clear();
            self.index.lookup_into(key, idxs);
            idxs.sort_unstable();
            *fetched += idxs.len();
            for &ii in idxs.iter() {
                ticker.tick(self.deadline)?;
                let irow = &self.inner_rows[ii];
                let sides = match self.inner_is_left {
                    true => (&irow[..], prow),
                    false => (prow, &irow[..]),
                };
                if join_into(joined, sides, &self.residual, self.out.as_deref())? {
                    matched = true;
                    sink(joined)?;
                }
            }
        }
        if !matched && self.kind == JoinKind::Left {
            // The probe side is the outer side; null-fill the inner columns.
            null_fill(joined, prow, self.inner_width, self.out.as_deref());
            sink(joined)?;
        }
        Ok(())
    }

    /// Fold a finished run's count of looked-up rows into the total.
    pub(super) fn finish(&self, scratch: IndexScratch) {
        self.fetched.fetch_add(scratch.fetched, Ordering::Relaxed);
    }
}
