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
//! first, when the pipeline is prepared. What each evaluates is lowered once
//! per plan (`ProbeSpec`, `LoopSpec`, `IndexSpec`); a hash table, an inner
//! side and the counts of pruned and looked-up rows are a run's.
//!
//! A probe never allocates per row: the key is borrowed in place (one bare
//! column) or built in one reused scratch vector, and a matched row is built
//! in one reused buffer. When the probe child is a bare base-table scan that
//! may read its table's derived indexes, an INNER join on one bare column
//! against a small build side goes further: it looks each distinct build key
//! up in a derived index of the probed column ([`KeyIndex`], built on first
//! use from the rows the run bound, in the derived-index slot bound with
//! them), so rows the join would discard are never touched, and the rows it
//! found ([`Candidates`]), in table order, are the source of the probe's
//! pipeline.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::ast::JoinKind;
use crate::catalog::KeyIndex;
use crate::error::Result;
use crate::expr::PhysExpr;
use crate::plan::{JoinAlgo, PhysPlan};
use crate::value::{Row, Value, ValueHash};

use super::context::{approx_row_bytes, check_deadline, ChargeBuf, Ticker, MORSEL_ROWS};
use super::program::{Bound, Input};
use super::{key_of, ExecContext, Held, NodeOut, Run, Sink};

/// The key filter runs only when the probe side holds at least this many
/// rows per distinct build key: with nearly as many keys as rows, looking
/// every key up finds about every row, and saves nothing over probing them
/// (and over building the column's derived index, if nothing else has).
/// Decided at run time on the build side's real distinct keys, which no
/// plan-time estimate knows.
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

/// What a hash-join probe evaluates, lowered once per plan; the table it
/// probes is a run's ([`Built`]).
#[derive(Clone)]
pub(super) struct ProbeSpec {
    /// The probe side's key expressions.
    keys: Vec<PhysExpr>,
    build_keys: Vec<PhysExpr>,
    /// The build rows are the left input: a joined row is `build ++ probe`.
    pub(super) build_left: bool,
    kind: JoinKind,
    /// The NULL fill of a LEFT JOIN, which always builds on the right.
    right_width: usize,
    residual: Option<PhysExpr>,
    out: Option<Vec<usize>>,
    /// The table slot of the probed scan and the probed column, when the
    /// join finds its probe rows by the build keys ([`node_mode`] says
    /// `Some(true)`).
    filter: Option<(usize, usize)>,
}

/// A probe's table, built by one run from its build side.
pub(super) struct Built {
    table: KeyTable,
    rows: Held,
    /// Probe rows that found no build key, over every morsel.
    pruned: AtomicUsize,
}

/// One probe run's working state.
#[derive(Default)]
pub(super) struct ProbeScratch {
    key: Vec<Value>,
    joined: Vec<Value>,
    ticker: Ticker,
    deadline: Option<Instant>,
    pruned: usize,
    /// This run's own copy of the build rows, if it has one.
    build: Option<Held>,
}

impl ProbeScratch {
    /// A run that reads `build` (an own copy of the build rows) instead of
    /// the rows the table was built from.
    pub(super) fn over(build: Option<Held>, deadline: Option<Instant>) -> ProbeScratch {
        ProbeScratch {
            build,
            deadline,
            ..ProbeScratch::default()
        }
    }
}

impl Built {
    /// Probe rows that found no build key so far.
    pub(super) fn pruned(&self) -> usize {
        self.pruned.load(Ordering::Relaxed)
    }

    /// The rows the table indexes.
    pub(super) fn build_rows(&self) -> &Held {
        &self.rows
    }
}

impl ProbeSpec {
    /// The join's probe; `slot` gives the table slot of a scan it
    /// key-filters.
    pub(super) fn of(join: &PhysPlan, slot: impl FnOnce(&str) -> usize) -> ProbeSpec {
        let PhysPlan::HashJoin {
            kind,
            right_width,
            residual,
            build_left,
            out,
            ..
        } = join
        else {
            unreachable!("a probe lowers a hash join");
        };
        let ((_, build_keys), (probe, probe_keys)) =
            join.join_sides().expect("a hash join has two sides");
        let filter = match (probe, probe_keys) {
            (PhysPlan::Scan { table, .. }, [PhysExpr::Column(column)])
                if node_mode(join) == Some(true) =>
            {
                Some((slot(table), *column))
            }
            _ => None,
        };
        ProbeSpec {
            keys: probe_keys.to_vec(),
            build_keys: build_keys.to_vec(),
            build_left: *build_left,
            kind: *kind,
            right_width: *right_width,
            residual: residual.clone(),
            out: out.clone(),
            filter,
        }
    }

    pub(super) fn for_each_expr_mut(&mut self, f: &mut impl FnMut(&mut PhysExpr)) {
        let keys = self.keys.iter_mut().chain(&mut self.build_keys);
        keys.chain(&mut self.residual).for_each(f);
    }

    /// Hash `rows`, the build side, and — when the probe side is a scan the
    /// join key-filters and few enough distinct keys were built — look them
    /// up in the probed column's derived index: the probe side's rows to
    /// stream instead of the whole scan.
    pub(super) fn build(&self, rows: Held, run: &Run) -> Result<(Built, Option<Candidates>)> {
        let ctx = run.ctx;
        let table = hash_build(&rows, &self.build_keys, ctx)?;
        let filtered = self.filter.map(|(slot, column)| (run.table(slot), column));
        let candidates = match filtered {
            Some((
                Bound {
                    rows: scan,
                    derived: Some(derived),
                    ..
                },
                column,
            )) if table.len().saturating_mul(KEY_FILTER_SELECTIVITY) <= scan.len()
                && table.keys().all(|key| exact_key(key)) =>
            {
                let index = derived.get_or_build(scan, column);
                debug_assert_eq!(index.rows(), scan.len(), "bound with the rows it indexes");
                check_deadline(ctx.deadline())?;
                Some(Candidates::lookup(scan, &index, table.keys()))
            }
            _ => None,
        };
        let pruned = candidates.as_ref().map_or(0, |c| c.scan_rows() - c.len());
        let built = Built {
            table,
            rows,
            pruned: AtomicUsize::new(pruned),
        };
        Ok((built, candidates))
    }

    /// Probe `built` with one row of the probe side: hand on its joined
    /// rows, each written in scope order (left input first), or the LEFT
    /// JOIN NULL-fill when none matched.
    pub(super) fn row(
        &self,
        built: &Built,
        prow: &[Value],
        scratch: &mut ProbeScratch,
        sink: &mut Sink,
    ) -> Result<()> {
        let ProbeScratch {
            key,
            joined,
            ticker,
            deadline,
            pruned,
            build,
        } = scratch;
        let build_rows = build.as_ref().unwrap_or(&built.rows);
        let hit = match key_of(prow, &self.keys, key, false)? {
            Some(key) => built.table.get(key),
            None => None,
        };
        let mut matched = false;
        match hit {
            Some(idxs) => {
                for &bi in idxs {
                    // A popular key fans one probe row out to many.
                    ticker.tick(*deadline)?;
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
}

/// Fold a finished probe run's count of pruned rows into `built`'s total.
pub(super) fn probed(built: &Built, scratch: ProbeScratch) {
    built.pruned.fetch_add(scratch.pruned, Ordering::Relaxed);
}

/// The rows of a key-filtered probe side a probe must look at: the
/// positions of the rows whose key the build side holds, ascending, grouped
/// by the morsel of [`MORSEL_ROWS`] table rows they fall in.
pub(super) struct Candidates {
    rows: Arc<Vec<Row>>,
    positions: Vec<u32>,
    /// Where each morsel's positions end.
    morsels: Vec<usize>,
}

impl Candidates {
    /// Look each of the build side's `keys` up in `index`, the derived index
    /// of `rows`' probed column.
    fn lookup<'k>(
        rows: &Arc<Vec<Row>>,
        index: &KeyIndex,
        keys: impl Iterator<Item = &'k Vec<Value>>,
    ) -> Candidates {
        let mut positions = Vec::new();
        for key in keys {
            positions.extend_from_slice(index.get(&key[0]));
        }
        positions.sort_unstable();
        let mut morsels = Vec::with_capacity(rows.len().div_ceil(MORSEL_ROWS));
        let mut end = 0;
        for m in 1..=rows.len().div_ceil(MORSEL_ROWS) {
            end += positions[end..].partition_point(|&at| (at as usize) < m * MORSEL_ROWS);
            morsels.push(end);
        }
        Candidates {
            rows: Arc::clone(rows),
            positions,
            morsels,
        }
    }

    /// Rows found, over every morsel.
    pub(super) fn len(&self) -> usize {
        self.positions.len()
    }

    /// Morsels of the table the candidates were taken from.
    pub(super) fn morsels(&self) -> usize {
        self.morsels.len()
    }

    /// Rows in the table the candidates were taken from.
    pub(super) fn scan_rows(&self) -> usize {
        self.rows.len()
    }

    /// Hand on the candidates of morsels `range`, in table order.
    pub(super) fn emit(
        &self,
        range: Range<usize>,
        deadline: Option<Instant>,
        sink: &mut (impl FnMut(&[Value]) -> Result<()> + ?Sized),
    ) -> Result<()> {
        let at = |m: Option<usize>| m.map_or(0, |m| self.morsels[m]);
        let (from, to) = (at(range.start.checked_sub(1)), at(range.end.checked_sub(1)));
        let mut ticker = Ticker::default();
        for &position in &self.positions[from..to] {
            ticker.tick(deadline)?;
            sink(&self.rows[position as usize])?;
        }
        Ok(())
    }
}

/// Whether the derived index finds every row equal to `key`. Numbers
/// compare as `f64`, so from 2^53 on one key can equal indexed values that
/// differ from each other, of which a lookup finds one.
fn exact_key(key: &[Value]) -> bool {
    const EXACT: f64 = (1u64 << 53) as f64;
    match key {
        [Value::Int(i)] => i.unsigned_abs() < 1 << 53,
        [Value::Float(f)] => f.abs() < EXACT,
        _ => true,
    }
}

/// How a hash join reads the input it probes ([`PhysPlan::join_sides`]),
/// from what the operator can observe of it: `Some(true)` = through the
/// probed column's derived index, `Some(false)` = row by row straight off a
/// base-table scan with bare-column keys, `None` = any other operator, or a
/// hash join over some other child. The one statement of that rule —
/// `EXPLAIN` labels, the probe counters and the executor all read it.
pub(crate) fn node_mode(plan: &PhysPlan) -> Option<bool> {
    let PhysPlan::HashJoin {
        kind,
        algo: JoinAlgo::Hash,
        ..
    } = plan
    else {
        return None;
    };
    let (PhysPlan::Scan { derived, .. }, keys) = plan.join_sides()?.1 else {
        return None;
    };
    if !keys.iter().all(|k| matches!(k, PhysExpr::Column(_))) {
        return None;
    }
    Some(*derived && keys.len() == 1 && *kind == JoinKind::Inner)
}

/// ` probe=keyset(index)` / ` probe=keyset(row)`: the label suffix of a hash
/// join saying how it reads the base table it probes; empty for every other
/// node.
pub(crate) fn mode_suffix(plan: &PhysPlan) -> &'static str {
    match node_mode(plan) {
        Some(true) => " probe=keyset(index)",
        Some(false) => " probe=keyset(row)",
        None => "",
    }
}

/// Recover the probe mode from a rendered `EXPLAIN` label (the inverse of
/// [`mode_suffix`]): the tracer derives operator spans from `OpStats`
/// trees, which carry only the label, and attaches the mode as a typed
/// span attribute instead of label text.
pub(crate) fn mode_of_label(label: &str) -> Option<&'static str> {
    if label.contains(" probe=keyset(index)") {
        Some("index")
    } else if label.contains(" probe=keyset(row)") {
        Some("row")
    } else {
        None
    }
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

/// What a sort-merge join evaluates, lowered once per plan.
#[derive(Clone)]
pub(super) struct MergeSpec {
    left_keys: Vec<PhysExpr>,
    right_keys: Vec<PhysExpr>,
    kind: JoinKind,
    right_width: usize,
    residual: Option<PhysExpr>,
    out: Option<Vec<usize>>,
}

impl MergeSpec {
    pub(super) fn of(join: &PhysPlan) -> MergeSpec {
        let PhysPlan::HashJoin {
            left_keys,
            right_keys,
            kind,
            right_width,
            residual,
            out,
            ..
        } = join
        else {
            unreachable!("a sort-merge join lowers a HashJoin");
        };
        MergeSpec {
            left_keys: left_keys.clone(),
            right_keys: right_keys.clone(),
            kind: *kind,
            right_width: *right_width,
            residual: residual.clone(),
            out: out.clone(),
        }
    }

    pub(super) fn for_each_expr_mut(&mut self, f: &mut impl FnMut(&mut PhysExpr)) {
        let keys = self.left_keys.iter_mut().chain(&mut self.right_keys);
        keys.chain(&mut self.residual).for_each(f);
    }
}

pub(super) fn sort_merge_join(
    run: &Run,
    (left, right): (&Input, &Input),
    spec: &MergeSpec,
    sink: &mut Sink,
) -> Result<NodeOut> {
    let MergeSpec {
        left_keys,
        right_keys,
        kind,
        right_width,
        residual,
        out,
    } = spec;
    let (ctx, out, kind, right_width) = (run.ctx, out.as_deref(), *kind, *right_width);
    let mut node = NodeOut::new();
    let left_rows = super::run_input(run, left, &mut node)?;
    let right_rows = super::run_input(run, right, &mut node)?;

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

/// What a nested-loop join evaluates, lowered once per plan; its inner
/// rows are a run's.
#[derive(Clone)]
pub(super) struct LoopSpec {
    kind: JoinKind,
    right_width: usize,
    predicate: Option<PhysExpr>,
    out: Option<Vec<usize>>,
}

/// One nested-loop run's working state.
#[derive(Default)]
pub(super) struct LoopScratch {
    joined: Vec<Value>,
    ticker: Ticker,
    deadline: Option<Instant>,
    /// This run's own copy of the inner rows, if it has one.
    inner: Option<Held>,
}

impl LoopScratch {
    /// A run that reads `inner` (an own copy of the inner rows).
    pub(super) fn over(inner: Option<Held>, deadline: Option<Instant>) -> LoopScratch {
        LoopScratch {
            inner,
            deadline,
            ..LoopScratch::default()
        }
    }
}

impl LoopSpec {
    pub(super) fn of(join: &PhysPlan) -> LoopSpec {
        let PhysPlan::NestedLoopJoin {
            kind,
            right_width,
            predicate,
            out,
            ..
        } = join
        else {
            unreachable!("a nested loop lowers a NestedLoopJoin");
        };
        LoopSpec {
            kind: *kind,
            right_width: *right_width,
            predicate: predicate.clone(),
            out: out.clone(),
        }
    }

    pub(super) fn for_each_expr_mut(&mut self, f: &mut impl FnMut(&mut PhysExpr)) {
        self.predicate.iter_mut().for_each(f);
    }

    /// Join one outer row with every inner row — the one operator whose
    /// output is quadratic in its input, so the fan-out ticks the deadline.
    pub(super) fn row(
        &self,
        inner_rows: &Held,
        lrow: &[Value],
        scratch: &mut LoopScratch,
        sink: &mut Sink,
    ) -> Result<()> {
        let LoopScratch {
            joined,
            ticker,
            deadline,
            inner,
        } = scratch;
        let mut matched = false;
        for rrow in inner.as_ref().unwrap_or(inner_rows).iter() {
            ticker.tick(*deadline)?;
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

/// Index-nested-loop join: look each probe row's key tuple up in the inner
/// side's index — the inner table is never scanned.
///
/// Matched inner row indexes are sorted ascending per probe row (secondary
/// index postings lists are unordered after in-place UPDATE maintenance), so
/// with the probe on the left the output ordering matches the hash join
/// exactly. `inner_is_left` flips the column order of the output rows to
/// match the FROM-clause scope when the indexed table was the left item.
#[derive(Clone)]
pub(super) struct IndexSpec {
    probe_keys: Vec<PhysExpr>,
    /// The table slot of the inner side, bound with its index.
    pub(super) inner: usize,
    inner_is_left: bool,
    kind: JoinKind,
    inner_width: usize,
    residual: Option<PhysExpr>,
    out: Option<Vec<usize>>,
}

/// One index probe run's working state.
#[derive(Default)]
pub(super) struct IndexScratch {
    idxs: Vec<usize>,
    key: Vec<Value>,
    joined: Vec<Value>,
    ticker: Ticker,
    deadline: Option<Instant>,
    fetched: usize,
}

impl IndexScratch {
    pub(super) fn new(deadline: Option<Instant>) -> IndexScratch {
        IndexScratch {
            deadline,
            ..IndexScratch::default()
        }
    }
}

impl IndexSpec {
    /// The join's spec, or the error it raises when its inner side is no
    /// index scan; `slot` gives the table slot of its table and index.
    pub(super) fn of(
        join: &PhysPlan,
        slot: impl FnOnce(&str, &str) -> usize,
    ) -> std::result::Result<IndexSpec, &'static str> {
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
            unreachable!("an index probe lowers an index join");
        };
        let PhysPlan::IndexScan {
            table, index_name, ..
        } = &**inner
        else {
            return Err("IndexJoin inner side must be an IndexScan");
        };
        Ok(IndexSpec {
            probe_keys: probe_keys.clone(),
            inner: slot(table, index_name),
            inner_is_left: *inner_is_left,
            kind: *kind,
            inner_width: *inner_width,
            residual: residual.clone(),
            out: out.clone(),
        })
    }

    pub(super) fn for_each_expr_mut(&mut self, f: &mut impl FnMut(&mut PhysExpr)) {
        self.probe_keys
            .iter_mut()
            .chain(&mut self.residual)
            .for_each(f);
    }

    /// Join one probe row with the rows of `inner`, the inner side's bound
    /// table, its key looks up.
    pub(super) fn row(
        &self,
        inner: &Bound,
        prow: &[Value],
        scratch: &mut IndexScratch,
        sink: &mut Sink,
    ) -> Result<()> {
        let IndexScratch {
            idxs,
            key,
            joined,
            ticker,
            deadline,
            fetched,
        } = scratch;
        let mut matched = false;
        if let Some(key) = key_of(prow, &self.probe_keys, key, false)? {
            idxs.clear();
            let index = inner
                .index
                .as_ref()
                .expect("the inner slot binds its index");
            index.lookup_into(key, idxs);
            idxs.sort_unstable();
            *fetched += idxs.len();
            for &ii in idxs.iter() {
                ticker.tick(*deadline)?;
                let irow = &inner.rows[ii];
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
}

/// Fold a finished index probe run's count of looked-up rows into `total`.
pub(super) fn fetched(total: &AtomicUsize, scratch: IndexScratch) {
    total.fetch_add(scratch.fetched, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::DerivedIndexes;

    /// The positions of `rows` a full scan finds: a non-NULL value in
    /// `column` equal to one of `keys`, ascending.
    fn scanned(rows: &[Row], column: usize, keys: &[Vec<Value>]) -> Vec<u32> {
        (0..rows.len() as u32)
            .filter(|&at| {
                let value = &rows[at as usize][column];
                keys.iter().any(|key| value.sql_eq(&key[0]) == Some(true))
            })
            .collect()
    }

    /// Candidates of `keys` over `rows`' `column`, as positions and as the
    /// rows they hand on.
    fn found(rows: &Arc<Vec<Row>>, column: usize, keys: &[Vec<Value>]) -> Vec<u32> {
        let index = DerivedIndexes::default().get_or_build(rows, column);
        let candidates = Candidates::lookup(rows, &index, keys.iter());
        let mut emitted = Vec::new();
        let morsels = candidates.morsels();
        candidates
            .emit(0..morsels, None, &mut |row| {
                emitted.push(row.to_vec());
                Ok(())
            })
            .unwrap();
        let at = &candidates.positions;
        let want: Vec<Row> = at.iter().map(|&p| rows[p as usize].clone()).collect();
        assert_eq!(emitted, want, "candidates hand on the rows they found");
        assert_eq!(candidates.scan_rows(), rows.len());
        at.clone()
    }

    fn check(rows: Vec<Row>, column: usize, keys: &[Value]) {
        let rows = Arc::new(rows);
        let keys: Vec<Vec<Value>> = keys.iter().map(|k| vec![k.clone()]).collect();
        let want = scanned(&rows, column, &keys);
        assert!(!want.is_empty(), "a key must match");
        assert_eq!(found(&rows, column, &keys), want);
    }

    #[test]
    fn derived_index_finds_int_keys_in_table_order() {
        // Past two morsels, so positions are grouped across boundaries.
        let rows: Vec<Row> = (0..9_000)
            .map(|i| vec![Value::Int(i % 97), Value::Int(i)])
            .collect();
        check(rows, 0, &[Value::Int(5), Value::Int(96), Value::Int(1_000)]);
    }

    #[test]
    fn derived_index_finds_int_keys_among_float_values() {
        // `Int(2)` and `Float(2.0)` are one join key, whichever variant the
        // table stores first.
        let rows: Vec<Row> = (0..300)
            .map(|i| match i % 3 {
                0 => vec![Value::Float((i % 7) as f64)],
                1 => vec![Value::Int(i % 7)],
                _ => vec![Value::Float(i as f64 + 0.5)],
            })
            .collect();
        check(rows.clone(), 0, &[Value::Int(2), Value::Int(6)]);
        check(rows, 0, &[Value::Float(3.0), Value::Float(10.5)]);
    }

    #[test]
    fn derived_index_finds_text_keys_and_no_numbers() {
        let rows: Vec<Row> = (0..500)
            .map(|i| match i % 4 {
                0 => vec![Value::Int(1)],
                _ => vec![Value::text(format!("t{}", i % 11))],
            })
            .collect();
        check(rows.clone(), 0, &[Value::text("t3"), Value::text("t1")]);
        // A string never equals a number.
        let rows = Arc::new(rows);
        assert!(found(&rows, 0, &[vec![Value::text("1")]]).is_empty());
    }

    #[test]
    fn derived_index_never_holds_null() {
        let rows: Vec<Row> = (0..200)
            .map(|i| match i % 5 {
                0 => vec![Value::Null, Value::Int(i)],
                _ => vec![Value::Int(i % 3), Value::Null],
            })
            .collect();
        check(rows.clone(), 0, &[Value::Int(0), Value::Int(2)]);
        let rows = Arc::new(rows);
        let index = DerivedIndexes::default().get_or_build(&rows, 0);
        assert!(index.get(&Value::Null).is_empty());
        assert_eq!(index.rows(), 200);
        // Row 1's NULL in column 1 is no `Int(1)`.
        assert!(found(&rows, 1, &[vec![Value::Int(1)]]).is_empty());
        assert_eq!(found(&rows, 1, &[vec![Value::Int(5)]]), [5]);
    }

    #[test]
    fn derived_index_leaves_keys_past_2_pow_53_to_the_row_probe() {
        // `Float(2^53)` equals both `Int(2^53)` and `Int(2^53 + 1)`, which
        // differ from each other: a lookup would find one of them.
        let big = 1i64 << 53;
        assert!(exact_key(&[Value::Int(big - 1)]));
        assert!(exact_key(&[Value::text("x")]));
        assert!(!exact_key(&[Value::Int(big + 1)]));
        assert!(!exact_key(&[Value::Float(big as f64)]));
        assert!(!exact_key(&[Value::Float(f64::NAN)]));
    }
}
