//! Vectorized operator kernels over columnar chunks.
//!
//! Eligible `Filter`/`Project` prefixes of a scan pipeline (and fully
//! eligible `Aggregate` chains) execute chunk-at-a-time instead of
//! row-at-a-time: each [`ColumnChunk`] flows through the stages as a
//! *selection vector* of surviving row offsets plus a *virtual column map*
//! (projection without materialization), and only the final output columns
//! of the surviving rows are gathered into `Value` rows at the end — late
//! materialization. A chunk is the unit of parallelism: a pipeline's
//! morsels over a chunk image are chunk ranges ([`ChunkChain`]), and the
//! vectorized aggregate's partials merge in chunk order, so results stay
//! deterministic.
//!
//! Eligibility is deliberately restricted to expressions whose evaluation
//! can never error and never yields a non-boolean for filters: comparisons,
//! `IS [NOT] NULL`, and `[NOT] BETWEEN` over bare columns/literals, composed
//! with `AND`/`OR`. Within that grammar every sub-expression evaluates to
//! `Int(0|1)` or `Null`, so selection-vector refinement (`AND` = sequential
//! refinement, `OR` = sorted union) is exactly three-valued logic as the row
//! evaluator computes it — a filter keeps a row iff the predicate is TRUE.
//! Everything outside the grammar (arithmetic, `LIKE`, `IN`, functions,
//! DISTINCT aggregates) falls back to the row path, per operator: a chain
//! runs its eligible prefix vectorized and the rest row-at-a-time.
//!
//! A hash join whose probe child is a bare base-table scan uses the same
//! chunks differently: [`key_filter`] tests one typed key column against the
//! build side's key set ([`KeySet`]) and yields the candidate offsets, so
//! rows the join would discard are never touched.
//!
//! Divergence note: vectorized aggregation updates aggregate states
//! column-at-a-time within a chunk, so when an *erroring* aggregate (e.g.
//! `SUM` over text) fails, the reported row may differ from the row path's;
//! result values for non-erroring queries are identical (serial float sums
//! are accumulated in row order, bit-identically; parallel sums combine in
//! chunk order, the same divergence class the row path already permits).

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use crate::ast::BinaryOp;
use crate::column::{ChunkedTable, ColVec, ColumnChunk, ColumnData, CHUNK_ROWS};
use crate::error::Result;
use crate::explain::op_label;
use crate::expr::PhysExpr;
use crate::plan::{AggSpec, JoinAlgo, PhysPlan};
use crate::value::{Row, Value};

use super::aggregate::{default_row, AggState};
use super::context::{approx_row_bytes, check_deadline, MemoryBudget, StageCounter, MORSEL_ROWS};
use super::scan::{collect_chain, StageSpec};
use super::{ExecContext, NodeOut, OpStats, Sink};

/// A bare column reference or literal — the only expressions kernels accept.
fn is_simple(e: &PhysExpr) -> bool {
    matches!(e, PhysExpr::Column(_) | PhysExpr::Literal(_))
}

/// The filter-kernel grammar (see module docs): the total predicates over
/// bare columns and literals.
fn filter_eligible(pred: &PhysExpr) -> bool {
    pred.is_total_predicate(&is_simple)
}

fn project_eligible(exprs: &[PhysExpr]) -> bool {
    exprs.iter().all(is_simple)
}

fn agg_eligible(keys: &[PhysExpr], aggs: &[AggSpec]) -> bool {
    keys.iter().all(is_simple)
        && aggs
            .iter()
            .all(|a| !a.distinct && a.arg.as_ref().is_none_or(is_simple))
}

/// Whether a pipeline stage node has a vectorized kernel.
fn stage_eligible(node: &PhysPlan) -> bool {
    match node {
        PhysPlan::Filter { predicate, .. } => filter_eligible(predicate),
        PhysPlan::Project { exprs, .. } => project_eligible(exprs),
        _ => false,
    }
}

/// Length of the eligible stage prefix (stages are innermost-first).
fn prefix_len(nodes: &[&PhysPlan]) -> usize {
    nodes.iter().take_while(|n| stage_eligible(n)).count()
}

/// The execution mode of one operator: `Some(true)` = runs vectorized,
/// `Some(false)` = has a vectorized variant but runs on the row path here,
/// `None` = operator has no vectorized variant. Mirrors the executor
/// exactly: a pipeline node ([`pipeline_mode`]) by the prefix rule, a hash
/// join by how it reads the input it probes ([`super::keyset_mode`]).
pub(crate) fn node_mode(plan: &PhysPlan) -> Option<bool> {
    match plan {
        PhysPlan::HashJoin {
            kind,
            algo: JoinAlgo::Hash,
            ..
        } => super::keyset_mode(plan.join_sides()?.1, *kind),
        _ => pipeline_mode(plan),
    }
}

/// The prefix rule: a scan-pipeline node is vectorized iff its own kernel
/// exists *and* everything below it is vectorized down to a chunk-carrying
/// scan (a join in between ends the pipeline).
fn pipeline_mode(plan: &PhysPlan) -> Option<bool> {
    match plan {
        PhysPlan::Scan { chunks, .. } => Some(chunks.is_some()),
        PhysPlan::Filter { input, predicate } => {
            Some(filter_eligible(predicate) && pipeline_mode(input) == Some(true))
        }
        PhysPlan::Project { input, exprs } => {
            Some(project_eligible(exprs) && pipeline_mode(input) == Some(true))
        }
        PhysPlan::Aggregate { input, keys, aggs } => {
            Some(agg_eligible(keys, aggs) && pipeline_mode(input) == Some(true))
        }
        _ => None,
    }
}

/// ` mode=vectorized` / ` mode=row` suffix for operator labels (on a hash
/// join, ` probe=keyset(vectorized)` / ` probe=keyset(row)`: which way it
/// reads the base table it probes); empty for operators without a
/// vectorized variant.
pub(crate) fn mode_suffix(plan: &PhysPlan) -> &'static str {
    match (node_mode(plan), plan) {
        (Some(true), PhysPlan::HashJoin { .. }) => " probe=keyset(vectorized)",
        (Some(false), PhysPlan::HashJoin { .. }) => " probe=keyset(row)",
        (Some(true), _) => " mode=vectorized",
        (Some(false), _) => " mode=row",
        (None, _) => "",
    }
}

/// Recover the execution mode from a rendered `EXPLAIN` label (the inverse
/// of [`mode_suffix`]): the tracer derives operator spans from `OpStats`
/// trees, which carry only the label, and attaches the mode as a typed
/// span attribute instead of label text.
pub(crate) fn mode_of_label(label: &str) -> Option<&'static str> {
    if label.contains(" mode=vectorized") || label.contains(" probe=keyset(vectorized)") {
        Some("vectorized")
    } else if label.contains(" mode=row") || label.contains(" probe=keyset(row)") {
        Some("row")
    } else {
        None
    }
}

/// Count `(vectorized, row)` operators over the whole plan tree, a shared
/// subplan's once, for the telemetry registry (`exec.vectorized_ops` /
/// `exec.row_ops`).
pub(crate) fn count_modes(plan: &PhysPlan) -> (u64, u64) {
    let mut acc = (0, 0);
    plan.for_each_node(&mut |node, _, _| match node_mode(node) {
        Some(true) => acc.0 += 1,
        Some(false) => acc.1 += 1,
        None => {}
    });
    acc
}

/// A virtual output column: either a source chunk column or a literal.
/// `Project` stages remap this instead of materializing rows.
#[derive(Clone)]
enum VCol {
    Src(usize),
    Lit(Value),
}

/// Resolve a simple expression against the current virtual column map.
fn resolve(map: &[VCol], e: &PhysExpr) -> VCol {
    match e {
        PhysExpr::Column(i) => map[*i].clone(),
        PhysExpr::Literal(v) => VCol::Lit(v.clone()),
        _ => unreachable!("eligibility admits only columns and literals"),
    }
}

/// The exact stored value a virtual column yields at row offset `i`.
fn val_of(chunk: &ColumnChunk, v: &VCol, i: usize) -> Value {
    match v {
        VCol::Src(c) => chunk.value_at(i, *c),
        VCol::Lit(v) => v.clone(),
    }
}

/// `total_cmp` ordering → comparison verdict, mirroring `eval_binary`'s
/// `Compare` arm exactly.
fn ord_ok(op: BinaryOp, ord: Ordering) -> bool {
    match op {
        BinaryOp::Eq => ord == Ordering::Equal,
        BinaryOp::NotEq => ord != Ordering::Equal,
        BinaryOp::Lt => ord == Ordering::Less,
        BinaryOp::LtEq => ord != Ordering::Greater,
        BinaryOp::Gt => ord == Ordering::Greater,
        BinaryOp::GtEq => ord != Ordering::Less,
        _ => unreachable!("comparison operator"),
    }
}

/// Mirror `lit op col` as `col flip(op) lit`.
fn flip(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other, // Eq / NotEq are symmetric
    }
}

/// Column-vs-literal comparison kernel with typed fast loops. NULL operands
/// never match (`x op NULL` is `Null`, which a filter drops).
fn compare_col_lit(col: &ColVec, op: BinaryOp, lit: &Value, sel: &[u32]) -> Vec<u32> {
    if lit.is_null() {
        return Vec::new();
    }
    let mut out = Vec::new();
    // A constant verdict for every non-null row (numbers sort before
    // strings, so e.g. an Int column against a Str literal is always Less).
    let mut constant = |verdict: bool, col: &ColVec| {
        if verdict {
            out.extend(sel.iter().copied().filter(|&i| !col.is_null(i as usize)));
        }
    };
    match &col.data {
        ColumnData::Int(xs) => match lit {
            Value::Int(b) => {
                for &i in sel {
                    let i_us = i as usize;
                    if !col.is_null(i_us) && ord_ok(op, xs[i_us].cmp(b)) {
                        out.push(i);
                    }
                }
            }
            Value::Float(b) => {
                for &i in sel {
                    let i_us = i as usize;
                    if !col.is_null(i_us) && ord_ok(op, (xs[i_us] as f64).total_cmp(b)) {
                        out.push(i);
                    }
                }
            }
            Value::Str(_) => constant(ord_ok(op, Ordering::Less), col),
            Value::Null => unreachable!("null literal handled above"),
        },
        ColumnData::Float(xs) => match lit {
            Value::Int(b) => {
                let b = *b as f64;
                for &i in sel {
                    let i_us = i as usize;
                    if !col.is_null(i_us) && ord_ok(op, xs[i_us].total_cmp(&b)) {
                        out.push(i);
                    }
                }
            }
            Value::Float(b) => {
                for &i in sel {
                    let i_us = i as usize;
                    if !col.is_null(i_us) && ord_ok(op, xs[i_us].total_cmp(b)) {
                        out.push(i);
                    }
                }
            }
            Value::Str(_) => constant(ord_ok(op, Ordering::Less), col),
            Value::Null => unreachable!("null literal handled above"),
        },
        ColumnData::Dict { codes, values, .. } => {
            // One verdict per dictionary code, then a code-indexed scan.
            let verdicts: Vec<bool> = values
                .iter()
                .map(|s| {
                    let ord = match lit {
                        Value::Str(b) => s.as_ref().cmp(b.as_ref()),
                        // Strings sort after numbers.
                        _ => Ordering::Greater,
                    };
                    ord_ok(op, ord)
                })
                .collect();
            for &i in sel {
                let i_us = i as usize;
                if !col.is_null(i_us) && verdicts[codes[i_us] as usize] {
                    out.push(i);
                }
            }
        }
        ColumnData::Values(xs) => {
            for &i in sel {
                let v = &xs[i as usize];
                if !v.is_null() && ord_ok(op, v.total_cmp(lit)) {
                    out.push(i);
                }
            }
        }
    }
    out
}

/// Generic column-vs-column comparison.
fn compare_cols(chunk: &ColumnChunk, a: usize, op: BinaryOp, b: usize, sel: &[u32]) -> Vec<u32> {
    let (ca, cb) = (chunk.column(a), chunk.column(b));
    sel.iter()
        .copied()
        .filter(|&i| {
            let i_us = i as usize;
            !ca.is_null(i_us)
                && !cb.is_null(i_us)
                && ord_ok(op, ca.value_at(i_us).total_cmp(&cb.value_at(i_us)))
        })
        .collect()
}

fn compare(
    chunk: &ColumnChunk,
    map: &[VCol],
    left: &PhysExpr,
    op: BinaryOp,
    right: &PhysExpr,
    sel: &[u32],
) -> Vec<u32> {
    match (resolve(map, left), resolve(map, right)) {
        (VCol::Lit(a), VCol::Lit(b)) => {
            if !a.is_null() && !b.is_null() && ord_ok(op, a.total_cmp(&b)) {
                sel.to_vec()
            } else {
                Vec::new()
            }
        }
        (VCol::Src(c), VCol::Lit(b)) => compare_col_lit(chunk.column(c), op, &b, sel),
        (VCol::Lit(a), VCol::Src(c)) => compare_col_lit(chunk.column(c), flip(op), &a, sel),
        (VCol::Src(a), VCol::Src(b)) => compare_cols(chunk, a, op, b, sel),
    }
}

fn is_null_kernel(
    chunk: &ColumnChunk,
    map: &[VCol],
    expr: &PhysExpr,
    negated: bool,
    sel: &[u32],
) -> Vec<u32> {
    match resolve(map, expr) {
        VCol::Lit(v) => {
            if v.is_null() != negated {
                sel.to_vec()
            } else {
                Vec::new()
            }
        }
        VCol::Src(c) => {
            let col = chunk.column(c);
            sel.iter()
                .copied()
                .filter(|&i| col.is_null(i as usize) != negated)
                .collect()
        }
    }
}

fn between_kernel(
    chunk: &ColumnChunk,
    map: &[VCol],
    exprs: (&PhysExpr, &PhysExpr, &PhysExpr),
    negated: bool,
    sel: &[u32],
) -> Vec<u32> {
    let e = resolve(map, exprs.0);
    let lo = resolve(map, exprs.1);
    let hi = resolve(map, exprs.2);
    // Typed fast path for the common `int_col BETWEEN int AND int`.
    if let (VCol::Src(c), VCol::Lit(Value::Int(lo)), VCol::Lit(Value::Int(hi))) = (&e, &lo, &hi) {
        let col = chunk.column(*c);
        if let ColumnData::Int(xs) = &col.data {
            return sel
                .iter()
                .copied()
                .filter(|&i| {
                    let i_us = i as usize;
                    !col.is_null(i_us) && ((xs[i_us] >= *lo && xs[i_us] <= *hi) != negated)
                })
                .collect();
        }
    }
    sel.iter()
        .copied()
        .filter(|&i| {
            let i_us = i as usize;
            let v = val_of(chunk, &e, i_us);
            let l = val_of(chunk, &lo, i_us);
            let h = val_of(chunk, &hi, i_us);
            !v.is_null() && !l.is_null() && !h.is_null() && {
                let inside =
                    v.total_cmp(&l) != Ordering::Less && v.total_cmp(&h) != Ordering::Greater;
                inside != negated
            }
        })
        .collect()
}

/// The build side's join keys, as a typed set one probe column can be
/// tested against without building a `Value` per row.
pub(super) enum KeySet {
    /// Every key is a single `Int`: sorted, for a range check and a binary
    /// search (build sides here hold one to a few hundred keys).
    Ints(Vec<i64>),
    /// Every key is a single `Str`.
    Strs(HashSet<Arc<str>>),
    /// Floats, several columns, or a mix of variants: `Int(1)` and
    /// `Float(1.0)` are one join key, so only the row probe can decide.
    Untyped,
}

impl KeySet {
    pub(super) fn of<'a>(keys: impl Iterator<Item = &'a Vec<Value>>) -> KeySet {
        let (mut ints, mut strs) = (Vec::new(), HashSet::new());
        for key in keys {
            match key.as_slice() {
                [Value::Int(i)] => ints.push(*i),
                [Value::Str(s)] => {
                    strs.insert(Arc::clone(s));
                }
                _ => return KeySet::Untyped,
            }
        }
        match (ints.is_empty(), strs.is_empty()) {
            (_, true) => {
                ints.sort_unstable();
                KeySet::Ints(ints)
            }
            (true, false) => KeySet::Strs(strs),
            (false, false) => KeySet::Untyped,
        }
    }
}

/// Offsets of the rows of one chunk column whose value is among `keys` (NULL
/// never is), or `None` when the column's representation and the key set do
/// not allow a typed answer and the caller must probe row by row. A string
/// never equals a number, so a column of one against keys of the other
/// selects nothing.
pub(super) fn key_filter(col: &ColVec, keys: &KeySet) -> Option<Vec<u32>> {
    match (&col.data, keys) {
        (ColumnData::Int(xs), KeySet::Ints(set)) => Some(match set.as_slice() {
            [] => Vec::new(),
            [only] => offsets_where(col, xs.len(), |i| xs[i] == *only),
            [lo, .., hi] => offsets_where(col, xs.len(), |i| {
                xs[i] >= *lo && xs[i] <= *hi && set.binary_search(&xs[i]).is_ok()
            }),
        }),
        (ColumnData::Dict { codes, values, .. }, KeySet::Strs(set)) => {
            // One verdict per dictionary code, then a code-indexed scan.
            let verdicts: Vec<bool> = values.iter().map(|s| set.contains(s)).collect();
            Some(offsets_where(col, codes.len(), |i| {
                verdicts[codes[i] as usize]
            }))
        }
        (ColumnData::Int(_) | ColumnData::Float(_), KeySet::Strs(_))
        | (ColumnData::Dict { .. }, KeySet::Ints(_)) => Some(Vec::new()),
        _ => None,
    }
}

/// The non-NULL offsets below `len` that `wanted` accepts. Typed columns
/// keep a placeholder at NULL offsets, so the mask is consulted only for
/// offsets the placeholder got through.
fn offsets_where(col: &ColVec, len: usize, wanted: impl Fn(usize) -> bool) -> Vec<u32> {
    (0..len)
        .filter(|&i| wanted(i) && !col.is_null(i))
        .map(|i| i as u32)
        .collect()
}

/// Union of two sorted selection vectors (both subsequences of one parent).
fn merge_union(a: Vec<u32>, b: Vec<u32>) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().max(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Refine a selection vector through one eligible predicate. `AND` refines
/// sequentially (TRUE∧TRUE survives; FALSE/NULL drops either way); `OR`
/// evaluates both sides on the *same* input selection and unions — sound
/// because sub-expressions in the grammar cannot error, so short-circuit
/// order is unobservable.
fn apply_pred(chunk: &ColumnChunk, map: &[VCol], pred: &PhysExpr, sel: &[u32]) -> Vec<u32> {
    match pred {
        PhysExpr::Binary { left, op, right } => match op {
            BinaryOp::And => {
                let sel = apply_pred(chunk, map, left, sel);
                apply_pred(chunk, map, right, &sel)
            }
            BinaryOp::Or => {
                let a = apply_pred(chunk, map, left, sel);
                let b = apply_pred(chunk, map, right, sel);
                merge_union(a, b)
            }
            _ => compare(chunk, map, left, *op, right, sel),
        },
        PhysExpr::IsNull { expr, negated } => is_null_kernel(chunk, map, expr, *negated, sel),
        PhysExpr::Between {
            expr,
            low,
            high,
            negated,
        } => between_kernel(chunk, map, (expr, low, high), *negated, sel),
        _ => unreachable!("filter eligibility checked"),
    }
}

/// Per-chunk pipeline configuration shared by every kernel driver.
struct ChunkPipeline<'a> {
    stages: &'a [StageSpec],
    counters: &'a [StageCounter],
    timed: bool,
    deadline: Option<Instant>,
}

/// Run the stage pipeline over one chunk, producing the surviving selection
/// vector and the virtual column map of the final output.
fn run_stages(chunk: &ColumnChunk, pipe: &ChunkPipeline<'_>) -> (Vec<VCol>, Vec<u32>) {
    let mut map: Vec<VCol> = (0..chunk.width()).map(VCol::Src).collect();
    let mut sel: Vec<u32> = (0..chunk.len() as u32).collect();
    for (stage, counter) in pipe.stages.iter().zip(pipe.counters) {
        let started = pipe.timed.then(Instant::now);
        let rows_in = sel.len();
        match stage {
            StageSpec::Filter(pred) => sel = apply_pred(chunk, &map, pred, &sel),
            StageSpec::Project(exprs) => {
                map = exprs.iter().map(|e| resolve(&map, e)).collect();
            }
        }
        let nanos = started.map_or(0, |t| t.elapsed().as_nanos() as u64);
        counter.add(rows_in, sel.len(), nanos);
    }
    (map, sel)
}

/// A Filter/Project chain that runs vectorized down to its chunked scan
/// ([`node_mode`] says so of its top node), as a source of rows: each chunk
/// runs the chain's stages, and only the final output columns of the
/// surviving rows are gathered, one row at a time into a reused buffer —
/// late materialization. Pushed, it streams every chunk; in a pipeline a
/// morsel is a range of chunks.
pub(super) struct ChunkChain {
    chunked: Arc<ChunkedTable>,
    stages: Vec<StageSpec>,
    counters: Vec<StageCounter>,
    timed: bool,
    /// The labels of the stages below the top one (innermost first) and of
    /// the scan, when stats are collected.
    labels: Vec<String>,
}

impl ChunkChain {
    /// `None` when the chain's source is not a scan with a chunk image (a
    /// projection over a vectorized aggregate).
    pub(super) fn of(plan: &PhysPlan, ctx: &ExecContext) -> Option<ChunkChain> {
        let (nodes, source) = collect_chain(plan);
        let PhysPlan::Scan {
            rows,
            width,
            chunks: Some(slot),
        } = source
        else {
            return None;
        };
        debug_assert_eq!(
            prefix_len(&nodes),
            nodes.len(),
            "the whole chain is eligible"
        );
        let labels = match ctx.stats_enabled() {
            true => std::iter::once(source)
                .chain(nodes[..nodes.len() - 1].iter().copied())
                .map(op_label)
                .collect(),
            false => Vec::new(),
        };
        Some(ChunkChain {
            chunked: slot.get_or_build(rows, *width),
            stages: nodes.iter().map(|node| StageSpec::of(node)).collect(),
            counters: nodes.iter().map(|_| StageCounter::default()).collect(),
            timed: ctx.stats_enabled(),
            labels,
        })
    }

    pub(super) fn chunks(&self) -> usize {
        self.chunked.chunk_count()
    }

    /// Rows of the scan the chain starts from.
    pub(super) fn rows(&self) -> usize {
        self.chunked.row_count()
    }

    /// Hand on the surviving rows of chunks `range`, in table order.
    pub(super) fn emit(
        &self,
        range: Range<usize>,
        deadline: Option<Instant>,
        sink: &mut (impl FnMut(&[Value]) -> Result<()> + ?Sized),
    ) -> Result<()> {
        let pipe = ChunkPipeline {
            stages: &self.stages,
            counters: &self.counters,
            timed: self.timed,
            deadline,
        };
        let mut row = Vec::new();
        for chunk in &self.chunked.chunks()[range] {
            check_deadline(deadline)?;
            let (map, sel) = run_stages(chunk, &pipe);
            for &i in &sel {
                row.clear();
                row.extend(map.iter().map(|vc| val_of(chunk, vc, i as usize)));
                sink(&row)?;
            }
        }
        Ok(())
    }

    /// The rows the chain handed on so far.
    pub(super) fn emitted(&self) -> usize {
        self.counters
            .last()
            .expect("a chain has a stage")
            .snapshot()
            .1
    }

    /// What the top stage reports: its input, counted by the stage
    /// counters, and — with stats — the stages below and the scan nested
    /// inside it.
    pub(super) fn node(&self) -> NodeOut {
        let mut node = NodeOut::new();
        node.rows_in = self
            .counters
            .last()
            .expect("a chain has a stage")
            .snapshot()
            .0;
        if let Some((scan, below)) = self.labels.split_first() {
            let source = OpStats::leaf(scan.clone(), self.chunked.row_count());
            node.children = vec![chain_stats(source, below, &self.counters, 1, 1)];
        }
        node
    }
}

/// Group accumulator in global first-seen order: `order[g]` is group `g`'s
/// key, `states[g]` its per-aggregate running states.
#[derive(Default)]
struct GroupAcc {
    index: HashMap<Vec<Value>, usize>,
    order: Vec<Vec<Value>>,
    states: Vec<Vec<AggState>>,
}

/// Aggregate one chunk into `acc`, without materializing filtered rows:
/// stages yield a selection + virtual map, keys are gathered per surviving
/// row, and aggregate updates run column-at-a-time per aggregate (row order
/// within each state, so serial float sums are bit-identical to row order).
fn agg_chunk(
    chunk: &ColumnChunk,
    pipe: &ChunkPipeline<'_>,
    keys: &[PhysExpr],
    aggs: &[AggSpec],
    budget: &MemoryBudget,
    acc: &mut GroupAcc,
) -> Result<()> {
    check_deadline(pipe.deadline)?;
    let (map, sel) = run_stages(chunk, pipe);
    let key_cols: Vec<VCol> = keys.iter().map(|k| resolve(&map, k)).collect();
    let mut gids = Vec::with_capacity(sel.len());
    for &i in &sel {
        let key: Vec<Value> = key_cols
            .iter()
            .map(|vc| val_of(chunk, vc, i as usize))
            .collect();
        let gid = match acc.index.get(&key) {
            Some(&g) => g,
            None => {
                // Same accounting as the row path's hash aggregate: two key
                // copies (index map + order list) plus the state vector.
                budget.charge(
                    2 * approx_row_bytes(&key)
                        + (aggs.len() * std::mem::size_of::<AggState>()) as u64,
                )?;
                let g = acc.order.len();
                acc.order.push(key.clone());
                acc.states.push(aggs.iter().map(AggState::new).collect());
                acc.index.insert(key, g);
                g
            }
        };
        gids.push(gid);
    }
    for (ai, spec) in aggs.iter().enumerate() {
        match spec.arg.as_ref().map(|e| resolve(&map, e)) {
            // COUNT(*): every surviving row counts.
            None => {
                for &g in &gids {
                    acc.states[g][ai].update(Value::Int(1))?;
                }
            }
            Some(vc) => {
                for (&i, &g) in sel.iter().zip(&gids) {
                    let v = val_of(chunk, &vc, i as usize);
                    if !v.is_null() {
                        acc.states[g][ai].update(v)?;
                    }
                }
            }
        }
    }
    Ok(())
}

/// One morsel's partial aggregation: local first-seen group order plus the
/// per-group states.
type VChunkOut = (Vec<Vec<Value>>, HashMap<Vec<Value>, Vec<AggState>>);

/// Vectorized hash aggregate over a fully eligible `Scan → [Filter/Project]*
/// → Aggregate` chain: its output rows, collected, and its stats. Returns
/// `None` (fall back to the row path) when the chain or the aggregate spec
/// is outside the kernel grammar. A scan of at least
/// [`super::context::FAN_OUT_ROWS`] rows fans out over morsels of chunks.
pub(super) fn vectorized_aggregate(
    input: &PhysPlan,
    keys: &[PhysExpr],
    aggs: &[AggSpec],
    ctx: &ExecContext,
) -> Result<Option<(Vec<Row>, NodeOut)>> {
    if !agg_eligible(keys, aggs) {
        return Ok(None);
    }
    let (nodes, source) = collect_chain(input);
    let PhysPlan::Scan {
        rows,
        width,
        chunks: Some(slot),
    } = source
    else {
        return Ok(None);
    };
    if prefix_len(&nodes) != nodes.len() {
        return Ok(None);
    }
    let chunked = slot.get_or_build(rows, *width);
    let stages: Arc<Vec<StageSpec>> = Arc::new(nodes.iter().map(|nd| StageSpec::of(nd)).collect());
    let counters: Arc<Vec<StageCounter>> =
        Arc::new((0..stages.len()).map(|_| StageCounter::default()).collect());
    let timed = ctx.stats_enabled();
    let deadline = ctx.deadline();
    let parallel = ctx.fans_out(chunked.row_count());
    let per = MORSEL_ROWS / CHUNK_ROWS;
    let morsels = chunked.chunk_count().div_ceil(per);

    let mut acc = GroupAcc::default();
    if parallel {
        let (stages, counters, chunked) = (
            Arc::clone(&stages),
            Arc::clone(&counters),
            Arc::clone(&chunked),
        );
        let (keys, aggs, budget) = (keys.to_vec(), aggs.to_vec(), Arc::clone(ctx.budget()));
        let parts = ctx.fan_out_ok(morsels, move |m| -> Result<VChunkOut> {
            let pipe = ChunkPipeline {
                stages: &stages,
                counters: &counters,
                timed,
                deadline,
            };
            let mut local = GroupAcc::default();
            let range = m * per..chunked.chunk_count().min((m + 1) * per);
            for chunk in &chunked.chunks()[range] {
                agg_chunk(chunk, &pipe, &keys, &aggs, &budget, &mut local)?;
            }
            let map: HashMap<Vec<Value>, Vec<AggState>> =
                local.order.iter().cloned().zip(local.states).collect();
            Ok((local.order, map))
        })?;
        // Merge partials in chunk order: a group's first appearance fixes
        // its global position, and float partial sums combine left-to-right
        // in chunk order (the row path's parallel convention).
        for (chunk_order, mut chunk_states) in parts {
            for key in chunk_order {
                let partial = chunk_states.remove(&key).expect("key recorded in order");
                match acc.index.get(&key) {
                    None => {
                        acc.index.insert(key.clone(), acc.order.len());
                        acc.order.push(key);
                        acc.states.push(partial);
                    }
                    Some(&g) => {
                        for (state, other) in acc.states[g].iter_mut().zip(partial) {
                            state.merge(other);
                        }
                    }
                }
            }
        }
    } else {
        let pipe = ChunkPipeline {
            stages: &stages,
            counters: &counters,
            timed,
            deadline,
        };
        for chunk in chunked.chunks() {
            agg_chunk(chunk, &pipe, keys, aggs, ctx.budget(), &mut acc)?;
        }
    }

    let out = if acc.order.is_empty() && keys.is_empty() {
        vec![default_row(aggs)]
    } else {
        acc.order
            .into_iter()
            .zip(acc.states)
            .map(|(key, states)| {
                let mut row = key;
                for s in states {
                    row.push(s.finish());
                }
                row
            })
            .collect()
    };

    let (workers, morsels) = match parallel {
        true => (ctx.parallelism(), morsels),
        false => (1, 1),
    };
    let mut node = NodeOut::new();
    (node.workers, node.morsels) = (workers, morsels);
    // Rows the Aggregate consumed = rows surviving the last stage.
    node.rows_in = match counters.last() {
        Some(c) => c.snapshot().1,
        None => chunked.row_count(),
    };
    if timed {
        let source = OpStats::leaf(op_label(source), chunked.row_count());
        let labels: Vec<String> = nodes.iter().map(|node| op_label(node)).collect();
        node.children = vec![chain_stats(source, &labels, &counters, workers, morsels)];
    }
    Ok(Some((out, node)))
}

/// The stats of a vectorized chain's stages, nested exactly like the row
/// path renders them: the source leaf innermost, each stage (innermost
/// first, by its label) wrapping the one below.
fn chain_stats(
    source: OpStats,
    labels: &[String],
    counters: &[StageCounter],
    workers: usize,
    morsels: usize,
) -> OpStats {
    let mut node = source;
    for (label, counter) in labels.iter().zip(counters) {
        let (rows_in, rows_out, elapsed) = counter.snapshot();
        node = OpStats {
            label: label.clone(),
            rows_in,
            rows_out,
            elapsed,
            workers,
            morsels,
            mem_bytes: 0,
            children: vec![node],
        };
    }
    node
}

/// A Filter/Project chain that runs vectorized down to its chunked scan
/// ([`node_mode`] says so of its top node), pushed: every chunk streams
/// through [`ChunkChain`]. The top stage is the dispatcher's node; the ones
/// below report from the stage counters. `None` — nothing run — when the
/// chain's source is not a scan (a projection over a vectorized aggregate).
pub(super) fn vectorized_chain(
    plan: &PhysPlan,
    ctx: &ExecContext,
    sink: &mut Sink,
) -> Result<Option<NodeOut>> {
    let Some(chain) = ChunkChain::of(plan, ctx) else {
        return Ok(None);
    };
    chain.emit(0..chain.chunks(), ctx.deadline(), sink)?;
    Ok(Some(chain.node()))
}
