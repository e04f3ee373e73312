//! Hash aggregation with grouped state machines.
//!
//! The parallel path gives each worker a morsel of the input and a private
//! (group → partial state) map plus a first-seen group order list. Partials
//! are merged on the coordinator in chunk order, which reproduces the serial
//! executor's global first-seen group order exactly. DISTINCT aggregates do
//! not fold values inside workers at all — each worker ships its ordered
//! list of locally-new values and the coordinator folds them in merged
//! (global first-seen) order, so DISTINCT results are byte-identical to
//! serial. The only permitted divergence is non-DISTINCT float SUM/AVG,
//! where partial sums combine in chunk order rather than row order.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::ast::AggregateFunc;
use crate::error::{EngineError, Result};
use crate::expr::PhysExpr;
use crate::plan::{AggSpec, PhysPlan};
use crate::value::{Row, Value};

use super::context::{approx_row_bytes, approx_value_bytes, ChargeBuf, ChunkJob, MemoryBudget};
use super::{ExecContext, NodeOut};

/// Running state for one aggregate over one group. Shared with the
/// vectorized aggregate in [`super::vector`], which drives the same state
/// machine column-at-a-time.
#[derive(Debug, Clone)]
pub(super) enum AggState {
    Count(i64),
    SumInt(i64, bool), // (sum, saw_any)
    SumFloat(f64, bool),
    Avg { sum: f64, count: i64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    pub(super) fn new(spec: &AggSpec) -> AggState {
        match spec.func {
            AggregateFunc::Count => AggState::Count(0),
            AggregateFunc::Sum => AggState::SumInt(0, false),
            AggregateFunc::Avg => AggState::Avg { sum: 0.0, count: 0 },
            AggregateFunc::Min => AggState::Min(None),
            AggregateFunc::Max => AggState::Max(None),
        }
    }

    pub(super) fn update(&mut self, v: Value) -> Result<()> {
        if v.is_null() {
            return Ok(()); // aggregates skip NULLs (COUNT(*) handled outside)
        }
        match self {
            AggState::Count(c) => *c += 1,
            AggState::SumInt(acc, seen) => match v {
                Value::Int(i) => {
                    *acc += i;
                    *seen = true;
                }
                Value::Float(f) => {
                    *self = AggState::SumFloat(*acc as f64 + f, true);
                }
                other => {
                    return Err(EngineError::exec(format!(
                        "SUM of non-numeric value {other}"
                    )))
                }
            },
            AggState::SumFloat(acc, seen) => {
                let f = v.as_f64()?.expect("null handled");
                *acc += f;
                *seen = true;
            }
            AggState::Avg { sum, count } => {
                *sum += v.as_f64()?.expect("null handled");
                *count += 1;
            }
            AggState::Min(cur) => {
                if cur.as_ref().is_none_or(|c| v.total_cmp(c).is_lt()) {
                    *cur = Some(v);
                }
            }
            AggState::Max(cur) => {
                if cur.as_ref().is_none_or(|c| v.total_cmp(c).is_gt()) {
                    *cur = Some(v);
                }
            }
        }
        Ok(())
    }

    /// Fold another partial state for the same aggregate into `self`.
    /// `other` must come from a later chunk, so float partial sums are
    /// combined left-to-right in chunk order.
    pub(super) fn merge(&mut self, other: AggState) {
        match (&mut *self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::SumInt(a, sa), AggState::SumInt(b, sb)) => {
                *a += b;
                *sa |= sb;
            }
            (AggState::SumInt(a, sa), AggState::SumFloat(b, sb)) => {
                let seen = *sa | sb;
                *self = AggState::SumFloat(*a as f64 + b, seen);
            }
            (AggState::SumFloat(a, sa), AggState::SumInt(b, sb)) => {
                *a += b as f64;
                *sa |= sb;
            }
            (AggState::SumFloat(a, sa), AggState::SumFloat(b, sb)) => {
                *a += b;
                *sa |= sb;
            }
            (AggState::Avg { sum, count }, AggState::Avg { sum: s2, count: c2 }) => {
                *sum += s2;
                *count += c2;
            }
            (AggState::Min(cur), AggState::Min(Some(v))) => {
                if cur.as_ref().is_none_or(|c| v.total_cmp(c).is_lt()) {
                    *cur = Some(v);
                }
            }
            (AggState::Max(cur), AggState::Max(Some(v))) => {
                if cur.as_ref().is_none_or(|c| v.total_cmp(c).is_gt()) {
                    *cur = Some(v);
                }
            }
            (AggState::Min(_), AggState::Min(None)) | (AggState::Max(_), AggState::Max(None)) => {}
            _ => unreachable!("partial states of one aggregate share a variant"),
        }
    }

    pub(super) fn finish(self) -> Value {
        match self {
            AggState::Count(c) => Value::Int(c),
            AggState::SumInt(acc, seen) => {
                if seen {
                    Value::Int(acc)
                } else {
                    Value::Null
                }
            }
            AggState::SumFloat(acc, seen) => {
                if seen {
                    Value::Float(acc)
                } else {
                    Value::Null
                }
            }
            AggState::Avg { sum, count } => {
                if count == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / count as f64)
                }
            }
            AggState::Min(v) => v.unwrap_or(Value::Null),
            AggState::Max(v) => v.unwrap_or(Value::Null),
        }
    }
}

pub(crate) fn aggregate(
    input: &PhysPlan,
    keys: &[PhysExpr],
    aggs: &[AggSpec],
    ctx: &ExecContext,
) -> Result<NodeOut> {
    // Fully eligible chains aggregate straight over the columnar chunks
    // without materializing the filtered input.
    if let Some(out) = super::vector::vectorized_aggregate(input, keys, aggs, ctx)? {
        return Ok(out);
    }
    let mut children = Vec::new();
    let mut rows_in = 0usize;
    let rows = super::run_input(input, ctx, &mut children, &mut rows_in)?;

    let parallel = ctx.should_parallelize(rows.len());
    let out = if parallel {
        parallel_aggregate(rows, keys, aggs, ctx)?
    } else {
        serial_aggregate(&rows, keys, aggs, ctx.budget())?
    };
    Ok(NodeOut {
        rows: out,
        rows_in,
        workers: if parallel { ctx.parallelism() } else { 1 },
        children,
        pruned: None,
    })
}

fn serial_aggregate(
    rows: &[Row],
    keys: &[PhysExpr],
    aggs: &[AggSpec],
    budget: &MemoryBudget,
) -> Result<Vec<Row>> {
    // Group states plus per-group DISTINCT sets for distinct aggregates.
    struct Group {
        states: Vec<AggState>,
        distinct_seen: Vec<Option<HashSet<Value>>>,
    }
    let new_group = || Group {
        states: aggs.iter().map(AggState::new).collect(),
        distinct_seen: aggs
            .iter()
            .map(|a| {
                if a.distinct {
                    Some(HashSet::new())
                } else {
                    None
                }
            })
            .collect(),
    };

    let mut groups: HashMap<Vec<Value>, Group> = HashMap::new();
    let mut order: Vec<Vec<Value>> = Vec::new(); // first-seen group order
    let mut charge = ChargeBuf::new(budget);
    // Each new group owns two key copies (map + order list) plus its states.
    let group_overhead = (aggs.len() * std::mem::size_of::<AggState>()) as u64;

    for row in rows {
        let mut key = Vec::with_capacity(keys.len());
        for k in keys {
            key.push(k.eval(row)?);
        }
        let group = match groups.get_mut(&key) {
            Some(g) => g,
            None => {
                charge.add(2 * approx_row_bytes(&key) + group_overhead)?;
                order.push(key.clone());
                groups.entry(key.clone()).or_insert_with(new_group)
            }
        };
        for (i, spec) in aggs.iter().enumerate() {
            let v = match &spec.arg {
                None => Value::Int(1), // COUNT(*): every row counts
                Some(a) => a.eval(row)?,
            };
            if v.is_null() {
                continue;
            }
            if let Some(seen) = &mut group.distinct_seen[i] {
                charge.add(approx_value_bytes(&v))?;
                if !seen.insert(v.clone()) {
                    continue;
                }
            }
            group.states[i].update(v)?;
        }
    }
    charge.flush()?;

    // Global aggregate over empty input still yields one row of defaults.
    if groups.is_empty() && keys.is_empty() {
        return Ok(vec![default_row(aggs)]);
    }

    let mut out = Vec::with_capacity(groups.len());
    for key in order {
        let group = groups.remove(&key).expect("group recorded in order");
        let mut row = key;
        for s in group.states {
            row.push(s.finish());
        }
        out.push(row);
    }
    Ok(out)
}

pub(super) fn default_row(aggs: &[AggSpec]) -> Row {
    aggs.iter().map(|a| AggState::new(a).finish()).collect()
}

/// Per-worker partial aggregate for one group. Non-DISTINCT aggregates fold
/// into `states` immediately; DISTINCT aggregates only record their
/// locally-new values (set for dedup, vec for first-seen order) and fold at
/// merge time.
struct Partial {
    states: Vec<AggState>,
    distinct: Vec<Option<(HashSet<Value>, Vec<Value>)>>,
}

/// One worker's result: first-seen group order plus the partial group map.
type ChunkOut = (Vec<Vec<Value>>, HashMap<Vec<Value>, Partial>);

fn parallel_aggregate(
    rows: Arc<Vec<Row>>,
    keys: &[PhysExpr],
    aggs: &[AggSpec],
    ctx: &ExecContext,
) -> Result<Vec<Row>> {
    let keys_arc: Arc<Vec<PhysExpr>> = Arc::new(keys.to_vec());
    let aggs_arc: Arc<Vec<AggSpec>> = Arc::new(aggs.to_vec());

    let jobs: Vec<ChunkJob<Result<ChunkOut>>> = ctx
        .morsels(rows.len())
        .into_iter()
        .map(|range| {
            let rows = Arc::clone(&rows);
            let keys = Arc::clone(&keys_arc);
            let aggs = Arc::clone(&aggs_arc);
            let budget = Arc::clone(ctx.budget());
            let job: ChunkJob<Result<ChunkOut>> =
                Box::new(move || partial_chunk(&rows[range], &keys, &aggs, &budget));
            job
        })
        .collect();

    // Merge chunks in order. A group's first-seen position is its position in
    // the earliest chunk containing it, so walking chunk order rebuilds the
    // serial order; likewise each DISTINCT value's first occurrence lands in
    // the earliest chunk, so folding ordered value lists in chunk order
    // replays the serial update sequence.
    struct Merged {
        states: Vec<AggState>,
        distinct_seen: Vec<Option<HashSet<Value>>>,
    }
    let mut groups: HashMap<Vec<Value>, Merged> = HashMap::new();
    let mut order: Vec<Vec<Value>> = Vec::new();

    for chunk in ctx.run_jobs(jobs) {
        let (chunk_order, mut chunk_groups) = chunk?;
        for key in chunk_order {
            let partial = chunk_groups.remove(&key).expect("key recorded in order");
            match groups.get_mut(&key) {
                None => {
                    let mut merged = Merged {
                        states: partial.states,
                        distinct_seen: aggs.iter().map(|a| a.distinct.then(HashSet::new)).collect(),
                    };
                    fold_distinct(
                        &mut merged.states,
                        &mut merged.distinct_seen,
                        partial.distinct,
                    )?;
                    order.push(key.clone());
                    groups.insert(key, merged);
                }
                Some(merged) => {
                    for (state, other) in merged.states.iter_mut().zip(partial.states) {
                        state.merge(other);
                    }
                    fold_distinct(
                        &mut merged.states,
                        &mut merged.distinct_seen,
                        partial.distinct,
                    )?;
                }
            }
        }
    }

    if groups.is_empty() && keys.is_empty() {
        return Ok(vec![default_row(aggs)]);
    }

    let mut out = Vec::with_capacity(groups.len());
    for key in order {
        let group = groups.remove(&key).expect("group recorded in order");
        let mut row = key;
        for s in group.states {
            row.push(s.finish());
        }
        out.push(row);
    }
    Ok(out)
}

/// Fold a chunk's ordered DISTINCT value lists into the merged group state,
/// skipping values an earlier chunk already contributed.
fn fold_distinct(
    states: &mut [AggState],
    distinct_seen: &mut [Option<HashSet<Value>>],
    chunk_distinct: Vec<Option<(HashSet<Value>, Vec<Value>)>>,
) -> Result<()> {
    for (i, slot) in chunk_distinct.into_iter().enumerate() {
        if let Some((_, ordered)) = slot {
            let seen = distinct_seen[i]
                .as_mut()
                .expect("distinct slot matches spec");
            for v in ordered {
                if seen.insert(v.clone()) {
                    states[i].update(v)?;
                }
            }
        }
    }
    Ok(())
}

/// Build one worker's partial aggregation over a morsel.
fn partial_chunk(
    rows: &[Row],
    keys: &[PhysExpr],
    aggs: &[AggSpec],
    budget: &MemoryBudget,
) -> Result<ChunkOut> {
    let new_partial = || Partial {
        states: aggs.iter().map(AggState::new).collect(),
        distinct: aggs
            .iter()
            .map(|a| a.distinct.then(|| (HashSet::new(), Vec::new())))
            .collect(),
    };
    let mut groups: HashMap<Vec<Value>, Partial> = HashMap::new();
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut charge = ChargeBuf::new(budget);
    let group_overhead = (aggs.len() * std::mem::size_of::<AggState>()) as u64;

    for row in rows {
        let mut key = Vec::with_capacity(keys.len());
        for k in keys {
            key.push(k.eval(row)?);
        }
        let group = match groups.get_mut(&key) {
            Some(g) => g,
            None => {
                charge.add(2 * approx_row_bytes(&key) + group_overhead)?;
                order.push(key.clone());
                groups.entry(key.clone()).or_insert_with(new_partial)
            }
        };
        for (i, spec) in aggs.iter().enumerate() {
            let v = match &spec.arg {
                None => Value::Int(1),
                Some(a) => a.eval(row)?,
            };
            if v.is_null() {
                continue;
            }
            match &mut group.distinct[i] {
                Some((set, ordered)) => {
                    charge.add(approx_value_bytes(&v))?;
                    if set.insert(v.clone()) {
                        ordered.push(v);
                    }
                }
                None => group.states[i].update(v)?,
            }
        }
    }
    charge.flush()?;
    Ok((order, groups))
}
