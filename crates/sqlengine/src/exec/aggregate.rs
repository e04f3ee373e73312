//! Hash aggregation with grouped state machines.
//!
//! The aggregate is a pipeline's sink: at parallelism 1 its input pushes
//! rows straight into one group table ([`Groups::add`], the one per-row
//! function), which evaluates each row's key in place and allocates only
//! for a row that starts a new group. The morsel path gives each worker a
//! morsel of the collected input and a table of its own; the partials are
//! merged on the coordinator in morsel order, which reproduces the global
//! first-seen group order exactly. DISTINCT aggregates fold a value when it
//! is first seen; a later morsel defers its locally-new values, in order,
//! and the merge folds those it has not seen — so DISTINCT results are
//! byte-identical to serial. The only permitted divergence is non-DISTINCT
//! float SUM/AVG, where partial sums combine in morsel order rather than
//! row order.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::ast::AggregateFunc;
use crate::error::{EngineError, Result};
use crate::expr::PhysExpr;
use crate::plan::{AggSpec, PhysPlan};
use crate::value::{Row, Value};

use super::context::{approx_row_bytes, approx_value_bytes, ChargeBuf, ChunkJob, Ticker};
use super::{key_of, ExecContext, NodeOut, Sink};

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
    sink: &mut Sink,
) -> Result<NodeOut> {
    // Fully eligible chains aggregate straight over the columnar chunks
    // without materializing the filtered input.
    if let Some((rows, out)) = super::vector::vectorized_aggregate(input, keys, aggs, ctx)? {
        super::emit(rows.iter(), ctx, sink)?;
        return Ok(out);
    }
    let mut node = NodeOut::new();
    let groups = if ctx.parallel() {
        morsel_groups(input, keys, aggs, ctx, &mut node)?
    } else {
        let mut groups = Groups::new(true);
        let mut charge = ChargeBuf::new(ctx.budget());
        let stats = super::push(input, ctx, &mut |row| {
            groups.add(row, keys, aggs, &mut charge)
        })?;
        charge.flush()?;
        node.child(stats);
        groups
    };
    groups.emit(keys, aggs, ctx, sink)?;
    Ok(node)
}

pub(super) fn default_row(aggs: &[AggSpec]) -> Row {
    aggs.iter().map(|a| AggState::new(a).finish()).collect()
}

/// The morsel path: aggregate the collected input one morsel per job, each
/// into its own group table, and merge the partials in morsel order.
fn morsel_groups(
    input: &PhysPlan,
    keys: &[PhysExpr],
    aggs: &[AggSpec],
    ctx: &ExecContext,
    node: &mut NodeOut,
) -> Result<Groups> {
    let rows = super::run_input(input, ctx, node)?;
    let ranges = if ctx.should_parallelize(rows.len()) {
        node.workers = ctx.parallelism();
        ctx.morsels(rows.len())
    } else {
        std::iter::once(0..rows.len()).collect()
    };
    let spec = Arc::new((keys.to_vec(), aggs.to_vec()));
    let deadline = ctx.deadline();
    let jobs: Vec<ChunkJob<Result<Groups>>> = ranges
        .into_iter()
        .enumerate()
        .map(|(m, range)| {
            let (rows, spec, budget) = (rows.clone(), Arc::clone(&spec), Arc::clone(ctx.budget()));
            let job: ChunkJob<Result<Groups>> = Box::new(move || {
                let (keys, aggs) = &*spec;
                let mut groups = Groups::new(m == 0);
                let (mut charge, mut ticker) = (ChargeBuf::new(&budget), Ticker::default());
                for row in rows.rows(range) {
                    ticker.tick(deadline)?;
                    groups.add(row, keys, aggs, &mut charge)?;
                }
                charge.flush()?;
                Ok(groups)
            });
            job
        })
        .collect();
    let mut parts = ctx.run_jobs(jobs).into_iter();
    let mut acc = parts.next().expect("at least one morsel")?;
    for part in parts {
        acc.merge(part?)?;
    }
    Ok(acc)
}

/// One group's running states. A DISTINCT aggregate also keeps the values
/// it has seen and — in a table that defers them — those values in
/// first-seen order, for the merge to fold.
struct Group {
    states: Vec<AggState>,
    distinct: Vec<Option<(HashSet<Value>, Vec<Value>)>>,
}

impl Group {
    fn new(aggs: &[AggSpec]) -> Group {
        Group {
            states: aggs.iter().map(AggState::new).collect(),
            distinct: aggs
                .iter()
                .map(|a| a.distinct.then(Default::default))
                .collect(),
        }
    }
}

/// A group table in first-seen group order: the whole aggregation at
/// parallelism 1, one morsel's partial on the morsel path.
struct Groups {
    /// Group key → position in `groups`; the only copy of each key.
    index: HashMap<Vec<Value>, usize>,
    groups: Vec<Group>,
    /// Whether DISTINCT values fold into the states as they are first seen
    /// (the only table, or the first morsel's) or are deferred to the merge
    /// (a later morsel's: an earlier one may hold the value's first
    /// occurrence).
    eager: bool,
    /// The current row's key, evaluated in place.
    key: Vec<Value>,
}

impl Groups {
    fn new(eager: bool) -> Groups {
        Groups {
            index: HashMap::new(),
            groups: Vec::new(),
            eager,
            key: Vec::new(),
        }
    }

    /// The aggregate's one per-row function: fold a row into its group.
    /// Only a row that starts a group allocates — its key and states.
    fn add(
        &mut self,
        row: &[Value],
        keys: &[PhysExpr],
        aggs: &[AggSpec],
        charge: &mut ChargeBuf,
    ) -> Result<()> {
        let Groups {
            index,
            groups,
            eager,
            key,
        } = self;
        let key = key_of(row, keys, key, true)?.expect("a group key keeps its NULLs");
        let g = match index.get(key) {
            Some(&g) => g,
            None => {
                // The group table owns the key, its slot in the index and
                // the group's states.
                charge.add(
                    approx_row_bytes(key)
                        + (std::mem::size_of::<usize>()
                            + aggs.len() * std::mem::size_of::<AggState>())
                            as u64,
                )?;
                index.insert(key.to_vec(), groups.len());
                groups.push(Group::new(aggs));
                groups.len() - 1
            }
        };
        let group = &mut groups[g];
        for (i, spec) in aggs.iter().enumerate() {
            let v = match &spec.arg {
                None => Value::Int(1), // COUNT(*): every row counts
                Some(a) => a.eval(row)?,
            };
            if v.is_null() {
                continue; // aggregates skip NULLs
            }
            match &mut group.distinct[i] {
                None => group.states[i].update(v)?,
                Some((seen, deferred)) => {
                    if !seen.insert(v.clone()) {
                        continue;
                    }
                    charge.add(approx_value_bytes(&v))?;
                    if *eager {
                        group.states[i].update(v)?;
                    } else {
                        deferred.push(v);
                    }
                }
            }
        }
        Ok(())
    }

    /// Fold a later morsel's partial into this (eager) table. Walking its
    /// groups in their first-seen order keeps the global first-seen group
    /// order; float partial sums combine in morsel order; each deferred
    /// DISTINCT value is folded where it is new, which replays the serial
    /// update sequence.
    fn merge(&mut self, later: Groups) -> Result<()> {
        for (key, Group { states, distinct }) in later.into_ordered() {
            let g = match self.index.get(&key) {
                Some(&g) => {
                    for (state, other) in self.groups[g].states.iter_mut().zip(states) {
                        state.merge(other);
                    }
                    g
                }
                None => {
                    let fresh = distinct
                        .iter()
                        .map(|d| d.as_ref().map(|_| Default::default()));
                    self.index.insert(key, self.groups.len());
                    self.groups.push(Group {
                        states,
                        distinct: fresh.collect(),
                    });
                    self.groups.len() - 1
                }
            };
            let group = &mut self.groups[g];
            for (i, slot) in distinct.into_iter().enumerate() {
                let (Some((_, deferred)), Some((seen, _))) = (slot, &mut group.distinct[i]) else {
                    continue;
                };
                for v in deferred {
                    if seen.insert(v.clone()) {
                        group.states[i].update(v)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// The groups with their keys, in first-seen order.
    fn into_ordered(self) -> impl Iterator<Item = (Vec<Value>, Group)> {
        let mut keys = vec![Vec::new(); self.groups.len()];
        for (key, g) in self.index {
            keys[g] = key;
        }
        keys.into_iter().zip(self.groups)
    }

    /// Hand on one row per group, in first-seen order: its key, then each
    /// aggregate's result. A global aggregate over no rows still yields its
    /// one row of defaults.
    fn emit(
        self,
        keys: &[PhysExpr],
        aggs: &[AggSpec],
        ctx: &ExecContext,
        sink: &mut Sink,
    ) -> Result<()> {
        if self.groups.is_empty() && keys.is_empty() {
            return sink(&default_row(aggs));
        }
        let (mut row, mut ticker, deadline) = (Vec::new(), Ticker::default(), ctx.deadline());
        for (key, group) in self.into_ordered() {
            ticker.tick(deadline)?;
            row.clear();
            row.extend(key);
            row.extend(group.states.into_iter().map(AggState::finish));
            sink(&row)?;
        }
        Ok(())
    }
}
