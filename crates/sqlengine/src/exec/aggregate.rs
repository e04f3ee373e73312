//! Hash aggregation with grouped state machines.
//!
//! The aggregate is a pipeline's breaker: its input's rows fold into a group
//! table ([`Groups::add`], the one per-row function), which evaluates each
//! row's key in place and allocates only for a row that starts a new group.
//! Run serially, there is one table; a pipeline that fans out gives every morsel a
//! table of its own, and the partials are merged in morsel order, which
//! reproduces the global first-seen group order exactly. DISTINCT aggregates
//! fold a value when it is first seen; a later morsel defers its locally-new
//! values, in order (checking that each would fold, so a value that raises
//! raises at its own row), and the merge folds those it has not seen — so
//! DISTINCT results are byte-identical to serial. The only permitted
//! divergence is non-DISTINCT float SUM/AVG, where partial sums combine in
//! morsel order rather than row order.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::ast::AggregateFunc;
use crate::error::{EngineError, Result};
use crate::expr::PhysExpr;
use crate::plan::{AggSpec, PhysPlan};
use crate::value::{Row, Value, ValueHash};

use super::context::{approx_row_bytes, approx_value_bytes, ChargeBuf, Ticker};
use super::{key_of, ExecContext, NodeOut, Partial, Sink};

/// Running state for one aggregate over one group.
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
    /// `other` must come from a later morsel, so float partial sums are
    /// combined left-to-right in morsel order.
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
    let mut node = NodeOut::new();
    let (spec, budget) = (
        Arc::new((keys.to_vec(), aggs.to_vec())),
        Arc::clone(ctx.budget()),
    );
    let parts = super::fold(input, ctx, &mut node, move |morsel| GroupPart {
        groups: Groups::new(morsel == 0),
        spec: Arc::clone(&spec),
        charge: ChargeBuf::new(&budget),
    });
    let groups = parts.ok()?.groups;
    groups.emit(keys, aggs, ctx, sink)?;
    Ok(node)
}

fn default_row(aggs: &[AggSpec]) -> Row {
    aggs.iter().map(|a| AggState::new(a).finish()).collect()
}

/// A group table as a pipeline's partial.
struct GroupPart {
    groups: Groups,
    spec: Arc<(Vec<PhysExpr>, Vec<AggSpec>)>,
    charge: ChargeBuf,
}

impl Partial for GroupPart {
    fn row(&mut self, row: &[Value]) -> Result<()> {
        let (keys, aggs) = &*self.spec;
        self.groups.add(row, keys, aggs, &mut self.charge)
    }

    fn finish(&mut self) -> Result<()> {
        self.charge.flush()
    }

    fn combine(&mut self, later: GroupPart) -> Result<()> {
        self.groups.merge(later.groups, &self.spec.1)
    }
}

/// The values a DISTINCT aggregate has seen in one group and — in a table
/// that defers them — those values in first-seen order, for the merge to
/// fold.
#[derive(Default)]
struct Seen {
    values: HashSet<Value, ValueHash>,
    deferred: Vec<Value>,
}

/// A group table in first-seen group order: the whole aggregation, or one
/// morsel's partial. Groups are numbered in first-seen order, and their
/// states are held flat — one per aggregate, group after group — so a new
/// group allocates only its key.
struct Groups {
    /// Group key → group number; the only copy of each key.
    index: HashMap<Vec<Value>, usize, ValueHash>,
    states: Vec<AggState>,
    /// Laid out like `states`: what each DISTINCT aggregate has seen, `None`
    /// for the others; empty when no aggregate is DISTINCT.
    seen: Vec<Option<Seen>>,
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
            index: HashMap::default(),
            states: Vec::new(),
            seen: Vec::new(),
            eager,
            key: Vec::new(),
        }
    }

    /// Open group number `index.len()` for `aggs`.
    fn open(states: &mut Vec<AggState>, seen: &mut Vec<Option<Seen>>, aggs: &[AggSpec]) {
        states.extend(aggs.iter().map(AggState::new));
        if aggs.iter().any(|a| a.distinct) {
            seen.extend(aggs.iter().map(|a| a.distinct.then(Seen::default)));
        }
    }

    /// The aggregate's one per-row function: fold a row into its group.
    /// Only a row that starts a group allocates — its key.
    fn add(
        &mut self,
        row: &[Value],
        keys: &[PhysExpr],
        aggs: &[AggSpec],
        charge: &mut ChargeBuf,
    ) -> Result<()> {
        let Groups {
            index,
            states,
            seen,
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
                let g = index.len();
                index.insert(key.to_vec(), g);
                Groups::open(states, seen, aggs);
                g
            }
        };
        let at = g * aggs.len();
        for (i, spec) in aggs.iter().enumerate() {
            let v = match &spec.arg {
                None => Value::Int(1), // COUNT(*): every row counts
                Some(a) => a.eval(row)?,
            };
            if v.is_null() {
                continue; // aggregates skip NULLs
            }
            match seen.get_mut(at + i).and_then(Option::as_mut) {
                None => states[at + i].update(v)?,
                Some(Seen { values, deferred }) => {
                    if !values.insert(v.clone()) {
                        continue;
                    }
                    charge.add(approx_value_bytes(&v))?;
                    if *eager {
                        states[at + i].update(v)?;
                    } else {
                        AggState::new(spec).update(v.clone())?;
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
    fn merge(&mut self, later: Groups, aggs: &[AggSpec]) -> Result<()> {
        let width = aggs.len();
        let (keys, mut states, mut seen) = later.into_parts();
        for key in keys {
            let g = match self.index.get(&key) {
                Some(&g) => {
                    let own = &mut self.states[g * width..(g + 1) * width];
                    for (state, other) in own.iter_mut().zip(states.by_ref()) {
                        state.merge(other);
                    }
                    g
                }
                None => {
                    let g = self.index.len();
                    self.index.insert(key, g);
                    self.states.extend(states.by_ref().take(width));
                    if aggs.iter().any(|a| a.distinct) {
                        self.seen
                            .extend(aggs.iter().map(|a| a.distinct.then(Seen::default)));
                    }
                    g
                }
            };
            for (i, slot) in seen.by_ref().take(width).enumerate() {
                let (Some(Seen { deferred, .. }), Some(own)) =
                    (slot, &mut self.seen[g * width + i])
                else {
                    continue;
                };
                for v in deferred {
                    if own.values.insert(v.clone()) {
                        self.states[g * width + i].update(v)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// The group keys in first-seen order, and the states and seen values
    /// laid out in that order.
    fn into_parts(
        self,
    ) -> (
        Vec<Vec<Value>>,
        impl Iterator<Item = AggState>,
        impl Iterator<Item = Option<Seen>>,
    ) {
        let mut keys = vec![Vec::new(); self.index.len()];
        for (key, g) in self.index {
            keys[g] = key;
        }
        (keys, self.states.into_iter(), self.seen.into_iter())
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
        if self.index.is_empty() && keys.is_empty() {
            return sink(&default_row(aggs));
        }
        let (mut row, mut ticker, deadline) = (Vec::new(), Ticker::default(), ctx.deadline());
        let (group_keys, mut states, _) = self.into_parts();
        for key in group_keys {
            ticker.tick(deadline)?;
            row.clear();
            row.extend(key);
            row.extend(states.by_ref().take(aggs.len()).map(AggState::finish));
            sink(&row)?;
        }
        Ok(())
    }
}
