//! Scan-side operators: index lookups and the Filter/Project stage.
//!
//! A base-table scan is a pipeline source that streams the rows of the
//! snapshot its run bound; an index scan streams the rows at its positions.
//! A
//! `Filter` or `Project` is one [`StageSpec`] whose per-row function passes a
//! kept row on unchanged or evaluates the projection into one reused buffer,
//! so a `Scan → Filter → Project` chain copies each surviving value once, at
//! the projection, and nothing when it ends in an aggregate or a join probe.

use crate::error::Result;
use crate::expr::{unshared_literals, PhysExpr};
use crate::plan::{IndexRef, PhysPlan};
use crate::value::Value;

use super::{NodeOut, Run, Sink};

/// One Filter/Project stage, lowered once per plan.
#[derive(Clone)]
pub(super) enum StageSpec {
    Filter(PhysExpr),
    Project(Vec<PhysExpr>),
}

impl StageSpec {
    pub(super) fn of(node: &PhysPlan) -> StageSpec {
        match node {
            PhysPlan::Filter { predicate, .. } => StageSpec::Filter(predicate.clone()),
            PhysPlan::Project { exprs, .. } => StageSpec::Project(exprs.clone()),
            _ => unreachable!("pipeline stages are Filter/Project only"),
        }
    }

    pub(super) fn for_each_expr_mut(&mut self, f: &mut impl FnMut(&mut PhysExpr)) {
        match self {
            StageSpec::Filter(predicate) => f(predicate),
            StageSpec::Project(exprs) => exprs.iter_mut().for_each(f),
        }
    }

    /// A copy whose text literals are its own allocations, or `None` when
    /// it holds none.
    pub(super) fn unshared(&self) -> Option<StageSpec> {
        match self {
            StageSpec::Filter(predicate) => unshared_literals(predicate).map(StageSpec::Filter),
            StageSpec::Project(exprs) => {
                let copies: Vec<Option<PhysExpr>> = exprs.iter().map(unshared_literals).collect();
                copies.iter().any(Option::is_some).then(|| {
                    let exprs = copies.into_iter().zip(exprs);
                    StageSpec::Project(
                        exprs
                            .map(|(copy, e)| copy.unwrap_or_else(|| e.clone()))
                            .collect(),
                    )
                })
            }
        }
    }

    /// Pass `row` on if it passes the filter, or its projection, rebuilt in
    /// `out` for every input row.
    pub(super) fn row(&self, row: &[Value], out: &mut Vec<Value>, sink: &mut Sink) -> Result<()> {
        match self {
            StageSpec::Filter(pred) => {
                if pred.eval(row)?.as_bool()? == Some(true) {
                    sink(row)?;
                }
                Ok(())
            }
            StageSpec::Project(exprs) => {
                out.clear();
                for e in exprs {
                    out.push(e.eval(row)?);
                }
                sink(out)
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

/// A point / multi-point index lookup ([`PhysPlan::IndexScan`]) of the
/// table in slot `slot`.
#[derive(Clone)]
pub(super) struct IndexSpec {
    slot: usize,
    keys: Option<Vec<Vec<PhysExpr>>>,
}

impl IndexSpec {
    pub(super) fn of(node: &PhysPlan, slot: usize) -> IndexSpec {
        let PhysPlan::IndexScan { keys, .. } = node else {
            unreachable!("an index lookup lowers an IndexScan");
        };
        IndexSpec {
            slot,
            keys: keys.clone(),
        }
    }

    pub(super) fn for_each_expr_mut(&mut self, f: &mut impl FnMut(&mut PhysExpr)) {
        self.keys.iter_mut().flatten().flatten().for_each(f);
    }
}

/// Point / multi-point index lookup: streams the rows at
/// [`index_positions`].
pub(super) fn index_scan(spec: &IndexSpec, run: &Run, sink: &mut Sink) -> Result<NodeOut> {
    let Some(keys) = &spec.keys else {
        return Err(crate::error::EngineError::exec(
            "probe-driven IndexScan can only run inside an IndexJoin",
        ));
    };
    let table = run.table(spec.slot);
    let index = table
        .index
        .as_ref()
        .expect("an index lookup's slot binds its index");
    let idxs = index_positions(index, keys)?;
    super::emit(idxs.iter().map(|&i| &table.rows[i]), run.ctx, sink)?;
    Ok(NodeOut::new())
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::sync::Arc;

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
