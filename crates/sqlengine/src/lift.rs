//! Literal lifting: the step that turns a literal statement into a plan
//! template — a query, or a DML statement the plan cache keeps
//! ([`lift_dml`]).
//!
//! The plan cache keys a statement by its shape ([`crate::lexer::Shape`]):
//! the text with every number and string literal replaced by a type-class
//! placeholder. On a miss the statement is parsed and checked as written,
//! constant subexpressions are folded, and [`lift_literals`] then rewrites
//! each literal that survived folding into an [`Expr::Param`], so that the
//! query plans down the same symbolic path as a statement written with `?`
//! and every later text of that shape binds its own values into the cached
//! plan.
//!
//! A literal is **lifted** when the planner only ever evaluates it. It stays
//! **pinned** — left in the tree, stored on the cache entry and compared on
//! every lookup — wherever the planner reads its value or matches the
//! expression around it structurally:
//!
//! * `LIMIT` / `OFFSET` (folded to plan constants) and `ORDER BY` ordinals;
//! * `GROUP BY` keys, and every projection / `HAVING` / `ORDER BY` subtree
//!   equal to one (the aggregate rewrite replaces them by structural match);
//! * window specifications (`ORDER BY` may repeat a projected window, again
//!   matched structurally);
//! * subquery bodies and the CTEs they read, which run during planning.
//!   These and `LIMIT` / `OFFSET` are the sites where
//!   [`Site::plan_time`](crate::ast::Site::plan_time) holds: the one rule
//!   that also keeps an explicit `?` there from staying symbolic;
//! * operands of constant subexpressions: folding consumed them, so no
//!   literal node with their span is left (`-5` and `2*3` are of this kind).

use crate::ast::{
    param_use, Clause, ConflictAction, Expr, Insert, InsertSource, OnConflict, ParamUse, Query,
    Statement,
};
use crate::error::Span;
use crate::value::Value;

/// What became of one literal of the statement text.
#[derive(Debug)]
pub(crate) enum Slot {
    /// Lifted: the template's parameter with this 0-based index.
    Param(usize),
    /// Pinned: the plan was built for exactly this value.
    Pinned(Value),
}

/// Whether two literals of one type class are the same literal. Stricter
/// than `Value`'s equality, which orders `2` and `2.0` alike.
pub(crate) fn same_literal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(a), Value::Int(b)) => a == b,
        (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
        (Value::Str(a), Value::Str(b)) => a == b,
        _ => false,
    }
}

/// Rewrite the liftable literals of `query` — already folded — into
/// parameter markers. `literals` are the statement's literals in source
/// order; the result says, literal by literal, which parameter it became or
/// which value it pins, followed by the parameter values themselves.
pub(crate) fn lift_literals(
    query: &mut Query,
    literals: &[(Span, Value)],
) -> (Vec<Slot>, Vec<Value>) {
    let mut lifter = Lifter::new(literals, group_keys(query));
    lifter.query(query);
    lifter.finish()
}

/// [`lift_literals`] for the DML statements the plan cache keeps, on a copy
/// of `stmt`: the source query of `INSERT … SELECT` is folded and lifted as
/// a query is, and the roots the executor evaluates — `ON CONFLICT` and
/// `UPDATE` assignments, a `DELETE`/`UPDATE` predicate — are folded and
/// lifted whole. `None` for any other statement; for a source with a `?`
/// where the planner needs its value, which plans inline; and for a
/// `DELETE`/`UPDATE` that runs a subquery, whose tables its entry would not
/// name.
pub(crate) fn lift_dml(
    stmt: &Statement,
    literals: &[(Span, Value)],
) -> Option<(Statement, Vec<Slot>, Vec<Value>)> {
    let kept = match stmt {
        Statement::Insert(Insert {
            source: InsertSource::Query(query),
            ..
        }) => param_use(query) != ParamUse::PlanTime,
        Statement::Delete { .. } | Statement::Update { .. } => true,
        _ => false,
    };
    if !kept {
        return None;
    }
    let mut stmt = stmt.clone();
    let (source, roots): (Option<&mut Query>, Vec<&mut Expr>) = match &mut stmt {
        Statement::Insert(Insert {
            source: InsertSource::Query(query),
            on_conflict,
            ..
        }) => {
            let roots = match on_conflict {
                Some(OnConflict {
                    action: ConflictAction::DoUpdate(assignments),
                    ..
                }) => assignments.iter_mut().map(|(_, e)| e).collect(),
                _ => Vec::new(),
            };
            (Some(query), roots)
        }
        Statement::Delete { predicate, .. } => (None, predicate.iter_mut().collect()),
        Statement::Update {
            assignments,
            predicate,
            ..
        } => {
            let assigned = assignments.iter_mut().map(|(_, e)| e);
            (None, assigned.chain(predicate.iter_mut()).collect())
        }
        _ => unreachable!("matched above"),
    };
    if roots
        .iter()
        .any(|root| root.any(&mut |e| e.subquery().is_some()))
    {
        return None;
    }
    let mut lifter = Lifter::new(
        literals,
        source.as_deref().map(group_keys).unwrap_or_default(),
    );
    if let Some(query) = source {
        crate::sema::fold::fold_query(query);
        lifter.query(query);
    }
    for root in roots {
        // Non-strict: the check has already run.
        let _ = crate::sema::fold::fold_expr(root, false);
        lifter.expr(root);
    }
    let (slots, params) = lifter.finish();
    Some((stmt, slots, params))
}

/// A query's `GROUP BY` keys that hold a literal. The aggregate rewrite
/// matches a key structurally, so it stays as written wherever it occurs.
/// (Only a key that holds a literal can tell; one of another SELECT of the
/// statement pins its copies too, which costs a cache hit and nothing
/// else.)
fn group_keys(query: &Query) -> Vec<Expr> {
    let mut keys = Vec::new();
    query.for_each_expr(&mut |root, site| {
        let holds_literal = || root.any(&mut |e| matches!(e, Expr::Literal(..)));
        if site.clause == Clause::GroupBy && holds_literal() {
            keys.push(root.clone());
        }
    });
    keys
}

struct Lifter<'a> {
    literals: &'a [(Span, Value)],
    /// Parameter index of each lifted literal.
    param_of: Vec<Option<usize>>,
    params: Vec<Value>,
    /// The statement's `GROUP BY` keys that hold a literal.
    group_keys: Vec<Expr>,
}

impl<'a> Lifter<'a> {
    fn new(literals: &'a [(Span, Value)], group_keys: Vec<Expr>) -> Self {
        Lifter {
            literals,
            param_of: vec![None; literals.len()],
            params: Vec::new(),
            group_keys,
        }
    }

    /// Lift the literals of `query` the planner only evaluates.
    fn query(&mut self, query: &mut Query) {
        query.for_each_expr_mut(&mut |root, site| {
            // A bare literal in ORDER BY is an ordinal (or a constant sort
            // key).
            let ordinal = site.clause == Clause::OrderBy && matches!(root, Expr::Literal(..));
            if !(site.plan_time() || site.clause == Clause::GroupBy || ordinal) {
                self.expr(root);
            }
        });
    }

    /// Literal by literal, which parameter it became or which value it
    /// pins; then the parameter values themselves.
    fn finish(self) -> (Vec<Slot>, Vec<Value>) {
        let slots = (self.param_of.iter())
            .zip(self.literals)
            .map(|(param, (_, value))| match param {
                Some(index) => Slot::Param(*index),
                None => Slot::Pinned(value.clone()),
            })
            .collect();
        (slots, self.params)
    }

    fn expr(&mut self, e: &mut Expr) {
        if self.group_keys.contains(e) {
            return;
        }
        match e {
            Expr::Literal(value, span) => {
                let span = *span;
                // A literal node that is one literal of the text, not the
                // residue of a folded subexpression around it.
                let slot = self
                    .literals
                    .binary_search_by_key(&span.start, |(s, _)| s.start)
                    .ok()
                    .filter(|&i| {
                        let (s, v) = &self.literals[i];
                        s.end == span.end && same_literal(v, value)
                    });
                if let Some(i) = slot {
                    self.param_of[i] = Some(self.params.len());
                    self.params.push(std::mem::replace(value, Value::Null));
                    *e = Expr::Param(self.params.len(), span);
                }
            }
            Expr::WindowRowNumber { .. } => {}
            // Subquery bodies are not children: only the scalar side of
            // `IN (SELECT ...)` is visited.
            _ => e.for_each_child_mut(&mut |child| self.expr(child)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{param_use, ParamUse, Statement};

    fn parse(sql: &str) -> Query {
        let Statement::Query(query) = crate::parser::parse_statement(sql).unwrap() else {
            panic!("not a query: {sql}");
        };
        query
    }

    /// Fold and lift `sql`; returns the slots and the bound values.
    fn lifted(sql: &str) -> (Vec<Slot>, Vec<Value>) {
        let shape = crate::lexer::scan_shape(sql).expect("lexes");
        let mut query = parse(sql);
        crate::sema::fold::fold_query(&mut query);
        lift_literals(&mut query, &shape.literals)
    }

    /// `L` for a lifted literal, `P` for a pinned one, in source order.
    fn pattern(sql: &str) -> String {
        lifted(sql)
            .0
            .iter()
            .map(|slot| match slot {
                Slot::Param(_) => 'L',
                Slot::Pinned(_) => 'P',
            })
            .collect()
    }

    #[test]
    fn predicates_and_aliased_projections_lift() {
        let (slots, params) = lifted("SELECT 7 AS n, s FROM t WHERE s = 'a' AND w > 1.5");
        assert!(slots.iter().all(|s| matches!(s, Slot::Param(_))));
        assert_eq!(
            params,
            vec![Value::Int(7), Value::text("a"), Value::Float(1.5)]
        );
    }

    #[test]
    fn plan_time_positions_stay_pinned() {
        assert_eq!(
            pattern("SELECT n FROM t WHERE n > 1 LIMIT 5 OFFSET 2"),
            "LPP"
        );
        assert_eq!(pattern("SELECT n, s FROM t WHERE n > 1 ORDER BY 2"), "LP");
        assert_eq!(pattern("SELECT n FROM t WHERE n > 2 * 3"), "PP");
        assert_eq!(pattern("SELECT n FROM t WHERE n > -5"), "P");
        assert_eq!(
            pattern("SELECT n FROM t WHERE n > 1 AND n IN (SELECT n FROM t WHERE n < 9)"),
            "LP"
        );
        assert_eq!(
            pattern("SELECT n, ROW_NUMBER() OVER (ORDER BY n + 1) AS r FROM t WHERE n > 1"),
            "PL"
        );
    }

    #[test]
    fn group_keys_and_their_copies_stay_pinned() {
        assert_eq!(
            pattern(
                "SELECT n + 1, COUNT(*) + 2 FROM t WHERE n > 3 \
                 GROUP BY n + 1 HAVING n + 1 > 4 ORDER BY n + 1"
            ),
            "PLLPPLP"
        );
    }

    #[test]
    fn slots_index_the_bound_values() {
        let (slots, params) =
            lifted("SELECT n FROM (SELECT n FROM t WHERE n < 9) AS d WHERE n > 1 LIMIT 3");
        let values: Vec<Option<&Value>> = slots
            .iter()
            .map(|slot| match slot {
                Slot::Param(index) => Some(&params[*index]),
                Slot::Pinned(_) => None,
            })
            .collect();
        assert_eq!(
            values,
            vec![Some(&Value::Int(9)), Some(&Value::Int(1)), None]
        );
    }

    /// The rule is shared, not mirrored: write `?` for a literal, and if that
    /// `?` would have to be bound at plan time, the lifter pinned the literal.
    #[test]
    fn a_literal_at_a_plan_time_site_is_pinned() {
        let mut plan_time_sites = 0;
        for sql in [
            "SELECT n FROM t WHERE n > 1 ORDER BY n LIMIT 5 OFFSET 2",
            "SELECT n FROM t WHERE n > 1 AND n IN (SELECT n FROM t WHERE n < 9 LIMIT 3)",
            "SELECT n, (SELECT MAX(n) + 1 FROM t) FROM t WHERE EXISTS (SELECT 2) AND n > 3",
            "WITH c AS (SELECT n + 1 AS m FROM t WHERE n > 2) SELECT m FROM c WHERE m < 9",
            "WITH c AS (SELECT n FROM t WHERE n > 2) SELECT n FROM t WHERE n IN (SELECT n FROM c)",
            "WITH c AS (SELECT n FROM (SELECT 1 AS n UNION ALL SELECT 2) d) \
             SELECT n + 3 FROM c JOIN t ON c.n = t.n + 4 GROUP BY n + 3 HAVING COUNT(*) > 5",
        ] {
            let literals = crate::lexer::scan_shape(sql).expect("lexes").literals;
            let (slots, _) = lifted(sql);
            for ((span, _), slot) in literals.iter().zip(&slots) {
                let mut marked = sql.to_string();
                marked.replace_range(span.range(), "?");
                if param_use(&parse(&marked)) == ParamUse::PlanTime {
                    plan_time_sites += 1;
                    assert!(matches!(slot, Slot::Pinned(_)), "{marked}");
                }
            }
        }
        // `LIMIT 5 OFFSET 2`, the four literals inside subquery bodies and
        // the one in a CTE body a subquery reads; any other CTE body is no
        // such site.
        assert_eq!(plan_time_sites, 7);
    }

    /// `lift_dml`'s pattern of `sql`, or `None` when it keeps no entry.
    fn dml_pattern(sql: &str) -> Option<String> {
        let shape = crate::lexer::scan_shape(sql).expect("lexes");
        let stmt = crate::parser::parse_statement(sql).unwrap();
        let (_, slots, _) = lift_dml(&stmt, &shape.literals)?;
        let pattern = slots.iter().map(|slot| match slot {
            Slot::Param(_) => 'L',
            Slot::Pinned(_) => 'P',
        });
        Some(pattern.collect())
    }

    #[test]
    fn dml_lifts_what_its_executor_evaluates() {
        let some = |p: &str| Some(p.to_string());
        assert_eq!(
            dml_pattern("DELETE FROM t WHERE n IN (1, 2) OR s = 'a'"),
            some("LLL")
        );
        assert_eq!(
            dml_pattern("UPDATE t SET w = w + 1.5 WHERE n = 3"),
            some("LL")
        );
        assert_eq!(
            dml_pattern(
                "INSERT INTO c SELECT n, 2 * w FROM t WHERE n > 4 LIMIT 10 \
                 ON CONFLICT (n) DO UPDATE SET w = c.w + 5"
            ),
            some("LLPL")
        );
        // Kept by no entry: a subquery run at each execution, a plan-time
        // `?` in the source, and everything but INSERT … SELECT, DELETE and
        // UPDATE.
        for sql in [
            "DELETE FROM t WHERE n IN (SELECT n FROM u WHERE n > 1)",
            "INSERT INTO c SELECT n FROM t LIMIT ?",
            "INSERT INTO c VALUES (1, 2.5)",
            "CREATE TABLE d (n INTEGER)",
        ] {
            assert_eq!(dml_pattern(sql), None, "{sql}");
        }
    }
}
