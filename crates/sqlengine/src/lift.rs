//! Literal lifting: the step that turns a literal statement into a plan
//! template.
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
//! * subquery bodies and, when CTEs are materialized, CTE bodies — both run
//!   during planning (the positions [`crate::plan::params_unsupported`]
//!   rejects for explicit `?`);
//! * operands of constant subexpressions: folding consumed them, so no
//!   literal node with their span is left (`-5` and `2*3` are of this kind).

use crate::ast::{Expr, Query, Select, SelectItem, SetExpr, TableRef};
use crate::error::Span;
use crate::plan::visit_children_mut;
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
    materialize_ctes: bool,
) -> (Vec<Slot>, Vec<Value>) {
    let mut lifter = Lifter {
        literals,
        param_of: vec![None; literals.len()],
        params: Vec::new(),
        materialize_ctes,
    };
    lifter.query(query);
    let slots = lifter
        .param_of
        .iter()
        .zip(literals)
        .map(|(param, (_, value))| match param {
            Some(index) => Slot::Param(*index),
            None => Slot::Pinned(value.clone()),
        })
        .collect();
    (slots, lifter.params)
}

struct Lifter<'a> {
    literals: &'a [(Span, Value)],
    /// Parameter index of each lifted literal.
    param_of: Vec<Option<usize>>,
    params: Vec<Value>,
    materialize_ctes: bool,
}

impl Lifter<'_> {
    fn query(&mut self, q: &mut Query) {
        if !self.materialize_ctes {
            for cte in &mut q.ctes {
                self.query(&mut cte.query);
            }
        }
        // ORDER BY of a grouped SELECT may repeat its GROUP BY keys.
        let group_by = match &q.body {
            SetExpr::Select(select) => select.group_by.clone(),
            SetExpr::Union { .. } => Vec::new(),
        };
        self.set_expr(&mut q.body);
        for item in &mut q.order_by {
            // A bare literal here is an ordinal (or a constant sort key).
            if !matches!(item.expr, Expr::Literal(..)) {
                self.expr(&mut item.expr, &group_by);
            }
        }
    }

    fn set_expr(&mut self, body: &mut SetExpr) {
        match body {
            SetExpr::Select(select) => self.select(select),
            SetExpr::Union { left, right, .. } => {
                self.set_expr(left);
                self.set_expr(right);
            }
        }
    }

    fn select(&mut self, select: &mut Select) {
        let Select {
            projection,
            from,
            selection,
            group_by,
            having,
            ..
        } = select;
        for item in projection {
            if let SelectItem::Expr { expr, .. } = item {
                self.expr(expr, group_by);
            }
        }
        for tref in from {
            self.table_ref(tref);
        }
        if let Some(predicate) = selection {
            self.expr(predicate, &[]);
        }
        if let Some(having) = having {
            self.expr(having, group_by);
        }
    }

    fn table_ref(&mut self, tref: &mut TableRef) {
        match tref {
            TableRef::Named { .. } => {}
            TableRef::Derived { query, .. } => self.query(query),
            TableRef::Join {
                left, right, on, ..
            } => {
                self.table_ref(left);
                self.table_ref(right);
                if let Some(on) = on {
                    self.expr(on, &[]);
                }
            }
        }
    }

    fn expr(&mut self, e: &mut Expr, group_by: &[Expr]) {
        if group_by.contains(e) {
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
            _ => visit_children_mut(e, &mut |child| self.expr(child, group_by)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;

    /// Fold and lift `sql`; returns the slots and the bound values.
    fn lifted(sql: &str) -> (Vec<Slot>, Vec<Value>) {
        let shape = crate::lexer::scan_shape(sql).expect("lexes");
        let Statement::Query(mut query) = crate::parser::parse_statement(sql).unwrap() else {
            panic!("not a query: {sql}");
        };
        crate::sema::fold::fold_query(&mut query);
        lift_literals(&mut query, &shape.literals, false)
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
}
