//! Constant folding for the semantic analyzer.
//!
//! Deterministic, parameter-free subtrees are evaluated at check time by
//! binding them over an empty scope and running the ordinary evaluator, so
//! folding can never disagree with execution. A folded subtree that
//! *errors* (e.g. `1/0`) is reported as a [`Sema`](crate::EngineError::Sema)
//! diagnostic — but only in *strict* positions, i.e. positions the evaluator
//! is guaranteed to reach when a row reaches the expression. Lazily
//! evaluated positions (the right arm of `AND`/`OR`, `CASE` branches,
//! `COALESCE` tails, `IN`-list members) are folded opportunistically and
//! left alone when they error, matching the engine's short-circuit
//! semantics.

use crate::ast::Expr;
use crate::error::{EngineError, Result};
use crate::expr::{bind_expr, ScalarFunc, Scope};

/// True when `e` contains no column references, parameters, subqueries,
/// aggregates, or window functions anywhere — i.e. it is a deterministic
/// compile-time constant (every scalar function in the engine is
/// deterministic).
pub(crate) fn is_const(e: &Expr) -> bool {
    !e.any(&mut |node| {
        let varies = matches!(
            node,
            Expr::Param(..)
                | Expr::Column { .. }
                | Expr::Aggregate { .. }
                | Expr::WindowRowNumber { .. }
        );
        varies || node.subquery().is_some()
    })
}

/// Fold every constant subtree of `e` in place. `strict` positions turn a
/// constant-evaluation error into a `Sema` diagnostic spanning the offending
/// subtree; non-strict (lazily evaluated) positions leave erroring subtrees
/// unfolded.
pub(crate) fn fold_expr(e: &mut Expr, strict: bool) -> Result<()> {
    if is_const(e) {
        let span = e.span();
        // Type-level problems inside the subtree are the type checker's job;
        // a bind failure here just means there is nothing to fold.
        if let Ok(bound) = bind_expr(e, &Scope::default(), &[]) {
            match bound.eval_const() {
                Ok(v) => *e = Expr::Literal(v, span),
                Err(err) if strict => {
                    return Err(EngineError::sema(
                        format!("constant expression error: {}", err.message()),
                        span,
                    ));
                }
                Err(_) => {}
            }
        }
        return Ok(());
    }
    match e {
        Expr::Literal(..) | Expr::Param(..) | Expr::Column { .. } => Ok(()),
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
            fold_expr(expr, strict)
        }
        Expr::Binary {
            left, op, right, ..
        } => {
            fold_expr(left, strict)?;
            // The right arm of AND/OR may be short-circuited away.
            let lazy = matches!(op, crate::ast::BinaryOp::And | crate::ast::BinaryOp::Or);
            fold_expr(right, strict && !lazy)
        }
        Expr::InList { expr, list, .. } => {
            fold_expr(expr, strict)?;
            // Members are probed in order only until one matches.
            for item in list {
                fold_expr(item, false)?;
            }
            Ok(())
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            fold_expr(expr, strict)?;
            fold_expr(low, strict)?;
            fold_expr(high, strict)
        }
        Expr::Like { expr, pattern, .. } => {
            fold_expr(expr, strict)?;
            fold_expr(pattern, strict)
        }
        Expr::Case {
            operand,
            branches,
            else_expr,
            ..
        } => {
            if let Some(o) = operand {
                fold_expr(o, strict)?;
            }
            // WHEN/THEN/ELSE arms are all conditionally evaluated.
            for (w, t) in branches.iter_mut() {
                fold_expr(w, false)?;
                fold_expr(t, false)?;
            }
            if let Some(el) = else_expr {
                fold_expr(el, false)?;
            }
            Ok(())
        }
        Expr::Function { name, args, .. } => {
            // COALESCE/IFNULL evaluates lazily left-to-right; every other
            // function evaluates all of its arguments.
            let lazy_tail = ScalarFunc::from_name(name) == Some(ScalarFunc::Coalesce);
            for (i, a) in args.iter_mut().enumerate() {
                fold_expr(a, strict && !(lazy_tail && i > 0))?;
            }
            Ok(())
        }
        Expr::Aggregate { arg, .. } => {
            if let Some(a) = arg {
                // Evaluated per input row, if any arrive.
                fold_expr(a, false)?;
            }
            Ok(())
        }
        Expr::WindowRowNumber {
            partition_by,
            order_by,
            ..
        } => {
            for p in partition_by {
                fold_expr(p, false)?;
            }
            for oi in order_by {
                fold_expr(&mut oi.expr, false)?;
            }
            Ok(())
        }
        // Subquery bodies are checked independently; only the scalar side of
        // IN folds here.
        Expr::ScalarSubquery(..) | Expr::Exists { .. } => Ok(()),
        Expr::InSubquery { expr, .. } => fold_expr(expr, strict),
    }
}

/// Non-mutating strict check: report any constant-evaluation error that
/// execution would be guaranteed to hit.
pub(crate) fn check_expr(e: &Expr) -> Result<()> {
    let mut clone = e.clone();
    fold_expr(&mut clone, true)
}

/// Fold every constant subtree of every expression in `q` in place,
/// non-strictly (erroring subtrees are left alone — the strict check has
/// already run by the time this is called). Used on the plan-cache path so
/// cached plans are built over folded literals.
pub(crate) fn fold_query(q: &mut crate::ast::Query) {
    q.for_each_expr_mut(&mut |root, _| {
        let _ = fold_expr(root, false);
    });
}
