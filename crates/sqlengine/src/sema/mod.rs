//! Static semantic analysis: name resolution, type inference, and misuse
//! diagnostics over the AST, *before* planning or execution.
//!
//! The analyzer and the planner walk a statement the same way, and what is
//! the same is one definition both call ([`crate::logical`]): the CTE frame
//! discipline, what a table name denotes (CTE, then `sys.*`, then catalog),
//! and the normal form of each `SELECT` block — wildcards expanded, aggregate
//! and window calls behind internal marker columns, output columns named,
//! `ORDER BY` ordinals resolved — with [`Scope`]'s lookup as the one column
//! resolution. So a query which passes [`check_statement`] plans over the
//! same shape it was checked in. The planner *binds* each piece of that
//! shape; the analyzer *types* it, which adds what binding alone cannot see:
//!
//! * bottom-up **type inference** using the declared column types in the
//!   catalog (rows are coerced to their declared types on insert, so the
//!   static types are trustworthy) and the same [`coerce`] table the runtime
//!   evaluator dispatches through;
//! * **misuse diagnostics** with byte spans: unknown/ambiguous columns,
//!   aggregates in WHERE/GROUP BY, nested aggregates, window functions
//!   outside the SELECT list, non-grouped column references, arity and
//!   type errors;
//! * **constant-expression errors** (`SELECT 1/0`) caught at check time by
//!   the strictness-aware folder in [`fold`].
//!
//! Typing is deliberately lenient wherever the engine is dynamically typed:
//! `Any` (untyped columns, parameters, `NULL`) passes everywhere, and only
//! certainly-wrong expressions — a declared-`TEXT` operand in arithmetic, a
//! `SUM` over a `TEXT` column — are rejected. The intended invariant is that
//! a query which passes `check` never raises a *type-shaped* runtime error;
//! it does not hold for `Any` produced by mixed-type `CASE`/`COALESCE`
//! branches (`tests/sema_prop.rs` has the ignored property).

pub(crate) mod fold;

use crate::ast::{
    AggregateFunc, BinaryOp, Expr, Insert, InsertSource, OrderItem, Query, Select, SetExpr,
    Statement, TableRef, UnaryOp,
};
use crate::catalog::Catalog;
use crate::error::{EngineError, Result, Span};
use crate::expr::{coerce, spelled, BinCoercion, ColLabel, ScalarFunc, Scope, Unresolved};
use crate::logical::{
    ordinal, table_scope, table_source, CteFrames, LogicalSelect, SortTarget, TableSource,
};
use crate::value::{DataType, Value};

/// The result of a successful static check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckReport {
    /// Output columns of the checked query with their inferred types
    /// (empty for DML and DDL statements).
    pub columns: Vec<(String, DataType)>,
}

/// Statically check a statement against `catalog`. Queries return their
/// typed output schema; DML statements are validated (target table and
/// columns, predicate and assignment types, conflict clauses) and return an
/// empty report. DDL and transaction-control statements are validated by
/// the catalog at execution time and pass through unchecked.
pub fn check_statement(catalog: &Catalog, stmt: &Statement) -> Result<CheckReport> {
    let mut a = Analyzer::new(catalog);
    match stmt {
        Statement::Query(q)
        | Statement::Explain { query: q, .. }
        | Statement::CreateTableAs { query: q, .. } => Ok(CheckReport {
            columns: a.check_query(q)?,
        }),
        Statement::Insert(insert) => {
            a.check_insert(insert)?;
            Ok(CheckReport { columns: vec![] })
        }
        Statement::Delete {
            table,
            table_span,
            predicate,
        } => {
            a.check_delete(table, *table_span, predicate.as_ref())?;
            Ok(CheckReport { columns: vec![] })
        }
        Statement::Update {
            table,
            table_span,
            assignments,
            predicate,
        } => {
            a.check_update(table, *table_span, assignments, predicate.as_ref())?;
            Ok(CheckReport { columns: vec![] })
        }
        Statement::CreateTable(_)
        | Statement::CreateIndex(_)
        | Statement::DropTable { .. }
        | Statement::Begin
        | Statement::Commit
        | Statement::Rollback => Ok(CheckReport { columns: vec![] }),
    }
}

/// Statically check a bare query (used by `EXPLAIN (CHECK)`).
pub fn check_query(catalog: &Catalog, query: &Query) -> Result<CheckReport> {
    Ok(CheckReport {
        columns: Analyzer::new(catalog).check_query(query)?,
    })
}

/// Which clause an expression is being checked in. Drives the placement
/// rules for aggregates, window functions, and subqueries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Clause {
    Projection,
    Where,
    GroupBy,
    Having,
    OrderBy,
    JoinOn,
    /// DML predicates (DELETE/UPDATE WHERE): subqueries are resolved by the
    /// engine before binding, so they are allowed here.
    DmlPredicate,
    /// Positions bound directly with `bind_expr` and no subquery resolution:
    /// INSERT VALUES rows, UPDATE / DO UPDATE SET assignments, LIMIT/OFFSET.
    Bare,
}

impl Clause {
    fn allows_subqueries(self) -> bool {
        matches!(
            self,
            Clause::Projection
                | Clause::Where
                | Clause::GroupBy
                | Clause::Having
                | Clause::DmlPredicate
        )
    }
}

/// Per-expression checking context.
#[derive(Clone, Copy)]
struct Ctx<'s> {
    clause: Clause,
    /// Inside an aggregate argument (nested aggregates are invalid).
    in_aggregate: bool,
    /// Inside a window's PARTITION BY / ORDER BY (windows cannot nest).
    in_window: bool,
    /// The pre-aggregation scope, set while checking the rewritten
    /// projection/HAVING/ORDER BY of a grouped query. A column that resolves
    /// here but not in the aggregate output scope gets the "must appear in
    /// GROUP BY" diagnostic instead of "unknown column".
    pre_group_scope: Option<&'s Scope>,
}

impl Ctx<'_> {
    fn clause(clause: Clause) -> Ctx<'static> {
        Ctx {
            clause,
            in_aggregate: false,
            in_window: false,
            pre_group_scope: None,
        }
    }
}

struct Analyzer<'a> {
    catalog: &'a Catalog,
    /// Each CTE in scope with its output columns.
    ctes: CteFrames<Vec<(String, DataType)>>,
}

/// Least upper bound of two static types: equal types keep themselves, the
/// numeric pair widens to `REAL`, everything else (and anything unknown)
/// becomes `ANY`.
fn unify(a: DataType, b: DataType) -> DataType {
    use DataType::*;
    match (a, b) {
        (a, b) if a == b => a,
        (Integer, Real) | (Real, Integer) => Real,
        _ => Any,
    }
}

fn op_symbol(op: BinaryOp) -> &'static str {
    use BinaryOp::*;
    match op {
        Add => "+",
        Sub => "-",
        Mul => "*",
        Div => "/",
        Mod => "%",
        Concat => "||",
        Eq => "=",
        NotEq => "<>",
        Lt => "<",
        LtEq => "<=",
        Gt => ">",
        GtEq => ">=",
        And => "AND",
        Or => "OR",
    }
}

/// A query's output columns as a scope, read under `qualifier` if any.
fn output_scope(qualifier: Option<&str>, cols: &[(String, DataType)]) -> Scope {
    let label = |(name, ty): &(String, DataType)| ColLabel::new(qualifier, name).with_ty(*ty);
    Scope::new(cols.iter().map(label).collect())
}

impl<'a> Analyzer<'a> {
    fn new(catalog: &'a Catalog) -> Self {
        Analyzer {
            catalog,
            ctes: CteFrames::new(),
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    fn check_query(&mut self, query: &Query) -> Result<Vec<(String, DataType)>> {
        self.ctes.enter();
        let result = self.check_in_frame(query);
        self.ctes.leave();
        result
    }

    /// Check `query` with its own (still empty) CTE frame open.
    fn check_in_frame(&mut self, query: &Query) -> Result<Vec<(String, DataType)>> {
        for cte in &query.ctes {
            let cols = self.check_query(&cte.query)?;
            self.ctes.define(&cte.name, cols);
        }
        let cols = match &query.body {
            SetExpr::Select(select) => self.check_select(select, &query.order_by)?,
            SetExpr::Union { .. } => {
                let cols = self.check_set_expr(&query.body)?;
                // ORDER BY over a union reads the union's output only.
                let scope = output_scope(None, &cols);
                for oi in &query.order_by {
                    if ordinal(&oi.expr, cols.len())?.is_none() {
                        self.infer(&oi.expr, &scope, Ctx::clause(Clause::OrderBy))?;
                    }
                }
                cols
            }
        };
        if let Some(e) = &query.limit {
            self.check_limit(e, "LIMIT")?;
        }
        if let Some(e) = &query.offset {
            self.check_limit(e, "OFFSET")?;
        }
        Ok(cols)
    }

    fn check_set_expr(&mut self, body: &SetExpr) -> Result<Vec<(String, DataType)>> {
        match body {
            SetExpr::Select(select) => self.check_select(select, &[]),
            SetExpr::Union { left, right, .. } => {
                let l = self.check_set_expr(left)?;
                let r = self.check_set_expr(right)?;
                if l.len() != r.len() {
                    return Err(EngineError::sema(
                        format!(
                            "UNION arms have different column counts ({} vs {})",
                            l.len(),
                            r.len()
                        ),
                        Span::default(),
                    ));
                }
                // Column names come from the left arm; types unify.
                Ok(l.into_iter()
                    .zip(r)
                    .map(|((name, lt), (_, rt))| (name, unify(lt, rt)))
                    .collect())
            }
        }
    }

    /// Mirror the planner's `const_usize`: LIMIT/OFFSET must bind over an
    /// empty scope; when parameter-free it must fold to a non-negative
    /// integer at check time.
    fn check_limit(&mut self, e: &Expr, what: &str) -> Result<()> {
        self.infer(e, &Scope::default(), Ctx::clause(Clause::Bare))?;
        if !fold::is_const(e) {
            // Contains a parameter; the value is only known at execution.
            return Ok(());
        }
        let mut c = e.clone();
        fold::fold_expr(&mut c, true)?;
        match &c {
            Expr::Literal(Value::Int(i), _) if *i >= 0 => Ok(()),
            _ => Err(EngineError::sema(
                format!("{what} must be a non-negative integer"),
                e.span(),
            )),
        }
    }

    // ------------------------------------------------------------------
    // SELECT
    // ------------------------------------------------------------------

    fn check_select(
        &mut self,
        select: &Select,
        order_by: &[OrderItem],
    ) -> Result<Vec<(String, DataType)>> {
        // 1. FROM: build the input scope.
        let mut scope = Scope::default();
        for (i, tref) in select.from.iter().enumerate() {
            let s = self.check_table_ref(tref)?;
            scope = if i == 0 { s } else { scope.join(&s) };
        }

        // 2. WHERE.
        if let Some(sel) = &select.selection {
            let ty = self.infer(sel, &scope, Ctx::clause(Clause::Where))?;
            self.require_boolean(ty, sel.span())?;
            fold::check_expr(sel)?;
        }

        // 3. The block's normal form: wildcards expanded, aggregate and
        //    window calls replaced by markers, output columns named.
        let logical = LogicalSelect::build(select, order_by, &scope)?;

        // 4. Aggregation: keys and call arguments check over the input scope
        //    (aggregates and windows inside a key are rejected by `infer`);
        //    their types become the aggregate output scope's.
        let mut pre_group_scope = None;
        if let Some(agg) = logical.aggregate {
            let mut out_scope = agg.scope;
            let (key_labels, call_labels) = out_scope.labels.split_at_mut(agg.keys.len());
            for (g, label) in agg.keys.iter().zip(key_labels) {
                label.ty = self.infer(g, &scope, Ctx::clause(Clause::GroupBy))?;
                fold::check_expr(g)?;
            }
            for (call, label) in agg.calls.iter().zip(call_labels) {
                label.ty =
                    self.aggregate_type(call.func, call.arg.as_deref(), &scope, call.span)?;
            }
            pre_group_scope = Some(std::mem::replace(&mut scope, out_scope));
        }
        let over_groups = |clause| Ctx {
            pre_group_scope: pre_group_scope.as_ref(),
            ..Ctx::clause(clause)
        };

        // 5. HAVING checks over the aggregate output scope.
        if let Some(h) = &logical.having {
            let ty = self.infer(h, &scope, over_groups(Clause::Having))?;
            self.require_boolean(ty, h.span())?;
            fold::check_expr(h)?;
        }

        // 6. Window functions: each one's keys check over the scope it is
        //    appended to. The projection and ORDER BY read it by its marker,
        //    so any window the analyzer later *encounters* during inference
        //    is misplaced.
        for w in logical.windows {
            let wctx = Ctx {
                in_window: true,
                ..over_groups(Clause::Projection)
            };
            let order_keys = w.order_by.iter().map(|oi| &oi.expr);
            for key in w.partition_by.iter().chain(order_keys) {
                self.infer(key, &scope, wctx)?;
            }
            scope.labels.push(w.label);
        }

        // 7. Projection: infer each output type.
        let mut out: Vec<(String, DataType)> = Vec::with_capacity(logical.projection.len());
        for (e, name) in logical.projection {
            let ty = self.infer(&e, &scope, over_groups(Clause::Projection))?;
            fold::check_expr(&e)?;
            out.push((name, ty));
        }

        // 8. ORDER BY: an expression tries the output scope and falls back
        //    to the pre-projection scope (the planner computes a hidden sort
        //    column in that case, which SELECT DISTINCT forbids).
        let out_scope = output_scope(None, &out);
        let ctx = Ctx::clause(Clause::OrderBy);
        for (target, _) in &logical.order_by {
            let SortTarget::Expr(e) = target else {
                continue;
            };
            if self.infer(e, &out_scope, ctx).is_err() {
                self.infer(e, &scope, ctx)?;
                if select.distinct {
                    return Err(EngineError::sema(
                        "SELECT DISTINCT with ORDER BY on non-output expressions is not supported",
                        Span::default(),
                    ));
                }
            }
        }

        Ok(out)
    }

    // ------------------------------------------------------------------
    // FROM
    // ------------------------------------------------------------------

    fn check_table_ref(&mut self, tref: &TableRef) -> Result<Scope> {
        match tref {
            TableRef::Named { name, alias, span } => {
                let qual = alias.as_deref().unwrap_or(name);
                Ok(match table_source(&self.ctes, self.catalog, name, *span)? {
                    TableSource::Cte(cols) => output_scope(Some(qual), cols),
                    // Virtual `sys.*` tables have static schemas the
                    // analyzer reads without any runtime registry.
                    TableSource::System(schema) => table_scope(qual, &schema),
                    TableSource::Base(table) => table_scope(qual, &table.schema),
                })
            }
            TableRef::Derived { query, alias } => {
                Ok(output_scope(Some(alias), &self.check_query(query)?))
            }
            TableRef::Join {
                left, right, on, ..
            } => {
                let l = self.check_table_ref(left)?;
                let r = self.check_table_ref(right)?;
                let joined = l.join(&r);
                if let Some(cond) = on {
                    let ty = self.infer(cond, &joined, Ctx::clause(Clause::JoinOn))?;
                    self.require_boolean(ty, cond.span())?;
                    fold::check_expr(cond)?;
                }
                Ok(joined)
            }
        }
    }

    // ------------------------------------------------------------------
    // DML
    // ------------------------------------------------------------------

    fn check_insert(&mut self, insert: &Insert) -> Result<()> {
        let table = self.catalog.get(&insert.table).map_err(|_| {
            EngineError::sema(
                format!("table '{}' does not exist", insert.table),
                insert.table_span,
            )
        })?;
        for c in &insert.columns {
            if table.schema.position(c).is_none() {
                return Err(EngineError::sema(
                    format!("unknown column '{c}' in INSERT INTO {}", insert.table),
                    insert.table_span,
                ));
            }
        }
        let expected = if insert.columns.is_empty() {
            table.schema.len()
        } else {
            insert.columns.len()
        };
        match &insert.source {
            InsertSource::Values(rows) => {
                let empty = Scope::default();
                for row in rows {
                    if row.len() != expected {
                        return Err(EngineError::sema(
                            format!(
                                "INSERT expects {expected} values per row, got {}",
                                row.len()
                            ),
                            row.first()
                                .map(|e| e.span().cover(row.last().unwrap().span()))
                                .unwrap_or(insert.table_span),
                        ));
                    }
                    for e in row {
                        self.infer(e, &empty, Ctx::clause(Clause::Bare))?;
                        fold::check_expr(e)?;
                    }
                }
            }
            InsertSource::Query(q) => {
                let cols = self.check_query(q)?;
                if cols.len() != expected {
                    return Err(EngineError::sema(
                        format!(
                            "INSERT expects {expected} values per row, got {}",
                            cols.len()
                        ),
                        insert.table_span,
                    ));
                }
            }
        }
        if let Some(oc) = &insert.on_conflict {
            table
                .check_conflict_target(&oc.target_columns, &insert.table)
                .map_err(|m| EngineError::sema(m, insert.table_span))?;
            if let crate::ast::ConflictAction::DoUpdate(assignments) = &oc.action {
                // DO UPDATE expressions see [existing row, excluded row];
                // bare columns resolve to the existing row (mirrors the
                // engine's `qualify_bare_columns` rewrite).
                let scope = table_scope(&table.name, &table.schema)
                    .join(&table_scope("excluded", &table.schema));
                for (col, expr) in assignments {
                    if table.schema.position(col).is_none() {
                        return Err(EngineError::sema(
                            format!("unknown column '{col}' in DO UPDATE SET"),
                            expr.span(),
                        ));
                    }
                    let mut e = expr.clone();
                    crate::ast::qualify_bare_columns(&mut e, &table.name);
                    self.infer(&e, &scope, Ctx::clause(Clause::Bare))?;
                    fold::check_expr(&e)?;
                }
            }
        }
        Ok(())
    }

    fn check_delete(
        &mut self,
        table: &str,
        table_span: Span,
        predicate: Option<&Expr>,
    ) -> Result<()> {
        let scope = self.dml_table_scope(table, table_span)?;
        if let Some(p) = predicate {
            let ty = self.infer(p, &scope, Ctx::clause(Clause::DmlPredicate))?;
            self.require_boolean(ty, p.span())?;
            fold::check_expr(p)?;
        }
        Ok(())
    }

    fn check_update(
        &mut self,
        table: &str,
        table_span: Span,
        assignments: &[(String, Expr)],
        predicate: Option<&Expr>,
    ) -> Result<()> {
        let scope = self.dml_table_scope(table, table_span)?;
        let t = self.catalog.get(table).expect("checked by dml_table_scope");
        for (col, expr) in assignments {
            if t.schema.position(col).is_none() {
                return Err(EngineError::sema(
                    format!("unknown column '{col}' in UPDATE"),
                    expr.span(),
                ));
            }
            self.infer(expr, &scope, Ctx::clause(Clause::Bare))?;
            fold::check_expr(expr)?;
        }
        if let Some(p) = predicate {
            let ty = self.infer(p, &scope, Ctx::clause(Clause::DmlPredicate))?;
            self.require_boolean(ty, p.span())?;
            fold::check_expr(p)?;
        }
        Ok(())
    }

    /// Scope of a DML target table: columns visible bare and table-qualified,
    /// with declared types.
    fn dml_table_scope(&self, table: &str, table_span: Span) -> Result<Scope> {
        let t = self.catalog.get(table).map_err(|_| {
            EngineError::sema(format!("table '{table}' does not exist"), table_span)
        })?;
        Ok(table_scope(&t.name, &t.schema))
    }

    // ------------------------------------------------------------------
    // Expression inference
    // ------------------------------------------------------------------

    /// Infer the static type of `e` over `scope`, reporting misuse with the
    /// node's source span. Returns `Any` wherever the type cannot be known
    /// statically — only certainly-wrong expressions error.
    fn infer(&mut self, e: &Expr, scope: &Scope, ctx: Ctx) -> Result<DataType> {
        match e {
            Expr::Literal(v, _) => Ok(v.data_type()),
            Expr::Param(..) => Ok(DataType::Any),
            Expr::Column {
                qualifier,
                name,
                span,
            } => self.resolve_column(scope, qualifier.as_deref(), name, *span, ctx),
            Expr::Unary { op, expr, .. } => {
                let t = self.infer(expr, scope, ctx)?;
                match op {
                    UnaryOp::Neg => match t {
                        DataType::Text => {
                            Err(EngineError::sema("cannot negate a TEXT value", expr.span()))
                        }
                        t => Ok(t),
                    },
                    UnaryOp::Not => {
                        self.require_boolean(t, expr.span())?;
                        Ok(DataType::Integer)
                    }
                }
            }
            Expr::Binary {
                left, op, right, ..
            } => {
                let lt = self.infer(left, scope, ctx)?;
                let rt = self.infer(right, scope, ctx)?;
                match coerce(*op, lt, rt) {
                    BinCoercion::IntArith => Ok(DataType::Integer),
                    BinCoercion::FloatArith => Ok(DataType::Real),
                    BinCoercion::AnyArith => Ok(DataType::Any),
                    BinCoercion::Concat => Ok(DataType::Text),
                    BinCoercion::Compare | BinCoercion::Bool => Ok(DataType::Integer),
                    BinCoercion::ErrTextArith => {
                        // Report the left operand first, like the evaluator.
                        let side = if lt == DataType::Text { left } else { right };
                        Err(EngineError::sema(
                            format!(
                                "operand of '{}' expected a numeric value, found TEXT",
                                op_symbol(*op)
                            ),
                            side.span(),
                        ))
                    }
                    BinCoercion::ErrTextBool => {
                        let side = if lt == DataType::Text { left } else { right };
                        Err(EngineError::sema(
                            "TEXT value used in a boolean context",
                            side.span(),
                        ))
                    }
                }
            }
            Expr::IsNull { expr, .. } => {
                self.infer(expr, scope, ctx)?;
                Ok(DataType::Integer)
            }
            Expr::InList { expr, list, .. } => {
                self.infer(expr, scope, ctx)?;
                for item in list {
                    self.infer(item, scope, ctx)?;
                }
                Ok(DataType::Integer)
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                self.infer(expr, scope, ctx)?;
                self.infer(low, scope, ctx)?;
                self.infer(high, scope, ctx)?;
                Ok(DataType::Integer)
            }
            Expr::Like { expr, pattern, .. } => {
                // LIKE stringifies both sides lossily; no type requirement.
                self.infer(expr, scope, ctx)?;
                self.infer(pattern, scope, ctx)?;
                Ok(DataType::Integer)
            }
            Expr::Case {
                operand,
                branches,
                else_expr,
                ..
            } => {
                match operand {
                    Some(o) => {
                        // Operand form compares with `sql_eq`: never a type
                        // error, whatever the WHEN types are.
                        self.infer(o, scope, ctx)?;
                        for (w, _) in branches {
                            self.infer(w, scope, ctx)?;
                        }
                    }
                    None => {
                        for (w, _) in branches {
                            let wt = self.infer(w, scope, ctx)?;
                            self.require_boolean(wt, w.span())?;
                        }
                    }
                }
                let mut ty: Option<DataType> = None;
                for (_, t) in branches {
                    let tt = self.infer(t, scope, ctx)?;
                    ty = Some(match ty {
                        None => tt,
                        Some(prev) => unify(prev, tt),
                    });
                }
                match else_expr {
                    Some(el) => {
                        let et = self.infer(el, scope, ctx)?;
                        ty = Some(match ty {
                            None => et,
                            Some(prev) => unify(prev, et),
                        });
                    }
                    // A missing ELSE yields NULL, so the type is unknown.
                    None => ty = Some(DataType::Any),
                }
                Ok(ty.unwrap_or(DataType::Any))
            }
            Expr::Cast { expr, ty, .. } => {
                self.infer(expr, scope, ctx)?;
                Ok(*ty)
            }
            Expr::Function { name, args, span } => {
                let Some(func) = ScalarFunc::from_name(name) else {
                    return Err(EngineError::sema(
                        format!("unknown function '{name}'"),
                        *span,
                    ));
                };
                if !func.arity_ok(args.len()) {
                    return Err(EngineError::sema(
                        format!("wrong number of arguments ({}) for {name}", args.len()),
                        *span,
                    ));
                }
                let mut arg_types = Vec::with_capacity(args.len());
                for a in args {
                    arg_types.push(self.infer(a, scope, ctx)?);
                }
                self.function_type(func, args, &arg_types)
            }
            Expr::Aggregate { span, .. } => Err(EngineError::sema(
                match (ctx.in_aggregate, ctx.clause) {
                    (true, _) => "nested aggregate functions are not supported",
                    (_, Clause::Where) => "aggregate function not allowed in WHERE",
                    (_, Clause::GroupBy) => "aggregate function not allowed in GROUP BY",
                    (_, Clause::JoinOn) => "aggregate function not allowed in JOIN conditions",
                    _ => "aggregate function used outside of an aggregating context",
                },
                *span,
            )),
            Expr::WindowRowNumber { span, .. } => Err(EngineError::sema(
                match (ctx.in_window, ctx.clause) {
                    (true, _) => "window functions cannot be nested",
                    (_, Clause::OrderBy) => {
                        "window function in ORDER BY must also appear in the SELECT list"
                    }
                    (_, Clause::Where) => "window function not allowed in WHERE",
                    (_, Clause::GroupBy) => "window function not allowed in GROUP BY",
                    (_, Clause::Having) => "window function not allowed in HAVING",
                    (_, Clause::JoinOn) => "window function not allowed in JOIN conditions",
                    _ => "window function used in an unsupported position",
                },
                *span,
            )),
            Expr::ScalarSubquery(q, span) => {
                self.require_subqueries(ctx, *span)?;
                let cols = self.check_query(q)?;
                Ok(cols.first().map(|(_, t)| *t).unwrap_or(DataType::Any))
            }
            Expr::InSubquery {
                expr, query, span, ..
            } => {
                self.require_subqueries(ctx, *span)?;
                self.infer(expr, scope, ctx)?;
                let cols = self.check_query(query)?;
                if cols.len() != 1 {
                    return Err(EngineError::sema(
                        format!("IN subquery must return one column, got {}", cols.len()),
                        *span,
                    ));
                }
                Ok(DataType::Integer)
            }
            Expr::Exists { query, span, .. } => {
                self.require_subqueries(ctx, *span)?;
                self.check_query(query)?;
                Ok(DataType::Integer)
            }
        }
    }

    fn require_subqueries(&self, ctx: Ctx, span: Span) -> Result<()> {
        if ctx.clause.allows_subqueries() && !ctx.in_aggregate && !ctx.in_window {
            Ok(())
        } else {
            Err(EngineError::sema(
                "subquery is not supported in this position \
                 (only uncorrelated subqueries in SELECT/WHERE/HAVING are supported)",
                span,
            ))
        }
    }

    fn require_boolean(&self, ty: DataType, span: Span) -> Result<()> {
        if ty == DataType::Text {
            return Err(EngineError::sema(
                "TEXT value used in a boolean context",
                span,
            ));
        }
        Ok(())
    }

    fn resolve_column(
        &self,
        scope: &Scope,
        qualifier: Option<&str>,
        name: &str,
        span: Span,
        ctx: Ctx,
    ) -> Result<DataType> {
        let why = match scope.find(qualifier, name) {
            Ok(i) => return Ok(scope.labels[i].ty),
            Err(why) => why,
        };
        // In a grouped query a column that exists in the input but not in
        // the aggregate output was simply not grouped.
        let ungrouped = why == Unresolved::Unknown
            && ctx
                .pre_group_scope
                .is_some_and(|pre| pre.find(qualifier, name).is_ok());
        let message = if ungrouped {
            format!(
                "column '{}' must appear in the GROUP BY clause \
                 or be used in an aggregate function",
                spelled(qualifier, name)
            )
        } else {
            why.message(qualifier, name)
        };
        Err(EngineError::sema(message, span))
    }

    /// Result type of an aggregate call; checks the argument expression.
    fn aggregate_type(
        &mut self,
        func: AggregateFunc,
        arg: Option<&Expr>,
        scope: &Scope,
        span: Span,
    ) -> Result<DataType> {
        let ctx = Ctx {
            in_aggregate: true,
            ..Ctx::clause(Clause::Projection)
        };
        let arg_ty = match arg {
            Some(a) => Some(self.infer(a, scope, ctx)?),
            None => None,
        };
        match func {
            AggregateFunc::Count => Ok(DataType::Integer),
            AggregateFunc::Sum => match arg_ty {
                Some(DataType::Text) => Err(EngineError::sema(
                    "SUM expected a numeric argument, found TEXT",
                    arg.map(|a| a.span()).unwrap_or(span),
                )),
                Some(t) => Ok(t),
                None => Ok(DataType::Any),
            },
            AggregateFunc::Avg => match arg_ty {
                Some(DataType::Text) => Err(EngineError::sema(
                    "AVG expected a numeric argument, found TEXT",
                    arg.map(|a| a.span()).unwrap_or(span),
                )),
                _ => Ok(DataType::Real),
            },
            // MIN/MAX use the total value order and pass the value through.
            AggregateFunc::Min | AggregateFunc::Max => Ok(arg_ty.unwrap_or(DataType::Any)),
        }
    }

    /// Result type of a scalar function call; rejects definitely-`TEXT`
    /// arguments in numeric positions (mirroring `eval_function`'s `as_f64`
    /// errors). String functions accept any type via lossy stringification.
    fn function_type(
        &self,
        func: ScalarFunc,
        args: &[Expr],
        arg_types: &[DataType],
    ) -> Result<DataType> {
        use ScalarFunc::*;
        let numeric = |i: usize| -> Result<()> {
            if arg_types[i] == DataType::Text {
                return Err(EngineError::sema(
                    "expected a numeric value, found TEXT",
                    args[i].span(),
                ));
            }
            Ok(())
        };
        match func {
            Pow => {
                numeric(0)?;
                numeric(1)?;
                Ok(DataType::Real)
            }
            Ln | Log10 | Exp | Sqrt | Floor | Ceil => {
                numeric(0)?;
                Ok(DataType::Real)
            }
            Round => {
                // The optional digits argument goes through `as_i64`, whose
                // failures are value-shaped; only the base is checked.
                numeric(0)?;
                Ok(DataType::Real)
            }
            Abs => {
                numeric(0)?;
                Ok(arg_types[0])
            }
            Sign => {
                numeric(0)?;
                Ok(DataType::Integer)
            }
            Mod => {
                numeric(0)?;
                numeric(1)?;
                Ok(match (arg_types[0], arg_types[1]) {
                    (DataType::Integer, DataType::Integer) => DataType::Integer,
                    (DataType::Any, _) | (_, DataType::Any) => DataType::Any,
                    _ => DataType::Real,
                })
            }
            Coalesce => Ok(arg_types
                .iter()
                .copied()
                .reduce(unify)
                .unwrap_or(DataType::Any)),
            NullIf => Ok(arg_types[0]),
            Length | Instr => Ok(DataType::Integer),
            Lower | Upper | Substr | Trim | Replace | Concat => Ok(DataType::Text),
        }
    }
}
