//! Abstract syntax tree for the supported SQL subset.
//!
//! Expression nodes carry the byte [`Span`] of the source text they were
//! parsed from so the semantic analyzer can attach precise locations to
//! diagnostics. Spans compare equal to each other unconditionally, so AST
//! equality stays purely structural.
//!
//! Traversal lives here too: [`Expr::for_each_child`] (and its mutable twin)
//! is the one place `Expr`'s variants are listed for walking, and
//! [`Query::for_each_expr`] the one walk over a statement's clauses, CTEs,
//! derived tables and subquery bodies; the analyzer, the folder, the literal
//! lifter and the planner call these instead of matching for themselves.

use crate::error::Span;
use crate::value::{DataType, Value};

/// A full SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `SELECT` query (possibly with CTEs and set operations).
    Query(Query),
    CreateTable(CreateTable),
    CreateIndex(CreateIndex),
    DropTable {
        name: String,
        if_exists: bool,
    },
    /// `CREATE TABLE name AS SELECT ...` — materialize a query result.
    CreateTableAs {
        name: String,
        if_not_exists: bool,
        query: Query,
    },
    Insert(Insert),
    Delete {
        table: String,
        table_span: Span,
        predicate: Option<Expr>,
    },
    Update {
        table: String,
        table_span: Span,
        assignments: Vec<(String, Expr)>,
        predicate: Option<Expr>,
    },
    /// `EXPLAIN [ANALYZE | (CHECK) | (VERIFY) | (TRACE)] query` — render the
    /// physical plan (ANALYZE also executes it and reports per-operator row
    /// counts and timings; CHECK only runs semantic analysis and reports the
    /// typed output schema; VERIFY plans the query and reports the static
    /// plan verifier's per-check results without executing; TRACE executes
    /// once under a forced trace capture and renders the span tree).
    Explain {
        mode: ExplainMode,
        query: Query,
    },
    /// `BEGIN [TRANSACTION]`
    Begin,
    /// `COMMIT`
    Commit,
    /// `ROLLBACK`
    Rollback,
}

/// What `EXPLAIN` should do with the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExplainMode {
    /// Render the physical plan without executing.
    Plan,
    /// Execute and report per-operator statistics.
    Analyze,
    /// Run semantic analysis only and report the typed output schema.
    Check,
    /// Plan the query and run the static plan verifier, reporting one row
    /// per invariant class; nothing executes.
    Verify,
    /// Execute once under a forced trace capture and render the recorded
    /// span tree (names, durations, rows, typed attributes) with plain
    /// indentation.
    Trace,
}

/// A query: optional `WITH` clause plus a set-expression body and an
/// optional trailing `ORDER BY` / `LIMIT`.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub ctes: Vec<Cte>,
    pub body: SetExpr,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<Expr>,
    pub offset: Option<Expr>,
}

/// A common table expression: `name AS (query)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Cte {
    pub name: String,
    pub query: Query,
}

/// Body of a query: a plain `SELECT` or a set operation between bodies.
#[derive(Debug, Clone, PartialEq)]
pub enum SetExpr {
    Select(Box<Select>),
    /// `UNION [ALL]`; when `all` is false, duplicate rows are removed.
    Union {
        left: Box<SetExpr>,
        right: Box<SetExpr>,
        all: bool,
    },
}

/// A `SELECT ... FROM ... WHERE ... GROUP BY ... HAVING ...` block.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub distinct: bool,
    pub projection: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub selection: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
}

/// One item of the projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String, Span),
    /// `expr [AS alias]`
    Expr { expr: Expr, alias: Option<String> },
}

/// A table reference in the FROM clause, possibly chained with joins.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// Base table or CTE, with optional alias.
    Named {
        name: String,
        alias: Option<String>,
        span: Span,
    },
    /// Derived table `(query) AS alias`.
    Derived { query: Box<Query>, alias: String },
    /// Explicit join: `left JOIN right ON cond`.
    Join {
        left: Box<TableRef>,
        right: Box<TableRef>,
        kind: JoinKind,
        on: Option<Expr>,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    Left,
    Cross,
}

/// An `ORDER BY` item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: Expr,
    pub descending: bool,
}

/// Scalar expressions. Every variant carries the byte span of the source
/// fragment it was parsed from (empty for synthesized nodes).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Literal(Value, Span),
    /// Positional parameter (1-based).
    Param(usize, Span),
    /// Possibly-qualified column reference: `[qualifier.]name`.
    Column {
        qualifier: Option<String>,
        name: String,
        span: Span,
    },
    Unary {
        op: UnaryOp,
        expr: Box<Expr>,
        span: Span,
    },
    Binary {
        left: Box<Expr>,
        op: BinaryOp,
        right: Box<Expr>,
        span: Span,
    },
    /// `expr IS [NOT] NULL`
    IsNull {
        expr: Box<Expr>,
        negated: bool,
        span: Span,
    },
    /// `expr [NOT] IN (e1, e2, ...)`
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
        span: Span,
    },
    /// `expr [NOT] BETWEEN low AND high`
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
        span: Span,
    },
    /// `expr [NOT] LIKE pattern` (`%` and `_` wildcards)
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
        span: Span,
    },
    /// `CASE [operand] WHEN .. THEN .. [ELSE ..] END`
    Case {
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
        span: Span,
    },
    /// `CAST(expr AS type)`
    Cast {
        expr: Box<Expr>,
        ty: DataType,
        span: Span,
    },
    /// Scalar function call: `POW(a, b)`, `LN(x)`, ...
    Function {
        name: String,
        args: Vec<Expr>,
        span: Span,
    },
    /// Aggregate function call in a projection/HAVING.
    Aggregate {
        func: AggregateFunc,
        arg: Option<Box<Expr>>,
        distinct: bool,
        span: Span,
    },
    /// `ROW_NUMBER() / RANK() / DENSE_RANK() OVER (PARTITION BY ... ORDER BY ...)`
    WindowRowNumber {
        func: WindowFunc,
        partition_by: Vec<Expr>,
        order_by: Vec<OrderItem>,
        span: Span,
    },
    /// `(SELECT ...)` used as a scalar. Only uncorrelated subqueries are
    /// supported; they are evaluated once during planning.
    ScalarSubquery(Box<Query>, Span),
    /// `expr [NOT] IN (SELECT ...)` (uncorrelated).
    InSubquery {
        expr: Box<Expr>,
        query: Box<Query>,
        negated: bool,
        span: Span,
    },
    /// `[NOT] EXISTS (SELECT ...)` (uncorrelated).
    Exists {
        query: Box<Query>,
        negated: bool,
        span: Span,
    },
}

/// Supported ranking window functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowFunc {
    RowNumber,
    Rank,
    DenseRank,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Neg,
    Not,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Concat,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregateFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggregateFunc {
    pub fn name(&self) -> &'static str {
        match self {
            AggregateFunc::Count => "COUNT",
            AggregateFunc::Sum => "SUM",
            AggregateFunc::Avg => "AVG",
            AggregateFunc::Min => "MIN",
            AggregateFunc::Max => "MAX",
        }
    }
}

/// `CREATE TABLE` definition.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    pub name: String,
    pub if_not_exists: bool,
    pub columns: Vec<ColumnDef>,
    /// Column names of the primary key, if declared (inline or table-level).
    pub primary_key: Vec<String>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub ty: DataType,
}

/// `CREATE [UNIQUE] INDEX name ON table (cols)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateIndex {
    pub name: String,
    pub table: String,
    pub columns: Vec<String>,
    pub unique: bool,
    pub if_not_exists: bool,
}

/// `INSERT INTO table [(cols)] VALUES ... | SELECT ... [ON CONFLICT ...]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    pub table: String,
    pub table_span: Span,
    pub columns: Vec<String>,
    pub source: InsertSource,
    pub on_conflict: Option<OnConflict>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    Values(Vec<Vec<Expr>>),
    Query(Query),
}

/// `ON CONFLICT (cols) DO UPDATE SET col = expr, ... | DO NOTHING`, or
/// MySQL's `ON DUPLICATE KEY UPDATE col = expr, ...` (an empty target, which
/// means the primary key; `VALUES(col)` parses as `excluded.col`).
///
/// In `DO UPDATE` expressions, `excluded.col` refers to the row proposed for
/// insertion and bare/table-qualified columns refer to the existing row.
#[derive(Debug, Clone, PartialEq)]
pub struct OnConflict {
    pub target_columns: Vec<String>,
    pub action: ConflictAction,
}

#[derive(Debug, Clone, PartialEq)]
pub enum ConflictAction {
    DoNothing,
    DoUpdate(Vec<(String, Expr)>),
}

/// The one list of `Expr`'s variants written for traversal: the body of
/// [`Expr::for_each_child`] and [`Expr::for_each_child_mut`]. `$e` is `&Expr`
/// or `&mut Expr` and every binding follows it, so the twins cannot drift.
macro_rules! expr_children {
    ($e:expr, $f:expr) => {
        match $e {
            Expr::Literal(..) | Expr::Param(..) | Expr::Column { .. } => {}
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
                $f(expr);
            }
            Expr::Binary { left, right, .. } => {
                $f(left);
                $f(right);
            }
            Expr::InList { expr, list, .. } => {
                $f(expr);
                for item in list {
                    $f(item);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                $f(expr);
                $f(low);
                $f(high);
            }
            Expr::Like { expr, pattern, .. } => {
                $f(expr);
                $f(pattern);
            }
            Expr::Case {
                operand,
                branches,
                else_expr,
                ..
            } => {
                if let Some(operand) = operand {
                    $f(operand);
                }
                for (when, then) in branches {
                    $f(when);
                    $f(then);
                }
                if let Some(else_expr) = else_expr {
                    $f(else_expr);
                }
            }
            Expr::Function { args, .. } => {
                for arg in args {
                    $f(arg);
                }
            }
            Expr::Aggregate { arg, .. } => {
                if let Some(arg) = arg {
                    $f(arg);
                }
            }
            Expr::WindowRowNumber {
                partition_by,
                order_by,
                ..
            } => {
                for key in partition_by {
                    $f(key);
                }
                for OrderItem { expr, .. } in order_by {
                    $f(expr);
                }
            }
            // Subquery bodies are independent scopes; only the scalar side
            // of IN is a child.
            Expr::ScalarSubquery(..) | Expr::Exists { .. } => {}
            Expr::InSubquery { expr, .. } => $f(expr),
        }
    };
}

/// The boxed query of a subquery node, by the kind of reference `$e` is.
macro_rules! subquery_body {
    ($e:expr) => {
        match $e {
            Expr::ScalarSubquery(query, _)
            | Expr::InSubquery { query, .. }
            | Expr::Exists { query, .. } => Some(query),
            _ => None,
        }
    };
}

impl Expr {
    /// Convenience constructor for an unqualified column.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.into(),
            span: Span::default(),
        }
    }

    /// The source span of this node.
    pub fn span(&self) -> Span {
        match self {
            Expr::Literal(_, span)
            | Expr::Param(_, span)
            | Expr::ScalarSubquery(_, span)
            | Expr::Column { span, .. }
            | Expr::Unary { span, .. }
            | Expr::Binary { span, .. }
            | Expr::IsNull { span, .. }
            | Expr::InList { span, .. }
            | Expr::Between { span, .. }
            | Expr::Like { span, .. }
            | Expr::Case { span, .. }
            | Expr::Cast { span, .. }
            | Expr::Function { span, .. }
            | Expr::Aggregate { span, .. }
            | Expr::WindowRowNumber { span, .. }
            | Expr::InSubquery { span, .. }
            | Expr::Exists { span, .. } => *span,
        }
    }

    /// Call `f` on each direct child expression, in source order. The body
    /// of a subquery is a scope of its own and not a child (reach it through
    /// [`Expr::subquery`]); the scalar side of `IN (SELECT …)` is one.
    pub fn for_each_child(&self, f: &mut impl FnMut(&Expr)) {
        expr_children!(self, f);
    }

    /// Mutable twin of [`Expr::for_each_child`], stamped from the same body.
    pub fn for_each_child_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        expr_children!(self, f);
    }

    /// The query this node holds, when it is a scalar, `IN` or `EXISTS`
    /// subquery.
    pub(crate) fn subquery(&self) -> Option<&Query> {
        subquery_body!(self).map(|query| &**query)
    }

    /// Pre-order search: whether `pred` holds for this node or any node
    /// below it.
    pub(crate) fn any(&self, pred: &mut impl FnMut(&Expr) -> bool) -> bool {
        let mut found = pred(self);
        self.for_each_child(&mut |child| found = found || child.any(pred));
        found
    }

    /// True when this expression (sub)tree contains an aggregate call.
    pub fn contains_aggregate(&self) -> bool {
        let mut found = matches!(self, Expr::Aggregate { .. });
        // Window functions never contain aggregates of the enclosing query
        // (and subqueries, planned independently, are not children).
        if !matches!(self, Expr::WindowRowNumber { .. }) {
            self.for_each_child(&mut |child| found = found || child.contains_aggregate());
        }
        found
    }

    /// True when this expression (sub)tree contains a window function.
    pub fn contains_window(&self) -> bool {
        self.any(&mut |e| matches!(e, Expr::WindowRowNumber { .. }))
    }
}

/// Qualify unqualified column references with `table`. `ON CONFLICT DO
/// UPDATE` expressions resolve bare columns to the existing row; both the
/// engine and the semantic analyzer apply this rewrite before binding them.
/// (Subquery bodies have their own scopes and are left alone.)
pub(crate) fn qualify_bare_columns(e: &mut Expr, table: &str) {
    if let Expr::Column { qualifier, .. } = e {
        qualifier.get_or_insert_with(|| table.to_string());
    }
    e.for_each_child_mut(&mut |child| qualify_bare_columns(child, table));
}

/// Replace every subtree structurally equal to `target` with `replacement`.
pub(crate) fn replace_subtree(e: &mut Expr, target: &Expr, replacement: &Expr) {
    if e == target {
        *e = replacement.clone();
    } else {
        e.for_each_child_mut(&mut |child| replace_subtree(child, target, replacement));
    }
}

/// Collect the outermost subtrees `wanted` accepts, structurally
/// deduplicated.
fn collect_outermost(e: &Expr, wanted: fn(&Expr) -> bool, out: &mut Vec<Expr>) {
    if !wanted(e) {
        e.for_each_child(&mut |child| collect_outermost(child, wanted, out));
    } else if !out.contains(e) {
        out.push(e.clone());
    }
}

/// Collect aggregate sub-expressions (structurally deduplicated, outermost
/// only — nested aggregates are invalid and rejected at bind time).
pub(crate) fn collect_aggregates(e: &Expr, out: &mut Vec<Expr>) {
    collect_outermost(e, |e| matches!(e, Expr::Aggregate { .. }), out);
}

/// Collect window sub-expressions (structurally deduplicated).
pub(crate) fn collect_windows(e: &Expr, out: &mut Vec<Expr>) {
    collect_outermost(e, |e| matches!(e, Expr::WindowRowNumber { .. }), out);
}

/// Split an expression into its top-level AND conjuncts.
pub(crate) fn split_conjuncts(expr: &Expr) -> Vec<&Expr> {
    let mut out = Vec::new();
    fn walk<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
        if let Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
            ..
        } = e
        {
            walk(left, out);
            walk(right, out);
        } else {
            out.push(e);
        }
    }
    walk(expr, &mut out);
    out
}

/// AND a list of conjuncts back together. Panics on empty input.
pub(crate) fn conjoin(conjuncts: &[&Expr]) -> Expr {
    let mut it = conjuncts.iter();
    let first = (*it.next().expect("conjoin of empty list")).clone();
    it.fold(first, |acc, e| {
        let span = acc.span().cover(e.span());
        Expr::Binary {
            left: Box::new(acc),
            op: BinaryOp::And,
            right: Box::new((*e).clone()),
            span,
        }
    })
}

/// Derive a display name for an unaliased projection expression.
pub(crate) fn display_name(e: &Expr, index: usize) -> String {
    match e {
        Expr::Column { name, .. } => name.clone(),
        Expr::Aggregate { func, .. } => func.name().to_lowercase(),
        Expr::Function { name, .. } => name.to_lowercase(),
        Expr::WindowRowNumber { func, .. } => match func {
            WindowFunc::RowNumber => "row_number",
            WindowFunc::Rank => "rank",
            WindowFunc::DenseRank => "dense_rank",
        }
        .to_string(),
        _ => format!("col{index}"),
    }
}

/// The clause of its query an expression root belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clause {
    Projection,
    /// The condition of a `JOIN … ON` in the `FROM` clause.
    JoinOn,
    Where,
    GroupBy,
    Having,
    OrderBy,
    Limit,
    Offset,
}

/// Where in a statement an expression root sits, as [`Query::for_each_expr`]
/// reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Site {
    pub clause: Clause,
    /// Inside the body of a scalar, `IN` or `EXISTS` subquery, or of a CTE
    /// the planner runs while planning one (`logical::CteUse`), at any
    /// depth.
    pub in_subquery: bool,
}

impl Site {
    /// The outermost query: inside neither a CTE nor a subquery (the walk
    /// sets the clause root by root).
    const TOP: Site = Site {
        clause: Clause::Projection,
        in_subquery: false,
    };

    /// Whether the planner consumes an expression here at plan time — reads
    /// its value or runs it — so that neither an explicit `?` nor a lifted
    /// literal can stay symbolic in a plan template: `LIMIT` / `OFFSET`
    /// (folded to plan constants) and subquery bodies, with the CTEs they
    /// read (planned *and executed* during planning). This is the one
    /// statement of that rule.
    pub(crate) fn plan_time(self) -> bool {
        matches!(self.clause, Clause::Limit | Clause::Offset) || self.in_subquery
    }
}

/// A call names its output column; whatever a rewrite makes of it must not
/// rename that column, so the call's name becomes the item's alias first.
fn name_call(item: &mut SelectItem) {
    if let SelectItem::Expr {
        expr: call @ Expr::Function { .. },
        alias: alias @ None,
    } = item
    {
        *alias = Some(display_name(call, 0));
    }
}

/// Stamps out the walk over a statement's expression roots; `by_ref` and
/// `by_mut` below hold the two copies (`$m` is `mut` or nothing). `at`
/// carries the subquery flag down; its clause is set per root.
macro_rules! query_roots {
    ($children:ident $(, $m:tt)?) => {
        pub(super) fn query(q: &$($m)? Query, at: Site, f: &mut impl FnMut(&$($m)? Expr, Site)) {
            let uses = match q.ctes.is_empty() {
                true => Vec::new(),
                false => crate::logical::cte_uses(&*q),
            };
            for (cte, cte_use) in (&$($m)? q.ctes).into_iter().zip(uses) {
                let at = Site { in_subquery: at.in_subquery || cte_use.at_plan_time, ..at };
                query(&$($m)? cte.query, at, f);
            }
            set(&$($m)? q.body, at, f);
            for item in &$($m)? q.order_by {
                root(&$($m)? item.expr, Clause::OrderBy, at, f);
            }
            if let Some(limit) = &$($m)? q.limit {
                root(limit, Clause::Limit, at, f);
            }
            if let Some(offset) = &$($m)? q.offset {
                root(offset, Clause::Offset, at, f);
            }
        }

        fn set(body: &$($m)? SetExpr, at: Site, f: &mut impl FnMut(&$($m)? Expr, Site)) {
            let select = match body {
                SetExpr::Select(select) => &$($m)? **select,
                SetExpr::Union { left, right, .. } => {
                    set(left, at, f);
                    return set(right, at, f);
                }
            };
            for item in &$($m)? select.projection {
                $(name_call(&$m *item);)?
                if let SelectItem::Expr { expr, .. } = item {
                    root(expr, Clause::Projection, at, f);
                }
            }
            for item in &$($m)? select.from {
                table(item, at, f);
            }
            if let Some(predicate) = &$($m)? select.selection {
                root(predicate, Clause::Where, at, f);
            }
            for key in &$($m)? select.group_by {
                root(key, Clause::GroupBy, at, f);
            }
            if let Some(having) = &$($m)? select.having {
                root(having, Clause::Having, at, f);
            }
        }

        fn table(item: &$($m)? TableRef, at: Site, f: &mut impl FnMut(&$($m)? Expr, Site)) {
            match item {
                TableRef::Named { .. } => {}
                TableRef::Derived { query: q, .. } => query(q, at, f),
                TableRef::Join { left, right, on, .. } => {
                    table(left, at, f);
                    table(right, at, f);
                    if let Some(on) = on {
                        root(on, Clause::JoinOn, at, f);
                    }
                }
            }
        }

        /// Hand out one root, then the roots of the subquery bodies in it.
        fn root(e: &$($m)? Expr, clause: Clause, at: Site, f: &mut impl FnMut(&$($m)? Expr, Site)) {
            f(&$($m)? *e, Site { clause, ..at });
            below(e, Site { in_subquery: true, ..at }, f);
        }

        fn below(e: &$($m)? Expr, at: Site, f: &mut impl FnMut(&$($m)? Expr, Site)) {
            if let Some(q) = subquery_body!(&$($m)? *e) {
                query(q, at, f);
            }
            e.$children(&mut |child| below(child, at, f));
        }
    };
}

mod by_ref {
    use super::*;
    query_roots!(for_each_child);
}

mod by_mut {
    use super::*;
    query_roots!(for_each_child_mut, mut);
}

impl Query {
    /// Call `f` on every expression root of the statement with its [`Site`]:
    /// CTE bodies first, then the set operation's arms left to right — of
    /// each `SELECT` the projection, the `FROM` items (`JOIN … ON`
    /// conditions, derived tables), `WHERE`, `GROUP BY`, `HAVING` — then
    /// `ORDER BY`, `LIMIT` and `OFFSET`. The roots of the subquery bodies
    /// inside a root follow it.
    pub fn for_each_expr(&self, f: &mut impl FnMut(&Expr, Site)) {
        by_ref::query(self, Site::TOP, f);
    }

    /// Mutable twin of [`Query::for_each_expr`], for rewrites in place.
    pub fn for_each_expr_mut(&mut self, f: &mut impl FnMut(&mut Expr, Site)) {
        by_mut::query(self, Site::TOP, f);
    }
}

/// How a statement uses `?` parameters, as far as planning is concerned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ParamUse {
    /// It has none.
    None,
    /// Only where the executor evaluates them: they can stay symbolic in a
    /// cached plan template.
    Evaluated,
    /// At least one sits where [`Site::plan_time`] holds. Such statements
    /// plan inline with their actual parameter values and stay uncached.
    PlanTime,
}

/// Classify the `?` markers of `query` — anywhere in it, CTE bodies, derived
/// tables and subquery bodies included — in one pass.
pub(crate) fn param_use(query: &Query) -> ParamUse {
    let mut found = ParamUse::None;
    query.for_each_expr(&mut |root, site| {
        if found != ParamUse::PlanTime && root.any(&mut |e| matches!(e, Expr::Param(..))) {
            found = match site.plan_time() {
                true => ParamUse::PlanTime,
                false => ParamUse::Evaluated,
            };
        }
    });
    found
}

#[cfg(test)]
mod tests {
    use super::ParamUse::{Evaluated, PlanTime};
    use super::*;

    fn query(sql: &str) -> Query {
        match crate::parser::parse_statement(sql).unwrap() {
            Statement::Query(query) => query,
            other => panic!("not a query: {other:?}"),
        }
    }

    /// The children of `e` and of everything below it, by address: what
    /// `for_each_child_mut` hands out must be what `for_each_child` does.
    fn twins_agree(e: &mut Expr) {
        let mut shared = Vec::new();
        e.for_each_child(&mut |child| shared.push(child as *const Expr));
        let mut by_mut = Vec::new();
        e.for_each_child_mut(&mut |child| {
            by_mut.push(child as *const Expr);
            twins_agree(child);
        });
        assert_eq!(shared, by_mut);
    }

    #[test]
    fn shared_and_mutable_walks_visit_the_same_nodes_in_the_same_order() {
        for sql in [
            "WITH c AS (SELECT n, -n AS m FROM t WHERE n BETWEEN 1 AND ? OR s LIKE 'a%') \
             SELECT CASE n WHEN 1 THEN 'x' ELSE CAST(m AS TEXT) END, COUNT(DISTINCT m), \
                    ROW_NUMBER() OVER (PARTITION BY n ORDER BY m DESC), ABS(m) IS NULL \
             FROM c JOIN (SELECT n FROM t LIMIT 3) d ON c.n = d.n \
             WHERE c.n IN (1, 2) AND c.m IN (SELECT n FROM t WHERE EXISTS (SELECT 1)) \
             GROUP BY n, m HAVING SUM(m) > (SELECT MIN(n) FROM t) \
             ORDER BY ABS(n), 2 LIMIT 10 OFFSET 1",
            "SELECT n FROM t UNION ALL SELECT n + 1 FROM t UNION SELECT 3",
        ] {
            let mut query = query(sql);
            let mut shared = Vec::new();
            query.for_each_expr(&mut |root, site| shared.push((root as *const Expr, site)));
            let mut by_mut = Vec::new();
            query.for_each_expr_mut(&mut |root, site| {
                by_mut.push((root as *const Expr, site));
                twins_agree(root);
            });
            assert_eq!(shared, by_mut, "{sql}");
            assert!(shared.len() >= 3, "{sql}");
        }
    }

    #[test]
    fn param_use_is_a_function_of_the_site() {
        let evaluated: &[&str] = &[
            "SELECT n + ? FROM t JOIN u ON t.n = u.n + ? WHERE s = ? \
             GROUP BY n + ? HAVING COUNT(*) > ? ORDER BY n + ?",
            "SELECT n FROM (SELECT n FROM t WHERE n > ?) d",
            "SELECT n FROM t WHERE n + ? IN (SELECT n FROM u)",
            "WITH c AS (SELECT n FROM (SELECT 1 AS n UNION ALL SELECT ?) d) SELECT n FROM c",
        ];
        let plan_time: &[&str] = &[
            "SELECT n FROM t LIMIT ?",
            "SELECT n FROM t LIMIT 1 OFFSET ?",
            "SELECT n FROM t WHERE n IN (SELECT n FROM u WHERE n > ?)",
            "SELECT (SELECT MAX(n) FROM (SELECT n FROM t WHERE EXISTS (SELECT ?)) d) FROM t",
            "WITH c AS (SELECT n FROM u WHERE n > ?) SELECT n FROM t WHERE n IN (SELECT n FROM c)",
        ];
        for (statements, expected) in [
            (&["SELECT n FROM t"][..], ParamUse::None),
            (evaluated, Evaluated),
            (plan_time, PlanTime),
        ] {
            for sql in statements {
                assert_eq!(param_use(&query(sql)), expected, "{sql}");
            }
        }
    }
}
