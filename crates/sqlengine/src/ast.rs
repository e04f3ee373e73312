//! Abstract syntax tree for the supported SQL subset.
//!
//! Expression nodes carry the byte [`Span`] of the source text they were
//! parsed from so the semantic analyzer can attach precise locations to
//! diagnostics. Spans compare equal to each other unconditionally, so AST
//! equality stays purely structural.

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

/// `ON CONFLICT (cols) DO UPDATE SET col = expr, ... | DO NOTHING`.
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

    /// True when this expression (sub)tree contains an aggregate call.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Aggregate { .. } => true,
            Expr::Literal(..) | Expr::Param(..) | Expr::Column { .. } => false,
            Expr::Unary { expr, .. } => expr.contains_aggregate(),
            Expr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::IsNull { expr, .. } => expr.contains_aggregate(),
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(Expr::contains_aggregate)
            }
            Expr::Between {
                expr, low, high, ..
            } => expr.contains_aggregate() || low.contains_aggregate() || high.contains_aggregate(),
            Expr::Like { expr, pattern, .. } => {
                expr.contains_aggregate() || pattern.contains_aggregate()
            }
            Expr::Case {
                operand,
                branches,
                else_expr,
                ..
            } => {
                operand.as_deref().is_some_and(Expr::contains_aggregate)
                    || branches
                        .iter()
                        .any(|(w, t)| w.contains_aggregate() || t.contains_aggregate())
                    || else_expr.as_deref().is_some_and(Expr::contains_aggregate)
            }
            Expr::Cast { expr, .. } => expr.contains_aggregate(),
            Expr::Function { args, .. } => args.iter().any(Expr::contains_aggregate),
            // Subqueries are planned independently; window functions never
            // contain aggregates of the enclosing query.
            Expr::WindowRowNumber { .. }
            | Expr::ScalarSubquery(..)
            | Expr::InSubquery { .. }
            | Expr::Exists { .. } => false,
        }
    }

    /// True when this expression (sub)tree contains a window function.
    pub fn contains_window(&self) -> bool {
        match self {
            Expr::WindowRowNumber { .. } => true,
            Expr::Literal(..) | Expr::Param(..) | Expr::Column { .. } => false,
            Expr::Unary { expr, .. } => expr.contains_window(),
            Expr::Binary { left, right, .. } => left.contains_window() || right.contains_window(),
            Expr::IsNull { expr, .. } => expr.contains_window(),
            Expr::InList { expr, list, .. } => {
                expr.contains_window() || list.iter().any(Expr::contains_window)
            }
            Expr::Between {
                expr, low, high, ..
            } => expr.contains_window() || low.contains_window() || high.contains_window(),
            Expr::Like { expr, pattern, .. } => expr.contains_window() || pattern.contains_window(),
            Expr::Case {
                operand,
                branches,
                else_expr,
                ..
            } => {
                operand.as_deref().is_some_and(Expr::contains_window)
                    || branches
                        .iter()
                        .any(|(w, t)| w.contains_window() || t.contains_window())
                    || else_expr.as_deref().is_some_and(Expr::contains_window)
            }
            Expr::Cast { expr, .. } => expr.contains_window(),
            Expr::Function { args, .. } => args.iter().any(Expr::contains_window),
            Expr::Aggregate { arg, .. } => arg.as_deref().is_some_and(Expr::contains_window),
            Expr::ScalarSubquery(..) | Expr::InSubquery { .. } | Expr::Exists { .. } => false,
        }
    }
}

/// Qualify unqualified column references with `table`. `ON CONFLICT DO
/// UPDATE` expressions resolve bare columns to the existing row; both the
/// engine and the semantic analyzer apply this rewrite before binding them.
pub(crate) fn qualify_bare_columns(e: &mut Expr, table: &str) {
    match e {
        Expr::Column { qualifier, .. } => {
            if qualifier.is_none() {
                *qualifier = Some(table.to_string());
            }
        }
        Expr::Literal(..) | Expr::Param(..) => {}
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
            qualify_bare_columns(expr, table);
        }
        Expr::Binary { left, right, .. } => {
            qualify_bare_columns(left, table);
            qualify_bare_columns(right, table);
        }
        Expr::InList { expr, list, .. } => {
            qualify_bare_columns(expr, table);
            for i in list {
                qualify_bare_columns(i, table);
            }
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            qualify_bare_columns(expr, table);
            qualify_bare_columns(low, table);
            qualify_bare_columns(high, table);
        }
        Expr::Like { expr, pattern, .. } => {
            qualify_bare_columns(expr, table);
            qualify_bare_columns(pattern, table);
        }
        Expr::Case {
            operand,
            branches,
            else_expr,
            ..
        } => {
            if let Some(o) = operand {
                qualify_bare_columns(o, table);
            }
            for (w, th) in branches {
                qualify_bare_columns(w, table);
                qualify_bare_columns(th, table);
            }
            if let Some(el) = else_expr {
                qualify_bare_columns(el, table);
            }
        }
        Expr::Function { args, .. } => {
            for a in args {
                qualify_bare_columns(a, table);
            }
        }
        Expr::Aggregate { arg, .. } => {
            if let Some(a) = arg {
                qualify_bare_columns(a, table);
            }
        }
        Expr::WindowRowNumber {
            partition_by,
            order_by,
            ..
        } => {
            for p in partition_by {
                qualify_bare_columns(p, table);
            }
            for oi in order_by {
                qualify_bare_columns(&mut oi.expr, table);
            }
        }
        // Subquery bodies have their own scopes.
        Expr::ScalarSubquery(..) | Expr::Exists { .. } => {}
        Expr::InSubquery { expr, .. } => qualify_bare_columns(expr, table),
    }
}
