//! The normal form of one `SELECT` block, and what a name in `FROM` denotes.
//!
//! The analyzer ([`crate::sema`]) *types* a statement and the planner
//! ([`crate::plan`]) *binds* it, but the shape they work on is the same, and
//! it is derived here, once, from the block as parsed and the scope of its
//! `FROM` clause: which columns a wildcard stands for, whether the block
//! aggregates, which aggregate and window calls it computes and under which
//! internal column each is then read, what every output column is called,
//! and which `ORDER BY` items are ordinals. Both sides call
//! [`LogicalSelect::build`] rather than one handing its result to the other:
//! the tree is rewritten between them (constant folding, literal lifting),
//! and a prepared statement is checked once but planned against later
//! catalogs.
//!
//! Nothing here evaluates, types or binds an expression. A name that does
//! not resolve is left as written for the caller to report, with the span
//! and wording of its own layer.

use std::collections::HashMap;

use crate::ast::{
    collect_aggregates, collect_windows, display_name, replace_subtree, AggregateFunc, Expr,
    OrderItem, Query, Select, SelectItem, SetExpr, TableRef, WindowFunc,
};
use crate::catalog::{Catalog, Schema, Table};
use crate::error::{EngineError, Result, Span};
use crate::expr::{ColLabel, Scope};
use crate::telemetry::sys;
use crate::value::{DataType, Value};

/// One `SELECT` block in the order its pieces run: aggregate, `HAVING`,
/// windows, projection, sort.
pub(crate) struct LogicalSelect<'a> {
    /// Present when the block aggregates. `having`, `windows`, `projection`
    /// and `order_by` then read [`Aggregation::scope`], not the `FROM` scope.
    pub aggregate: Option<Aggregation<'a>>,
    pub having: Option<Expr>,
    /// Window calls of the projection, in the order their columns are
    /// appended to the scope.
    pub windows: Vec<WindowCall>,
    /// Output columns, wildcards expanded, with their final names.
    pub projection: Vec<(Expr, String)>,
    /// Sort keys with their `descending` flag.
    pub order_by: Vec<(SortTarget, bool)>,
}

pub(crate) struct Aggregation<'a> {
    /// The `GROUP BY` keys as written; they read the `FROM` scope.
    pub keys: &'a [Expr],
    /// The distinct aggregate calls of projection, `HAVING` and `ORDER BY`.
    pub calls: Vec<AggCall>,
    /// What the aggregate produces: one column per key, then one per call.
    /// A key that is a plain column keeps the `FROM` scope's label of the
    /// column it resolves to, so every spelling of that column (`g`, `t.g`,
    /// `T.G`) still finds it; any other key is `#g{i}`, a call `#a{i}`.
    pub scope: Scope,
}

/// An aggregate call; `arg` (`None` for `COUNT(*)`) reads the `FROM` scope.
pub(crate) struct AggCall {
    pub func: AggregateFunc,
    pub arg: Option<Box<Expr>>,
    pub distinct: bool,
    pub span: Span,
}

/// A window call. Its keys read the scope it is appended to; the rest of
/// the block reads its value through `label` (`#w{position}`).
pub(crate) struct WindowCall {
    pub func: WindowFunc,
    pub partition_by: Vec<Expr>,
    pub order_by: Vec<OrderItem>,
    pub label: ColLabel,
}

pub(crate) enum SortTarget {
    /// An ordinal: this (0-based) output column.
    Output(usize),
    /// Resolved against the output columns first and, failing that, the
    /// scope the projection reads (a hidden sort column). The two callers
    /// each do that step: it is `infer` on one side and `bind` on the other.
    Expr(Expr),
}

impl<'a> LogicalSelect<'a> {
    pub(crate) fn build(select: &'a Select, order_by: &[OrderItem], from: &Scope) -> Result<Self> {
        let mut projection = expand_projection(&select.projection, from)?;
        let mut having = select.having.clone();
        let mut order: Vec<OrderItem> = order_by.to_vec();

        let aggregating = !select.group_by.is_empty()
            || projection.iter().any(|(e, _)| e.contains_aggregate())
            || having.as_ref().is_some_and(Expr::contains_aggregate);
        let aggregate = if aggregating {
            // Everything that reads the aggregate's output.
            let mut readers: Vec<&mut Expr> = projection
                .iter_mut()
                .map(|(e, _)| e)
                .chain(&mut having)
                .chain(order.iter_mut().map(|o| &mut o.expr))
                .collect();
            let mut calls: Vec<Expr> = Vec::new();
            for e in &readers {
                collect_aggregates(e, &mut calls);
            }
            let keys = select.group_by.iter().enumerate();
            let mut labels: Vec<ColLabel> = keys.map(|(i, g)| key_label(g, i, from)).collect();
            labels.extend((0..calls.len()).map(|i| ColLabel::bare(&format!("#a{i}"))));
            // Calls first: a call over a key expression (`SUM(x + 1) … GROUP
            // BY x + 1`) must still be recognised as that call. Plain column
            // keys need no rewrite — their label answers for them.
            let (key_labels, call_labels) = labels.split_at(select.group_by.len());
            let computed_keys = select
                .group_by
                .iter()
                .zip(key_labels)
                .filter(|(g, _)| !matches!(g, Expr::Column { .. }));
            for (target, label) in calls.iter().zip(call_labels).chain(computed_keys) {
                let marker = Expr::col(label.name.clone());
                for e in &mut readers {
                    replace_subtree(e, target, &marker);
                }
            }
            Some(Aggregation {
                keys: &select.group_by,
                calls: calls.into_iter().map(AggCall::from).collect(),
                scope: Scope::new(labels),
            })
        } else if let Some(h) = &having {
            let message = "HAVING requires GROUP BY or aggregates";
            return Err(EngineError::sema(message, h.span()));
        } else {
            None
        };

        // Only the projection computes windows; one in `ORDER BY` must repeat
        // a projected one, and any other the callers meet is misplaced.
        let mut specs: Vec<Expr> = Vec::new();
        for (e, _) in &projection {
            collect_windows(e, &mut specs);
        }
        let mut readers: Vec<&mut Expr> = projection
            .iter_mut()
            .map(|(e, _)| e)
            .chain(order.iter_mut().map(|o| &mut o.expr))
            .collect();
        let base = aggregate.as_ref().map_or(from.len(), |a| a.scope.len());
        let number = |(k, spec): (usize, Expr)| {
            let label = ColLabel::bare(&format!("#w{}", base + k)).with_ty(DataType::Integer);
            let marker = Expr::col(label.name.clone());
            for e in &mut readers {
                replace_subtree(e, &spec, &marker);
            }
            WindowCall::new(spec, label)
        };
        let windows = specs.into_iter().enumerate().map(number).collect();

        let width = projection.len();
        let order_by = order
            .into_iter()
            .map(|o| {
                let target = match ordinal(&o.expr, width)? {
                    Some(column) => SortTarget::Output(column),
                    None => SortTarget::Expr(o.expr),
                };
                Ok((target, o.descending))
            })
            .collect::<Result<_>>()?;
        Ok(LogicalSelect {
            aggregate,
            having,
            windows,
            projection,
            order_by,
        })
    }
}

/// The projection with `*` and `q.*` expanded against the `FROM` scope (in
/// scope order, before aggregation, so expanded columns join the grouping
/// rules) and every column named. A name comes from the alias or from the
/// expression *as written*: the rewrites that follow put markers no query
/// can spell where the calls were.
fn expand_projection(items: &[SelectItem], from: &Scope) -> Result<Vec<(Expr, String)>> {
    let column = |label: &ColLabel, span: Span| {
        let reference = Expr::Column {
            qualifier: label.qualifier.clone(),
            name: label.name.clone(),
            span,
        };
        (reference, label.name.clone())
    };
    let mut out = Vec::new();
    for item in items {
        match item {
            SelectItem::Wildcard => {
                out.extend(from.labels.iter().map(|l| column(l, Span::default())));
            }
            SelectItem::QualifiedWildcard(q, span) => {
                let before = out.len();
                let of_q = |l: &&ColLabel| {
                    l.qualifier
                        .as_deref()
                        .is_some_and(|lq| lq.eq_ignore_ascii_case(q))
                };
                out.extend(from.labels.iter().filter(of_q).map(|l| column(l, *span)));
                if out.len() == before {
                    let message = format!("unknown table alias '{q}.*'");
                    return Err(EngineError::sema(message, *span));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias
                    .clone()
                    .unwrap_or_else(|| display_name(expr, out.len()));
                out.push((expr.clone(), name));
            }
        }
    }
    Ok(out)
}

fn key_label(key: &Expr, i: usize, from: &Scope) -> ColLabel {
    match key {
        Expr::Column {
            qualifier, name, ..
        } => match from.find(qualifier.as_deref(), name) {
            Ok(column) => from.labels[column].clone(),
            Err(_) => ColLabel::new(qualifier.as_deref(), name),
        },
        _ => ColLabel::bare(&format!("#g{i}")),
    }
}

impl From<Expr> for AggCall {
    fn from(call: Expr) -> Self {
        let Expr::Aggregate {
            func,
            arg,
            distinct,
            span,
        } = call
        else {
            unreachable!("collect_aggregates yields aggregate nodes")
        };
        AggCall {
            func,
            arg,
            distinct,
            span,
        }
    }
}

impl WindowCall {
    fn new(spec: Expr, label: ColLabel) -> Self {
        let Expr::WindowRowNumber {
            func,
            partition_by,
            order_by,
            ..
        } = spec
        else {
            unreachable!("collect_windows yields window nodes")
        };
        WindowCall {
            func,
            partition_by,
            order_by,
            label,
        }
    }
}

/// The output column an `ORDER BY` item names by position, if the item is an
/// integer literal: `Some(0-based column)`, or an error when there is no
/// such column among the `width` the query returns.
pub(crate) fn ordinal(item: &Expr, width: usize) -> Result<Option<usize>> {
    let Expr::Literal(Value::Int(ordinal), span) = item else {
        return Ok(None);
    };
    match (*ordinal as usize).checked_sub(1).filter(|&i| i < width) {
        Some(column) => Ok(Some(column)),
        None => {
            let message = format!("ORDER BY ordinal {ordinal} out of range");
            Err(EngineError::sema(message, *span))
        }
    }
}

/// The CTE names in scope, innermost frame last: a query's `WITH` opens a
/// frame, each CTE is defined into it once it is done — so it sees the
/// earlier CTEs of its `WITH` and the enclosing frames, nothing later — and
/// the frame closes with the query. `T` is what a layer keeps per CTE.
pub(crate) struct CteFrames<T>(Vec<HashMap<String, T>>);

impl<T> CteFrames<T> {
    pub(crate) fn new() -> Self {
        CteFrames(Vec::new())
    }

    pub(crate) fn enter(&mut self) {
        self.0.push(HashMap::new());
    }

    pub(crate) fn leave(&mut self) {
        self.0.pop();
    }

    pub(crate) fn define(&mut self, name: &str, entry: T) {
        let frame = self.0.last_mut().expect("define follows enter");
        frame.insert(name.to_ascii_lowercase(), entry);
    }

    fn lookup(&self, name: &str) -> Option<&T> {
        let name = name.to_ascii_lowercase();
        self.0.iter().rev().find_map(|frame| frame.get(&name))
    }
}

/// How one CTE of a `WITH` is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct CteUse {
    /// The names in `FROM` that resolve to it.
    pub refs: usize,
    /// Whether the planner runs it while planning: a subquery body reads
    /// it, or a CTE the planner runs does. (A read from the body of a CTE a
    /// nested `WITH` defines counts too, whether or not that CTE is run.)
    pub at_plan_time: bool,
}

/// How each CTE of `query`'s own `WITH` is read, in definition order: names
/// in `FROM` anywhere in the statement — later CTE bodies, the body, derived
/// tables, subquery bodies — resolved by the frames above, so a reference an
/// inner `WITH` shadows does not count.
pub(crate) fn cte_uses(query: &Query) -> Vec<CteUse> {
    struct Walk {
        /// `Some(i)` for the `i`-th CTE being counted, `None` for one that
        /// shadows it.
        frames: CteFrames<Option<usize>>,
        uses: Vec<CteUse>,
        /// The counted CTEs each counted CTE's body reads outside subquery
        /// bodies: run at plan time if that one is.
        reads: Vec<Vec<usize>>,
        /// Where the walk is: in the body of this counted CTE; in the body
        /// of a CTE a nested `WITH` defines; in a subquery body.
        within: Option<usize>,
        nested: bool,
        in_subquery: bool,
    }
    impl Walk {
        fn query(&mut self, q: &Query, counted: bool) {
            self.frames.enter();
            for (i, cte) in q.ctes.iter().enumerate() {
                let (within, nested) = (self.within, self.nested);
                match counted {
                    true => self.within = Some(i),
                    false => self.nested = true,
                }
                self.query(&cte.query, false);
                (self.within, self.nested) = (within, nested);
                self.frames.define(&cte.name, counted.then_some(i));
            }
            self.set(&q.body);
            for item in &q.order_by {
                self.expr(&item.expr);
            }
            for e in q.limit.iter().chain(&q.offset) {
                self.expr(e);
            }
            self.frames.leave();
        }

        fn set(&mut self, body: &SetExpr) {
            let select = match body {
                SetExpr::Select(select) => select,
                SetExpr::Union { left, right, .. } => {
                    self.set(left);
                    return self.set(right);
                }
            };
            for item in &select.from {
                self.table(item);
            }
            for item in &select.projection {
                if let SelectItem::Expr { expr, .. } = item {
                    self.expr(expr);
                }
            }
            let clauses = select.selection.iter().chain(&select.group_by);
            for e in clauses.chain(&select.having) {
                self.expr(e);
            }
        }

        fn table(&mut self, item: &TableRef) {
            match item {
                TableRef::Named { name, .. } => {
                    let Some(&Some(i)) = self.frames.lookup(name) else {
                        return;
                    };
                    self.uses[i].refs += 1;
                    if self.in_subquery || self.nested {
                        self.uses[i].at_plan_time = true;
                    } else if let Some(reader) = self.within {
                        self.reads[reader].push(i);
                    }
                }
                TableRef::Derived { query, .. } => self.query(query, false),
                TableRef::Join {
                    left, right, on, ..
                } => {
                    self.table(left);
                    self.table(right);
                    if let Some(on) = on {
                        self.expr(on);
                    }
                }
            }
        }

        fn expr(&mut self, e: &Expr) {
            e.any(&mut |node| {
                if let Some(q) = node.subquery() {
                    let in_subquery = std::mem::replace(&mut self.in_subquery, true);
                    self.query(q, false);
                    self.in_subquery = in_subquery;
                }
                false
            });
        }
    }
    let n = query.ctes.len();
    let mut walk = Walk {
        frames: CteFrames::new(),
        uses: vec![CteUse::default(); n],
        reads: vec![Vec::new(); n],
        within: None,
        nested: false,
        in_subquery: false,
    };
    walk.query(query, true);
    // A body reads only earlier CTEs: one pass from the last settles all.
    for i in (0..n).rev() {
        if walk.uses[i].at_plan_time {
            for &read in &walk.reads[i] {
                walk.uses[read].at_plan_time = true;
            }
        }
    }
    walk.uses
}

/// What a table name in `FROM` denotes.
pub(crate) enum TableSource<'a, T> {
    Cte(&'a T),
    /// A virtual `sys.*` table; its schema is static.
    System(Schema),
    Base(&'a Table),
}

/// Resolve a table name: a CTE shadows a system table, which shadows a
/// catalog table; `sys.` names are reserved, so an unknown one is not looked
/// up in the catalog.
pub(crate) fn table_source<'a, T>(
    ctes: &'a CteFrames<T>,
    catalog: &'a Catalog,
    name: &str,
    span: Span,
) -> Result<TableSource<'a, T>> {
    if let Some(cte) = ctes.lookup(name) {
        return Ok(TableSource::Cte(cte));
    }
    if let Some(schema) = sys::schema(name) {
        return Ok(TableSource::System(schema));
    }
    if sys::is_sys_name(name) {
        let message = format!("unknown system table '{name}'");
        return Err(EngineError::sema(message, span));
    }
    match catalog.get(name) {
        Ok(table) => Ok(TableSource::Base(table)),
        Err(_) => Err(EngineError::sema(
            format!("table '{name}' does not exist"),
            span,
        )),
    }
}

/// The scope of a stored table read under `qualifier`, columns carrying
/// their declared types.
pub(crate) fn table_scope(qualifier: &str, schema: &Schema) -> Scope {
    let label = |c: &crate::catalog::Column| ColLabel::new(Some(qualifier), &c.name).with_ty(c.ty);
    Scope::new(schema.columns.iter().map(label).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{SetExpr, Statement};

    /// `FROM t, u AS v`: `t (g, x)` then `v (g, y)`.
    fn from() -> Scope {
        let label = |(q, name): &(&str, &str)| ColLabel::new(Some(q), name);
        Scope::new(
            [("t", "g"), ("t", "x"), ("v", "g"), ("v", "y")]
                .iter()
                .map(label)
                .collect(),
        )
    }

    /// Build the normal form of `sql`'s `SELECT` over [`from`] and hand it to
    /// `inspect` (it borrows the parsed statement).
    fn with_normal_form<R>(sql: &str, inspect: impl FnOnce(Result<LogicalSelect<'_>>) -> R) -> R {
        let Statement::Query(query) = crate::parser::parse_statement(sql).unwrap() else {
            panic!("not a query: {sql}");
        };
        let SetExpr::Select(select) = &query.body else {
            panic!("not a plain SELECT: {sql}");
        };
        inspect(LogicalSelect::build(select, &query.order_by, &from()))
    }

    fn column(qualifier: Option<&str>, name: &str) -> Expr {
        Expr::Column {
            qualifier: qualifier.map(str::to_string),
            name: name.to_string(),
            span: Span::default(),
        }
    }

    #[test]
    fn wildcards_expand_in_scope_order_where_they_stand() {
        with_normal_form("SELECT v.*, 1 AS one, * FROM t, u AS v", |select| {
            let (exprs, names): (Vec<Expr>, Vec<String>) =
                select.unwrap().projection.into_iter().unzip();
            assert_eq!(names, ["g", "y", "one", "g", "x", "g", "y"]);
            // Expanded references stay qualified: `g` alone would be ambiguous.
            assert_eq!(exprs[0], column(Some("v"), "g"));
            assert_eq!(exprs[3], column(Some("t"), "g"));
            assert_eq!(exprs[6], column(Some("v"), "y"));
        });
        // The alias matches case-insensitively; an alias that qualifies
        // nothing is an error at the wildcard.
        with_normal_form("SELECT V.* FROM t, u AS v", |select| {
            assert_eq!(select.unwrap().projection.len(), 2);
        });
        let sql = "SELECT w.* FROM t, u AS v";
        with_normal_form(sql, |select| {
            let Err(EngineError::Sema { message, span }) = select.map(|_| ()) else {
                panic!("`w` qualifies nothing");
            };
            assert_eq!(message, "unknown table alias 'w.*'");
            assert_eq!(&sql[span.range()], "w.*");
        });
    }

    #[test]
    fn one_aggregate_call_per_distinct_call() {
        let sql = "SELECT t.g, SUM(x), SUM(x) + COUNT(*) FROM t \
                   GROUP BY t.g HAVING SUM(x) > 1 ORDER BY SUM(x), MAX(x) DESC";
        with_normal_form(sql, |select| {
            let select = select.unwrap();
            let agg = select.aggregate.expect("aggregating");
            let funcs: Vec<&str> = agg.calls.iter().map(|c| c.func.name()).collect();
            assert_eq!(funcs, ["SUM", "COUNT", "MAX"]);
            let labels: Vec<&str> = agg.scope.labels.iter().map(|l| l.name.as_str()).collect();
            assert_eq!(labels, ["g", "#a0", "#a1", "#a2"]);
            // Every reader of `SUM(x)` reads the one column `#a0`.
            assert_eq!(select.projection[1].0, Expr::col("#a0"));
            let Some(Expr::Binary { left, .. }) = select.having else {
                panic!("HAVING is a comparison");
            };
            assert_eq!(*left, Expr::col("#a0"));
            assert!(
                matches!(&select.order_by[0], (SortTarget::Expr(e), false) if *e == Expr::col("#a0"))
            );
            assert!(
                matches!(&select.order_by[1], (SortTarget::Expr(e), true) if *e == Expr::col("#a2"))
            );
        });
    }

    #[test]
    fn a_column_key_is_labelled_as_the_from_column_it_resolves_to() {
        with_normal_form(
            "SELECT X, COUNT(*) FROM t GROUP BY X, y + 1, nosuch",
            |select| {
                let scope = select.unwrap().aggregate.expect("aggregating").scope;
                assert_eq!(scope.labels[0], ColLabel::new(Some("t"), "x"));
                assert_eq!(scope.labels[1], ColLabel::bare("#g1"));
                // Unresolved: kept as written, for the caller to report.
                assert_eq!(scope.labels[2], ColLabel::bare("nosuch"));
                // So every spelling of the key finds it.
                for (qualifier, name) in [(None, "x"), (Some("t"), "x"), (Some("T"), "X")] {
                    assert_eq!(scope.resolve(qualifier, name).unwrap(), 0);
                }
            },
        );
    }

    #[test]
    fn windows_are_numbered_by_their_position_in_the_row() {
        // Over the FROM scope (4 columns) …
        with_normal_form(
            "SELECT ROW_NUMBER() OVER (ORDER BY x), RANK() OVER (ORDER BY y) FROM t, u AS v \
             ORDER BY RANK() OVER (ORDER BY y)",
            |select| {
                let select = select.unwrap();
                let markers: Vec<&str> = select
                    .windows
                    .iter()
                    .map(|w| w.label.name.as_str())
                    .collect();
                assert_eq!(markers, ["#w4", "#w5"]);
                assert_eq!(select.projection[1].0, Expr::col("#w5"));
                assert!(
                    matches!(&select.order_by[0], (SortTarget::Expr(e), _) if *e == Expr::col("#w5"))
                );
            },
        );
        // … and after an aggregate over its output (1 key + 1 call), with the
        // window's own keys already reading that output.
        with_normal_form(
            "SELECT t.g, ROW_NUMBER() OVER (ORDER BY SUM(x) DESC) FROM t GROUP BY t.g",
            |select| {
                let select = select.unwrap();
                assert_eq!(select.windows[0].label.name, "#w2");
                assert_eq!(select.windows[0].order_by[0].expr, Expr::col("#a0"));
                assert_eq!(select.projection[1].0, Expr::col("#w2"));
            },
        );
    }

    #[test]
    fn names_are_taken_before_the_rewrite() {
        let sql =
            "SELECT SUM(x), x + 1, COUNT(*) AS n, ABS(x + 1), DENSE_RANK() OVER (ORDER BY x + 1) \
                   FROM t GROUP BY x + 1";
        with_normal_form(sql, |select| {
            let select = select.unwrap();
            let names: Vec<&str> = select.projection.iter().map(|(_, n)| n.as_str()).collect();
            assert_eq!(names, ["sum", "col1", "n", "abs", "dense_rank"]);
            assert_eq!(select.projection[1].0, Expr::col("#g0"));
        });
    }

    #[test]
    fn ordinals_name_output_columns() {
        with_normal_form("SELECT x, y FROM t, u AS v ORDER BY 2 DESC, x", |select| {
            let order_by = select.unwrap().order_by;
            assert!(matches!(order_by[0], (SortTarget::Output(1), true)));
            assert!(matches!(order_by[1], (SortTarget::Expr(_), false)));
        });
        let sql = "SELECT x, y FROM t, u AS v ORDER BY 3";
        with_normal_form(sql, |select| {
            let Err(EngineError::Sema { message, span }) = select.map(|_| ()) else {
                panic!("there is no third column");
            };
            assert_eq!(message, "ORDER BY ordinal 3 out of range");
            assert_eq!(&sql[span.range()], "3");
        });
        with_normal_form("SELECT x FROM t HAVING x > 1", |select| {
            let Err(error) = select.map(|_| ()) else {
                panic!("nothing aggregates");
            };
            assert_eq!(error.message(), "HAVING requires GROUP BY or aggregates");
        });
    }

    #[test]
    fn a_cte_is_visible_from_its_definition_to_the_end_of_its_query() {
        let catalog = Catalog::default();
        let mut ctes: CteFrames<u8> = CteFrames::new();
        let source = |ctes: &CteFrames<u8>, name: &str| match table_source(
            ctes,
            &catalog,
            name,
            Span::default(),
        ) {
            Ok(TableSource::Cte(entry)) => Ok(*entry),
            Ok(_) => panic!("{name} is not a CTE"),
            Err(error) => Err(error.message().to_string()),
        };
        ctes.enter();
        ctes.define("A", 1);
        ctes.enter();
        assert_eq!(source(&ctes, "a"), Ok(1), "enclosing frames are visible");
        ctes.define("a", 2);
        assert_eq!(source(&ctes, "A"), Ok(2), "the innermost definition wins");
        ctes.leave();
        assert_eq!(source(&ctes, "a"), Ok(1));
        // A CTE shadows a system table; an unknown `sys.` name never reaches
        // the catalog.
        assert!(matches!(
            table_source(&ctes, &catalog, "sys.metrics", Span::default()),
            Ok(TableSource::System(_))
        ));
        ctes.define("sys.metrics", 3);
        assert_eq!(source(&ctes, "SYS.METRICS"), Ok(3));
        assert_eq!(
            source(&ctes, "sys.nosuch"),
            Err("unknown system table 'sys.nosuch'".into())
        );
        assert_eq!(
            source(&ctes, "nosuch"),
            Err("table 'nosuch' does not exist".into())
        );
    }

    #[test]
    fn cte_uses_count_what_the_frames_resolve_to() {
        let uses = |sql: &str| {
            let Statement::Query(query) = crate::parser::parse_statement(sql).unwrap() else {
                panic!("not a query: {sql}");
            };
            let uses = cte_uses(&query);
            let refs: Vec<usize> = uses.iter().map(|u| u.refs).collect();
            let run: Vec<bool> = uses.iter().map(|u| u.at_plan_time).collect();
            (refs, run)
        };
        // Later CTEs, the body, a derived table, a join, subquery bodies —
        // which the planner runs, with what they read.
        assert_eq!(
            uses(
                "WITH a AS (SELECT 1 AS x), b AS (SELECT x FROM a), c AS (SELECT 2 AS x) \
                 SELECT * FROM a JOIN (SELECT x FROM c) d ON a.x = d.x \
                 ORDER BY (SELECT COUNT(*) FROM b)"
            ),
            (vec![2, 1, 1], vec![true, true, false])
        );
        // An inner `WITH` shadows a name only after its own definition, and
        // `UNION` arms count alike.
        assert_eq!(
            uses(
                "WITH a AS (SELECT 1 AS x) SELECT x FROM (WITH a AS (SELECT x FROM a) \
                 SELECT x FROM a) d UNION ALL SELECT x FROM a"
            ),
            (vec![2], vec![true])
        );
    }
}
