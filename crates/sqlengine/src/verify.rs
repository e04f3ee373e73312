//! Post-planning static plan verification.
//!
//! After PRs 2–7 the engine carries three layers of cross-layer invariants
//! that nothing checked mechanically: sema-inferred output schemas vs.
//! physical plan shapes, index-scan keys vs. live catalog index definitions,
//! and hash-join probe labels vs. the rule that picks the probe. This
//! module walks a [`PhysPlan`] bottom-up and checks five invariant classes:
//!
//! 1. **schema** — every node's output arity is internally consistent
//!    (join/aggregate/project widths add up, a join's `out` lists
//!    positions of its joined row in ascending order, expression column
//!    references stay in bounds) and the root's arity and value types match the
//!    sema-typed output [`Scope`].
//! 2. **index-keys** — `IndexScan` / index-nested-loop nodes name a real
//!    catalog index, key tuple arity matches the index's key columns, key
//!    literal types match the indexed columns' declared types, and (when the
//!    caller holds the catalog-version guarantee) the plan's index and row
//!    snapshots are pointer-identical to the live catalog — i.e. the cached
//!    plan's catalog version is current.
//! 3. **derived-index** — a scan's built derived indexes must describe the
//!    row snapshot it travels with (they index as many rows as it holds),
//!    and every hash join's `probe=keyset(…)` label agrees with a rule
//!    *re-derived independently here* (not imported from `exec`) for when
//!    the join's key filter reads those indexes.
//! 4. **param-slots** — in a cached plan template every `?` slot from 1 to
//!    the maximum is reachable from the bind map (a gap means a bound value
//!    is silently dropped); in an executable plan no unbound
//!    [`PhysExpr::Param`] survives.
//! 5. **merge-determinism** — operators whose parallel implementations merge
//!    worker streams deterministically (`UNION ALL`, whose arms a pipeline's
//!    morsels run in order, and the sorted-run merges under `Sort`) only
//!    merge streams that agree on row arity; a ragged `UnionAll` would make
//!    the morsel-order merge ill-defined.
//!
//! The verifier runs on every freshly planned query and on every plan
//! served from the cache when [`crate::EngineConfig::verify_plans`] is on
//! (the default in debug builds, off in release), and is surfaced as
//! `EXPLAIN (VERIFY)` plus the `verify.plans_checked` /
//! `verify.violations` counters in `sys.metrics`. Violations convert into
//! spanned [`EngineError::Verify`] diagnostics pointing at the statement.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use crate::ast::{AggregateFunc, BinaryOp, JoinKind};
use crate::catalog::Catalog;
use crate::error::{EngineError, Span};
use crate::expr::{PhysExpr, Scope};
use crate::plan::{AggSpec, IndexRef, JoinAlgo, PhysPlan, PlannedQuery};
use crate::value::{DataType, Row, Value};

/// The five invariant classes the verifier checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum VerifyRule {
    /// Per-node output arity and root schema/type agreement with sema.
    Schema,
    /// Index references resolve against the live catalog with matching key
    /// arity, column types, and snapshot identity.
    IndexKeys,
    /// Derived indexes match their row snapshots; hash joins'
    /// `probe=keyset` labels agree with an independently re-derived rule.
    DerivedIndex,
    /// Parameter slots are gap-free in templates and fully bound in
    /// executable plans.
    ParamSlots,
    /// Deterministically merged streams agree on row arity.
    MergeDeterminism,
}

impl VerifyRule {
    /// All classes, in reporting order.
    pub const ALL: [VerifyRule; 5] = [
        VerifyRule::Schema,
        VerifyRule::IndexKeys,
        VerifyRule::DerivedIndex,
        VerifyRule::ParamSlots,
        VerifyRule::MergeDeterminism,
    ];

    /// Stable kebab-case name used in diagnostics, `EXPLAIN (VERIFY)`
    /// output, and tests.
    pub fn name(self) -> &'static str {
        match self {
            VerifyRule::Schema => "schema",
            VerifyRule::IndexKeys => "index-keys",
            VerifyRule::DerivedIndex => "derived-index",
            VerifyRule::ParamSlots => "param-slots",
            VerifyRule::MergeDeterminism => "merge-determinism",
        }
    }
}

impl fmt::Display for VerifyRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One invariant violation found in a plan.
#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: VerifyRule,
    /// The operator the violation was found at (its `EXPLAIN` label).
    pub node: String,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.rule, self.node, self.message)
    }
}

/// How `?` parameter slots must appear in the plan under verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamDiscipline {
    /// A cached plan template: `Param` nodes are expected, but the used
    /// slot set must be gap-free from 1 to the maximum.
    Template,
    /// An executable plan: every parameter must already be bound, so no
    /// `Param` node may remain anywhere in the tree.
    Bound,
}

/// What the verifier may assume about the catalog it was handed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotGuarantee {
    /// The caller holds the catalog read lock the plan was built (or
    /// version-validated) under: plan snapshots must be pointer-identical
    /// to the live catalog's.
    Current,
    /// The catalog may have advanced past the plan's version (e.g. a cache
    /// hit that raced a writer): structural index checks still run, but
    /// snapshot-identity mismatches are not violations.
    MayLag,
}

/// The outcome of verifying one plan.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Operator nodes walked.
    pub nodes: usize,
    pub violations: Vec<Violation>,
}

impl VerifyReport {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// First violation of a given class, if any.
    pub fn first_of(&self, rule: VerifyRule) -> Option<&Violation> {
        self.violations.iter().find(|v| v.rule == rule)
    }

    /// Collapse the report into a spanned [`EngineError::Verify`] carrying
    /// every violation (one per line), or `Ok` when the plan is clean.
    pub fn into_result(self, span: Span) -> crate::error::Result<()> {
        if self.violations.is_empty() {
            return Ok(());
        }
        let mut message = format!(
            "{} invariant violation(s) in physical plan:",
            self.violations.len()
        );
        for v in &self.violations {
            message.push_str("\n  ");
            message.push_str(&v.to_string());
        }
        Err(EngineError::verify(message, span))
    }

    /// The `EXPLAIN (VERIFY)` rendering: one `check | status | detail` row
    /// per invariant class.
    pub(crate) fn rows(&self) -> Vec<crate::value::Row> {
        use crate::value::Value;
        VerifyRule::ALL
            .iter()
            .map(|rule| {
                let details: Vec<String> = self
                    .violations
                    .iter()
                    .filter(|v| v.rule == *rule)
                    .map(|v| format!("{}: {}", v.node, v.message))
                    .collect();
                let status = if details.is_empty() {
                    "ok"
                } else {
                    "violation"
                };
                vec![
                    Value::text(rule.name()),
                    Value::text(status),
                    Value::text(details.join("; ")),
                ]
            })
            .collect()
    }
}

/// Verify a planned query against its sema-typed output scope.
pub fn verify_planned(
    planned: &PlannedQuery,
    catalog: Option<&Catalog>,
    guarantee: SnapshotGuarantee,
    discipline: ParamDiscipline,
) -> VerifyReport {
    verify_plan(
        &planned.plan,
        Some(&planned.scope),
        catalog,
        guarantee,
        discipline,
    )
}

/// Verify a bare plan. `expected` is the sema-typed output scope when the
/// caller has one; without it the root schema check is skipped and only the
/// internal consistency checks run.
pub fn verify_plan(
    plan: &PhysPlan,
    expected: Option<&Scope>,
    catalog: Option<&Catalog>,
    guarantee: SnapshotGuarantee,
    discipline: ParamDiscipline,
) -> VerifyReport {
    let mut checker = Checker {
        catalog,
        guarantee,
        violations: Vec::new(),
        nodes: 0,
        slots: BTreeSet::new(),
        discipline,
        shared: HashMap::new(),
    };
    let (width, types) = checker.node(plan);
    check_mode_labels(plan, &mut checker.violations);
    if let Some(scope) = expected {
        if width != scope.len() {
            checker.violate(
                VerifyRule::Schema,
                plan,
                format!(
                    "root produces {width} column(s) but the analyzed schema has {}",
                    scope.len()
                ),
            );
        } else {
            for (i, label) in scope.labels.iter().enumerate() {
                if !compatible(types[i], label.ty) {
                    checker.violate(
                        VerifyRule::Schema,
                        plan,
                        format!(
                            "output column {} ('{}') carries {} values but sema inferred {}",
                            i + 1,
                            label.name,
                            types[i],
                            label.ty
                        ),
                    );
                }
            }
        }
    }
    // Template plans must use a gap-free slot range: a hole means one bound
    // value can never reach any plan node ("orphan slot").
    if discipline == ParamDiscipline::Template {
        if let Some(&max) = checker.slots.iter().next_back() {
            for slot in 1..=max {
                if !checker.slots.contains(&slot) {
                    checker.violations.push(Violation {
                        rule: VerifyRule::ParamSlots,
                        node: "plan".to_string(),
                        message: format!(
                            "parameter slot ?{slot} is unreachable from the bind map \
                             (slots used: {:?}, max {max})",
                            checker.slots
                        ),
                    });
                }
            }
        }
    }
    VerifyReport {
        nodes: checker.nodes,
        violations: checker.violations,
    }
}

/// Whether an observed value type is acceptable where sema inferred `want`.
/// `Any` on either side is a wildcard, and the two numeric types are
/// mutually acceptable (the engine's dynamic typing stores `INTEGER` values
/// in `REAL` columns and vice versa); only a Text/numeric clash — the shape
/// a swapped-schema corruption produces — is a violation.
fn compatible(got: DataType, want: DataType) -> bool {
    match (got, want) {
        (DataType::Any, _) | (_, DataType::Any) => true,
        (DataType::Text, DataType::Text) => true,
        (DataType::Text, _) | (_, DataType::Text) => false,
        _ => true,
    }
}

/// Value types of the first row, `Any`-padded to `width` (`NULL` and
/// missing rows observe as `Any`).
fn row_types(rows: &[Row], width: usize) -> Vec<DataType> {
    let mut types = vec![DataType::Any; width];
    if let Some(row) = rows.first() {
        for (i, v) in row.iter().take(width).enumerate() {
            types[i] = v.data_type();
        }
    }
    types
}

struct Checker<'a> {
    catalog: Option<&'a Catalog>,
    guarantee: SnapshotGuarantee,
    violations: Vec<Violation>,
    nodes: usize,
    /// Every `?` slot index referenced anywhere in the plan.
    slots: BTreeSet<usize>,
    discipline: ParamDiscipline,
    /// What each shared subplan id produces, walked at its first reference.
    shared: HashMap<usize, (usize, Vec<DataType>)>,
}

impl Checker<'_> {
    fn violate(&mut self, rule: VerifyRule, node: &PhysPlan, message: String) {
        self.violations.push(Violation {
            rule,
            node: crate::explain::op_label(node),
            message,
        });
    }

    /// Walk one node, returning its output `(arity, column value types)`.
    fn node(&mut self, plan: &PhysPlan) -> (usize, Vec<DataType>) {
        self.nodes += 1;
        match plan {
            PhysPlan::Scan {
                rows,
                width,
                derived,
            } => {
                self.check_row_arity(plan, rows, *width);
                if let Some(slot) = derived {
                    self.check_derived(plan, slot, rows, *width);
                }
                (*width, row_types(rows, *width))
            }
            PhysPlan::VirtualScan { rows, width, .. } => {
                self.check_row_arity(plan, rows, *width);
                (*width, row_types(rows, *width))
            }
            PhysPlan::IndexScan {
                rows,
                width,
                index_name,
                index,
                keys,
            } => {
                self.check_row_arity(plan, rows, *width);
                self.check_index(plan, index_name, index, keys.as_deref(), rows);
                if let Some(keys) = keys {
                    for tuple in keys {
                        for e in tuple {
                            // Key expressions are row-independent: no column
                            // reference is legal (input width 0).
                            self.expr(plan, e, 0);
                        }
                    }
                }
                (*width, row_types(rows, *width))
            }
            PhysPlan::OneRow => (0, Vec::new()),
            PhysPlan::Filter { input, predicate } => {
                let (width, types) = self.node(input);
                self.expr(plan, predicate, width);
                (width, types)
            }
            PhysPlan::Project { input, exprs } => {
                let (width, types) = self.node(input);
                let out = exprs
                    .iter()
                    .map(|e| {
                        self.expr(plan, e, width);
                        expr_type(e, &types)
                    })
                    .collect();
                (exprs.len(), out)
            }
            PhysPlan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                kind,
                right_width,
                residual,
                algo,
                build_left,
                out,
            } => {
                let (lw, mut types) = self.node(left);
                let (rw, rtypes) = self.node(right);
                if *right_width != rw {
                    self.violate(
                        VerifyRule::Schema,
                        plan,
                        format!("declared right_width {right_width} but right child produces {rw}"),
                    );
                }
                if *build_left && (*kind != JoinKind::Inner || *algo != JoinAlgo::Hash) {
                    self.violate(
                        VerifyRule::Schema,
                        plan,
                        "only an INNER hash join may build on its left input \
                         (build_left must be false)"
                            .to_string(),
                    );
                }
                if left_keys.len() != right_keys.len() {
                    self.violate(
                        VerifyRule::Schema,
                        plan,
                        format!(
                            "{} left key(s) vs {} right key(s)",
                            left_keys.len(),
                            right_keys.len()
                        ),
                    );
                }
                for k in left_keys {
                    self.expr(plan, k, lw);
                }
                for k in right_keys {
                    self.expr(plan, k, rw);
                }
                types.extend(rtypes);
                if let Some(r) = residual {
                    self.expr(plan, r, lw + rw);
                }
                self.passed_on(plan, out.as_deref(), types)
            }
            PhysPlan::NestedLoopJoin {
                left,
                right,
                kind: _,
                right_width,
                predicate,
                out,
            } => {
                let (lw, mut types) = self.node(left);
                let (rw, rtypes) = self.node(right);
                if *right_width != rw {
                    self.violate(
                        VerifyRule::Schema,
                        plan,
                        format!("declared right_width {right_width} but right child produces {rw}"),
                    );
                }
                types.extend(rtypes);
                if let Some(p) = predicate {
                    self.expr(plan, p, lw + rw);
                }
                self.passed_on(plan, out.as_deref(), types)
            }
            PhysPlan::IndexJoin {
                probe,
                probe_keys,
                inner,
                inner_is_left,
                kind,
                inner_width,
                residual,
                out,
            } => {
                let (pw, ptypes) = self.node(probe);
                let (iw, itypes) = self.node(inner);
                if *inner_width != iw {
                    self.violate(
                        VerifyRule::Schema,
                        plan,
                        format!("declared inner_width {inner_width} but inner child produces {iw}"),
                    );
                }
                match inner.as_ref() {
                    PhysPlan::IndexScan {
                        keys: None,
                        index,
                        index_name,
                        ..
                    } => {
                        // Probe-key arity must match the index key arity.
                        // The plan-side index snapshot exposes it through
                        // any stored key tuple; the catalog side is checked
                        // in `check_index`.
                        if let Some(arity) = index_key_arity(index) {
                            if probe_keys.len() != arity {
                                self.violate(
                                    VerifyRule::IndexKeys,
                                    plan,
                                    format!(
                                        "{} probe key(s) against index '{index_name}' \
                                         whose keys have {arity} column(s)",
                                        probe_keys.len()
                                    ),
                                );
                            }
                        }
                    }
                    other => self.violate(
                        VerifyRule::IndexKeys,
                        plan,
                        format!(
                            "inner side must be a probed IndexScan (keys: None), found {}",
                            crate::explain::op_label(other)
                        ),
                    ),
                }
                if *kind == JoinKind::Left && *inner_is_left {
                    self.violate(
                        VerifyRule::Schema,
                        plan,
                        "LEFT index join requires the probe side on the left \
                         (inner_is_left must be false)"
                            .to_string(),
                    );
                }
                for k in probe_keys {
                    self.expr(plan, k, pw);
                }
                let types: Vec<DataType> = if *inner_is_left {
                    itypes.into_iter().chain(ptypes).collect()
                } else {
                    ptypes.into_iter().chain(itypes).collect()
                };
                if let Some(r) = residual {
                    self.expr(plan, r, pw + iw);
                }
                self.passed_on(plan, out.as_deref(), types)
            }
            PhysPlan::Aggregate { input, keys, aggs } => {
                let (width, types) = self.node(input);
                let mut out = Vec::with_capacity(keys.len() + aggs.len());
                for k in keys {
                    self.expr(plan, k, width);
                    out.push(expr_type(k, &types));
                }
                for a in aggs {
                    if let Some(arg) = &a.arg {
                        self.expr(plan, arg, width);
                    }
                    out.push(agg_type(a, &types));
                }
                (keys.len() + aggs.len(), out)
            }
            PhysPlan::Window {
                input,
                func: _,
                partition,
                order,
            } => {
                let (width, mut types) = self.node(input);
                for p in partition {
                    self.expr(plan, p, width);
                }
                for (e, _) in order {
                    self.expr(plan, e, width);
                }
                types.push(DataType::Integer);
                (width + 1, types)
            }
            PhysPlan::Sort { input, keys } => {
                let (width, types) = self.node(input);
                for (e, _) in keys {
                    self.expr(plan, e, width);
                }
                (width, types)
            }
            PhysPlan::Limit { input, .. } | PhysPlan::Distinct { input } => self.node(input),
            PhysPlan::Shared { id, input, .. } => {
                if let Some(out) = self.shared.get(id) {
                    return out.clone();
                }
                let out = self.node(input);
                self.shared.insert(*id, out.clone());
                out
            }
            PhysPlan::UnionAll { inputs } => {
                if inputs.is_empty() {
                    self.violate(
                        VerifyRule::MergeDeterminism,
                        plan,
                        "UnionAll with no inputs has no defined output arity".to_string(),
                    );
                    return (0, Vec::new());
                }
                let (width, types) = self.node(&inputs[0]);
                for (i, branch) in inputs.iter().enumerate().skip(1) {
                    let (w, _) = self.node(branch);
                    if w != width {
                        self.violate(
                            VerifyRule::MergeDeterminism,
                            plan,
                            format!(
                                "merged stream {} produces {w} column(s) but stream 1 \
                                 produces {width}; the deterministic submission-order \
                                 merge requires arity agreement",
                                i + 1
                            ),
                        );
                    }
                }
                (width, types)
            }
        }
    }

    /// What a join passes on of its joined row, whose column types are
    /// `joined` (residuals were checked against all of them): the columns
    /// `out` lists, each below the joined row's width, in ascending order,
    /// each once — or the whole row.
    fn passed_on(
        &mut self,
        plan: &PhysPlan,
        out: Option<&[usize]>,
        joined: Vec<DataType>,
    ) -> (usize, Vec<DataType>) {
        let Some(out) = out else {
            return (joined.len(), joined);
        };
        let width = joined.len();
        for &at in out.iter().filter(|&&at| at >= width) {
            self.violate(
                VerifyRule::Schema,
                plan,
                format!("out passes on column {at} of a {width}-column joined row"),
            );
        }
        if let Some(pair) = out.windows(2).find(|pair| pair[0] >= pair[1]) {
            self.violate(
                VerifyRule::Schema,
                plan,
                format!(
                    "out lists column {} after {}; it must ascend",
                    pair[1], pair[0]
                ),
            );
        }
        let types = out
            .iter()
            .map(|&at| joined.get(at).copied().unwrap_or(DataType::Any))
            .collect();
        (out.len(), types)
    }

    /// Rows must match the declared arity (checked against the first row;
    /// storage guarantees non-raggedness within a snapshot).
    fn check_row_arity(&mut self, plan: &PhysPlan, rows: &[Row], width: usize) {
        if let Some(first) = rows.first() {
            if first.len() != width {
                self.violate(
                    VerifyRule::Schema,
                    plan,
                    format!(
                        "declared width {width} but stored rows have {} column(s)",
                        first.len()
                    ),
                );
            }
        }
    }

    /// Every derived index a scan's slot has built indexes a column of the
    /// scan and as many rows as its snapshot holds (unbuilt ones have
    /// nothing to compare yet).
    fn check_derived(
        &mut self,
        plan: &PhysPlan,
        slot: &crate::catalog::DerivedIndexes,
        rows: &Arc<Vec<Row>>,
        width: usize,
    ) {
        for (column, index) in slot.built() {
            if column >= width || index.rows() != rows.len() {
                self.violate(
                    VerifyRule::DerivedIndex,
                    plan,
                    format!(
                        "derived index of column #{column} holds {} row(s) but the \
                         {width}-column scan snapshot has {}; it must describe the \
                         same snapshot",
                        index.rows(),
                        rows.len()
                    ),
                );
            }
        }
    }

    /// Resolve an index by name against the live catalog and check key
    /// arity, key literal types, and snapshot identity.
    fn check_index(
        &mut self,
        plan: &PhysPlan,
        index_name: &str,
        index: &IndexRef,
        keys: Option<&[Vec<PhysExpr>]>,
        rows: &Arc<Vec<Row>>,
    ) {
        let Some(catalog) = self.catalog else {
            return;
        };
        let Some(resolved) = resolve_index(catalog, index_name) else {
            self.violate(
                VerifyRule::IndexKeys,
                plan,
                format!("no index named '{index_name}' exists in the catalog"),
            );
            return;
        };
        if let Some(keys) = keys {
            for tuple in keys {
                if tuple.len() != resolved.key_columns.len() {
                    self.violate(
                        VerifyRule::IndexKeys,
                        plan,
                        format!(
                            "key tuple has {} column(s) but index '{index_name}' \
                             is over {} column(s)",
                            tuple.len(),
                            resolved.key_columns.len()
                        ),
                    );
                    continue;
                }
                for (e, &col) in tuple.iter().zip(&resolved.key_columns) {
                    let want = resolved.column_types[col];
                    let got = literal_type(e);
                    if !compatible(got, want) {
                        self.violate(
                            VerifyRule::IndexKeys,
                            plan,
                            format!(
                                "key for indexed column '{}' is {got} but the column \
                                 is declared {want}",
                                resolved.column_names[col]
                            ),
                        );
                    }
                }
            }
        }
        if self.guarantee == SnapshotGuarantee::Current {
            let map_current = match (index, &resolved.unique_map, &resolved.multi_map) {
                (IndexRef::Unique(m), Some(live), _) => Arc::ptr_eq(m, live),
                (IndexRef::Multi(m), _, Some(live)) => Arc::ptr_eq(m, live),
                _ => false,
            };
            if !map_current {
                self.violate(
                    VerifyRule::IndexKeys,
                    plan,
                    format!(
                        "index snapshot for '{index_name}' does not match the live \
                         catalog: the plan's catalog version is stale"
                    ),
                );
            }
            if !Arc::ptr_eq(rows, &resolved.rows) {
                self.violate(
                    VerifyRule::IndexKeys,
                    plan,
                    format!(
                        "row snapshot for '{index_name}' does not match the live \
                         catalog: the plan's catalog version is stale"
                    ),
                );
            }
        }
    }

    /// Walk one expression: column references must stay inside the input
    /// arity, and parameter slots are collected (or rejected, when the plan
    /// claims to be fully bound).
    fn expr(&mut self, node: &PhysPlan, e: &PhysExpr, width: usize) {
        match e {
            PhysExpr::Column(i) => {
                if *i >= width {
                    self.violate(
                        VerifyRule::Schema,
                        node,
                        format!("column reference #{i} out of range (input arity {width})"),
                    );
                }
            }
            PhysExpr::Param(slot) => {
                self.slots.insert(*slot);
                if self.discipline == ParamDiscipline::Bound {
                    self.violate(
                        VerifyRule::ParamSlots,
                        node,
                        format!("unbound parameter slot ?{slot} in an executable plan"),
                    );
                }
            }
            PhysExpr::Literal(_) => {}
            PhysExpr::Unary { expr, .. }
            | PhysExpr::IsNull { expr, .. }
            | PhysExpr::Cast { expr, .. } => self.expr(node, expr, width),
            PhysExpr::Binary { left, right, .. } => {
                self.expr(node, left, width);
                self.expr(node, right, width);
            }
            PhysExpr::InList { expr, list, .. } => {
                self.expr(node, expr, width);
                for i in list {
                    self.expr(node, i, width);
                }
            }
            PhysExpr::Between {
                expr, low, high, ..
            } => {
                self.expr(node, expr, width);
                self.expr(node, low, width);
                self.expr(node, high, width);
            }
            PhysExpr::Like { expr, pattern, .. } => {
                self.expr(node, expr, width);
                self.expr(node, pattern, width);
            }
            PhysExpr::Case {
                operand,
                branches,
                else_expr,
            } => {
                if let Some(o) = operand {
                    self.expr(node, o, width);
                }
                for (w, t) in branches {
                    self.expr(node, w, width);
                    self.expr(node, t, width);
                }
                if let Some(el) = else_expr {
                    self.expr(node, el, width);
                }
            }
            PhysExpr::Function { args, .. } => {
                for a in args {
                    self.expr(node, a, width);
                }
            }
        }
    }
}

/// A catalog index resolved by name, flattened for checking.
struct ResolvedIndex {
    key_columns: Vec<usize>,
    column_types: Vec<DataType>,
    column_names: Vec<String>,
    rows: Arc<Vec<Row>>,
    unique_map: Option<Arc<std::collections::HashMap<Vec<Value>, usize>>>,
    multi_map: Option<Arc<std::collections::HashMap<Vec<Value>, Vec<usize>>>>,
}

/// Find the index `name` refers to. Primary keys are named `<table>.pk` by
/// the planner; secondary indexes use their `CREATE INDEX` name.
fn resolve_index(catalog: &Catalog, name: &str) -> Option<ResolvedIndex> {
    for tname in catalog.table_names() {
        let Ok(t) = catalog.get(&tname) else {
            continue;
        };
        let column_types: Vec<DataType> = t.schema.columns.iter().map(|c| c.ty).collect();
        let column_names: Vec<String> = t.schema.columns.iter().map(|c| c.name.clone()).collect();
        if let Some(p) = &t.primary {
            if name.eq_ignore_ascii_case(&format!("{}.pk", t.name)) {
                return Some(ResolvedIndex {
                    key_columns: p.key_columns.clone(),
                    column_types,
                    column_names,
                    rows: Arc::clone(&t.rows),
                    unique_map: Some(Arc::clone(&p.map)),
                    multi_map: None,
                });
            }
        }
        for s in &t.secondary {
            if s.name.eq_ignore_ascii_case(name) {
                return Some(ResolvedIndex {
                    key_columns: s.key_columns.clone(),
                    column_types,
                    column_names,
                    rows: Arc::clone(&t.rows),
                    unique_map: None,
                    multi_map: Some(Arc::clone(&s.map)),
                });
            }
        }
    }
    None
}

/// Key arity of an index snapshot, observable from any stored key tuple
/// (`None` for an empty index).
fn index_key_arity(index: &IndexRef) -> Option<usize> {
    match index {
        IndexRef::Unique(m) => m.keys().next().map(Vec::len),
        IndexRef::Multi(m) => m.keys().next().map(Vec::len),
    }
}

/// Static type of a row-independent key expression (`Any` when it depends
/// on parameters or anything non-literal).
fn literal_type(e: &PhysExpr) -> DataType {
    match e {
        PhysExpr::Literal(v) => v.data_type(),
        PhysExpr::Cast { ty, .. } => *ty,
        _ => DataType::Any,
    }
}

/// Bottom-up value-type inference over a bound expression, given the input
/// column types. Deliberately conservative: anything uncertain is `Any`.
fn expr_type(e: &PhysExpr, input: &[DataType]) -> DataType {
    match e {
        PhysExpr::Literal(v) => v.data_type(),
        PhysExpr::Column(i) => input.get(*i).copied().unwrap_or(DataType::Any),
        PhysExpr::Cast { ty, .. } => *ty,
        PhysExpr::Binary { left, op, right } => match op {
            BinaryOp::Concat => DataType::Text,
            BinaryOp::Eq
            | BinaryOp::NotEq
            | BinaryOp::Lt
            | BinaryOp::LtEq
            | BinaryOp::Gt
            | BinaryOp::GtEq
            | BinaryOp::And
            | BinaryOp::Or => DataType::Integer,
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Mod => {
                match (expr_type(left, input), expr_type(right, input)) {
                    (DataType::Integer, DataType::Integer) => DataType::Integer,
                    (DataType::Real, DataType::Real)
                    | (DataType::Integer, DataType::Real)
                    | (DataType::Real, DataType::Integer) => DataType::Real,
                    _ => DataType::Any,
                }
            }
            BinaryOp::Div => match (expr_type(left, input), expr_type(right, input)) {
                (DataType::Integer, DataType::Integer) => DataType::Integer,
                (DataType::Real, _) | (_, DataType::Real) => DataType::Real,
                _ => DataType::Any,
            },
        },
        PhysExpr::IsNull { .. } | PhysExpr::InList { .. } | PhysExpr::Between { .. } => {
            DataType::Integer
        }
        PhysExpr::Like { .. } => DataType::Integer,
        _ => DataType::Any,
    }
}

/// Result type of one aggregate, given the input column types.
fn agg_type(a: &AggSpec, input: &[DataType]) -> DataType {
    let arg = a.arg.as_ref().map(|e| expr_type(e, input));
    match a.func {
        AggregateFunc::Count => DataType::Integer,
        AggregateFunc::Avg => DataType::Real,
        AggregateFunc::Sum => match arg {
            Some(DataType::Integer) => DataType::Integer,
            Some(DataType::Real) => DataType::Real,
            _ => DataType::Any,
        },
        AggregateFunc::Min | AggregateFunc::Max => arg.unwrap_or(DataType::Any),
    }
}

// ---------------------------------------------------------------------------
// Derived-index probe rule, re-derived
// ---------------------------------------------------------------------------

/// Cross-check every hash join's probe label against an independent
/// re-derivation of the rule that picks its probe, reporting divergence as
/// violations. `labeled` is the engine's own labeling (what `EXPLAIN`
/// prints and `sys.metrics` counts); the re-derivation below is written
/// from the rule documented in `exec::join`, not shared with it.
pub(crate) fn check_mode_labels(plan: &PhysPlan, checker_violations: &mut Vec<Violation>) {
    plan.for_each_node(&mut |node, _, _| {
        let labeled = crate::exec::node_mode(node);
        let derived = derived_mode(node);
        if labeled != derived {
            checker_violations.push(Violation {
                rule: VerifyRule::DerivedIndex,
                node: crate::explain::op_label(node),
                message: format!(
                    "labeled probe {} but the probe rule derives {}",
                    mode_name(labeled),
                    mode_name(derived)
                ),
            });
        }
    });
}

fn mode_name(mode: Option<bool>) -> &'static str {
    match mode {
        Some(true) => "keyset(index)",
        Some(false) => "keyset(row)",
        None => "none (not a hash join over a base table)",
    }
}

/// Independent re-derivation of when a hash join reads its probe side
/// through a derived index, written from the documented rule: a hash join
/// (hash algorithm only) probes the input it does not build on — the right
/// one when `build_left`, the left one otherwise; when that probe child is a
/// bare `Scan` and its keys are all bare columns, the join reads that table
/// itself: through the derived index iff the scan carries a derived-index
/// slot, there is one key and the join is INNER, row by row otherwise. No
/// other operator names a probe.
fn derived_mode(plan: &PhysPlan) -> Option<bool> {
    match plan {
        PhysPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            kind,
            algo: JoinAlgo::Hash,
            build_left,
            ..
        } => {
            let (probe, keys) = match build_left {
                true => (right, right_keys),
                false => (left, left_keys),
            };
            match &**probe {
                PhysPlan::Scan { derived, .. }
                    if keys.iter().all(|k| matches!(k, PhysExpr::Column(_))) =>
                {
                    Some(derived.is_some() && keys.len() == 1 && *kind == JoinKind::Inner)
                }
                _ => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_and_order_are_stable() {
        let names: Vec<&str> = VerifyRule::ALL.iter().map(|r| r.name()).collect();
        assert_eq!(
            names,
            vec![
                "schema",
                "index-keys",
                "derived-index",
                "param-slots",
                "merge-determinism"
            ]
        );
    }

    #[test]
    fn type_compatibility_is_lenient_only_between_numerics() {
        // `Any` (NULL, unobserved) is a wildcard; numerics promote freely;
        // only a text/numeric clash is a definite violation.
        assert!(compatible(DataType::Any, DataType::Text));
        assert!(compatible(DataType::Integer, DataType::Any));
        assert!(compatible(DataType::Integer, DataType::Real));
        assert!(compatible(DataType::Text, DataType::Text));
        assert!(!compatible(DataType::Text, DataType::Integer));
        assert!(!compatible(DataType::Real, DataType::Text));
    }

    #[test]
    fn report_into_result_lists_every_violation_with_its_class() {
        let report = VerifyReport {
            nodes: 3,
            violations: vec![
                Violation {
                    rule: VerifyRule::Schema,
                    node: "Project".to_string(),
                    message: "width mismatch".to_string(),
                },
                Violation {
                    rule: VerifyRule::IndexKeys,
                    node: "IndexScan".to_string(),
                    message: "dangling index".to_string(),
                },
            ],
        };
        assert!(!report.ok());
        assert!(report.first_of(VerifyRule::Schema).is_some());
        assert!(report.first_of(VerifyRule::ParamSlots).is_none());
        let err = report
            .into_result(crate::error::Span::new(0, 10))
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("2 invariant violation(s)"), "{msg}");
        assert!(msg.contains("[schema] Project: width mismatch"), "{msg}");
        assert!(msg.contains("[index-keys]"), "{msg}");
    }

    #[test]
    fn clean_report_converts_to_ok() {
        let report = VerifyReport {
            nodes: 1,
            violations: Vec::new(),
        };
        assert!(report.ok());
        assert!(report.into_result(crate::error::Span::new(0, 5)).is_ok());
    }
}
