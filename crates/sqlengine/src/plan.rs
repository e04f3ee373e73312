//! Query planner: AST → physical plan.
//!
//! The planner follows the classic layering (scan → filter → join →
//! aggregate → window → project → distinct → sort → limit) with a few
//! practical optimizations that matter for BornSQL-style workloads:
//!
//! * single-table predicates are pushed below joins;
//! * equi-join conjuncts in the WHERE clause of comma-joins are detected and
//!   turned into hash joins (greedy left-deep ordering);
//! * CTEs are planned once, where they are defined. A CTE read by one
//!   reference is inlined into it (pipelined — the paper's "no intermediate
//!   materialization" claim); one read by several becomes a
//!   [`PhysPlan::Shared`] subplan that runs once per execution and whose
//!   references read its held rows (PostgreSQL's rule;
//!   [`PlannerConfig::materialize_ctes`] shares every CTE);
//! * once a plan is finished, every join is narrowed to the columns some
//!   operator above it reads ([`narrow_joins`]).
//!
//! The planner does not decide what a `SELECT` block *means* — which columns
//! `*` stands for, what is aggregated, what each output column is called:
//! that normal form, the CTE frames and the table lookup order are
//! [`crate::logical`]'s, shared with the analyzer. It binds each piece to
//! offsets and picks the operators.
//!
//! A plan tree is walked through [`PhysPlan::for_each_child`] (operators) and
//! [`PhysPlan::for_each_expr_mut`] (a node's own expressions); the AST-side
//! utilities the planner shares with the analyzer live in [`crate::ast`].

use std::collections::HashMap;
use std::sync::Arc;

use crate::ast::{
    self, conjoin, split_conjuncts, Expr, JoinKind, OrderItem, Query, Select, SelectItem, SetExpr,
    TableRef,
};
use std::cell::RefCell;

use crate::catalog::{Catalog, Schema, Table, TableDef};
use crate::error::{EngineError, Result, Span};
use crate::exec::ExecContext;
use crate::expr::{
    bind_expr, bind_expr_symbolic, column_only, shift_columns, ColLabel, PhysExpr, Scope,
};
use crate::logical::{
    cte_uses, ordinal, table_scope, table_source, CteFrames, CteUse, LogicalSelect, SortTarget,
    TableSource,
};
use crate::value::{Row, Value};

/// Which algorithm executes detected equi-joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinAlgo {
    /// Build a hash table on one side and probe it with the other: the left
    /// side builds when it is estimated at no more than half the right
    /// (INNER joins only), the right side otherwise.
    #[default]
    Hash,
    /// Sort both sides on the key and merge (an O(n log n) engine without
    /// hashing — the profile-C stand-in).
    SortMerge,
}

/// Planner options — these are the knobs the benchmark harness sweeps to
/// emulate different DBMS profiles (see DESIGN.md, "Substitutions").
#[derive(Debug, Clone, Copy)]
pub struct PlannerConfig {
    /// Algorithm for detected equi-joins. Joins with no equi conjunct always
    /// fall back to a nested loop.
    pub join_algo: JoinAlgo,
    /// Share every CTE — run it once per execution and let its references
    /// read the held rows ([`PhysPlan::Shared`]) — even one read by a single
    /// reference, which is otherwise inlined.
    pub materialize_ctes: bool,
    /// Match equality / `IN`-list predicates and join keys against table
    /// indexes, emitting `IndexScan` / index-nested-loop plans. Disabled for
    /// the forced-full-scan differential tests.
    pub use_indexes: bool,
    /// Attach the table's derived-index slot to base-table scans so a hash
    /// join finds the rows of its probe scan by its build keys. Disabled to
    /// make every hash join probe row by row, for differential testing.
    pub vectorized: bool,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            join_algo: JoinAlgo::Hash,
            materialize_ctes: false,
            use_indexes: true,
            vectorized: true,
        }
    }
}

/// Cartesian-product cap on the number of point lookups one `IndexScan` may
/// carry; predicates expanding past this stay as full-scan filters.
const MAX_INDEX_KEYS: usize = 64;

/// The inner side of an index-nested-loop join must have at least this many
/// rows for the lookup path to beat a hash build over it.
const MIN_INDEX_JOIN_INNER_ROWS: usize = 64;

/// The probe side's estimated cardinality must be at most `inner /
/// INDEX_JOIN_SELECTIVITY` for an index-nested-loop join to be chosen.
const INDEX_JOIN_SELECTIVITY: usize = 8;

/// Aggregate specification inside an [`PhysPlan::Aggregate`].
#[derive(Debug, Clone)]
pub struct AggSpec {
    pub func: ast::AggregateFunc,
    /// `None` for `COUNT(*)`.
    pub arg: Option<PhysExpr>,
    pub distinct: bool,
}

/// A snapshot of one table index usable by the executor (shared with the
/// catalog behind `Arc`, like row snapshots), bound by a run.
#[derive(Debug, Clone)]
pub enum IndexRef {
    /// Primary / unique index: key → row index.
    Unique(Arc<HashMap<Vec<Value>, usize>>),
    /// Secondary index: key → row indexes.
    Multi(Arc<HashMap<Vec<Value>, Vec<usize>>>),
}

impl IndexRef {
    /// Append the row indexes stored under `key` to `out`.
    pub(crate) fn lookup_into(&self, key: &[Value], out: &mut Vec<usize>) {
        match self {
            IndexRef::Unique(map) => out.extend(map.get(key).copied()),
            IndexRef::Multi(map) => {
                if let Some(list) = map.get(key) {
                    out.extend_from_slice(list);
                }
            }
        }
    }
}

/// A physical plan. Scans name the base tables they read; each run of the
/// plan binds those tables' rows and index maps, all under one catalog read
/// ([`crate::exec::Program::bind`]), and then executes without touching the
/// catalog. A plan therefore stays good across writes to its tables, as
/// long as their definitions stay what it was planned against.
#[derive(Debug, Clone)]
pub enum PhysPlan {
    /// Scan a base table, as named in the catalog. `derived`: a hash join
    /// probing this scan may find its rows by its build keys through the
    /// table's derived key indexes, bound with its rows; `false` makes such
    /// a join probe row by row.
    Scan {
        table: String,
        width: usize,
        derived: bool,
    },
    /// Scan a virtual `sys.*` system table, materialized from the engine's
    /// telemetry registry at plan time (point-in-time snapshot semantics,
    /// like every other scan). Never index-accessible and never plan-cached.
    VirtualScan {
        name: String,
        rows: Arc<Vec<Row>>,
        width: usize,
    },
    /// Point / multi-point lookup against a table index instead of a full
    /// scan. `keys` holds the row-independent key tuples when the planner
    /// resolved them from equality / `IN` predicates — literals after inline
    /// binding, possibly [`PhysExpr::Param`]-bearing expressions in cached
    /// plan templates (the executor const-evaluates each tuple, dropping
    /// NULL-containing ones). It is `None` when this node is the inner side
    /// of an [`PhysPlan::IndexJoin`] and is probed with keys computed from
    /// the outer side at runtime.
    IndexScan {
        table: String,
        width: usize,
        index_name: String,
        keys: Option<Vec<Vec<PhysExpr>>>,
    },
    /// Index-nested-loop join: for each probe row, evaluate `probe_keys` and
    /// look the tuple up in the inner side's index — the inner table is never
    /// scanned. Chosen by the planner when the probe side is estimated to be
    /// much smaller than the indexed side.
    IndexJoin {
        probe: Box<PhysPlan>,
        /// Key expressions bound against the probe side's scope, in the
        /// inner index's key-column order.
        probe_keys: Vec<PhysExpr>,
        /// Always an [`PhysPlan::IndexScan`] with `keys: None`.
        inner: Box<PhysPlan>,
        /// When true the inner table's columns precede the probe columns in
        /// the output row (the inner side was the left FROM item).
        inner_is_left: bool,
        /// `Inner`, or `Left` when the probe side is the outer side of a
        /// LEFT JOIN (requires `inner_is_left == false`).
        kind: JoinKind,
        inner_width: usize,
        /// Residual predicate evaluated on joined rows (scope order).
        residual: Option<PhysExpr>,
        /// The columns passed on ([`narrow_joins`]).
        out: Option<Vec<usize>>,
    },
    /// One empty row — the FROM-less `SELECT`.
    OneRow,
    Filter {
        input: Box<PhysPlan>,
        predicate: PhysExpr,
    },
    Project {
        input: Box<PhysPlan>,
        exprs: Vec<PhysExpr>,
    },
    /// Equi-join executed by the configured [`JoinAlgo`]. Its joined rows
    /// are always `left ++ right` (scope order), whichever side builds;
    /// what it passes on of them is `out`'s.
    HashJoin {
        left: Box<PhysPlan>,
        right: Box<PhysPlan>,
        left_keys: Vec<PhysExpr>,
        right_keys: Vec<PhysExpr>,
        kind: JoinKind,
        right_width: usize,
        /// Residual non-equi predicate evaluated on joined rows.
        residual: Option<PhysExpr>,
        algo: JoinAlgo,
        /// The hash table is built on the left input and the right one
        /// streams through the probe ([`PhysPlan::join_sides`]). Only ever
        /// set on an INNER [`JoinAlgo::Hash`] join.
        build_left: bool,
        /// The positions of the joined row (scope order, after the residual
        /// and a LEFT JOIN's NULL fill) the join passes on, ascending;
        /// `None` passes on all of them. Set by [`narrow_joins`].
        out: Option<Vec<usize>>,
    },
    NestedLoopJoin {
        left: Box<PhysPlan>,
        right: Box<PhysPlan>,
        kind: JoinKind,
        right_width: usize,
        predicate: Option<PhysExpr>,
        /// The columns passed on ([`narrow_joins`]).
        out: Option<Vec<usize>>,
    },
    Aggregate {
        input: Box<PhysPlan>,
        keys: Vec<PhysExpr>,
        aggs: Vec<AggSpec>,
    },
    /// Appends one ranking column (`ROW_NUMBER`/`RANK`/`DENSE_RANK`) per
    /// window spec.
    Window {
        input: Box<PhysPlan>,
        func: ast::WindowFunc,
        partition: Vec<PhysExpr>,
        order: Vec<(PhysExpr, bool)>,
    },
    Sort {
        input: Box<PhysPlan>,
        keys: Vec<(PhysExpr, bool)>,
    },
    Limit {
        input: Box<PhysPlan>,
        limit: Option<usize>,
        offset: usize,
    },
    UnionAll {
        inputs: Vec<PhysPlan>,
    },
    Distinct {
        input: Box<PhysPlan>,
    },
    /// One reference to a shared CTE: every reference holds a copy of the
    /// CTE's plan under the same `id`, unique in the statement. Per
    /// execution, the first reference to run collects `input` into the
    /// statement's slot for `id` while handing its rows on; every later one
    /// hands on the held rows.
    Shared {
        id: usize,
        /// The CTE's name and how many references read it, for `EXPLAIN`.
        cte: Arc<str>,
        refs: usize,
        input: Box<PhysPlan>,
    },
}

/// The one list of `PhysPlan`'s variants written for traversal: the body of
/// [`PhysPlan::for_each_child`] and [`PhysPlan::for_each_child_mut`] (`$plan`
/// is `&PhysPlan` or `&mut PhysPlan`; the bindings follow it).
macro_rules! plan_children {
    ($plan:expr, $f:expr) => {
        match $plan {
            PhysPlan::Scan { .. }
            | PhysPlan::VirtualScan { .. }
            | PhysPlan::IndexScan { .. }
            | PhysPlan::OneRow => {}
            PhysPlan::IndexJoin { probe, inner, .. } => {
                $f(probe);
                $f(inner);
            }
            PhysPlan::Filter { input, .. }
            | PhysPlan::Project { input, .. }
            | PhysPlan::Aggregate { input, .. }
            | PhysPlan::Window { input, .. }
            | PhysPlan::Sort { input, .. }
            | PhysPlan::Limit { input, .. }
            | PhysPlan::Distinct { input }
            | PhysPlan::Shared { input, .. } => $f(input),
            PhysPlan::HashJoin { left, right, .. }
            | PhysPlan::NestedLoopJoin { left, right, .. } => {
                $f(left);
                $f(right);
            }
            PhysPlan::UnionAll { inputs } => {
                for input in inputs {
                    $f(input);
                }
            }
        }
    };
}

impl PhysPlan {
    /// Number of operator nodes in the tree, each shared subplan's input
    /// counted once — the lines `EXPLAIN` renders (the `nodes` attribute of
    /// the tracer's plan span — a cheap shape fingerprint for spotting plan
    /// changes across trace captures without storing the plan text).
    pub fn node_count(&self) -> usize {
        let mut nodes = 0;
        self.for_each_node(&mut |_, _, _| nodes += 1);
        nodes
    }

    /// Call `f` on every node of the tree in `EXPLAIN` order with its depth,
    /// descending into each shared subplan's input once: a later
    /// [`PhysPlan::Shared`] reference to an id already visited is handed out
    /// with `reused` set, and its input is skipped.
    pub fn for_each_node(&self, f: &mut impl FnMut(&PhysPlan, usize, bool)) {
        fn walk(
            plan: &PhysPlan,
            depth: usize,
            seen: &mut Vec<usize>,
            f: &mut impl FnMut(&PhysPlan, usize, bool),
        ) {
            let reused = match plan {
                PhysPlan::Shared { id, .. } if seen.contains(id) => true,
                PhysPlan::Shared { id, .. } => {
                    seen.push(*id);
                    false
                }
                _ => false,
            };
            f(plan, depth, reused);
            if !reused {
                plan.for_each_child(&mut |child| walk(child, depth + 1, seen, f));
            }
        }
        walk(self, 0, &mut Vec::new(), f);
    }

    /// Call `f` on each input plan, in the order `EXPLAIN` renders them.
    pub fn for_each_child(&self, f: &mut impl FnMut(&PhysPlan)) {
        plan_children!(self, f);
    }

    /// Mutable twin of [`PhysPlan::for_each_child`], stamped from the same
    /// body.
    pub fn for_each_child_mut(&mut self, f: &mut impl FnMut(&mut PhysPlan)) {
        plan_children!(self, f);
    }

    /// Call `f` on each expression this node itself evaluates (not its
    /// inputs'): index-key tuples, join keys and residuals, predicates,
    /// projection lists, aggregate keys and arguments, window and sort keys.
    pub fn for_each_expr_mut(&mut self, f: &mut impl FnMut(&mut PhysExpr)) {
        match self {
            PhysPlan::Scan { .. }
            | PhysPlan::VirtualScan { .. }
            | PhysPlan::OneRow
            | PhysPlan::Limit { .. }
            | PhysPlan::UnionAll { .. }
            | PhysPlan::Distinct { .. }
            | PhysPlan::Shared { .. } => {}
            PhysPlan::IndexScan { keys, .. } => keys.iter_mut().flatten().flatten().for_each(f),
            PhysPlan::IndexJoin {
                probe_keys,
                residual,
                ..
            } => probe_keys.iter_mut().chain(residual).for_each(f),
            PhysPlan::Filter { predicate, .. } => f(predicate),
            PhysPlan::Project { exprs, .. } => exprs.iter_mut().for_each(f),
            PhysPlan::HashJoin {
                left_keys,
                right_keys,
                residual,
                ..
            } => left_keys
                .iter_mut()
                .chain(right_keys)
                .chain(residual)
                .for_each(f),
            PhysPlan::NestedLoopJoin { predicate, .. } => predicate.iter_mut().for_each(f),
            PhysPlan::Aggregate { keys, aggs, .. } => keys
                .iter_mut()
                .chain(aggs.iter_mut().filter_map(|agg| agg.arg.as_mut()))
                .for_each(f),
            PhysPlan::Window {
                partition, order, ..
            } => partition
                .iter_mut()
                .chain(order.iter_mut().map(|(key, _)| key))
                .for_each(f),
            PhysPlan::Sort { keys, .. } => keys.iter_mut().for_each(|(key, _)| f(key)),
        }
    }

    /// Number of columns in every row this plan produces.
    pub fn width(&self) -> usize {
        match self {
            PhysPlan::Scan { width, .. }
            | PhysPlan::VirtualScan { width, .. }
            | PhysPlan::IndexScan { width, .. } => *width,
            PhysPlan::OneRow => 0,
            PhysPlan::Project { exprs, .. } => exprs.len(),
            PhysPlan::Filter { input, .. }
            | PhysPlan::Sort { input, .. }
            | PhysPlan::Limit { input, .. }
            | PhysPlan::Distinct { input }
            | PhysPlan::Shared { input, .. } => input.width(),
            PhysPlan::Window { input, .. } => input.width() + 1,
            PhysPlan::Aggregate { keys, aggs, .. } => keys.len() + aggs.len(),
            PhysPlan::HashJoin { out: Some(out), .. }
            | PhysPlan::NestedLoopJoin { out: Some(out), .. }
            | PhysPlan::IndexJoin { out: Some(out), .. } => out.len(),
            PhysPlan::HashJoin {
                left, right_width, ..
            }
            | PhysPlan::NestedLoopJoin {
                left, right_width, ..
            } => left.width() + right_width,
            PhysPlan::IndexJoin {
                probe, inner_width, ..
            } => probe.width() + inner_width,
            PhysPlan::UnionAll { inputs } => inputs.first().map_or(0, PhysPlan::width),
        }
    }

    /// Number of columns in every row this plan would produce had no join
    /// been narrowed: the width of its scope. `EXPLAIN` prints a narrowed
    /// join's `out` against it.
    pub(crate) fn scope_width(&self) -> usize {
        match self {
            PhysPlan::HashJoin { left, right, .. }
            | PhysPlan::NestedLoopJoin { left, right, .. } => {
                left.scope_width() + right.scope_width()
            }
            PhysPlan::IndexJoin {
                probe, inner_width, ..
            } => probe.scope_width() + inner_width,
            PhysPlan::Filter { input, .. }
            | PhysPlan::Sort { input, .. }
            | PhysPlan::Limit { input, .. } => input.scope_width(),
            PhysPlan::Window { input, .. } => input.scope_width() + 1,
            _ => self.width(),
        }
    }

    /// A hash join's inputs by role, `(build, probe)`, each with its key
    /// expressions: the one place that reads which side `build_left` names.
    pub(crate) fn join_sides(&self) -> Option<(JoinInput<'_>, JoinInput<'_>)> {
        let PhysPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            build_left,
            ..
        } = self
        else {
            return None;
        };
        let (left, right) = ((&**left, &left_keys[..]), (&**right, &right_keys[..]));
        Some(if *build_left {
            (left, right)
        } else {
            (right, left)
        })
    }
}

/// One input of a join with its key expressions.
pub(crate) type JoinInput<'a> = (&'a PhysPlan, &'a [PhysExpr]);

// Plans (and the expressions they embed) are shared with executor worker
// threads via `Arc`, so the whole tree must stay `Send + Sync`.
#[allow(dead_code)]
fn _assert_plan_send_sync() {
    fn assert<T: Send + Sync>() {}
    assert::<PhysPlan>();
    assert::<AggSpec>();
}

/// Output of planning a query: the plan plus its output column names.
#[derive(Clone)]
pub struct PlannedQuery {
    pub plan: PhysPlan,
    pub columns: Vec<String>,
    pub scope: Scope,
}

/// A planned FROM item: its plan, scope, and — while the plan is still the
/// bare scan of a base table — the table's access paths, so later planning
/// steps can swap the scan for an index lookup.
struct PlannedItem {
    plan: PhysPlan,
    scope: Scope,
    access: Option<TableAccess>,
}

/// Access-path metadata of a base table read at planning time.
#[derive(Clone)]
pub(crate) struct TableAccess {
    table: String,
    width: usize,
    /// Primary index first, then secondaries in creation order — the match
    /// loop takes the first covering index, so this is the preference order.
    indexes: Vec<IndexMeta>,
}

#[derive(Clone)]
struct IndexMeta {
    name: String,
    key_columns: Vec<usize>,
}

/// A base table a plan was made over: its name (lowercased), its definition
/// then, and the row count the planner's choices read of it, if they read
/// one ([`estimate_rows`]). A cached plan is served while every definition
/// still equals the catalog's and every count is within a factor of two of
/// the table's ([`crate::plan_cache`]).
#[derive(Debug, Clone)]
pub(crate) struct PlannedTable {
    pub name: String,
    pub def: Arc<TableDef>,
    pub rows: Option<usize>,
}

impl PlannedTable {
    /// `table` as it is now, no count read.
    pub(crate) fn of(table: &Table) -> PlannedTable {
        PlannedTable {
            name: table.name.to_ascii_lowercase(),
            def: Arc::clone(&table.def),
            rows: None,
        }
    }
}

/// If every key expression is a bare column and some index's key columns are
/// exactly that column set, return the index plus the permutation mapping
/// each index key column to its position in `keys`.
fn covering_index(access: &TableAccess, keys: &[PhysExpr]) -> Option<(IndexMeta, Vec<usize>)> {
    let cols = column_only(keys)?;
    for idx in &access.indexes {
        if idx.key_columns.len() != cols.len() {
            continue;
        }
        let perm: Option<Vec<usize>> = idx
            .key_columns
            .iter()
            .map(|&kc| cols.iter().position(|&c| c == kc))
            .collect();
        if let Some(perm) = perm {
            return Some((idx.clone(), perm));
        }
    }
    None
}

/// How many rows a base table holds, by name: what [`estimate_rows`] reads.
type RowsOf<'a> = &'a dyn Fn(&str) -> usize;

/// Crude cardinality estimate behind the planner's two join choices: whether
/// an equi-join runs as an index nested loop ([`index_join_choice`]), and
/// which input of an INNER hash join builds ([`Planner::equi_join`]). Exact
/// for scans (the table's row count, `rows`), heuristic elsewhere. A wrong
/// estimate costs speed or memory, never an answer: the index join is
/// skipped and the larger side hashed.
fn estimate_rows(plan: &PhysPlan, rows: RowsOf) -> usize {
    let estimate_rows = |plan: &PhysPlan| estimate_rows(plan, rows);
    match plan {
        PhysPlan::Scan { table, .. } => rows(table),
        PhysPlan::VirtualScan { rows, .. } => rows.len(),
        PhysPlan::IndexScan {
            table,
            index_name,
            keys,
            ..
        } => match keys {
            // A primary-key lookup finds one row per key tuple.
            Some(k) if index_name.eq_ignore_ascii_case(&format!("{table}.pk")) => k.len(),
            Some(k) => k.len().saturating_mul(2),
            None => rows(table),
        },
        PhysPlan::OneRow => 1,
        PhysPlan::Filter { input, .. } => estimate_rows(input) / 3 + 1,
        PhysPlan::Project { input, .. }
        | PhysPlan::Window { input, .. }
        | PhysPlan::Sort { input, .. }
        | PhysPlan::Distinct { input }
        | PhysPlan::Shared { input, .. } => estimate_rows(input),
        PhysPlan::Limit { input, limit, .. } => {
            let est = estimate_rows(input);
            limit.map_or(est, |l| l.min(est))
        }
        PhysPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            ..
        } => {
            // Against an input holding one row per join key, each row of the
            // other input matches at most once (many-to-one).
            let (l, r) = (estimate_rows(left), estimate_rows(right));
            match (
                grouped_on(left, left_keys, rows),
                grouped_on(right, right_keys, rows),
            ) {
                (false, true) => l,
                (true, false) => r,
                _ => l.min(r),
            }
        }
        PhysPlan::IndexJoin { probe, .. } => estimate_rows(probe),
        PhysPlan::NestedLoopJoin {
            left,
            right,
            predicate,
            ..
        } => {
            let product = estimate_rows(left).saturating_mul(estimate_rows(right));
            if predicate.is_some() {
                product / 3 + 1
            } else {
                product
            }
        }
        PhysPlan::Aggregate { input, keys, .. } => {
            if keys.is_empty() {
                1
            } else {
                estimate_rows(input) / 4 + 1
            }
        }
        PhysPlan::UnionAll { inputs } => inputs.iter().map(estimate_rows).sum(),
    }
}

/// Whether `plan` holds at most one row per value of the columns `keys`: it
/// is an aggregate (under column-passing projections, filters and shared
/// references) each of whose group keys is one of those columns or is drawn
/// from a one-row input — such a key is the same in every group, so it does
/// not multiply them (`h_j`'s `GROUP BY h_jk.j, n_k.n` is one row per `j`).
fn grouped_on(plan: &PhysPlan, keys: &[PhysExpr], rows: RowsOf) -> bool {
    let Some(mut cols) = column_only(keys) else {
        return false;
    };
    let mut plan = plan;
    loop {
        match plan {
            PhysPlan::Filter { input, .. } | PhysPlan::Shared { input, .. } => plan = input,
            PhysPlan::Project { input, exprs } => {
                let passed = cols.iter().map(|&c| match exprs[c] {
                    PhysExpr::Column(below) => Some(below),
                    _ => None,
                });
                let Some(passed) = passed.collect() else {
                    return false;
                };
                cols = passed;
                plan = input;
            }
            PhysPlan::Aggregate { input, keys, .. } => {
                return keys.iter().enumerate().all(|(i, key)| {
                    cols.contains(&i)
                        || match key {
                            PhysExpr::Column(c) => one_row_column(input, *c, rows),
                            PhysExpr::Literal(_) => true,
                            _ => false,
                        }
                });
            }
            _ => return false,
        }
    }
}

/// Whether column `col` of `plan`'s rows comes from an input estimated at
/// one row (or is a literal), so that it holds one value over all of them.
fn one_row_column(plan: &PhysPlan, col: usize, rows: RowsOf) -> bool {
    match plan {
        PhysPlan::Filter { input, .. }
        | PhysPlan::Shared { input, .. }
        | PhysPlan::Sort { input, .. }
        | PhysPlan::Limit { input, .. }
        | PhysPlan::Distinct { input } => one_row_column(input, col, rows),
        PhysPlan::Project { input, exprs } => match &exprs[col] {
            PhysExpr::Column(c) => one_row_column(input, *c, rows),
            PhysExpr::Literal(_) => true,
            _ => false,
        },
        PhysPlan::HashJoin {
            left, right, out, ..
        }
        | PhysPlan::NestedLoopJoin {
            left, right, out, ..
        } => {
            let col = out.as_ref().map_or(col, |out| out[col]);
            let (side, col) = match col.checked_sub(left.width()) {
                None => (left, col),
                Some(col) => (right, col),
            };
            estimate_rows(side, rows) <= 1 || one_row_column(side, col, rows)
        }
        _ => estimate_rows(plan, rows) <= 1,
    }
}

/// Decide whether an equi join should run as an index nested loop.
///
/// Returns `(inner_is_left, index, perm)` where `perm[i]` is the position in
/// the probe-side key list of the i-th index key column. The inner side must
/// still be a bare indexed scan, large enough to be worth avoiding a hash
/// build, and the probe side must look at least `INDEX_JOIN_SELECTIVITY`×
/// smaller. Probing the left side into a right-side index (`inner_is_left ==
/// false`) preserves outer-join semantics, so it is valid for LEFT joins;
/// the reverse orientation is inner-join only.
fn index_join_choice(
    l: &PlannedItem,
    left_keys: &[PhysExpr],
    r: &PlannedItem,
    right_keys: &[PhysExpr],
    kind: JoinKind,
    rows: RowsOf,
) -> Option<(bool, IndexMeta, Vec<usize>)> {
    if let Some(acc) = &r.access {
        if let Some((meta, perm)) = covering_index(acc, right_keys) {
            let inner_rows = rows(&acc.table);
            if inner_rows >= MIN_INDEX_JOIN_INNER_ROWS
                && estimate_rows(&l.plan, rows).saturating_mul(INDEX_JOIN_SELECTIVITY) <= inner_rows
            {
                return Some((false, meta, perm));
            }
        }
    }
    if kind == JoinKind::Inner {
        if let Some(acc) = &l.access {
            if let Some((meta, perm)) = covering_index(acc, left_keys) {
                let inner_rows = rows(&acc.table);
                if inner_rows >= MIN_INDEX_JOIN_INNER_ROWS
                    && estimate_rows(&r.plan, rows).saturating_mul(INDEX_JOIN_SELECTIVITY)
                        <= inner_rows
                {
                    return Some((true, meta, perm));
                }
            }
        }
    }
    None
}

/// Wrap `input` in a projection — unless the projection is an identity map
/// over a leaf of known width, i.e. a pure column rename (`SELECT * FROM t`,
/// derived-table aliasing like `(SELECT n, term AS j FROM t) AS qx`). Such
/// projections change nothing but names (which live in the scope, not the
/// plan), and eliding them both skips a per-row copy and leaves the bare
/// scan visible to the join planner's index-access machinery.
///
/// A column-only projection over another projection merely selects among
/// that one's expressions, so the two fold into one (a projection lifted
/// above a join by [`Planner::equi_join`] meets the enclosing SELECT's list
/// this way) — unless folding would drop an expression that could raise.
fn project_or_elide(input: PhysPlan, exprs: Vec<PhysExpr>) -> PhysPlan {
    let (input, exprs) = match (input, column_only(&exprs)) {
        (
            PhysPlan::Project {
                input: below,
                exprs: inner,
            },
            Some(picks),
        ) if inner
            .iter()
            .enumerate()
            .all(|(i, e)| picks.contains(&i) || e.cannot_raise()) =>
        {
            (*below, picks.iter().map(|&c| inner[c].clone()).collect())
        }
        (input, _) => (input, exprs),
    };
    let width = match &input {
        PhysPlan::Scan { width, .. }
        | PhysPlan::VirtualScan { width, .. }
        | PhysPlan::IndexScan { width, .. } => Some(*width),
        _ => None,
    };
    let identity = width == Some(exprs.len())
        && exprs
            .iter()
            .enumerate()
            .all(|(i, e)| matches!(e, PhysExpr::Column(c) if *c == i));
    if identity {
        input
    } else {
        PhysPlan::Project {
            input: Box::new(input),
            exprs,
        }
    }
}

/// Assemble the `IndexJoin` plan for a choice made by `index_join_choice`.
fn build_index_join(
    l: PlannedItem,
    left_keys: Vec<PhysExpr>,
    r: PlannedItem,
    right_keys: Vec<PhysExpr>,
    kind: JoinKind,
    residual: Option<PhysExpr>,
    (inner_is_left, meta, perm): (bool, IndexMeta, Vec<usize>),
) -> PhysPlan {
    let (probe_plan, probe_key_src, inner_item) = if inner_is_left {
        (r.plan, right_keys, l)
    } else {
        (l.plan, left_keys, r)
    };
    let access = inner_item
        .access
        .expect("index_join_choice picked an inner side with access metadata");
    let probe_keys = perm.iter().map(|&p| probe_key_src[p].clone()).collect();
    let inner = PhysPlan::IndexScan {
        table: access.table,
        width: access.width,
        index_name: meta.name,
        keys: None,
    };
    PhysPlan::IndexJoin {
        probe: Box::new(probe_plan),
        probe_keys,
        inner: Box::new(inner),
        inner_is_left,
        kind,
        inner_width: access.width,
        residual,
        out: None,
    }
}

/// Provider of virtual `sys.*` tables, implemented by the engine layer. The
/// current catalog is passed in (rather than re-locked) so providers never
/// re-enter the planner's catalog read lock.
pub trait VirtualTables {
    /// Materialize the named virtual table as a row snapshot, or `None` if
    /// the name is not a known virtual table.
    fn virtual_table(&self, catalog: &Catalog, name: &str) -> Option<(Schema, Arc<Vec<Row>>)>;
}

/// Plans statements against a catalog snapshot.
pub struct Planner<'a> {
    pub catalog: &'a Catalog,
    pub params: &'a [Value],
    pub config: PlannerConfig,
    /// Bind `?` markers symbolically ([`PhysExpr::Param`]) instead of
    /// inlining `params`, producing a cacheable plan template whose program
    /// binds each execution's values at its parameter sites
    /// ([`crate::exec::Program`]).
    symbolic_params: bool,
    /// Resolver for virtual `sys.*` tables (engine-provided; `None` in
    /// bare planner tests).
    virtuals: Option<&'a dyn VirtualTables>,
    /// Set when any planned table ref resolved to a virtual table; such
    /// plans hold point-in-time telemetry rows and must not be cached.
    used_virtual: bool,
    /// Set when planning ran a subquery and planned its result in as
    /// literals: such a plan answers for the data it read, and must not be
    /// cached either.
    ran_subquery: bool,
    /// The base tables planning resolved, each once, with the row counts
    /// its choices read ([`Planner::rows_of`]).
    tables: RefCell<Vec<PlannedTable>>,
    /// Each CTE in scope, planned once where it is defined; a reference
    /// takes a copy of the plan (rows are `Arc`s).
    ctes: CteFrames<PlannedQuery>,
    /// The id the next shared CTE gets.
    next_shared: usize,
    /// What planner-time execution runs under — uncorrelated subqueries,
    /// whose results become literals. Always serial: it happens under the
    /// planner's catalog borrow. The engine passes the statement's deadline
    /// and memory budget in.
    exec: ExecContext,
}

impl<'a> Planner<'a> {
    /// `exec` is what planner-time execution runs under: a serial context
    /// carrying the statement's deadline and memory budget.
    pub fn new(
        catalog: &'a Catalog,
        params: &'a [Value],
        config: PlannerConfig,
        exec: ExecContext,
    ) -> Self {
        Planner {
            catalog,
            params,
            config,
            symbolic_params: false,
            virtuals: None,
            used_virtual: false,
            ran_subquery: false,
            tables: RefCell::default(),
            ctes: CteFrames::new(),
            next_shared: 0,
            exec,
        }
    }

    /// Attach a virtual-table resolver (the engine) so `sys.*` names plan
    /// as [`PhysPlan::VirtualScan`]s.
    #[must_use]
    pub fn with_virtuals(mut self, virtuals: &'a dyn VirtualTables) -> Self {
        self.virtuals = Some(virtuals);
        self
    }

    /// Keep `?` markers symbolic so the resulting plan can be cached as a
    /// template. The caller must have checked [`ast::param_use`] first:
    /// parameters in positions consumed at plan time (LIMIT/OFFSET,
    /// subquery bodies) cannot stay symbolic.
    #[must_use]
    pub fn symbolic(mut self) -> Self {
        self.symbolic_params = true;
        self
    }

    /// Bind an expression honouring the planner's parameter mode.
    fn bind(&self, e: &Expr, scope: &Scope) -> Result<PhysExpr> {
        if self.symbolic_params {
            bind_expr_symbolic(e, scope)
        } else {
            bind_expr(e, scope, self.params)
        }
    }

    /// The base tables planning has resolved, when the plan may be cached:
    /// what a cached plan is checked against before each run. `None` when
    /// it read a virtual table or ran a subquery while planning.
    pub(crate) fn into_tables(self) -> Option<Vec<PlannedTable>> {
        (!self.used_virtual && !self.ran_subquery).then(|| self.tables.into_inner())
    }

    /// `table`'s row count, recorded as read by a planning choice.
    fn rows_of(&self, table: &str) -> usize {
        let rows = self.catalog.get(table).map_or(0, Table::row_count);
        let mut tables = self.tables.borrow_mut();
        let read = tables
            .iter_mut()
            .find(|t| t.name.eq_ignore_ascii_case(table));
        if let Some(read) = read {
            read.rows.get_or_insert(rows);
        }
        rows
    }

    /// [`estimate_rows`] over the catalog, recording the counts it reads.
    fn estimate(&self, plan: &PhysPlan) -> usize {
        estimate_rows(plan, &|table| self.rows_of(table))
    }

    /// Plan a full query (CTEs + body + ORDER BY/LIMIT).
    pub fn plan_query(&mut self, query: &Query) -> Result<PlannedQuery> {
        self.ctes.enter();
        let result = self.plan_in_frame(query);
        self.ctes.leave();
        result
    }

    /// Plan `query` with its own (still empty) CTE frame on the stack.
    fn plan_in_frame(&mut self, query: &Query) -> Result<PlannedQuery> {
        // Each CTE is planned once, here where it is defined: under the
        // enclosing frames plus the earlier CTEs of this WITH, which makes
        // its names lexically scoped whatever the reference site shadows.
        // One read by several references (by any, under `materialize_ctes`)
        // is shared — unless it is a bare scan, whose rows are held already.
        for (cte, CteUse { refs, .. }) in query.ctes.iter().zip(cte_uses(query)) {
            let mut planned = self.plan_query(&cte.query)?;
            let shared = refs >= 2 || (refs == 1 && self.config.materialize_ctes);
            let held = matches!(
                planned.plan,
                PhysPlan::Scan { .. } | PhysPlan::VirtualScan { .. }
            );
            if shared && !held {
                planned.plan = PhysPlan::Shared {
                    id: self.next_shared,
                    cte: Arc::from(cte.name.as_str()),
                    refs,
                    input: Box::new(planned.plan),
                };
                self.next_shared += 1;
            }
            self.ctes.define(&cte.name, planned);
        }
        let mut planned = match &query.body {
            SetExpr::Select(select) => self.plan_select(select, &query.order_by)?,
            SetExpr::Union { .. } => {
                let mut p = self.plan_set_expr(&query.body)?;
                // ORDER BY over a union reads the union's output only.
                if !query.order_by.is_empty() {
                    let bind_key = |oi: &OrderItem| {
                        let key = match ordinal(&oi.expr, p.columns.len())? {
                            Some(column) => PhysExpr::Column(column),
                            None => self.bind(&oi.expr, &p.scope)?,
                        };
                        Ok((key, oi.descending))
                    };
                    let keys = query.order_by.iter().map(bind_key).collect::<Result<_>>()?;
                    p.plan = PhysPlan::Sort {
                        input: Box::new(p.plan),
                        keys,
                    };
                }
                p
            }
        };
        let limit = query
            .limit
            .as_ref()
            .map(|e| self.const_usize(e, "LIMIT"))
            .transpose()?;
        let offset = query
            .offset
            .as_ref()
            .map(|e| self.const_usize(e, "OFFSET"))
            .transpose()?
            .unwrap_or(0);
        if limit.is_some() || offset > 0 {
            planned.plan = PhysPlan::Limit {
                input: Box::new(planned.plan),
                limit,
                offset,
            };
        }
        Ok(planned)
    }

    fn const_usize(&self, e: &Expr, what: &str) -> Result<usize> {
        let bound = self.bind(e, &Scope::default())?;
        let v = bound.eval_const()?;
        v.as_i64()?
            .filter(|&i| i >= 0)
            .map(|i| i as usize)
            .ok_or_else(|| EngineError::plan(format!("{what} must be a non-negative integer")))
    }

    fn plan_set_expr(&mut self, body: &SetExpr) -> Result<PlannedQuery> {
        match body {
            SetExpr::Select(select) => self.plan_select(select, &[]),
            SetExpr::Union { left, right, all } => {
                let l = self.plan_set_expr(left)?;
                let r = self.plan_set_expr(right)?;
                if l.columns.len() != r.columns.len() {
                    return Err(EngineError::plan(format!(
                        "UNION arms have different column counts ({} vs {})",
                        l.columns.len(),
                        r.columns.len()
                    )));
                }
                // Flatten nested unions for fewer copies.
                let mut inputs = Vec::new();
                match l.plan {
                    PhysPlan::UnionAll { inputs: li } if *all => inputs.extend(li),
                    other => inputs.push(other),
                }
                match r.plan {
                    PhysPlan::UnionAll { inputs: ri } if *all => inputs.extend(ri),
                    other => inputs.push(other),
                }
                let mut plan = PhysPlan::UnionAll { inputs };
                if !*all {
                    plan = PhysPlan::Distinct {
                        input: Box::new(plan),
                    };
                }
                Ok(PlannedQuery {
                    plan,
                    columns: l.columns,
                    scope: l.scope,
                })
            }
        }
    }

    // ------------------------------------------------------------------
    // FROM clause
    // ------------------------------------------------------------------

    /// Access-path metadata for a base table, when index planning is on.
    pub(crate) fn table_access(&self, table: &Table) -> Option<TableAccess> {
        if !self.config.use_indexes {
            return None;
        }
        let mut indexes = Vec::new();
        if let Some(p) = &table.primary {
            indexes.push(IndexMeta {
                name: table.primary_name(),
                key_columns: p.key_columns.clone(),
            });
        }
        for s in &table.secondary {
            indexes.push(IndexMeta {
                name: s.name.clone(),
                key_columns: s.key_columns.clone(),
            });
        }
        Some(TableAccess {
            table: table.name.clone(),
            width: table.schema.len(),
            indexes,
        })
    }

    /// The access paths of the base table a bare scan reads.
    fn scan_access(&self, plan: &PhysPlan) -> Option<TableAccess> {
        match plan {
            PhysPlan::Scan { table, .. } => self.table_access(self.catalog.get(table).ok()?),
            _ => None,
        }
    }

    /// Plan a single table factor, producing its plan, scope, and (for bare
    /// base-table scans) the table's access paths.
    fn plan_table_ref(&mut self, tref: &TableRef) -> Result<PlannedItem> {
        // A query's output columns read under the name it has in FROM.
        let qualified = |qual: &str, columns: &[String]| {
            Scope::new(
                columns
                    .iter()
                    .map(|c| ColLabel::new(Some(qual), c))
                    .collect(),
            )
        };
        match tref {
            TableRef::Named { name, alias, span } => {
                let qual = alias.as_deref().unwrap_or(name);
                match table_source(&self.ctes, self.catalog, name, *span)? {
                    TableSource::Cte(planned) => Ok(PlannedItem {
                        plan: planned.plan.clone(),
                        scope: qualified(qual, &planned.columns),
                        access: None,
                    }),
                    TableSource::System(schema) => {
                        let provided = self
                            .virtuals
                            .and_then(|v| v.virtual_table(self.catalog, name));
                        let (_, rows) = provided.ok_or_else(|| {
                            EngineError::plan(format!("no provider for system table '{name}'"))
                        })?;
                        self.used_virtual = true;
                        Ok(PlannedItem {
                            plan: PhysPlan::VirtualScan {
                                name: name.to_ascii_lowercase(),
                                rows,
                                width: schema.len(),
                            },
                            scope: table_scope(qual, &schema),
                            // No access paths: virtual tables are never
                            // index-planned.
                            access: None,
                        })
                    }
                    TableSource::Base(table) => {
                        let mut tables = self.tables.borrow_mut();
                        if !tables
                            .iter()
                            .any(|t| t.name.eq_ignore_ascii_case(&table.name))
                        {
                            tables.push(PlannedTable::of(table));
                        }
                        drop(tables);
                        Ok(PlannedItem {
                            plan: PhysPlan::Scan {
                                table: table.name.clone(),
                                width: table.schema.len(),
                                derived: self.config.vectorized,
                            },
                            scope: table_scope(qual, &table.schema),
                            access: self.table_access(table),
                        })
                    }
                }
            }
            TableRef::Derived { query, alias } => {
                let planned = self.plan_query(query)?;
                // A derived table that planned down to the bare scan of a
                // base table (its identity projection was elided — a pure
                // column-rename subquery, the serving queries' `(SELECT n,
                // term AS j, cnt AS w FROM features) AS qx` shape) keeps the
                // table's access paths, so joins against it can still probe
                // indexes instead of rescanning the whole table.
                let access = self.scan_access(&planned.plan);
                Ok(PlannedItem {
                    plan: planned.plan,
                    scope: qualified(alias, &planned.columns),
                    access,
                })
            }
            TableRef::Join {
                left,
                right,
                kind,
                on,
            } => {
                let l = self.plan_table_ref(left)?;
                let r = self.plan_table_ref(right)?;
                self.plan_join(l, r, *kind, on.as_ref())
            }
        }
    }

    /// Build a join between two planned inputs, detecting equi-keys in `on`.
    /// Equi joins prefer an index-nested-loop plan when one side is a bare
    /// base-table scan with an index covering the join keys and the probe
    /// side is estimated small enough; otherwise they hash-join.
    fn plan_join(
        &mut self,
        l: PlannedItem,
        r: PlannedItem,
        kind: JoinKind,
        on: Option<&Expr>,
    ) -> Result<PlannedItem> {
        let joined_scope = l.scope.join(&r.scope);
        let right_width = r.scope.len();
        let plan = match on {
            None => PhysPlan::NestedLoopJoin {
                left: Box::new(l.plan),
                right: Box::new(r.plan),
                kind,
                right_width,
                predicate: None,
                out: None,
            },
            Some(cond) => {
                let conjuncts = split_conjuncts(cond);
                let (mut left_keys, mut right_keys, mut residual) =
                    (Vec::new(), Vec::new(), Vec::new());
                for c in &conjuncts {
                    if let Some((le, re)) = self.as_equi_key(c, &l.scope, &r.scope)? {
                        left_keys.push(le);
                        right_keys.push(re);
                        continue;
                    }
                    residual.push((*c).clone());
                }
                if left_keys.is_empty() {
                    let predicate = conjoin(&conjuncts);
                    let bound = self.bind(&predicate, &joined_scope)?;
                    PhysPlan::NestedLoopJoin {
                        left: Box::new(l.plan),
                        right: Box::new(r.plan),
                        kind,
                        right_width,
                        predicate: Some(bound),
                        out: None,
                    }
                } else {
                    let residual = if residual.is_empty() {
                        None
                    } else {
                        let refs: Vec<&Expr> = residual.iter().collect();
                        Some(self.bind(&conjoin(&refs), &joined_scope)?)
                    };
                    self.equi_join(l, left_keys, r, right_keys, kind, residual)
                }
            }
        };
        Ok(PlannedItem {
            plan,
            scope: joined_scope,
            access: None,
        })
    }

    /// Build the equi-join of two planned inputs: an index nested loop when
    /// [`index_join_choice`] finds one, a hash (or sort-merge) join
    /// otherwise. An INNER hash join builds on the left input when
    /// [`estimate_rows`] puts it at no more than half the right one, and on
    /// the right input otherwise — always for a LEFT join, whose probe must
    /// be the preserved side. This is also where a join meets a derived table's
    /// projection: when an input is a `Project` whose join keys merely pass
    /// columns through, the join runs against the projection's *input* and
    /// the projection is re-applied to the joined rows — so the expressions
    /// are computed for the rows the join keeps instead of for the whole
    /// table, and a bare scan underneath regains its access paths (index
    /// probes here, the executor's key filter on a hash join).
    ///
    /// A residual reads the projected columns, so it pins both projections
    /// below the join; and only the preserved side of a LEFT join may move —
    /// a literal column lifted above the null-supplying side would turn its
    /// NULL fill into the literal.
    fn equi_join(
        &self,
        mut l: PlannedItem,
        mut left_keys: Vec<PhysExpr>,
        mut r: PlannedItem,
        mut right_keys: Vec<PhysExpr>,
        kind: JoinKind,
        residual: Option<PhysExpr>,
    ) -> PhysPlan {
        let (l_out, r_out) = (l.scope.len(), r.scope.len());
        let movable = residual.is_none();
        let (l_rows, r_rows) = (self.estimate(&l.plan), self.estimate(&r.plan));
        let l_lifted = (movable && kind != JoinKind::Cross)
            .then(|| self.lift_projection(&mut l, &mut left_keys, r_rows))
            .flatten();
        let r_lifted = (movable && kind == JoinKind::Inner)
            .then(|| self.lift_projection(&mut r, &mut right_keys, l_rows))
            .flatten();
        let (l_width, right_width) = (l.plan.width(), r.plan.width());
        let algo = self.config.join_algo;
        let rows = |table: &str| self.rows_of(table);
        let join = match index_join_choice(&l, &left_keys, &r, &right_keys, kind, &rows) {
            Some(choice) => build_index_join(l, left_keys, r, right_keys, kind, residual, choice),
            None => PhysPlan::HashJoin {
                left: Box::new(l.plan),
                right: Box::new(r.plan),
                left_keys,
                right_keys,
                kind,
                right_width,
                residual,
                algo,
                build_left: kind == JoinKind::Inner
                    && algo == JoinAlgo::Hash
                    && l_rows.saturating_mul(2) <= r_rows,
                out: None,
            },
        };
        if l_lifted.is_none() && r_lifted.is_none() {
            return join;
        }
        let mut exprs = l_lifted.unwrap_or_else(|| (0..l_out).map(PhysExpr::Column).collect());
        match r_lifted {
            Some(lifted) => exprs.extend(lifted.iter().map(|e| shift_columns(e, l_width))),
            None => exprs.extend((0..r_out).map(|i| PhysExpr::Column(l_width + i))),
        }
        PhysPlan::Project {
            input: Box::new(join),
            exprs,
        }
    }

    /// If `item` is a projection that [`Planner::equi_join`] may move above
    /// the join, strip it: `item` becomes the projection's input (with the
    /// table's access paths when that is a bare scan), `keys` are rewritten
    /// to read it, and the stripped expressions are returned. Two guards keep
    /// the answer the same: every key is a column the projection passes
    /// through unchanged, and no expression can raise (so rows the join
    /// drops cannot have owed an error). Two keep it worth doing: the
    /// projection computes a value or hides a bare scan, and the other side
    /// (`other_rows`, estimated) is no larger than this one — a join against
    /// a larger side is expected to multiply this side's rows, and the
    /// projection with them, rather than to discard them.
    fn lift_projection(
        &self,
        item: &mut PlannedItem,
        keys: &mut Vec<PhysExpr>,
        other_rows: usize,
    ) -> Option<Vec<PhysExpr>> {
        let PhysPlan::Project { exprs, input } = &item.plan else {
            return None;
        };
        let passed_through: Vec<PhysExpr> = keys
            .iter()
            .map(|k| match k {
                PhysExpr::Column(k) => match &exprs[*k] {
                    source @ PhysExpr::Column(_) => Some(source.clone()),
                    _ => None,
                },
                _ => None,
            })
            .collect::<Option<_>>()?;
        let computes = exprs.iter().any(|e| !matches!(e, PhysExpr::Column(_)));
        let over_scan = matches!(**input, PhysPlan::Scan { .. });
        if !(computes || over_scan)
            || other_rows > self.estimate(input)
            || !exprs.iter().all(PhysExpr::cannot_raise)
        {
            return None;
        }
        let PhysPlan::Project { exprs, input } =
            std::mem::replace(&mut item.plan, PhysPlan::OneRow)
        else {
            unreachable!("matched as a projection above");
        };
        item.access = self.scan_access(&input);
        item.plan = *input;
        *keys = passed_through;
        Some(exprs)
    }

    /// If `expr` is `a = b` with `a` bindable purely in `ls` and `b` in `rs`
    /// (or vice versa), return the bound key pair.
    fn as_equi_key(
        &self,
        expr: &Expr,
        ls: &Scope,
        rs: &Scope,
    ) -> Result<Option<(PhysExpr, PhysExpr)>> {
        let Expr::Binary {
            left,
            op: ast::BinaryOp::Eq,
            right,
            ..
        } = expr
        else {
            return Ok(None);
        };
        let try_bind = |e: &Expr, s: &Scope| self.bind(e, s).ok();
        if let (Some(le), Some(re)) = (try_bind(left, ls), try_bind(right, rs)) {
            return Ok(Some((le, re)));
        }
        if let (Some(le), Some(re)) = (try_bind(right, ls), try_bind(left, rs)) {
            return Ok(Some((le, re)));
        }
        Ok(None)
    }

    // ------------------------------------------------------------------
    // SELECT
    // ------------------------------------------------------------------

    /// Evaluate every (uncorrelated) subquery inside `e` and replace it with
    /// its result: scalar subqueries become literals, `IN (SELECT ...)`
    /// becomes an `IN` list, `EXISTS` becomes a boolean literal. Correlated
    /// subqueries fail naturally when their outer column references do not
    /// bind inside the subquery's own scope.
    pub(crate) fn resolve_subqueries(&mut self, e: &mut Expr) -> Result<()> {
        match e {
            Expr::ScalarSubquery(q, span) => {
                let span = *span;
                let planned = self.plan_query(q)?;
                let rows = self.run_subquery(&planned.plan)?;
                if rows.len() > 1 {
                    return Err(EngineError::plan(format!(
                        "scalar subquery returned {} rows",
                        rows.len()
                    )));
                }
                let v = rows
                    .into_iter()
                    .next()
                    .and_then(|r| r.into_iter().next())
                    .unwrap_or(Value::Null);
                *e = Expr::Literal(v, span);
            }
            Expr::InSubquery {
                expr,
                query,
                negated,
                span,
            } => {
                let span = *span;
                self.resolve_subqueries(expr)?;
                let planned = self.plan_query(query)?;
                if planned.columns.len() != 1 {
                    return Err(EngineError::plan(format!(
                        "IN subquery must return one column, got {}",
                        planned.columns.len()
                    )));
                }
                let rows = self.run_subquery(&planned.plan)?;
                let list = rows
                    .into_iter()
                    .map(|mut r| Expr::Literal(r.pop().expect("one column"), Span::default()))
                    .collect();
                *e = Expr::InList {
                    expr: expr.clone(),
                    list,
                    negated: *negated,
                    span,
                };
            }
            Expr::Exists {
                query,
                negated,
                span,
            } => {
                let span = *span;
                let planned = self.plan_query(query)?;
                let rows = self.run_subquery(&planned.plan)?;
                *e = Expr::Literal(Value::Int((rows.is_empty() == *negated) as i64), span);
            }
            _ => {
                let mut result = Ok(());
                e.for_each_child_mut(&mut |c| {
                    if result.is_ok() {
                        result = self.resolve_subqueries(c);
                    }
                });
                result?;
            }
        }
        Ok(())
    }

    /// Run a subquery's plan over the catalog being planned against: its
    /// rows become literals of the plan.
    fn run_subquery(&mut self, plan: &PhysPlan) -> Result<Vec<Row>> {
        self.ran_subquery = true;
        self.exec.execute(plan, self.catalog)
    }

    fn plan_select(&mut self, select: &Select, order_by: &[OrderItem]) -> Result<PlannedQuery> {
        // 0. Evaluate uncorrelated subqueries so the rest of planning only
        //    sees plain expressions.
        let has_subqueries = |s: &Select| -> bool {
            // Cheap structural probe; cloning only when needed.
            let probe = |e: &Expr| e.any(&mut |n| n.subquery().is_some());
            s.selection.as_ref().is_some_and(probe)
                || s.having.as_ref().is_some_and(probe)
                || s.group_by.iter().any(probe)
                || s.projection.iter().any(|i| match i {
                    SelectItem::Expr { expr, .. } => probe(expr),
                    _ => false,
                })
        };
        let resolved_select;
        let select = if has_subqueries(select) {
            let mut s = select.clone();
            if let Some(sel) = &mut s.selection {
                self.resolve_subqueries(sel)?;
            }
            if let Some(h) = &mut s.having {
                self.resolve_subqueries(h)?;
            }
            for g in &mut s.group_by {
                self.resolve_subqueries(g)?;
            }
            for item in &mut s.projection {
                if let SelectItem::Expr { expr, .. } = item {
                    self.resolve_subqueries(expr)?;
                }
            }
            resolved_select = s;
            &resolved_select
        } else {
            select
        };

        // 1. FROM: plan each comma item.
        let mut items: Vec<PlannedItem> = Vec::with_capacity(select.from.len());
        for tref in &select.from {
            items.push(self.plan_table_ref(tref)?);
        }

        // 2. WHERE conjuncts.
        let conjuncts: Vec<Expr> = select
            .selection
            .as_ref()
            .map(|e| split_conjuncts(e).into_iter().cloned().collect())
            .unwrap_or_default();

        let (mut plan, mut scope, leftovers) = if items.is_empty() {
            (PhysPlan::OneRow, Scope::default(), conjuncts)
        } else {
            self.join_comma_items(items, conjuncts)?
        };

        // Apply any WHERE conjuncts not consumed as join keys / pushdowns.
        // `join_comma_items` marks consumed conjuncts by omission: we simply
        // re-bind everything that still references the full scope and was not
        // consumed — see its return contract below.
        if !leftovers.is_empty() {
            let refs: Vec<&Expr> = leftovers.iter().collect();
            let predicate = self.bind(&conjoin(&refs), &scope)?;
            plan = PhysPlan::Filter {
                input: Box::new(plan),
                predicate,
            };
        }

        // 3. The block's normal form: wildcards expanded, aggregate and
        //    window calls replaced by markers, output columns named.
        let logical = LogicalSelect::build(select, order_by, &scope)?;

        // 4. Aggregation, then HAVING over its output.
        if let Some(agg) = logical.aggregate {
            let keys = agg
                .keys
                .iter()
                .map(|e| self.bind(e, &scope))
                .collect::<Result<Vec<_>>>()?;
            let aggs = agg
                .calls
                .iter()
                .map(|call| {
                    let arg = call.arg.as_ref().map(|a| self.bind(a, &scope));
                    Ok(AggSpec {
                        func: call.func,
                        arg: arg.transpose()?,
                        distinct: call.distinct,
                    })
                })
                .collect::<Result<Vec<_>>>()?;
            plan = PhysPlan::Aggregate {
                input: Box::new(plan),
                keys,
                aggs,
            };
            scope = agg.scope;
        }
        if let Some(having) = &logical.having {
            let predicate = self.bind(having, &scope)?;
            plan = PhysPlan::Filter {
                input: Box::new(plan),
                predicate,
            };
        }

        // 5. Window functions, each appending its column to the scope.
        for w in logical.windows {
            let partition = w
                .partition_by
                .iter()
                .map(|e| self.bind(e, &scope))
                .collect::<Result<Vec<_>>>()?;
            let order = w
                .order_by
                .iter()
                .map(|oi| Ok((self.bind(&oi.expr, &scope)?, oi.descending)))
                .collect::<Result<Vec<_>>>()?;
            plan = PhysPlan::Window {
                input: Box::new(plan),
                func: w.func,
                partition,
                order,
            };
            scope.labels.push(w.label);
        }

        // 6. Projection.
        let mut exprs = Vec::with_capacity(logical.projection.len());
        let mut columns = Vec::with_capacity(logical.projection.len());
        for (e, name) in logical.projection {
            exprs.push(self.bind(&e, &scope)?);
            columns.push(name);
        }
        let out_width = exprs.len();
        let out_scope = Scope::new(columns.iter().map(|c| ColLabel::bare(c)).collect());

        // 7. ORDER BY: an expression tries the output scope and falls back
        //    to a hidden column computed from the pre-projection scope.
        let mut sort_keys: Vec<(PhysExpr, bool)> = Vec::new();
        let mut hidden: Vec<PhysExpr> = Vec::new();
        for (target, descending) in logical.order_by {
            let key = match target {
                SortTarget::Output(column) => PhysExpr::Column(column),
                SortTarget::Expr(e) => match self.bind(&e, &out_scope) {
                    Ok(bound) => bound,
                    Err(_) => {
                        hidden.push(self.bind(&e, &scope)?);
                        PhysExpr::Column(out_width + hidden.len() - 1)
                    }
                },
            };
            sort_keys.push((key, descending));
        }

        if hidden.is_empty() {
            plan = project_or_elide(plan, exprs);
            if select.distinct {
                plan = PhysPlan::Distinct {
                    input: Box::new(plan),
                };
            }
            if !sort_keys.is_empty() {
                plan = PhysPlan::Sort {
                    input: Box::new(plan),
                    keys: sort_keys,
                };
            }
        } else {
            // Project visible + hidden, sort, then strip hidden.
            exprs.extend(hidden);
            plan = PhysPlan::Project {
                input: Box::new(plan),
                exprs,
            };
            if select.distinct {
                return Err(EngineError::plan(
                    "SELECT DISTINCT with ORDER BY on non-output expressions is not supported",
                ));
            }
            plan = PhysPlan::Sort {
                input: Box::new(plan),
                keys: sort_keys,
            };
            plan = PhysPlan::Project {
                input: Box::new(plan),
                exprs: (0..out_width).map(PhysExpr::Column).collect(),
            };
        }
        Ok(PlannedQuery {
            plan,
            columns,
            scope: out_scope,
        })
    }

    /// Greedy left-deep join of comma-separated FROM items using WHERE
    /// conjuncts. Single-item conjuncts are pushed down as filters — or, when
    /// they match an index on a bare base-table scan, converted into an
    /// `IndexScan` point/multi-point lookup. Equi conjuncts become hash-join
    /// keys, or an index-nested-loop join when one side is a bare indexed
    /// scan and the other is estimated small. Conjuncts that cannot be
    /// placed are returned, third, for the caller to filter by above the
    /// join tree.
    fn join_comma_items(
        &self,
        mut items: Vec<PlannedItem>,
        mut remaining: Vec<Expr>,
    ) -> Result<(PhysPlan, Scope, Vec<Expr>)> {
        // Push single-item predicates down onto their item.
        for item in items.iter_mut() {
            let mut kept = Vec::new();
            let mut pushed: Vec<Expr> = Vec::new();
            for c in remaining.drain(..) {
                if self.bind(&c, &item.scope).is_ok() {
                    pushed.push(c);
                } else {
                    kept.push(c);
                }
            }
            remaining = kept;
            if !pushed.is_empty() {
                // Equality / IN conjuncts covering an index turn the scan
                // into index lookups; whatever they don't consume stays as a
                // filter on top.
                let mut residual = pushed;
                if let Some(access) = &item.access {
                    if let Some((scan, consumed)) =
                        self.try_index_scan(access, &item.scope, &residual)?
                    {
                        item.plan = scan;
                        residual = residual
                            .into_iter()
                            .enumerate()
                            .filter(|(i, _)| !consumed.contains(i))
                            .map(|(_, c)| c)
                            .collect();
                    }
                }
                item.access = None;
                if !residual.is_empty() {
                    let refs: Vec<&Expr> = residual.iter().collect();
                    let predicate = self.bind(&conjoin(&refs), &item.scope)?;
                    let input = std::mem::replace(&mut item.plan, PhysPlan::OneRow);
                    item.plan = PhysPlan::Filter {
                        input: Box::new(input),
                        predicate,
                    };
                }
            }
        }

        let mut cur = items.remove(0);
        while !items.is_empty() {
            // Find an item connected to the current scope by an equi conjunct.
            let mut chosen: Option<usize> = None;
            'outer: for (idx, item) in items.iter().enumerate() {
                for c in &remaining {
                    if self.as_equi_key(c, &cur.scope, &item.scope)?.is_some() {
                        chosen = Some(idx);
                        break 'outer;
                    }
                }
            }
            match chosen {
                Some(idx) => {
                    let ritem = items.remove(idx);
                    let mut left_keys = Vec::new();
                    let mut right_keys = Vec::new();
                    let mut kept = Vec::new();
                    for c in remaining.drain(..) {
                        if let Some((le, re)) = self.as_equi_key(&c, &cur.scope, &ritem.scope)? {
                            left_keys.push(le);
                            right_keys.push(re);
                        } else {
                            kept.push(c);
                        }
                    }
                    remaining = kept;
                    let scope = cur.scope.join(&ritem.scope);
                    let plan =
                        self.equi_join(cur, left_keys, ritem, right_keys, JoinKind::Inner, None);
                    cur = PlannedItem {
                        plan,
                        scope,
                        access: None,
                    };
                }
                None => {
                    // Cross join with the next item; applicable predicates
                    // (now bindable over the union scope) are applied after.
                    let ritem = items.remove(0);
                    let right_width = ritem.scope.len();
                    let scope = cur.scope.join(&ritem.scope);
                    let mut plan = PhysPlan::NestedLoopJoin {
                        left: Box::new(cur.plan),
                        right: Box::new(ritem.plan),
                        kind: JoinKind::Cross,
                        right_width,
                        predicate: None,
                        out: None,
                    };
                    // Predicates that became bindable attach as a filter now,
                    // keeping them as low in the tree as possible.
                    let mut kept = Vec::new();
                    let mut apply: Vec<Expr> = Vec::new();
                    for c in remaining.drain(..) {
                        if self.bind(&c, &scope).is_ok() {
                            apply.push(c);
                        } else {
                            kept.push(c);
                        }
                    }
                    remaining = kept;
                    if !apply.is_empty() {
                        let refs: Vec<&Expr> = apply.iter().collect();
                        let predicate = self.bind(&conjoin(&refs), &scope)?;
                        plan = PhysPlan::Filter {
                            input: Box::new(plan),
                            predicate,
                        };
                    }
                    cur = PlannedItem {
                        plan,
                        scope,
                        access: None,
                    };
                }
            }
        }
        Ok((cur.plan, cur.scope, remaining))
    }

    /// Try to convert pushed-down conjuncts over a bare base-table scan into
    /// an `IndexScan`. Recognizes `col = <const>` and non-negated
    /// `col IN (<consts>)`; if some index's key columns are all constrained,
    /// returns the lookup plan plus the indexes (into `conjuncts`) of the
    /// conjuncts it fully consumed. Literal NULLs are dropped from the key
    /// sets at plan time (`col = NULL` matches nothing) and the executor
    /// re-applies the same rule after parameter substitution; the cartesian
    /// product of IN-list values is capped at `MAX_INDEX_KEYS` per index.
    /// `DELETE`/`UPDATE` row selection asks the same question here.
    pub(crate) fn try_index_scan(
        &self,
        access: &TableAccess,
        scope: &Scope,
        conjuncts: &[Expr],
    ) -> Result<Option<(PhysPlan, Vec<usize>)>> {
        // col → (conjunct index, candidate key expressions). First conjunct
        // per column wins; a second one stays behind as a residual filter.
        let mut candidates: HashMap<usize, (usize, Vec<PhysExpr>)> = HashMap::new();
        for (ci, c) in conjuncts.iter().enumerate() {
            let (col, values) = match c {
                Expr::Binary {
                    left,
                    op: ast::BinaryOp::Eq,
                    right,
                    ..
                } => {
                    if let (Some(col), Some(v)) =
                        (self.as_scope_column(left, scope), self.const_expr(right))
                    {
                        (col, vec![v])
                    } else if let (Some(col), Some(v)) =
                        (self.as_scope_column(right, scope), self.const_expr(left))
                    {
                        (col, vec![v])
                    } else {
                        continue;
                    }
                }
                Expr::InList {
                    expr,
                    list,
                    negated: false,
                    ..
                } => {
                    let Some(col) = self.as_scope_column(expr, scope) else {
                        continue;
                    };
                    let Some(values) = list
                        .iter()
                        .map(|e| self.const_expr(e))
                        .collect::<Option<Vec<_>>>()
                    else {
                        continue;
                    };
                    (col, values)
                }
                _ => continue,
            };
            candidates.entry(col).or_insert((ci, values));
        }
        if candidates.is_empty() {
            return Ok(None);
        }
        'indexes: for idx in &access.indexes {
            if !idx.key_columns.iter().all(|c| candidates.contains_key(c)) {
                continue;
            }
            // Cartesian product of per-column value sets. Literal NULLs are
            // dropped and literal duplicates removed here (index maps compare
            // with `Value`'s total equality, which matches `=` for non-NULL
            // operands); symbolic parameter expressions pass through and get
            // the same treatment in the executor once their values are known.
            let mut keys: Vec<Vec<PhysExpr>> = vec![Vec::new()];
            for c in &idx.key_columns {
                let (_, values) = &candidates[c];
                let mut uniq: Vec<&PhysExpr> = Vec::new();
                for v in values {
                    match v {
                        PhysExpr::Literal(val) => {
                            let dup = matches!(val, Value::Null)
                                || uniq
                                    .iter()
                                    .any(|u| matches!(u, PhysExpr::Literal(x) if x == val));
                            if !dup {
                                uniq.push(v);
                            }
                        }
                        _ => uniq.push(v),
                    }
                }
                let mut next = Vec::with_capacity(keys.len() * uniq.len());
                for k in &keys {
                    for v in &uniq {
                        if next.len() >= MAX_INDEX_KEYS {
                            continue 'indexes;
                        }
                        let mut k2 = k.clone();
                        k2.push((*v).clone());
                        next.push(k2);
                    }
                }
                keys = next;
            }
            let consumed: Vec<usize> = idx.key_columns.iter().map(|c| candidates[c].0).collect();
            return Ok(Some((
                PhysPlan::IndexScan {
                    table: access.table.clone(),
                    width: access.width,
                    index_name: idx.name.clone(),
                    keys: Some(keys),
                },
                consumed,
            )));
        }
        Ok(None)
    }

    /// `e` as a bare column reference resolved in `scope`, if it is one.
    fn as_scope_column(&self, e: &Expr, scope: &Scope) -> Option<usize> {
        if !matches!(e, Expr::Column { .. }) {
            return None;
        }
        match self.bind(e, scope) {
            Ok(PhysExpr::Column(c)) => Some(c),
            _ => None,
        }
    }

    /// `e` as a row-independent index-key expression: it must bind without
    /// column references, and then either const-folds to a literal now, or
    /// (in symbolic mode) still carries parameter markers and is evaluated
    /// at execution time once they are bound.
    fn const_expr(&self, e: &Expr) -> Option<PhysExpr> {
        let bound = self.bind(e, &Scope::default()).ok()?;
        if bound.contains_param() {
            return Some(bound);
        }
        bound.eval_const().ok().map(PhysExpr::Literal)
    }
}

/// Narrow every join of a finished plan to the columns its consumers read.
///
/// Walks the tree top-down carrying the output columns each node's consumer
/// reads. A join hands its inputs those plus what its keys and residual
/// read, lists in its `out` the columns it must pass on (the residual and a
/// LEFT JOIN's NULL fill still see the whole joined row), and the column
/// references above it, and each `right_width`, are rewritten to the
/// narrower rows. Filter, Sort, Limit and Window pass a narrowed input's
/// rows on, so the rewrite travels up through them; a Project or an
/// Aggregate reads what it reads and starts a new need below. A `Shared`
/// input is narrowed for every column, as all its references read one
/// slot, and so is every arm of a `UNION ALL` and a `DISTINCT`'s input.
/// The root passes on every column.
pub fn narrow_joins(plan: &mut PhysPlan) {
    let every = vec![true; plan.width()];
    let moved = narrow(plan, &every);
    debug_assert!(moved.is_none(), "the root passes on every column");
}

/// Where each output column of a narrowed node went: its new position, or
/// `None` where it was dropped.
type Moved = Vec<Option<usize>>;

/// Narrow the joins in `plan`, whose consumer reads the output columns
/// `need` marks. Returns where `plan`'s output columns went, `None` when
/// none moved.
fn narrow(plan: &mut PhysPlan, need: &[bool]) -> Option<Moved> {
    match plan {
        PhysPlan::Scan { .. }
        | PhysPlan::VirtualScan { .. }
        | PhysPlan::IndexScan { .. }
        | PhysPlan::OneRow => None,
        PhysPlan::Filter { .. }
        | PhysPlan::Sort { .. }
        | PhysPlan::Limit { .. }
        | PhysPlan::Window { .. } => {
            // These hand on their input's rows (a window appends its rank).
            let mut below = need.to_vec();
            if matches!(plan, PhysPlan::Window { .. }) {
                below.pop();
            }
            plan.for_each_expr_mut(&mut |e| mark_columns(e, &mut below));
            let mut moved = None;
            plan.for_each_child_mut(&mut |input| moved = narrow(input, &below));
            let mut moved = moved?;
            plan.for_each_expr_mut(&mut |e| remap_columns(e, &moved));
            if let PhysPlan::Window { input, .. } = plan {
                moved.push(Some(input.width()));
            }
            Some(moved)
        }
        PhysPlan::Project { .. } | PhysPlan::Aggregate { .. } => {
            let mut below = Vec::new();
            plan.for_each_child(&mut |input| below = vec![false; input.width()]);
            plan.for_each_expr_mut(&mut |e| mark_columns(e, &mut below));
            let mut moved = None;
            plan.for_each_child_mut(&mut |input| moved = narrow(input, &below));
            if let Some(moved) = moved {
                plan.for_each_expr_mut(&mut |e| remap_columns(e, &moved));
            }
            None
        }
        PhysPlan::Distinct { input } | PhysPlan::Shared { input, .. } => {
            narrow(input, &vec![true; input.width()]);
            None
        }
        PhysPlan::UnionAll { inputs } => {
            for input in inputs {
                narrow(input, &vec![true; input.width()]);
            }
            None
        }
        PhysPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            right_width,
            residual,
            out,
            ..
        } => {
            let moved = narrow_join(
                need,
                (left, left_keys),
                (right, right_keys),
                residual.as_mut(),
                out,
            );
            *right_width = right.width();
            moved
        }
        PhysPlan::NestedLoopJoin {
            left,
            right,
            right_width,
            predicate,
            out,
            ..
        } => {
            let moved = narrow_join(
                need,
                (left, &mut []),
                (right, &mut []),
                predicate.as_mut(),
                out,
            );
            *right_width = right.width();
            moved
        }
        PhysPlan::IndexJoin {
            probe,
            probe_keys,
            inner,
            inner_is_left,
            residual,
            out,
            ..
        } => {
            // The inner side is an index scan: only the probe side narrows.
            let (probe, inner) = (
                (&mut **probe, &mut probe_keys[..]),
                (&mut **inner, &mut [][..]),
            );
            let (left, right) = match inner_is_left {
                true => (inner, probe),
                false => (probe, inner),
            };
            narrow_join(need, left, right, residual.as_mut(), out)
        }
    }
}

/// The join half of [`narrow`]: narrow each input, given with the key
/// expressions bound to its rows, to what `need`, its keys and `residual`
/// (bound to the joined row) read, rewrite those expressions to match, and
/// set `out` to the joined-row positions of the columns `need` marks.
fn narrow_join(
    need: &[bool],
    (left, left_keys): (&mut PhysPlan, &mut [PhysExpr]),
    (right, right_keys): (&mut PhysPlan, &mut [PhysExpr]),
    residual: Option<&mut PhysExpr>,
    out: &mut Option<Vec<usize>>,
) -> Option<Moved> {
    let (left_width, right_width) = (left.width(), right.width());
    let mut read = need.to_vec();
    if let Some(residual) = &residual {
        mark_columns(residual, &mut read);
    }
    let (mut left_need, mut right_need) =
        (read[..left_width].to_vec(), read[left_width..].to_vec());
    left_keys
        .iter()
        .for_each(|k| mark_columns(k, &mut left_need));
    right_keys
        .iter()
        .for_each(|k| mark_columns(k, &mut right_need));
    let left_moved = narrow(left, &left_need);
    let right_moved = narrow(right, &right_need);
    if let Some(moved) = &left_moved {
        left_keys.iter_mut().for_each(|k| remap_columns(k, moved));
    }
    if let Some(moved) = &right_moved {
        right_keys.iter_mut().for_each(|k| remap_columns(k, moved));
    }
    let kept = |moved: Option<Moved>, width: usize| {
        moved.unwrap_or_else(|| (0..width).map(Some).collect())
    };
    let narrowed_left = left.width();
    let joined: Moved = kept(left_moved, left_width)
        .into_iter()
        .chain(
            kept(right_moved, right_width)
                .into_iter()
                .map(|at| at.map(|at| at + narrowed_left)),
        )
        .collect();
    if let Some(residual) = residual {
        remap_columns(residual, &joined);
    }
    let passed: Vec<usize> = need
        .iter()
        .zip(&joined)
        .filter(|(needed, _)| **needed)
        .map(|(_, at)| at.expect("a column read above the join is kept below it"))
        .collect();
    *out = (passed.len() < narrowed_left + right.width()).then_some(passed);
    if need.iter().all(|needed| *needed) {
        return None;
    }
    let mut next = 0..;
    Some(
        need.iter()
            .map(|needed| needed.then(|| next.next().expect("unbounded")))
            .collect(),
    )
}

/// Mark in `need` every column `e` reads.
fn mark_columns(e: &PhysExpr, need: &mut [bool]) {
    if let PhysExpr::Column(c) = e {
        if let Some(needed) = need.get_mut(*c) {
            *needed = true;
        }
    }
    e.for_each_child(&mut |child| mark_columns(child, need));
}

/// Rewrite every column `e` reads to where `moved` put it.
fn remap_columns(e: &mut PhysExpr, moved: &[Option<usize>]) {
    if let PhysExpr::Column(c) = e {
        *c = moved[*c].expect("a column read above a narrowed node is kept");
    }
    e.for_each_child_mut(&mut |child| remap_columns(child, moved));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::fixture::{self, tables};

    fn scan(rows: usize, width: usize) -> PhysPlan {
        fixture::scan(vec![vec![Value::Int(0); width]; rows], width, false)
    }

    /// [`estimate_rows`] over the tables the test registered.
    fn estimate(plan: &PhysPlan) -> usize {
        let tables = tables();
        estimate_rows(plan, &|table| tables.get(table).map_or(0, Table::row_count))
    }

    fn join(left: PhysPlan, right: PhysPlan) -> PhysPlan {
        PhysPlan::HashJoin {
            right_width: right.width(),
            left: Box::new(left),
            right: Box::new(right),
            left_keys: vec![PhysExpr::Column(0)],
            right_keys: vec![PhysExpr::Column(0)],
            kind: JoinKind::Inner,
            residual: None,
            algo: JoinAlgo::Hash,
            build_left: false,
            out: None,
        }
    }

    /// `SELECT j, n, SUM(w) FROM input GROUP BY j, n` over `input`'s
    /// columns 0 (`j`) and `n`.
    fn grouped(input: PhysPlan, n: usize) -> PhysPlan {
        PhysPlan::Aggregate {
            input: Box::new(input),
            keys: vec![PhysExpr::Column(0), PhysExpr::Column(n)],
            aggs: vec![AggSpec {
                func: ast::AggregateFunc::Sum,
                arg: Some(PhysExpr::Column(1)),
                distinct: false,
            }],
        }
    }

    #[test]
    fn a_join_against_one_row_per_key_keeps_the_other_sides_estimate() {
        // `h_j`'s shape: grouped on `j` and on a column of a one-row input
        // (`n_k`), so one row per `j` — joined on `j`, many-to-one.
        let n_k = PhysPlan::Aggregate {
            input: Box::new(scan(40, 1)),
            keys: vec![],
            aggs: vec![],
        };
        let by_j = grouped(
            PhysPlan::NestedLoopJoin {
                left: Box::new(scan(400, 2)),
                right: Box::new(n_k),
                kind: JoinKind::Cross,
                right_width: 1,
                predicate: None,
                out: None,
            },
            2,
        );
        assert_eq!(estimate(&by_j), 101);
        assert_eq!(estimate(&join(scan(900, 2), by_j.clone())), 900);
        assert_eq!(estimate(&join(by_j, scan(900, 2))), 900);
        // Grouped on a second column of many values: no longer one row per
        // `j`, and the join keeps the smaller estimate.
        let by_j_and_x = grouped(scan(400, 3), 2);
        assert_eq!(estimate(&join(scan(900, 2), by_j_and_x)), 101);
    }

    /// A scan of `rows`, text where a cell is given as text.
    fn table(rows: &[&[Value]]) -> PhysPlan {
        let rows: Vec<Row> = rows.iter().map(|r| r.to_vec()).collect();
        let width = rows.first().map_or(0, Vec::len);
        fixture::scan(rows, width, false)
    }

    fn int(i: i64) -> Value {
        Value::Int(i)
    }

    fn text(s: &str) -> Value {
        Value::text(s)
    }

    fn col(i: usize) -> PhysExpr {
        PhysExpr::Column(i)
    }

    fn binary(left: PhysExpr, op: ast::BinaryOp, right: PhysExpr) -> PhysExpr {
        PhysExpr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    fn hash_join(
        left: PhysPlan,
        right: PhysPlan,
        keys: (usize, usize),
        kind: JoinKind,
    ) -> PhysPlan {
        PhysPlan::HashJoin {
            right_width: right.width(),
            left: Box::new(left),
            right: Box::new(right),
            left_keys: vec![col(keys.0)],
            right_keys: vec![col(keys.1)],
            kind,
            residual: None,
            algo: JoinAlgo::Hash,
            build_left: false,
            out: None,
        }
    }

    fn cross(left: PhysPlan, right: PhysPlan) -> PhysPlan {
        PhysPlan::NestedLoopJoin {
            right_width: right.width(),
            left: Box::new(left),
            right: Box::new(right),
            kind: JoinKind::Cross,
            predicate: None,
            out: None,
        }
    }

    fn aggregate(input: PhysPlan, keys: Vec<PhysExpr>, aggs: Vec<AggSpec>) -> PhysPlan {
        PhysPlan::Aggregate {
            input: Box::new(input),
            keys,
            aggs,
        }
    }

    fn agg(func: ast::AggregateFunc, arg: Option<PhysExpr>) -> AggSpec {
        AggSpec {
            func,
            arg,
            distinct: false,
        }
    }

    /// The `out` of each join in `plan`, in `EXPLAIN` order.
    fn outs(plan: &PhysPlan) -> Vec<Option<Vec<usize>>> {
        let mut outs = Vec::new();
        plan.for_each_node(&mut |node, _, _| match node {
            PhysPlan::HashJoin { out, .. }
            | PhysPlan::NestedLoopJoin { out, .. }
            | PhysPlan::IndexJoin { out, .. } => outs.push(out.clone()),
            _ => {}
        });
        outs
    }

    /// Narrow `plan`, check the verifier passes it, and check it answers
    /// what it answered before; the narrowed plan.
    fn narrowed(mut plan: PhysPlan) -> PhysPlan {
        let (ctx, tables) = (ExecContext::serial(), tables());
        let before = ctx.execute(&plan, &tables).unwrap();
        narrow_joins(&mut plan);
        let discipline = crate::verify::ParamDiscipline::Bound;
        let report = crate::verify::verify_plan(&plan, None, Some(&tables), discipline);
        assert!(report.ok(), "{:?}", report.violations);
        assert_eq!(ctx.execute(&plan, &tables).unwrap(), before);
        plan
    }

    /// The deployed predict-all: `SELECT x_nj.n, hw.k, SUM(hw.w *
    /// POW(x_nj.w, a)) FROM m_weights AS hw, x_nj, abh WHERE hw.j = x_nj.j
    /// GROUP BY x_nj.n, hw.k`.
    #[test]
    fn the_predict_all_passes_on_four_of_six_then_five_of_nine() {
        let weights = table(&[
            &[text("t0"), text("c0"), Value::Float(0.5)],
            &[text("t0"), text("c1"), Value::Float(0.25)],
            &[text("t1"), text("c1"), Value::Float(2.0)],
        ]);
        let x_nj = table(&[
            &[int(1), text("t0"), Value::Float(1.0)],
            &[int(1), text("t1"), Value::Float(3.0)],
            &[int(2), text("t1"), Value::Float(1.0)],
        ]);
        let abh = table(&[&[Value::Float(1.0), Value::Float(1.0), Value::Float(0.0)]]);
        let mut joined = hash_join(weights, x_nj, (0, 1), JoinKind::Inner);
        if let PhysPlan::HashJoin { build_left, .. } = &mut joined {
            *build_left = true;
        }
        let pow = PhysExpr::Function {
            func: crate::expr::ScalarFunc::Pow,
            args: vec![col(5), col(6)],
        };
        let plan = narrowed(aggregate(
            cross(joined, abh),
            vec![col(3), col(1)],
            vec![agg(
                ast::AggregateFunc::Sum,
                Some(binary(col(2), ast::BinaryOp::Mul, pow)),
            )],
        ));
        // `hw.k, hw.w, x_nj.n, x_nj.w`, then those and `a`.
        assert_eq!(
            outs(&plan),
            [Some(vec![0, 1, 2, 3, 4]), Some(vec![1, 2, 3, 5])]
        );
        let rendered = crate::explain::render_plan(&plan);
        assert!(
            rendered.contains("NestedLoopJoin [Cross] out=5/9"),
            "{rendered}"
        );
        let hashed = "HashJoin [Inner, 1 keys, build=left] probe=keyset(row) out=4/6";
        assert!(rendered.contains(hashed), "{rendered}");
        let PhysPlan::Aggregate { keys, aggs, .. } = &plan else {
            panic!("the aggregate stays on top");
        };
        assert_eq!(column_only(keys), Some(vec![2, 0]));
        assert_eq!(plan.width(), 3);
        assert!(
            matches!(&aggs[0].arg, Some(PhysExpr::Binary { left, .. }) if matches!(**left, PhysExpr::Column(1)))
        );
    }

    /// `SELECT SUM(u.d) FROM t JOIN v ON t.a = v.a JOIN u ON t.a = u.c AND
    /// t.b < u.d`: the residual reads `t.b`, which its join does not pass
    /// on, and `u.d`, which moves left as the join below drops `v`'s columns.
    #[test]
    fn a_residual_reads_a_column_the_join_drops() {
        let t = table(&[&[int(1), int(5)], &[int(2), int(50)], &[int(3), int(7)]]);
        let v = table(&[&[int(1), int(0)], &[int(2), int(0)], &[int(3), int(0)]]);
        let u = table(&[&[int(1), int(10)], &[int(2), int(20)], &[int(1), int(3)]]);
        let below = hash_join(t, v, (0, 0), JoinKind::Inner);
        let mut joined = hash_join(below, u, (0, 0), JoinKind::Inner);
        if let PhysPlan::HashJoin { residual, .. } = &mut joined {
            *residual = Some(binary(col(1), ast::BinaryOp::Lt, col(5)));
        }
        let plan = narrowed(aggregate(
            joined,
            vec![],
            vec![agg(ast::AggregateFunc::Sum, Some(col(5)))],
        ));
        assert_eq!(outs(&plan), [Some(vec![3]), Some(vec![0, 1])]);
        let PhysPlan::Aggregate { input, aggs, .. } = &plan else {
            panic!("the aggregate stays on top");
        };
        let PhysPlan::HashJoin { residual, .. } = &**input else {
            panic!("the join stays below it");
        };
        // The residual still reads the whole joined row, now `t.a, t.b,
        // u.c, u.d`; the sum, the one column passed on.
        let residual = format!("{residual:?}");
        let moved = binary(col(1), ast::BinaryOp::Lt, col(3));
        assert_eq!(residual, format!("{:?}", Some(moved)));
        assert!(matches!(aggs[0].arg, Some(PhysExpr::Column(0))));
        assert_eq!(
            ExecContext::serial().execute(&plan, &tables()).unwrap(),
            [vec![int(10)]]
        );
    }

    /// `SELECT t.b, u.d FROM t LEFT JOIN u ON t.a = u.c`: an unmatched row
    /// passes on its NULL fill's narrowed columns.
    #[test]
    fn a_left_join_narrows_its_null_fill() {
        let t = table(&[&[int(1), int(10)], &[int(2), int(20)]]);
        let u = table(&[&[int(1), int(100)], &[int(3), int(300)]]);
        let plan = narrowed(PhysPlan::Project {
            input: Box::new(hash_join(t, u, (0, 0), JoinKind::Left)),
            exprs: vec![col(1), col(3)],
        });
        assert_eq!(outs(&plan), [Some(vec![1, 3])]);
        assert_eq!(
            ExecContext::serial().execute(&plan, &tables()).unwrap(),
            [vec![int(10), int(100)], vec![int(20), Value::Null]]
        );
    }

    /// `SELECT COUNT(*) FROM s, (t JOIN u ON t.a = u.c)`: nothing above
    /// either join reads a column, so both pass on empty rows — the hash
    /// join's held as the nested loop's inner side.
    #[test]
    fn count_star_over_joins_passes_on_zero_width_rows() {
        let t = table(&[&[int(1)], &[int(2)], &[int(1)]]);
        let u = table(&[&[int(1)], &[int(1)], &[int(2)]]);
        let s = table(&[&[int(7)], &[int(8)]]);
        let plan = narrowed(aggregate(
            cross(s, hash_join(t, u, (0, 0), JoinKind::Inner)),
            vec![],
            vec![agg(ast::AggregateFunc::Count, None)],
        ));
        assert_eq!(outs(&plan), [Some(vec![]), Some(vec![])]);
        assert_eq!(
            ExecContext::serial().execute(&plan, &tables()).unwrap(),
            [vec![int(10)]]
        );
    }

    /// `WITH c AS (SELECT … FROM t JOIN u …) SELECT a.b, b.d FROM c a JOIN
    /// c b ON a.a = b.a`: the references read different columns, but one
    /// slot serves both, so the CTE's join passes on all of them.
    #[test]
    fn a_shared_cte_read_two_ways_keeps_its_slot_whole() {
        let t = table(&[&[int(1), int(10)], &[int(2), int(20)]]);
        let u = table(&[&[int(1), int(100)], &[int(2), int(200)]]);
        let shared = PhysPlan::Shared {
            id: 0,
            cte: Arc::from("c"),
            refs: 2,
            input: Box::new(hash_join(t, u, (0, 0), JoinKind::Inner)),
        };
        let plan = narrowed(PhysPlan::Project {
            input: Box::new(hash_join(shared.clone(), shared, (0, 0), JoinKind::Inner)),
            exprs: vec![col(1), col(7)],
        });
        // The outer join passes on `a.b` and `b.d`; each copy of the CTE's
        // join (the second one `EXPLAIN` does not descend into) passes on
        // its whole row.
        assert_eq!(outs(&plan), [Some(vec![1, 7]), None]);
        let PhysPlan::Project { input, .. } = &plan else {
            panic!("the projection stays on top");
        };
        let PhysPlan::HashJoin { right, .. } = &**input else {
            panic!("the join stays below it");
        };
        assert_eq!(outs(right), [None]);
        assert_eq!(right.width(), 4);
    }

    /// A profile-C sort-merge join narrows like a hash join, its LEFT NULL
    /// fill included.
    #[test]
    fn a_sort_merge_join_narrows() {
        let t = table(&[
            &[int(2), text("b")],
            &[int(1), text("a")],
            &[int(9), text("z")],
        ]);
        let u = table(&[
            &[text("x"), int(1)],
            &[text("y"), int(2)],
            &[text("w"), int(1)],
        ]);
        let mut joined = hash_join(t, u, (0, 1), JoinKind::Left);
        if let PhysPlan::HashJoin { algo, .. } = &mut joined {
            *algo = JoinAlgo::SortMerge;
        }
        let plan = narrowed(PhysPlan::Project {
            input: Box::new(joined),
            exprs: vec![col(2), col(1)],
        });
        assert_eq!(outs(&plan), [Some(vec![1, 2])]);
        assert!(crate::explain::render_plan(&plan).contains("SortMergeJoin [Left, 1 keys] out=2/4"));
    }

    /// A cached template is narrowed once; its program runs with the
    /// parameters bound at their site and the narrowed `out`.
    #[test]
    fn a_rebound_template_keeps_out() {
        let t = table(&[&[int(1), int(10)], &[int(2), int(20)]]);
        let u = table(&[&[int(1), int(100)], &[int(2), int(200)]]);
        let mut template = PhysPlan::Project {
            input: Box::new(PhysPlan::Filter {
                input: Box::new(hash_join(t, u, (0, 0), JoinKind::Inner)),
                predicate: binary(col(0), ast::BinaryOp::Eq, PhysExpr::Param(1)),
            }),
            exprs: vec![col(3)],
        };
        narrow_joins(&mut template);
        assert_eq!(outs(&template), [Some(vec![0, 3])]);
        let program = std::sync::Arc::new(crate::exec::Program::lower(&template));
        assert_eq!(program.sites().len(), 1, "the filter holds the one marker");
        let bound = program.bind(&tables()).unwrap();
        let (rows, _) = ExecContext::serial()
            .execute_program(&program, &[int(2)], bound, false)
            .unwrap();
        assert_eq!(rows, [vec![int(200)]]);
    }
}
