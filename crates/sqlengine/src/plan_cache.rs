//! The plan cache: what an entry holds, when it may serve a run, and the
//! capacity bound, behind [`PlanCache::lookup`] / [`PlanCache::insert`] /
//! [`PlanCache::mutate`].
//!
//! Entries are keyed by statement shape ([`Shape`]: normalised text with
//! literals reduced to type-class placeholders); a lookup hits while the
//! text's pinned literals equal the entry's. An entry is a query's lowered
//! plan, or a DML statement — checked, with its literals lifted, and for
//! `INSERT … SELECT` its source's lowered plan ([`Body`]).
//!
//! Plans name their tables and hold none of their rows: each run binds the
//! tables' current rows ([`crate::exec::Program::bind`]), so a write leaves
//! the cache as it is. An entry records every table it reads or names
//! ([`PlannedTable`]): its definition when the entry was planned or
//! checked, and the row counts the planner's choices read. A lookup is made
//! under the catalog read lock the run then binds its tables under, and
//! serves the entry only while it is still valid there: every definition
//! still equals the catalog's (DDL that changed one, or a dropped table,
//! makes the statement replan), and every count is within a factor of two
//! of the table's (`plan_cache.stats_replans`). An entry found stale is
//! dropped at that lookup, and one superseded under its key when the new
//! one is stored.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::ast::Statement;
use crate::catalog::Catalog;
use crate::exec::Program;
use crate::lexer::Shape;
use crate::lift::{same_literal, Slot};
use crate::plan::{PhysPlan, PlannedQuery, PlannedTable};
use crate::sync::Mutex;
use crate::value::Value;

/// Upper bound on cached plans. Serving workloads cycle through a handful of
/// statement texts; the bound only guards against unbounded ad-hoc traffic.
pub(crate) const PLAN_CACHE_CAPACITY: usize = 128;

/// A plan and its lowered program.
pub(crate) type PlanPair = (Arc<PlannedQuery>, Arc<Program>);

/// What a cache entry runs.
#[derive(Clone)]
pub(crate) enum Body {
    /// A query's plan. `template`: `?` markers were kept symbolic
    /// ([`crate::expr::PhysExpr::Param`] nodes), and each run binds its
    /// values at the program's parameter sites.
    Query { plan: PlanPair, template: bool },
    /// An `INSERT … SELECT`, `DELETE` or `UPDATE`, checked, with its
    /// literals lifted into parameters; an `INSERT … SELECT` keeps its
    /// source's plan template, which every run binds like a query's.
    Dml {
        stmt: Arc<Statement>,
        source: Option<PlanPair>,
    },
}

impl Body {
    /// Whether runs bind parameter values (a DML statement always does).
    fn template(&self) -> bool {
        match self {
            Body::Query { template, .. } => *template,
            Body::Dml { .. } => true,
        }
    }

    /// The plan an entry runs — a query's, or an `INSERT … SELECT`'s
    /// source — and whether it is a template.
    pub fn plan(&self) -> Option<(&PlanPair, bool)> {
        match self {
            Body::Query { plan, template } => Some((plan, *template)),
            Body::Dml { source, .. } => source.as_ref().map(|plan| (plan, true)),
        }
    }
}

/// A cached statement: what it runs, the tables it was made over, and the
/// literal slots of its shape.
struct CachedPlan {
    body: Body,
    /// One per literal of the shape, in source order: the template
    /// parameter it fills, or the value the plan was built for. A template
    /// without slots takes the caller's parameters (explicit `?` text).
    slots: Vec<Slot>,
    /// The tables it reads or names, as they were when it was made.
    tables: Vec<PlannedTable>,
    /// Whether the plan passed a verifier walk. The plan tree behind the
    /// `Arc` is immutable and is only served over tables defined as it was
    /// planned against, so one walk vets every later hit — this is what
    /// keeps the verifier's cost off the cached serving hot path. Shared
    /// (not copied) with in-flight executions so a successful walk marks the
    /// entry itself.
    verified: Arc<AtomicBool>,
}

/// Why an entry may not serve a run.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stale {
    /// A table it reads or names is gone or defined otherwise.
    Definition,
    /// A table grew or shrank past twice the row count its plan's choices
    /// read.
    Stats,
}

impl CachedPlan {
    /// A template filled from the caller's parameters (explicit `?` text)
    /// rather than from literals of the text.
    fn takes_caller_params(&self) -> bool {
        self.body.template() && self.slots.is_empty()
    }

    /// The parameter values `shape`'s literals give this entry's template
    /// (empty when nothing was lifted). `None` when a pinned literal
    /// differs: the plan was built for another statement of the same shape.
    fn bind_literals(&self, shape: &Shape) -> Option<Vec<Value>> {
        let lifted = self.slots.iter().filter(|s| matches!(s, Slot::Param(_)));
        let mut params = vec![Value::Null; lifted.count()];
        // Equal keys hold equally many placeholders, so the zip is exact.
        for ((_, value), slot) in shape.literals.iter().zip(&self.slots) {
            match slot {
                Slot::Param(index) => params[*index] = value.clone(),
                Slot::Pinned(pinned) if same_literal(pinned, value) => {}
                Slot::Pinned(_) => return None,
            }
        }
        Some(params)
    }

    /// Why the entry may not serve a run over `catalog`, if it may not: a
    /// changed definition first, then a count its choices outgrew. A table
    /// defined alike under a new `Arc` (dropped and created again, or a
    /// restored catalog's) passes, and the entry takes that `Arc` on, so
    /// the next lookup compares pointers.
    fn stale(&mut self, catalog: &Catalog) -> Option<Stale> {
        let mut stale = None;
        for planned in &mut self.tables {
            let Ok(table) = catalog.get(&planned.name) else {
                return Some(Stale::Definition);
            };
            if !Arc::ptr_eq(&planned.def, &table.def) {
                if *planned.def != *table.def {
                    return Some(Stale::Definition);
                }
                planned.def = Arc::clone(&table.def);
            }
            let rows = table.row_count();
            let outgrown = |read: usize| rows > read.saturating_mul(2) || rows * 2 < read;
            if planned.rows.is_some_and(outgrown) {
                stale = Some(Stale::Stats);
            }
        }
        stale
    }
}

/// A statement to store: what it runs and the tables it was made over.
pub(crate) struct NewEntry {
    pub body: Body,
    pub slots: Vec<Slot>,
    pub tables: Vec<PlannedTable>,
    /// The plan already passed a verifier walk, so the first hit can skip
    /// straight to execution.
    pub verified: bool,
}

/// A statement served from the cache.
pub(crate) struct CacheHit {
    pub body: Body,
    /// The template's parameter values when they come out of the statement
    /// text (lifted literals) instead of from the caller.
    pub lifted: Option<Vec<Value>>,
    verified: Arc<AtomicBool>,
}

impl CacheHit {
    /// Whether the entry already passed a verifier walk.
    pub fn verified(&self) -> bool {
        self.verified.load(Ordering::Acquire)
    }

    /// Memoize a successful verifier walk. Failed walks are never recorded,
    /// so a corrupt entry is re-rejected on every execution until it is
    /// evicted or replaced.
    pub fn mark_verified(&self) {
        self.verified.store(true, Ordering::Release);
    }
}

/// How a statement uses the plan cache.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum CacheUse {
    /// Serving traffic: lookups are counted, templates are served, and the
    /// plan made on a miss is stored.
    Serve,
    /// A diagnostic read (`query_analyzed`) that should observe the very
    /// tree repeated executions use: it runs a cached query plan when one
    /// exists but leaves the cache and its counters alone, and skips
    /// templates that take the caller's parameters, for which it has no
    /// values to bind.
    Peek,
    /// Neither look up nor store.
    Bypass,
}

#[derive(Default)]
pub(crate) struct PlanCache {
    /// The plan served for each statement shape.
    entries: Mutex<HashMap<String, CachedPlan>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Hits that bound literals lifted out of the statement text.
    lifted_hits: AtomicU64,
    /// Misses on an entry of the right shape whose pinned literals differ
    /// from the text's.
    pinned_mismatches: AtomicU64,
    /// Misses on an entry whose tables grew or shrank past twice the row
    /// counts its plan's choices read.
    stats_replans: AtomicU64,
}

/// Plan-cache counters since the last [`PlanCache::reset_stats`].
#[derive(Clone, Copy)]
pub(crate) struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Plans dropped by full clears at capacity. (Stale and superseded
    /// plans are not counted.)
    pub evictions: u64,
    pub lifted_hits: u64,
    pub pinned_mismatches: u64,
    pub stats_replans: u64,
}

impl PlanCache {
    /// Look a statement up by its shape, for a run over `catalog`, whose
    /// read lock the caller holds until it has bound the run's tables: a
    /// hit requires the entry's pinned literals to equal the text's and the
    /// entry to be valid over `catalog` (a stale one is dropped, unless
    /// peeking). [`CacheUse::Peek`] sees query plans only.
    pub fn lookup(&self, shape: &Shape, mode: CacheUse, catalog: &Catalog) -> Option<CacheHit> {
        if mode == CacheUse::Bypass {
            return None;
        }
        let serving = mode == CacheUse::Serve;
        let mut entries = self.entries.lock();
        let (mut mismatch, mut stale) = (false, None);
        let hit = entries
            .get_mut(&shape.key)
            .filter(|c| {
                serving || (matches!(c.body, Body::Query { .. }) && !c.takes_caller_params())
            })
            .and_then(|c| {
                let values = c.bind_literals(shape);
                mismatch = values.is_none();
                let values = values?;
                stale = c.stale(catalog);
                stale.is_none().then(|| CacheHit {
                    body: c.body.clone(),
                    lifted: (!values.is_empty()).then_some(values),
                    verified: Arc::clone(&c.verified),
                })
            });
        let dropped = (serving && stale.is_some())
            .then(|| entries.remove(&shape.key))
            .flatten();
        drop(entries);
        drop(dropped);
        if serving {
            let bump = |counter: &AtomicU64| counter.fetch_add(1, Ordering::Relaxed);
            match &hit {
                Some(hit) => {
                    bump(&self.hits);
                    if hit.lifted.is_some() {
                        bump(&self.lifted_hits);
                    }
                }
                None => {
                    bump(&self.misses);
                    if mismatch {
                        bump(&self.pinned_mismatches);
                    }
                    if stale == Some(Stale::Stats) {
                        bump(&self.stats_replans);
                    }
                }
            }
        }
        hit
    }

    /// Store a statement under `key`, in place of the entry there, if any.
    /// A full cache is cleared first.
    pub fn insert(&self, key: String, entry: NewEntry) {
        let mut entries = self.entries.lock();
        let cleared = (entries.len() >= PLAN_CACHE_CAPACITY && !entries.contains_key(&key))
            .then(|| std::mem::take(&mut *entries));
        if let Some(cleared) = &cleared {
            self.evictions
                .fetch_add(cleared.len() as u64, Ordering::Relaxed);
        }
        let plan = CachedPlan {
            body: entry.body,
            slots: entry.slots,
            tables: entry.tables,
            verified: Arc::new(AtomicBool::new(entry.verified)),
        };
        let superseded = entries.insert(key, plan);
        drop(entries);
        drop((cleared, superseded));
    }

    /// Test seam: replace the cached plan for queries of `sql`'s shape (if
    /// any) with a mutated copy, lowered again, returning whether an entry
    /// was found.
    pub fn mutate(&self, sql: &str, mutate: &mut dyn FnMut(&mut PhysPlan)) -> bool {
        let mut entries = self.entries.lock();
        let Some(entry) = crate::lexer::scan_shape(sql).and_then(|s| entries.get_mut(&s.key))
        else {
            return false;
        };
        let Body::Query { plan, .. } = &mut entry.body else {
            return false;
        };
        let mut planned = (*plan.0).clone();
        mutate(&mut planned.plan);
        let program = Program::lower(&planned.plan);
        *plan = (Arc::new(planned), Arc::new(program));
        // A fresh marker (not a reset of the shared one): in-flight
        // executions still verifying the old tree must not be able to mark
        // the replaced entry as checked.
        entry.verified = Arc::new(AtomicBool::new(false));
        true
    }

    /// Number of plans that can be served.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    pub fn stats(&self) -> CacheStats {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        CacheStats {
            hits: load(&self.hits),
            misses: load(&self.misses),
            evictions: load(&self.evictions),
            lifted_hits: load(&self.lifted_hits),
            pinned_mismatches: load(&self.pinned_mismatches),
            stats_replans: load(&self.stats_replans),
        }
    }

    /// Zero the counters (cached plans stay).
    pub fn reset_stats(&self) {
        for counter in [
            &self.hits,
            &self.misses,
            &self.evictions,
            &self.lifted_hits,
            &self.pinned_mismatches,
            &self.stats_replans,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Column, Schema, Table};
    use crate::value::DataType;

    fn plan() -> PlanPair {
        let planned = PlannedQuery {
            plan: PhysPlan::OneRow,
            columns: Vec::new(),
            scope: Default::default(),
        };
        let program = Program::lower(&planned.plan);
        (Arc::new(planned), Arc::new(program))
    }

    fn shape(sql: &str) -> Shape {
        crate::lexer::scan_shape(sql).expect("lexes")
    }

    fn table(name: &str) -> Table {
        let n = Column {
            name: "n".into(),
            ty: DataType::Integer,
        };
        Table::new(name.into(), Schema::new(vec![n]), &[]).unwrap()
    }

    /// Tables `t`, `u` and `v`.
    fn catalog() -> Catalog {
        let mut catalog = Catalog::new();
        for name in ["t", "u", "v"] {
            catalog.create_table(table(name), false).unwrap();
        }
        catalog
    }

    /// Append `rows` rows to `name`.
    fn write(catalog: &mut Catalog, name: &str, rows: i64) {
        let t = catalog.get_mut(name).unwrap();
        for i in 0..rows {
            t.insert_row(vec![Value::Int(i)], None).unwrap();
        }
    }

    /// A query plan over `tables` as `catalog` has them, its choices having
    /// read no row count.
    fn query(catalog: &Catalog, tables: &[&str]) -> NewEntry {
        let planned = |t: &&str| PlannedTable::of(catalog.get(t).unwrap());
        NewEntry {
            body: Body::Query {
                plan: plan(),
                template: false,
            },
            slots: Vec::new(),
            tables: tables.iter().map(planned).collect(),
            verified: false,
        }
    }

    /// A `DELETE` from `t`, checked against `catalog`: it names `t` and
    /// reads no table.
    fn delete(catalog: &Catalog) -> NewEntry {
        let stmt = crate::parser::parse_statement(DELETE).expect("parses");
        NewEntry {
            body: Body::Dml {
                stmt: Arc::new(stmt),
                source: None,
            },
            ..query(catalog, &["t"])
        }
    }

    const DELETE: &str = "DELETE FROM t WHERE n = ?";

    fn cached(cache: &PlanCache, sql: &str, catalog: &Catalog) -> bool {
        cache
            .lookup(&shape(sql), CacheUse::Serve, catalog)
            .is_some()
    }

    #[test]
    fn superseded_plans_count_against_the_capacity() {
        // One shape planned again and again (for other pinned literals, or
        // by racing planners): each plan replaces the last on the spot, so
        // only the one served counts, and nothing is evicted.
        let (cache, catalog) = (PlanCache::default(), catalog());
        for _ in 0..3 * PLAN_CACHE_CAPACITY {
            cache.insert("select #i".into(), query(&catalog, &["t"]));
            assert_eq!(cache.len(), 1);
        }
        assert_eq!(cache.stats().evictions, 0);
        // Distinct shapes fill the cache, and the next one clears it.
        for i in 1..=PLAN_CACHE_CAPACITY {
            cache.insert(format!("select #{i}"), query(&catalog, &[]));
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, PLAN_CACHE_CAPACITY as u64);
    }

    #[test]
    fn a_write_to_one_table_keeps_the_plans_over_another() {
        let (cache, mut catalog) = (PlanCache::default(), catalog());
        cache.insert(shape("SELECT 1").key, query(&catalog, &["t"]));
        write(&mut catalog, "u", 3);
        assert!(cached(&cache, "SELECT 1", &catalog));
    }

    #[test]
    fn a_write_keeps_the_plans_over_its_table() {
        // A plan names its tables and holds none of their rows: the next
        // run binds the written rows, so the write leaves the entry.
        let (cache, mut catalog) = (PlanCache::default(), catalog());
        cache.insert(shape("SELECT 1").key, query(&catalog, &["t", "u"]));
        // Table names are matched as the catalog matches them.
        write(&mut catalog, "T", 100);
        assert!(cached(&cache, "SELECT 1", &catalog));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn a_table_grown_past_twice_its_estimate_replans() {
        // The plan's choices read 10 rows of `t` and none of `u`.
        let (cache, mut catalog) = (PlanCache::default(), catalog());
        write(&mut catalog, "t", 10);
        let mut entry = query(&catalog, &["t", "u"]);
        entry.tables[0].rows = Some(10);
        cache.insert(shape("SELECT 1").key, entry);
        // `u` may grow as it likes; `t` up to twice what was read.
        write(&mut catalog, "u", 1000);
        write(&mut catalog, "t", 10);
        assert!(cached(&cache, "SELECT 1", &catalog));
        write(&mut catalog, "t", 1);
        assert!(!cached(&cache, "SELECT 1", &catalog));
        assert_eq!(cache.len(), 0, "the stale entry is dropped");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.stats_replans), (1, 1, 1));
        // Shrinking under half counts the same way.
        let mut entry = query(&catalog, &["t"]);
        entry.tables[0].rows = Some(100);
        cache.insert(shape("SELECT 1").key, entry);
        assert!(!cached(&cache, "SELECT 1", &catalog));
        assert_eq!(cache.stats().stats_replans, 2);
    }

    #[test]
    fn a_table_dropped_and_created_alike_keeps_its_plans() {
        let (cache, mut catalog) = (PlanCache::default(), catalog());
        cache.insert(shape("SELECT 1").key, query(&catalog, &["t"]));
        catalog.drop_table("t", false).unwrap();
        let peek = cache.lookup(&shape("SELECT 1"), CacheUse::Peek, &catalog);
        assert!(peek.is_none(), "no table to serve it over");
        // The definition is a new `Arc` of an equal value.
        catalog.create_table(table("t"), false).unwrap();
        write(&mut catalog, "t", 1);
        assert!(cached(&cache, "SELECT 1", &catalog));
    }

    #[test]
    fn a_dml_entry_survives_a_data_write_to_its_target() {
        let (cache, mut catalog) = (PlanCache::default(), catalog());
        cache.insert(shape(DELETE).key, delete(&catalog));
        write(&mut catalog, "t", 50);
        assert!(cached(&cache, DELETE, &catalog));
    }

    #[test]
    fn ddl_on_its_target_drops_a_dml_entry() {
        // `CREATE INDEX` changes `t`'s definition: the next lookup replans
        // and drops the entry. DDL on another table leaves it.
        let (cache, mut catalog) = (PlanCache::default(), catalog());
        cache.insert(shape(DELETE).key, delete(&catalog));
        let index = |catalog: &mut Catalog, table: &str| {
            let t = catalog.get_mut(table).unwrap();
            t.create_index(&format!("{table}_n"), &["n".into()], false)
                .unwrap();
        };
        index(&mut catalog, "u");
        assert!(cached(&cache, DELETE, &catalog));
        index(&mut catalog, "t");
        assert!(!cached(&cache, DELETE, &catalog));
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().stats_replans, 0, "not a stats replan");
    }

    #[test]
    fn a_plan_stored_over_a_changed_definition_replans_at_its_lookup() {
        // A planner that read the catalog before DDL stores a plan of the
        // old definition: the lookup, not the store, turns it away.
        let (cache, mut catalog) = (PlanCache::default(), catalog());
        let before = catalog.clone();
        catalog.drop_table("t", false).unwrap();
        let mut redefined = table("t");
        redefined.create_index("t_n", &["n".into()], true).unwrap();
        catalog.create_table(redefined, false).unwrap();
        cache.insert(shape("SELECT 1").key, query(&before, &["t"]));
        cache.insert(shape(DELETE).key, delete(&before));
        assert_eq!(cache.len(), 2, "stored");
        assert!(!cached(&cache, "SELECT 1", &catalog));
        assert!(!cached(&cache, DELETE, &catalog));
        // One planned over the new definition is served.
        cache.insert(shape("SELECT 1").key, query(&catalog, &["t"]));
        assert!(cached(&cache, "SELECT 1", &catalog));
    }

    #[test]
    fn a_restored_catalog_serves_the_plans_its_definitions_match() {
        // `ROLLBACK` puts back the catalog saved at `BEGIN`; a plan over
        // tables defined alike serves it, one over a table it lacks does
        // not.
        let (cache, mut catalog) = (PlanCache::default(), catalog());
        let saved = catalog.clone();
        write(&mut catalog, "t", 5);
        catalog.create_table(table("w"), false).unwrap();
        cache.insert(shape("SELECT 1").key, query(&catalog, &["t"]));
        cache.insert(shape("SELECT 'x'").key, query(&catalog, &["w"]));
        assert!(cached(&cache, "SELECT 1", &saved));
        assert!(!cached(&cache, "SELECT 'x'", &saved));
    }
}
