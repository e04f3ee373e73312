//! The plan cache: what an entry holds and names, the per-table
//! invalidation and race protocol, the verification marker, the
//! literal-slot check, and the capacity bound, behind [`PlanCache::lookup`]
//! / [`PlanCache::insert`] / [`PlanCache::invalidate`] /
//! [`PlanCache::mutate`].
//!
//! Entries are keyed by statement shape ([`Shape`]: normalised text with
//! literals reduced to type-class placeholders); a lookup hits while the
//! text's pinned literals equal the entry's. An entry is a query's lowered
//! plan, or a DML statement — checked, with its literals lifted, and for
//! `INSERT … SELECT` its source's lowered plan ([`Body`]).
//!
//! Plans embed row and index snapshots of the tables they read, so each
//! entry records the tables whose rows it *holds* and the ones it only
//! *names* (a DML target). Writers keep the cache exact, each under the
//! catalog write lock and before the catalog changes
//! ([`PlanCache::invalidate`]): a data write to a table drops every live and
//! parked entry holding its rows, DDL on a table every entry naming it, and
//! `ROLLBACK` or a restore everything. A live entry is therefore the plan a
//! fresh planning would produce, and a write to one table leaves the plans
//! over the others cached.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::ast::Statement;
use crate::catalog::Catalog;
use crate::exec::Program;
use crate::lexer::Shape;
use crate::lift::{same_literal, Slot};
use crate::plan::{PhysPlan, PlannedQuery};
use crate::sync::Mutex;
use crate::value::Value;

/// Upper bound on cached plans. Serving workloads cycle through a handful of
/// statement texts; the bound only guards against unbounded ad-hoc traffic.
pub(crate) const PLAN_CACHE_CAPACITY: usize = 128;

/// Sentinel verification marker: the entry has not passed a verifier walk
/// (never verified, or deliberately reset by the corruption test seam).
const UNVERIFIED: u64 = u64::MAX;

/// A plan and its lowered program.
pub(crate) type PlanPair = (Arc<PlannedQuery>, Arc<Program>);

/// A table whose rows a plan holds: its name, lowercased, and the address
/// of the row snapshot the plan holds, which tells the table's current rows
/// from those of a table that DDL retired under the same name.
pub(crate) type Held = (String, usize);

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

/// A cached statement: what it runs, the tables it holds and names, and the
/// literal slots of its shape.
struct CachedPlan {
    body: Body,
    /// One per literal of the shape, in source order: the template
    /// parameter it fills, or the value the plan was built for. A template
    /// without slots takes the caller's parameters (explicit `?` text).
    slots: Vec<Slot>,
    /// Catalog version read before the statement's catalog reads (see
    /// [`PlanCache::insert`]).
    version: u64,
    /// Tables whose rows the plan holds: a data write to one drops the
    /// entry.
    holds: Arc<[Held]>,
    /// Tables the statement names without holding their rows (a DML
    /// target): only DDL on one drops the entry.
    names: Vec<String>,
    /// Catalog version at the last successful verifier walk that ran the
    /// snapshot checks ([`UNVERIFIED`] when none). The plan tree behind the
    /// `Arc` is immutable and verification is deterministic in (plan,
    /// catalog version), so a hit at the same version can skip the walk —
    /// this is what keeps the verifier's cost off the cached serving hot
    /// path. Shared (not copied) with in-flight executions so a successful
    /// walk marks the entry itself.
    verified_version: Arc<AtomicU64>,
}

impl CachedPlan {
    /// A template filled from the caller's parameters (explicit `?` text)
    /// rather than from literals of the text.
    fn takes_caller_params(&self) -> bool {
        self.body.template() && self.slots.is_empty()
    }

    /// Whether the entry holds `table`'s rows (lowercased) or, for
    /// `schema`, names it.
    fn involves(&self, table: &str, schema: bool) -> bool {
        self.holds.iter().any(|(t, _)| t == table)
            || (schema && self.names.iter().any(|t| t == table))
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
}

/// A statement to store: what it runs and what it holds and names.
pub(crate) struct NewEntry {
    pub body: Body,
    pub slots: Vec<Slot>,
    /// Catalog version read before the statement read the catalog.
    pub version: u64,
    pub holds: Vec<Held>,
    pub names: Vec<String>,
    /// The plan already passed a verifier walk at `version`, so the first
    /// hit can skip straight to execution.
    pub verified: bool,
}

/// A statement served from the cache.
pub(crate) struct CacheHit {
    pub body: Body,
    /// The template's parameter values when they come out of the statement
    /// text (lifted literals) instead of from the caller.
    pub lifted: Option<Vec<Value>>,
    /// Catalog version the entry was planned against, and the tables it
    /// holds: the verifier runs its snapshot checks only while none of them
    /// has been written since ([`PlanCache::is_current`]).
    pub version: u64,
    pub holds: Arc<[Held]>,
    verified_version: Arc<AtomicU64>,
}

impl CacheHit {
    /// Whether the entry already passed a verifier walk at `version`.
    pub fn verified_at(&self, version: u64) -> bool {
        self.verified_version.load(Ordering::Acquire) == version
    }

    /// Memoize a successful verifier walk at `version`. Failed walks are
    /// never recorded, so a corrupt entry is re-rejected on every execution
    /// until it is evicted or replaced.
    pub fn mark_verified(&self, version: u64) {
        self.verified_version.store(version, Ordering::Release);
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

/// What a catalog write changes ([`PlanCache::invalidate`]).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Write<'a> {
    /// The rows (and index maps) of one table.
    Data(&'a str),
    /// One table's definition: created, dropped, indexed.
    Schema(&'a str),
    /// The whole catalog: `ROLLBACK`, a restore.
    All,
}

/// Catalog versions of the last writes to one table.
#[derive(Clone, Copy, Default)]
struct Marks {
    /// Of the last write to its rows (DDL counts: it replaces them too).
    data: u64,
    /// Of the last DDL on it.
    schema: u64,
}

/// What the cache holds. Served plans and parked ones count against
/// [`PLAN_CACHE_CAPACITY`] together.
#[derive(Default)]
struct Entries {
    /// The plan served for each statement shape.
    live: HashMap<String, CachedPlan>,
    /// Plans superseded under their key (replanned for other pinned
    /// literals, or by a racing planner of the same shape), parked until
    /// the next reaping rather than dropped on the spot: see
    /// [`Entries::reap`]. A write drops the parked plans over its table
    /// with the live ones.
    superseded: Vec<CachedPlan>,
    /// Serving lookups since the last reaping.
    lookups: usize,
    /// The last writes to each table written so far (lowercased).
    marks: HashMap<String, Marks>,
    /// Catalog version of the last write that dropped everything.
    cleared: u64,
}

impl Entries {
    /// Drop the parked plans. Returns how many.
    ///
    /// They go together, every [`PLAN_CACHE_CAPACITY`] statements or when
    /// the cache is full — the cadence the cache had when every new literal
    /// was a new entry and only the capacity sweep removed any.
    fn reap(&mut self) -> usize {
        let reaped = self.superseded.len();
        self.superseded.clear();
        self.lookups = 0;
        reaped
    }

    /// Whether a statement that read the catalog after taking `version`
    /// still saw the current state of every table it `holds` and of the
    /// definition of every table it `names`: no write to one has marked it
    /// with a later version.
    fn unwritten_since(&self, version: u64, holds: &[Held], names: &[String]) -> bool {
        let marks = |t: &String| self.marks.get(t).copied().unwrap_or_default();
        self.cleared <= version
            && holds.iter().all(|(t, _)| marks(t).data <= version)
            && names.iter().all(|t| marks(t).schema <= version)
    }
}

#[derive(Default)]
pub(crate) struct PlanCache {
    entries: Mutex<Entries>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Hits that bound literals lifted out of the statement text.
    lifted_hits: AtomicU64,
    /// Misses on an entry of the right shape whose pinned literals differ
    /// from the text's.
    pinned_mismatches: AtomicU64,
}

/// Plan-cache counters since the last [`PlanCache::reset_stats`].
#[derive(Clone, Copy)]
pub(crate) struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Plans dropped by the cache itself: parked ones reaped, and full
    /// clears at capacity. (Plans a write drops are not counted.)
    pub evictions: u64,
    pub lifted_hits: u64,
    pub pinned_mismatches: u64,
}

impl PlanCache {
    /// Look a statement up by its shape; a hit requires the entry's pinned
    /// literals to equal the text's. [`CacheUse::Peek`] sees query plans
    /// only.
    pub fn lookup(&self, shape: &Shape, mode: CacheUse) -> Option<CacheHit> {
        if mode == CacheUse::Bypass {
            return None;
        }
        let serving = mode == CacheUse::Serve;
        let mut entries = self.entries.lock();
        if serving {
            entries.lookups += 1;
            if entries.lookups >= PLAN_CACHE_CAPACITY {
                let reaped = entries.reap();
                self.evictions.fetch_add(reaped as u64, Ordering::Relaxed);
            }
        }
        let mut mismatch = false;
        let hit = entries
            .live
            .get(&shape.key)
            .filter(|c| {
                serving || (matches!(c.body, Body::Query { .. }) && !c.takes_caller_params())
            })
            .and_then(|c| {
                let values = c.bind_literals(shape);
                mismatch = values.is_none();
                let values = values?;
                Some(CacheHit {
                    body: c.body.clone(),
                    lifted: (!values.is_empty()).then_some(values),
                    version: c.version,
                    holds: Arc::clone(&c.holds),
                    verified_version: Arc::clone(&c.verified_version),
                })
            });
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
                }
            }
        }
        hit
    }

    /// Store a statement under `key`, unless a write raced it.
    ///
    /// Callers read `entry.version` (the catalog version) *before* they take
    /// the catalog read lock to check or plan, and a writer bumps the
    /// version and marks its table with the new one *while holding* the
    /// write lock ([`PlanCache::invalidate`]). A planner that read the new
    /// version therefore took its read lock after the write and saw the
    /// written table. One whose read lock came first read an older version
    /// than the mark, and its entry is not stored: it is what the writer
    /// already dropped for that table. (A planner that read its version
    /// just before a write it nonetheless saw is turned away too — the
    /// error is always a harmless replan.) Only the written tables count: a
    /// write to another table leaves the plan stored.
    pub fn insert(&self, key: String, entry: NewEntry) {
        let mut entries = self.entries.lock();
        if !entries.unwritten_since(entry.version, &entry.holds, &entry.names) {
            return;
        }
        if entries.live.len() + entries.superseded.len() >= PLAN_CACHE_CAPACITY {
            // Parked plans first; fall back to dropping everything.
            let mut evicted = entries.reap();
            if entries.live.len() >= PLAN_CACHE_CAPACITY {
                evicted += entries.live.len();
                entries.live.clear();
            }
            self.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
        }
        let marker = if entry.verified {
            entry.version
        } else {
            UNVERIFIED
        };
        let plan = CachedPlan {
            body: entry.body,
            slots: entry.slots,
            version: entry.version,
            holds: entry.holds.into(),
            names: entry.names,
            verified_version: Arc::new(AtomicU64::new(marker)),
        };
        if let Some(old) = entries.live.insert(key, plan) {
            entries.superseded.push(old);
        }
    }

    /// A catalog write at `version` (already bumped, under the write lock,
    /// before anything in `catalog` changes): mark what it writes, and take
    /// the entries it makes stale out of service.
    ///
    /// A data write drops the live entries that hold the table's rows and
    /// the parked ones that hold its current rows, released after the
    /// cache's lock: those rows are the table's, which it keeps, so the
    /// write then changes them in place instead of copying them. DDL and
    /// `ROLLBACK` / restores park the live entries they make stale instead:
    /// those may be the last holders of a whole retired table, released
    /// with the parked plans on the reaping cadence ([`Entries::reap`]) and
    /// never served.
    pub fn invalidate(&self, write: Write<'_>, catalog: &Catalog, version: u64) {
        let mut entries = self.entries.lock();
        let Entries {
            live,
            superseded,
            marks,
            cleared,
            ..
        } = &mut *entries;
        let (table, schema) = match write {
            Write::Data(table) => (table.to_ascii_lowercase(), false),
            Write::Schema(table) => (table.to_ascii_lowercase(), true),
            Write::All => {
                *cleared = version;
                superseded.extend(live.drain().map(|(_, plan)| plan));
                return;
            }
        };
        let mark = marks.entry(table.clone()).or_default();
        mark.data = version;
        if schema {
            mark.schema = version;
        }
        let stale: Vec<String> = (live.iter())
            .filter(|(_, plan)| plan.involves(&table, schema))
            .map(|(key, _)| key.clone())
            .collect();
        let stale = stale.iter().filter_map(|key| live.remove(key));
        if schema {
            superseded.extend(stale);
            return;
        }
        let mut dropped: Vec<CachedPlan> = stale.collect();
        let current = catalog
            .get(&table)
            .ok()
            .map(|t| Arc::as_ptr(&t.rows) as usize);
        let holds_current = |plan: &CachedPlan| {
            (plan.holds.iter()).any(|(t, rows)| *t == table && Some(*rows) == current)
        };
        let (gone, kept) = (std::mem::take(superseded).into_iter()).partition(holds_current);
        *superseded = kept;
        dropped.extend::<Vec<_>>(gone);
        drop(entries);
        drop(dropped);
    }

    /// Whether an entry planned at `version` over `holds` is still current:
    /// none of those tables has been written since. Called under the
    /// catalog read lock, so no write can start until the caller is done
    /// with the answer.
    pub fn is_current(&self, version: u64, holds: &[Held]) -> bool {
        self.entries.lock().unwritten_since(version, holds, &[])
    }

    /// Test seam: replace the cached plan for queries of `sql`'s shape (if
    /// any) with a mutated copy, lowered again, returning whether an entry
    /// was found.
    pub fn mutate(&self, sql: &str, mutate: &mut dyn FnMut(&mut PhysPlan)) -> bool {
        let mut entries = self.entries.lock();
        let Some(entry) = crate::lexer::scan_shape(sql).and_then(|s| entries.live.get_mut(&s.key))
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
        entry.verified_version = Arc::new(AtomicU64::new(UNVERIFIED));
        true
    }

    /// Number of plans that can be served.
    pub fn len(&self) -> usize {
        self.entries.lock().live.len()
    }

    pub fn stats(&self) -> CacheStats {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        CacheStats {
            hits: load(&self.hits),
            misses: load(&self.misses),
            evictions: load(&self.evictions),
            lifted_hits: load(&self.lifted_hits),
            pinned_mismatches: load(&self.pinned_mismatches),
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

    /// `name`'s current rows, as a plan over it holds them.
    fn held(catalog: &Catalog, name: &str) -> Held {
        let rows = Arc::as_ptr(&catalog.get(name).unwrap().rows) as usize;
        (name.to_string(), rows)
    }

    /// A query plan holding the current rows of `tables`, planned after
    /// reading `version`.
    fn query(catalog: &Catalog, version: u64, tables: &[&str]) -> NewEntry {
        NewEntry {
            body: Body::Query {
                plan: plan(),
                template: false,
            },
            slots: Vec::new(),
            version,
            holds: tables.iter().map(|t| held(catalog, t)).collect(),
            names: Vec::new(),
            verified: false,
        }
    }

    /// A `DELETE` from `t`, checked after reading `version`: it names `t`
    /// and holds no rows.
    fn delete(version: u64) -> NewEntry {
        let stmt = crate::parser::parse_statement("DELETE FROM t WHERE n = ?").expect("parses");
        NewEntry {
            body: Body::Dml {
                stmt: Arc::new(stmt),
                source: None,
            },
            names: vec!["t".into()],
            ..query(&Catalog::new(), version, &[])
        }
    }

    const DELETE: &str = "DELETE FROM t WHERE n = ?";

    fn cached(cache: &PlanCache, sql: &str) -> bool {
        cache.lookup(&shape(sql), CacheUse::Serve).is_some()
    }

    fn parked(cache: &PlanCache) -> usize {
        cache.entries.lock().superseded.len()
    }

    #[test]
    fn superseded_plans_count_against_the_capacity() {
        // One shape planned again and again (for other pinned literals, or
        // by racing planners): each plan parks the last, and the capacity
        // sweep reaps the parked ones.
        let (cache, catalog) = (PlanCache::default(), catalog());
        for version in 0..3 * PLAN_CACHE_CAPACITY as u64 {
            cache.insert("select #i".into(), query(&catalog, version, &[]));
            let entries = cache.entries.lock();
            assert_eq!(entries.live.len(), 1);
            assert!(entries.live.len() + entries.superseded.len() <= PLAN_CACHE_CAPACITY);
        }
        let reaped = cache.stats().evictions as usize;
        assert!(reaped >= 2 * PLAN_CACHE_CAPACITY - 2, "{reaped}");
    }

    #[test]
    fn dead_plans_are_reaped_every_capacity_lookups() {
        let (cache, catalog) = (PlanCache::default(), catalog());
        let (a, b) = (shape("SELECT 1"), shape("SELECT 'x'"));
        cache.insert(a.key.clone(), query(&catalog, 1, &["t"]));
        cache.insert(b.key.clone(), query(&catalog, 1, &["u"]));
        // DDL on `u` parks `b`; `a`, planned again, parks its old plan.
        // Hit-only traffic must still release both.
        cache.invalidate(Write::Schema("u"), &catalog, 2);
        cache.insert(a.key.clone(), query(&catalog, 2, &["t"]));
        for _ in 0..PLAN_CACHE_CAPACITY {
            assert_eq!(parked(&cache), 2);
            assert!(cache.lookup(&a, CacheUse::Serve).is_some());
        }
        let entries = cache.entries.lock();
        assert!(entries.superseded.is_empty());
        assert_eq!(entries.live.len(), 1);
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn a_write_to_one_table_keeps_the_plans_over_another() {
        let (cache, catalog) = (PlanCache::default(), catalog());
        cache.insert(shape("SELECT 1").key, query(&catalog, 1, &["t"]));
        cache.invalidate(Write::Data("u"), &catalog, 2);
        assert!(cached(&cache, "SELECT 1"));
        let hit = cache.lookup(&shape("SELECT 1"), CacheUse::Serve).unwrap();
        assert!(cache.is_current(hit.version, &hit.holds));
    }

    #[test]
    fn a_write_drops_the_live_and_parked_plans_over_its_table() {
        let (cache, catalog) = (PlanCache::default(), catalog());
        cache.insert(shape("SELECT 1").key, query(&catalog, 1, &["t"]));
        cache.insert(shape("SELECT 1").key, query(&catalog, 1, &["t", "u"]));
        cache.insert(shape("SELECT 'x'").key, query(&catalog, 1, &["u", "t"]));
        cache.insert(shape("SELECT 1.5").key, query(&catalog, 1, &["u"]));
        let hit = cache.lookup(&shape("SELECT 1"), CacheUse::Serve).unwrap();
        // Table names are matched as the catalog matches them.
        cache.invalidate(Write::Data("T"), &catalog, 2);
        assert!(!cache.is_current(hit.version, &hit.holds));
        assert_eq!(parked(&cache), 0, "the parked plan goes too");
        let entries = cache.entries.lock();
        let live: Vec<&String> = entries.live.keys().collect();
        assert_eq!(live, [&shape("SELECT 1.5").key]);
        assert_eq!(
            cache.stats().evictions,
            0,
            "a write's drops are not evictions"
        );
    }

    #[test]
    fn a_write_leaves_the_parked_plans_over_a_retired_table_to_the_reaping() {
        let (cache, mut catalog) = (PlanCache::default(), catalog());
        cache.insert(shape("SELECT 1").key, query(&catalog, 1, &["t"]));
        // `DROP TABLE t` and `CREATE TABLE t` park the plan over the old
        // table; writing the new one leaves it there, whatever its name.
        cache.invalidate(Write::Schema("t"), &catalog, 2);
        catalog.drop_table("t", false).unwrap();
        cache.invalidate(Write::Schema("t"), &catalog, 3);
        catalog.create_table(table("t"), false).unwrap();
        cache.invalidate(Write::Data("t"), &catalog, 4);
        assert_eq!(parked(&cache), 1);
    }

    #[test]
    fn a_dml_entry_survives_a_data_write_to_its_target() {
        let (cache, catalog) = (PlanCache::default(), catalog());
        cache.insert(shape(DELETE).key, delete(1));
        cache.invalidate(Write::Data("t"), &catalog, 2);
        assert!(cached(&cache, DELETE));
    }

    #[test]
    fn ddl_on_its_target_drops_a_dml_entry() {
        // `CREATE INDEX` and `DROP TABLE` on `t` are both schema writes.
        let (cache, catalog) = (PlanCache::default(), catalog());
        cache.insert(shape(DELETE).key, delete(1));
        cache.invalidate(Write::Schema("u"), &catalog, 2);
        assert!(cached(&cache, DELETE));
        cache.invalidate(Write::Schema("t"), &catalog, 3);
        assert!(!cached(&cache, DELETE));
        // Parked, not served: DDL may retire a whole table, released on the
        // reaping cadence.
        assert_eq!(parked(&cache), 1);
    }

    #[test]
    fn a_planner_that_read_the_catalog_before_a_write_does_not_insert() {
        let (cache, catalog) = (PlanCache::default(), catalog());
        cache.invalidate(Write::Data("t"), &catalog, 5);
        // Read version 4, then took its read lock before the write: its
        // plan of `t` is the one the writer dropped.
        cache.insert(shape("SELECT 1").key, query(&catalog, 4, &["t"]));
        assert!(!cached(&cache, "SELECT 1"));
        // A plan over another table, or one that read the written version,
        // is stored.
        cache.insert(shape("SELECT 2.5").key, query(&catalog, 4, &["u"]));
        cache.insert(shape("SELECT 'x'").key, query(&catalog, 5, &["t"]));
        assert!(cached(&cache, "SELECT 2.5") && cached(&cache, "SELECT 'x'"));
        // A statement checked before DDL on a table it names is not stored;
        // a data write to its target does not concern it.
        cache.insert(shape(DELETE).key, delete(4));
        assert!(cached(&cache, DELETE));
        cache.invalidate(Write::Schema("t"), &catalog, 6);
        cache.insert(shape(DELETE).key, delete(5));
        assert!(!cached(&cache, DELETE));
    }

    #[test]
    fn rollback_and_restores_drop_everything() {
        let (cache, catalog) = (PlanCache::default(), catalog());
        cache.insert(shape("SELECT 1").key, query(&catalog, 1, &[]));
        cache.insert(shape(DELETE).key, delete(1));
        cache.invalidate(Write::All, &catalog, 2);
        assert_eq!(cache.len(), 0);
        cache.insert(shape("SELECT 1").key, query(&catalog, 1, &[]));
        assert_eq!(cache.len(), 0, "planned before the restore");
        cache.insert(shape("SELECT 1").key, query(&catalog, 2, &[]));
        assert_eq!(cache.len(), 1);
    }
}
