//! The physical-plan cache: the version and verification-marker protocol,
//! the literal-slot check, and the capacity bound, behind
//! [`PlanCache::lookup`] / [`PlanCache::insert`] / [`PlanCache::mutate`].
//!
//! Entries are keyed by statement shape ([`Shape`]: normalised text with
//! literals reduced to type-class placeholders) and tagged with the catalog
//! version they were planned against; a lookup only hits while the caller's
//! current version still matches and the text's pinned literals equal the
//! entry's. Plans embed row and index snapshots, so every catalog write
//! (which bumps the version under the write lock) invalidates them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// A cached physical plan tagged with the catalog version it was planned
/// against; served only while the version still matches.
struct CachedPlan {
    version: u64,
    planned: Arc<PlannedQuery>,
    /// The plan lowered once: what every hit runs.
    program: Arc<Program>,
    /// The plan is a *template*: `?` markers were kept symbolic
    /// ([`crate::expr::PhysExpr::Param`] nodes), and each run binds its
    /// values at the program's parameter sites.
    template: bool,
    /// One per literal of the shape, in source order: the template
    /// parameter it fills, or the value the plan was built for. A template
    /// without slots takes the caller's parameters (explicit `?` text).
    slots: Vec<Slot>,
    /// Catalog version at the last *successful* verifier walk of this entry
    /// ([`UNVERIFIED`] when none). The plan tree behind the `Arc` is
    /// immutable and verification is deterministic in (plan, catalog
    /// version), so a hit at the same version can skip the walk — this is
    /// what keeps the verifier's cost off the cached serving hot path.
    /// Shared (not copied) with in-flight executions so a successful walk
    /// marks the entry itself.
    verified_version: Arc<AtomicU64>,
}

impl CachedPlan {
    /// A template filled from the caller's parameters (explicit `?` text)
    /// rather than from literals of the text.
    fn takes_caller_params(&self) -> bool {
        self.template && self.slots.is_empty()
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

/// A plan served from the cache.
pub(crate) struct CacheHit {
    pub planned: Arc<PlannedQuery>,
    pub program: Arc<Program>,
    pub template: bool,
    /// The template's parameter values when they come out of the statement
    /// text (lifted literals) instead of from the caller.
    pub lifted: Option<Vec<Value>>,
    /// Catalog version the entry was planned against (the verifier only runs
    /// its snapshot-identity checks while this is still current).
    pub version: u64,
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
    /// tree repeated executions use: it runs a cached plan when one exists
    /// but leaves the cache and its counters alone, and skips templates that
    /// take the caller's parameters, for which it has no values to bind.
    Peek,
    /// Neither look up nor store.
    Bypass,
}

/// What the cache holds. Served plans and parked ones count against
/// [`PLAN_CACHE_CAPACITY`] together.
#[derive(Default)]
struct Entries {
    /// The plan served for each statement shape.
    live: HashMap<String, CachedPlan>,
    /// Plans superseded under their key (replanned after a catalog write, or
    /// for other pinned literals), with their programs, parked until the
    /// next reaping rather than dropped on the spot: see [`Entries::reap`].
    superseded: Vec<(Arc<PlannedQuery>, Arc<Program>)>,
    /// Serving lookups since the last reaping.
    lookups: usize,
}

impl Entries {
    /// Drop every plan that can no longer be served at catalog `version`:
    /// the parked ones and the stale ones. Returns how many.
    ///
    /// Dead plans go together, every [`PLAN_CACHE_CAPACITY`] statements or
    /// when the cache is full — the cadence the cache had when every new
    /// literal was a new entry and only the capacity sweep removed any. The
    /// cadence is measured, not aesthetic: a dead plan is often the last
    /// holder of a table snapshot that a write replaced, and the sooner and
    /// the more piecemeal those hundreds of thousands of small allocations
    /// are released, the longer and more scattered the allocator's free
    /// lists that every later scan-heavy statement allocates from (dropped
    /// one by one as each shape is replanned, `predict_batch_item_us` on the
    /// star-schema benchmark rose 30–40 %; one generation at a time, 25 %).
    fn reap(&mut self, version: u64) -> usize {
        let before = self.live.len() + self.superseded.len();
        self.superseded.clear();
        self.live.retain(|_, c| c.version == version);
        self.lookups = 0;
        before - self.live.len()
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
    /// Misses on an entry of the right shape and version whose pinned
    /// literals differ from the text's.
    pinned_mismatches: AtomicU64,
}

/// Plan-cache counters since the last [`PlanCache::reset_stats`].
#[derive(Clone, Copy)]
pub(crate) struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Plans dropped by the cache itself: dead ones reaped, and full clears
    /// at capacity.
    pub evictions: u64,
    pub lifted_hits: u64,
    pub pinned_mismatches: u64,
}

impl PlanCache {
    /// Look a statement up by its shape; a hit requires the entry's catalog
    /// version to equal `version` and its pinned literals to equal the
    /// text's.
    pub fn lookup(&self, shape: &Shape, version: u64, mode: CacheUse) -> Option<CacheHit> {
        if mode == CacheUse::Bypass {
            return None;
        }
        let serving = mode == CacheUse::Serve;
        let mut entries = self.entries.lock();
        if serving {
            entries.lookups += 1;
            if entries.lookups >= PLAN_CACHE_CAPACITY {
                let reaped = entries.reap(version);
                self.evictions.fetch_add(reaped as u64, Ordering::Relaxed);
            }
        }
        let mut mismatch = false;
        let hit = entries
            .live
            .get(&shape.key)
            .filter(|c| c.version == version && (serving || !c.takes_caller_params()))
            .and_then(|c| {
                let values = c.bind_literals(shape);
                mismatch = values.is_none();
                let values = values?;
                Some(CacheHit {
                    planned: Arc::clone(&c.planned),
                    program: Arc::clone(&c.program),
                    template: c.template,
                    lifted: (!values.is_empty()).then_some(values),
                    version: c.version,
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

    /// Store a plan made against catalog `version`. `verified` says the plan
    /// already passed a verifier walk at that version, so the first hit can
    /// skip straight to execution.
    ///
    /// Callers read `version` *before* they take the catalog read lock to
    /// plan, and writers bump it *while holding* the write lock. A planner
    /// that read the new version therefore takes its read lock after the
    /// write and plans the written catalog; one that read an older version
    /// tags its plan with it, which the next lookup misses — the stale-side
    /// error is always a harmless replan. (Bumping before taking the write
    /// lock let a planner read the new version and still take its read lock
    /// first: its plan of the unwritten catalog was then served as current
    /// until the next write.)
    pub fn insert(
        &self,
        key: String,
        slots: Vec<Slot>,
        version: u64,
        (planned, program): (Arc<PlannedQuery>, Arc<Program>),
        template: bool,
        verified: bool,
    ) {
        let mut entries = self.entries.lock();
        if entries.live.len() + entries.superseded.len() >= PLAN_CACHE_CAPACITY {
            // Dead plans first; fall back to dropping everything (plans
            // embed table snapshots, so a full clear also releases pinned
            // row memory).
            let mut evicted = entries.reap(version);
            if entries.live.len() >= PLAN_CACHE_CAPACITY {
                evicted += entries.live.len();
                entries.live.clear();
            }
            self.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
        }
        let marker = if verified { version } else { UNVERIFIED };
        let plan = CachedPlan {
            version,
            planned,
            program,
            template,
            slots,
            verified_version: Arc::new(AtomicU64::new(marker)),
        };
        if let Some(old) = entries.live.insert(key, plan) {
            entries.superseded.push((old.planned, old.program));
        }
    }

    /// Test seam: replace the cached plan for statements of `sql`'s shape
    /// (if any) with a mutated copy, lowered again, returning whether an
    /// entry was found.
    pub fn mutate(&self, sql: &str, mutate: &mut dyn FnMut(&mut PhysPlan)) -> bool {
        let mut entries = self.entries.lock();
        let Some(entry) = crate::lexer::scan_shape(sql).and_then(|s| entries.live.get_mut(&s.key))
        else {
            return false;
        };
        let mut planned = (*entry.planned).clone();
        mutate(&mut planned.plan);
        entry.program = Arc::new(Program::lower(&planned.plan));
        entry.planned = Arc::new(planned);
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

    fn plan() -> (Arc<PlannedQuery>, Arc<Program>) {
        let planned = PlannedQuery {
            plan: PhysPlan::OneRow,
            columns: Vec::new(),
            scope: Default::default(),
        };
        let program = Program::lower(&planned.plan);
        (Arc::new(planned), Arc::new(program))
    }

    #[test]
    fn superseded_plans_count_against_the_capacity() {
        // One shape replanned after every catalog write: each plan parks the
        // last, and the capacity sweep reaps the parked ones.
        let cache = PlanCache::default();
        for version in 0..3 * PLAN_CACHE_CAPACITY as u64 {
            cache.insert(
                "select #i".into(),
                Vec::new(),
                version,
                plan(),
                false,
                false,
            );
            let entries = cache.entries.lock();
            assert_eq!(entries.live.len(), 1);
            assert!(entries.live.len() + entries.superseded.len() <= PLAN_CACHE_CAPACITY);
        }
        let reaped = cache.stats().evictions as usize;
        assert!(reaped >= 2 * PLAN_CACHE_CAPACITY - 2, "{reaped}");
    }

    #[test]
    fn dead_plans_are_reaped_every_capacity_lookups() {
        let cache = PlanCache::default();
        let shape = |sql| crate::lexer::scan_shape(sql).expect("lexes");
        let (a, b) = (shape("SELECT 1"), shape("SELECT 'x'"));
        cache.insert(a.key.clone(), Vec::new(), 1, plan(), false, false);
        cache.insert(b.key, Vec::new(), 1, plan(), false, false);
        // A write, then only `a` is replanned: its old plan is parked, `b`'s
        // is stale. Hit-only traffic must still release both.
        cache.insert(a.key.clone(), Vec::new(), 2, plan(), false, false);
        for _ in 0..PLAN_CACHE_CAPACITY {
            assert_eq!(cache.entries.lock().superseded.len(), 1);
            assert!(cache.lookup(&a, 2, CacheUse::Serve).is_some());
        }
        let entries = cache.entries.lock();
        assert!(entries.superseded.is_empty());
        assert_eq!(entries.live.len(), 1);
        assert_eq!(cache.stats().evictions, 2);
    }
}
