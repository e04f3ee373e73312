//! The physical-plan cache: key normalisation, the version and
//! verification-marker protocol, and the capacity bound, behind
//! [`PlanCache::lookup`] / [`PlanCache::insert`] / [`PlanCache::mutate`].
//!
//! Entries are keyed by normalised statement text and tagged with the
//! catalog version they were planned against; a lookup only hits while the
//! caller's current version still matches. Plans embed row and index
//! snapshots, so every catalog write (which bumps the version first)
//! invalidates them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::plan::{PhysPlan, PlannedQuery};

/// Upper bound on cached plans. Serving workloads cycle through a handful of
/// statement texts; the bound only guards against unbounded ad-hoc traffic.
pub(crate) const PLAN_CACHE_CAPACITY: usize = 128;

/// Normalize a statement's text into its plan-cache key: runs of whitespace
/// collapse to one space and keywords lowercase, while identifiers and
/// string literals keep their exact spelling (identifier case shows up in
/// output column names, so it is significant). Differently formatted copies
/// of the same statement thus share one cached plan template.
fn normalize_cache_key(sql: &str) -> String {
    let bytes = sql.as_bytes();
    let mut out = String::with_capacity(sql.len());
    let mut pending_space = false;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_whitespace() {
            pending_space = !out.is_empty();
            i += 1;
            continue;
        }
        if pending_space {
            out.push(' ');
            pending_space = false;
        }
        if b == b'\'' {
            // String literal: copied verbatim through the closing quote,
            // with '' staying an escaped quote.
            let start = i;
            i += 1;
            while i < bytes.len() {
                if bytes[i] == b'\'' {
                    if bytes.get(i + 1) == Some(&b'\'') {
                        i += 2;
                        continue;
                    }
                    i += 1;
                    break;
                }
                i += 1;
            }
            out.push_str(&sql[start..i]);
        } else if b.is_ascii_alphabetic() || b == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let word = &sql[start..i];
            if crate::lexer::is_keyword(word) {
                for c in word.chars() {
                    out.push(c.to_ascii_lowercase());
                }
            } else {
                out.push_str(word);
            }
        } else {
            let len = sql[i..].chars().next().map_or(1, char::len_utf8);
            out.push_str(&sql[i..i + len]);
            i += len;
        }
    }
    out
}

/// Sentinel verification marker: the entry has not passed a verifier walk
/// (never verified, or deliberately reset by the corruption test seam).
const UNVERIFIED: u64 = u64::MAX;

/// A cached physical plan tagged with the catalog version it was planned
/// against; served only while the version still matches.
struct CachedPlan {
    version: u64,
    planned: Arc<PlannedQuery>,
    /// The plan is a *template*: `?` markers were kept symbolic
    /// ([`crate::expr::PhysExpr::Param`] nodes) and must be bound with
    /// [`crate::plan::bind_plan_params`] before execution.
    template: bool,
    /// Catalog version at the last *successful* verifier walk of this entry
    /// ([`UNVERIFIED`] when none). The plan tree behind the `Arc` is
    /// immutable and verification is deterministic in (plan, catalog
    /// version), so a hit at the same version can skip the walk — this is
    /// what keeps the verifier's cost off the cached serving hot path.
    /// Shared (not copied) with in-flight executions so a successful walk
    /// marks the entry itself.
    verified_version: Arc<AtomicU64>,
}

/// A plan served from the cache.
pub(crate) struct CacheHit {
    pub planned: Arc<PlannedQuery>,
    pub template: bool,
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
    /// but leaves the cache and its counters alone, and skips templates, for
    /// which it has no values to bind.
    Peek,
    /// Neither look up nor store.
    Bypass,
}

#[derive(Default)]
pub(crate) struct PlanCache {
    entries: Mutex<HashMap<String, CachedPlan>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    /// Look `sql` up under its normalized key; a hit requires the entry's
    /// catalog version to equal `version`.
    pub fn lookup(&self, sql: &str, version: u64, mode: CacheUse) -> Option<CacheHit> {
        if mode == CacheUse::Bypass {
            return None;
        }
        let serving = mode == CacheUse::Serve;
        let key = normalize_cache_key(sql);
        let entries = self.entries.lock();
        let hit = entries
            .get(&key)
            .filter(|c| c.version == version && (serving || !c.template))
            .map(|c| CacheHit {
                planned: Arc::clone(&c.planned),
                template: c.template,
                version: c.version,
                verified_version: Arc::clone(&c.verified_version),
            });
        if serving {
            let counter = if hit.is_some() {
                &self.hits
            } else {
                &self.misses
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Store a plan made against catalog `version`. `verified` says the plan
    /// already passed a verifier walk at that version, so the first hit can
    /// skip straight to execution.
    ///
    /// Callers read `version` *before* planning and writers bump it *before*
    /// taking the write lock, so a plan that raced a writer is tagged with
    /// the pre-write version and can never be served against the post-write
    /// catalog — the stale-side error is always a harmless replan.
    pub fn insert(
        &self,
        sql: &str,
        version: u64,
        planned: Arc<PlannedQuery>,
        template: bool,
        verified: bool,
    ) {
        let key = normalize_cache_key(sql);
        let mut entries = self.entries.lock();
        if entries.len() >= PLAN_CACHE_CAPACITY && !entries.contains_key(&key) {
            // Evict stale entries first; fall back to dropping everything
            // (plans embed table snapshots, so a full clear also releases
            // pinned row memory).
            let before = entries.len();
            entries.retain(|_, c| c.version == version);
            if entries.len() >= PLAN_CACHE_CAPACITY {
                entries.clear();
            }
            self.evictions
                .fetch_add((before - entries.len()) as u64, Ordering::Relaxed);
        }
        let marker = if verified { version } else { UNVERIFIED };
        entries.insert(
            key,
            CachedPlan {
                version,
                planned,
                template,
                verified_version: Arc::new(AtomicU64::new(marker)),
            },
        );
    }

    /// Test seam: replace the cached plan for `sql` (if any) with a mutated
    /// copy, returning whether an entry was found.
    pub fn mutate(&self, sql: &str, mutate: &mut dyn FnMut(&mut PhysPlan)) -> bool {
        let key = normalize_cache_key(sql);
        let mut entries = self.entries.lock();
        let Some(entry) = entries.get_mut(&key) else {
            return false;
        };
        let mut planned = (*entry.planned).clone();
        mutate(&mut planned.plan);
        entry.planned = Arc::new(planned);
        // A fresh marker (not a reset of the shared one): in-flight
        // executions still verifying the old tree must not be able to mark
        // the replaced entry as checked.
        entry.verified_version = Arc::new(AtomicU64::new(UNVERIFIED));
        true
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// `(hits, misses, evictions)` since the last [`PlanCache::reset_stats`].
    /// Evictions count entries dropped by the capacity bound — both
    /// stale-entry reaping and full clears.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
        )
    }

    /// Zero the counters (cached plans stay).
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::normalize_cache_key;

    #[test]
    fn cache_key_collapses_whitespace_and_keyword_case() {
        let a = normalize_cache_key("SELECT  n,\n\ts  FROM t\nWHERE n = ?  ORDER   BY n");
        let b = normalize_cache_key("select n, s from t where n = ? order by n");
        assert_eq!(a, b);
        assert_eq!(a, "select n, s from t where n = ? order by n");
    }

    #[test]
    fn cache_key_preserves_identifier_and_literal_case() {
        // Identifiers keep their case (it is significant in output column
        // names) and string literals are copied verbatim, including the
        // doubled-quote escape; only keywords fold.
        let k = normalize_cache_key("SELECT Col  AS Total FROM T WHERE s = 'TOK''x'");
        assert_eq!(k, "select Col as Total from T where s = 'TOK''x'");
    }

    #[test]
    fn cache_key_drops_leading_and_trailing_whitespace() {
        assert_eq!(normalize_cache_key("  SELECT 1  "), "select 1");
    }

    #[test]
    fn cache_key_distinguishes_different_literals() {
        assert_ne!(
            normalize_cache_key("SELECT * FROM t WHERE s = 'a'"),
            normalize_cache_key("SELECT * FROM t WHERE s = 'A'")
        );
    }
}
