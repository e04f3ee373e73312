//! Engine configuration: the knobs a [`Database`](crate::Database) is built
//! with.

use std::sync::OnceLock;
use std::time::Duration;

use crate::plan::PlannerConfig;
use crate::trace::TraceSampling;
use crate::wal::SyncPolicy;

/// Engine configuration. The three profiles that emulate distinct DBMS
/// behaviours — the engine configurations `crates/bench`'s `repro` plots in
/// place of the paper's three DBMSs, and the configurations the tests run
/// differentials across — are built from these knobs (see
/// [`EngineConfig::profile_a`] etc.).
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Algorithm for detected equi-joins.
    pub join_algo: crate::plan::JoinAlgo,
    /// Share every CTE: run it once per execution and let its references
    /// read the held rows, even one read by a single reference. Off, only a
    /// CTE read by two or more references is shared, and one read once is
    /// inlined into its reader (PostgreSQL's rule).
    pub materialize_ctes: bool,
    /// Executor parallelism: how many threads a large pipeline fans out to.
    /// Defaults to the host's cores ([`std::thread::available_parallelism`],
    /// 1 when unknown), which is what the benchmark runs. `1` runs every
    /// pipeline serially; `>= 2` fans the input pipeline of each group-by
    /// and `DISTINCT` out over morsels, and sorts large inputs, on a worker
    /// pool owned by the [`Database`] and spawned by its first fan-out (a
    /// source under 8,192 rows stays serial; DESIGN.md, "Executor
    /// architecture").
    ///
    /// [`Database`]: crate::Database
    pub parallelism: usize,
    /// Match equality / `IN`-list predicates and join keys against table
    /// indexes, planning `IndexScan` / index-nested-loop joins instead of
    /// full scans. Disable to force full-scan plans.
    pub use_indexes: bool,
    /// Cache physical plans keyed by SQL text + catalog version, so repeated
    /// serving calls skip parse + plan. Parameterized statements are cached
    /// as *templates*: `?` markers stay symbolic in the plan and each
    /// execution binds its parameter values into a fresh copy of the tree.
    pub plan_cache: bool,
    /// Abort statements whose execution exceeds this wall-clock budget with
    /// [`EngineError::Timeout`](crate::EngineError::Timeout). Checked at
    /// operator and morsel boundaries, so a pathological plan (e.g. an
    /// unconstrained cross join) cannot run unbounded. `None` (the default)
    /// disables the check.
    pub statement_timeout: Option<Duration>,
    /// Fsync policy for the write-ahead log of durable databases (ignored
    /// by purely in-memory databases).
    pub wal_sync: SyncPolicy,
    /// Group commit: under [`SyncPolicy::Always`], coalesce the WAL appends
    /// of overlapping writers into a single fsync. Each statement enqueues
    /// its frame while holding the catalog lock and blocks for durability
    /// after releasing it, so concurrent commits share one fsync while the
    /// acknowledgement guarantee is unchanged (a statement returns only
    /// after its frame is on disk). No effect under other sync policies.
    pub wal_group_commit: bool,
    /// Fold the log into a checkpoint once it exceeds this many bytes
    /// (0 disables the automatic trigger;
    /// [`Database::checkpoint`](crate::Database::checkpoint) still works).
    /// Ignored by purely in-memory databases.
    pub checkpoint_after_bytes: u64,
    /// Collect runtime telemetry (statement phase timings, the
    /// `sys.query_log` ring, WAL and serving metrics). Disabling turns every
    /// recording site into a cheap branch; the `sys.*` tables stay queryable
    /// but report empty/zero data.
    pub telemetry: bool,
    /// Statements whose total duration reaches this threshold are flagged
    /// `slow = 1` in `sys.query_log`.
    pub slow_query_threshold: Duration,
    /// Number of statements retained by the `sys.query_log` ring buffer.
    pub query_log_capacity: usize,
    /// Attach columnar chunk images to base-table scans so a hash join
    /// filters its probe scan by its build keys. Disable to make every hash
    /// join probe row by row — the executor produces identical results
    /// either way, which is what the differential test suites assert.
    pub vectorized: bool,
    /// Run the post-planning static plan verifier (see [`crate::verify`]) on
    /// every plan — freshly planned or served from the cache — and fail the
    /// statement with a spanned
    /// [`EngineError::Verify`](crate::EngineError::Verify) when any of the
    /// five invariant classes is violated. Defaults to on in debug builds (tests,
    /// CI) and off in release builds, keeping the serving hot path free of
    /// the walk; `EXPLAIN (VERIFY)` runs the verifier on demand regardless.
    pub verify_plans: bool,
    /// Per-statement memory budget in bytes for the rows operators hold
    /// (hash-join builds, aggregate hash tables, sort runs, `DISTINCT`/`UNION`
    /// dedup sets, every row a collecting sink stores); rows that stream
    /// through an operator are not charged. A
    /// statement that exceeds the budget aborts with the retryable
    /// [`EngineError::ResourceExhausted`](crate::EngineError::ResourceExhausted)
    /// instead of driving the process toward OOM. `None` (the default)
    /// disables enforcement; peak usage is still tracked and surfaced in
    /// `sys.query_log`.
    pub memory_budget: Option<u64>,
    /// Maximum statements executing concurrently. When set, every statement
    /// entry point passes an admission gate: beyond this many running
    /// statements, up to [`EngineConfig::admission_queue_depth`] statements
    /// wait for a slot and the rest are shed immediately with the retryable
    /// [`EngineError::Overloaded`](crate::EngineError::Overloaded). `None`
    /// (the default) disables admission control entirely.
    pub max_concurrent_statements: Option<usize>,
    /// Bounded wait-queue depth for the admission gate (only meaningful with
    /// [`EngineConfig::max_concurrent_statements`]). A queued statement whose
    /// `statement_timeout` deadline expires before a slot frees is shed.
    pub admission_queue_depth: usize,
    /// Retry policy for transient WAL storage failures (see
    /// [`crate::wal::WalRetry`]). The default retries nothing: a failed
    /// append wedges the WAL into degraded read-only mode exactly as before.
    pub wal_retry: crate::wal::WalRetry,
    /// Per-statement hierarchical trace capture (see [`TraceSampling`] and
    /// [`crate::trace`]). `Off` (the default) adds zero clock reads to any
    /// statement path; `On` tentatively records every statement's span tree
    /// and keeps errors and slow statements always, the rest under a
    /// deterministic seeded sampler. Kept traces are queryable through
    /// `sys.trace_spans`. Requires [`EngineConfig::telemetry`].
    pub trace_sampling: TraceSampling,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            join_algo: crate::plan::JoinAlgo::Hash,
            materialize_ctes: false,
            parallelism: default_parallelism(),
            use_indexes: true,
            plan_cache: true,
            statement_timeout: None,
            wal_sync: SyncPolicy::OnCommit,
            wal_group_commit: false,
            checkpoint_after_bytes: 4 << 20,
            telemetry: true,
            slow_query_threshold: Duration::from_millis(100),
            query_log_capacity: 256,
            vectorized: true,
            verify_plans: cfg!(debug_assertions),
            memory_budget: None,
            max_concurrent_statements: None,
            admission_queue_depth: 16,
            wal_retry: crate::wal::WalRetry::default(),
            trace_sampling: TraceSampling::default(),
        }
    }
}

/// The default [`EngineConfig::parallelism`]: the host's
/// [`std::thread::available_parallelism`], 1 when it is unknown, asked once
/// per process.
fn default_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

impl EngineConfig {
    /// Profile A — hash joins, pipelined CTEs: one read once is inlined, one
    /// read more often runs once (PostgreSQL-like behaviour).
    pub fn profile_a() -> Self {
        EngineConfig {
            join_algo: crate::plan::JoinAlgo::Hash,
            materialize_ctes: false,
            ..EngineConfig::default()
        }
    }

    /// Profile B — hash joins, every CTE run once per execution and held for
    /// its readers (MySQL-like behaviour).
    pub fn profile_b() -> Self {
        EngineConfig {
            join_algo: crate::plan::JoinAlgo::Hash,
            materialize_ctes: true,
            ..EngineConfig::default()
        }
    }

    /// Profile C — sort-merge joins, pipelined CTEs (an engine without hash
    /// joins; SQLite's B-tree-driven plans behave like this on these
    /// shapes).
    pub fn profile_c() -> Self {
        EngineConfig {
            join_algo: crate::plan::JoinAlgo::SortMerge,
            materialize_ctes: false,
            ..EngineConfig::default()
        }
    }

    /// Builder-style override of the executor parallelism (clamped to ≥ 1).
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism.max(1);
        self
    }

    /// Builder-style toggle of index-aware planning.
    pub fn with_index_scans(mut self, on: bool) -> Self {
        self.use_indexes = on;
        self
    }

    /// Builder-style toggle of the physical-plan cache.
    pub fn with_plan_cache(mut self, on: bool) -> Self {
        self.plan_cache = on;
        self
    }

    /// Builder-style statement timeout.
    pub fn with_statement_timeout(mut self, limit: Duration) -> Self {
        self.statement_timeout = Some(limit);
        self
    }

    /// Builder-style WAL fsync policy.
    pub fn with_wal_sync(mut self, sync: SyncPolicy) -> Self {
        self.wal_sync = sync;
        self
    }

    /// Builder-style toggle of WAL group commit (see
    /// [`EngineConfig::wal_group_commit`]).
    pub fn with_wal_group_commit(mut self, on: bool) -> Self {
        self.wal_group_commit = on;
        self
    }

    /// Builder-style automatic-checkpoint threshold (bytes of WAL).
    pub fn with_checkpoint_after_bytes(mut self, bytes: u64) -> Self {
        self.checkpoint_after_bytes = bytes;
        self
    }

    /// Builder-style toggle of telemetry collection.
    pub fn with_telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Builder-style slow-query threshold for `sys.query_log`.
    pub fn with_slow_query_threshold(mut self, threshold: Duration) -> Self {
        self.slow_query_threshold = threshold;
        self
    }

    /// Builder-style `sys.query_log` ring capacity (clamped to ≥ 1).
    pub fn with_query_log_capacity(mut self, capacity: usize) -> Self {
        self.query_log_capacity = capacity.max(1);
        self
    }

    /// Builder-style toggle of the chunk images the hash join's key filter
    /// reads.
    pub fn with_vectorized(mut self, on: bool) -> Self {
        self.vectorized = on;
        self
    }

    /// Builder-style toggle of the static plan verifier (see
    /// [`EngineConfig::verify_plans`]).
    pub fn with_verify_plans(mut self, on: bool) -> Self {
        self.verify_plans = on;
        self
    }

    /// Builder-style per-statement memory budget in bytes (see
    /// [`EngineConfig::memory_budget`]).
    pub fn with_memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Builder-style admission-control concurrency cap (clamped to ≥ 1; see
    /// [`EngineConfig::max_concurrent_statements`]).
    pub fn with_max_concurrent_statements(mut self, max: usize) -> Self {
        self.max_concurrent_statements = Some(max.max(1));
        self
    }

    /// Builder-style admission wait-queue depth (see
    /// [`EngineConfig::admission_queue_depth`]).
    pub fn with_admission_queue_depth(mut self, depth: usize) -> Self {
        self.admission_queue_depth = depth;
        self
    }

    /// Builder-style WAL transient-failure retry policy (see
    /// [`EngineConfig::wal_retry`]).
    pub fn with_wal_retry(mut self, retry: crate::wal::WalRetry) -> Self {
        self.wal_retry = retry;
        self
    }

    /// Builder-style trace sampling policy (see
    /// [`EngineConfig::trace_sampling`]).
    pub fn with_trace_sampling(mut self, sampling: TraceSampling) -> Self {
        self.trace_sampling = sampling;
        self
    }

    pub(crate) fn planner(&self) -> PlannerConfig {
        PlannerConfig {
            join_algo: self.join_algo,
            materialize_ctes: self.materialize_ctes,
            use_indexes: self.use_indexes,
            vectorized: self.vectorized,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_defaults_to_the_hosts_cores() {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(default_parallelism(), cores);
        assert_eq!(EngineConfig::default().parallelism, cores);
        assert_eq!(EngineConfig::profile_b().parallelism, cores);
        assert_eq!(EngineConfig::default().with_parallelism(1).parallelism, 1);
    }
}
