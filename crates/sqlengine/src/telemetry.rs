//! In-database observability: the engine-wide telemetry registry.
//!
//! Every layer of the engine reports into one [`Telemetry`] registry —
//! statement lifecycle timings split by phase (parse / sema / plan / exec),
//! per-operator rollups from `EXPLAIN ANALYZE` runs, WAL append/fsync/
//! checkpoint activity, statement timeouts, and per-model BornSQL serving
//! metrics. The registry is lock-cheap: counters and histograms are plain
//! relaxed atomics (the same discipline as a pipeline's per-operator row
//! counts); only the query-log ring buffer and the per-model map take a mutex, once
//! per statement, far from any per-row loop.
//!
//! Nothing here is exposed through a side API. The registry is queryable
//! *in SQL* through the virtual `sys.*` tables ([`sys`]), which the planner
//! materializes as point-in-time row snapshots flowing through the ordinary
//! scan → filter → project pipeline.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::exec::OpStats;
use crate::sync::Mutex;
use crate::trace::{Phase, PhaseClock, StatementTrace};

/// A monotonically increasing event counter (relaxed atomics: totals are
/// exact, ordering between counters is not guaranteed — fine for metrics).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn incr(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Raise the counter to `v` if it is below it (peak/max trackers).
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Number of log-scale latency buckets: bucket `i` counts samples in
/// `[2^i, 2^(i+1))` microseconds (bucket 0 also takes sub-microsecond
/// samples), so 28 buckets span 1µs to ~2.2 minutes.
pub const HIST_BUCKETS: usize = 28;

/// A fixed-bucket log-scale latency histogram over microseconds.
///
/// Recording is two relaxed `fetch_add`s plus a `fetch_max` — no locking,
/// no allocation — so it is safe on the serving hot path. Percentiles are
/// estimated from the bucket counts by linear interpolation inside the
/// target bucket, clamped to the largest recorded sample; raw bucket counts
/// are exported through `sys.histograms` so any percentile is recomputable
/// in SQL.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    /// Sum of all recorded samples, µs (for exact means).
    sum_us: AtomicU64,
    /// Largest recorded sample, µs.
    max_us: AtomicU64,
}

impl Histogram {
    fn bucket_of(us: u64) -> usize {
        (63 - u64::leading_zeros(us.max(1)) as usize).min(HIST_BUCKETS - 1)
    }

    pub fn record_micros(&self, us: u64) {
        self.buckets[Self::bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    pub fn record(&self, d: Duration) {
        self.record_micros(d.as_micros() as u64);
    }

    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    pub fn sum_micros(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    pub fn max_micros(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    pub fn mean_micros(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_micros() as f64 / n as f64
        }
    }

    /// Snapshot of the raw bucket counts (bucket `i` covers
    /// `[bucket_lo_us(i), bucket_lo_us(i + 1))`).
    pub fn bucket_counts(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Inclusive lower bound of bucket `i` in microseconds (0 for the first
    /// bucket, which also absorbs sub-microsecond samples).
    pub fn bucket_lo_us(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << i
        }
    }

    /// Exclusive upper bound of bucket `i` in microseconds (the top bucket
    /// is open-ended; this is its nominal boundary).
    pub fn bucket_hi_us(i: usize) -> u64 {
        1u64 << (i + 1).min(63)
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`) in microseconds: linear
    /// interpolation of the target sample's rank inside its bucket, clamped
    /// to the largest recorded sample so the estimate can never exceed any
    /// observed value (attributing every sample to its bucket's upper bound
    /// overshot by up to 2×).
    pub fn percentile_micros(&self, q: f64) -> f64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                let lo = Self::bucket_lo_us(i) as f64;
                let hi = Self::bucket_hi_us(i) as f64;
                let frac = (target - (cum - c)) as f64 / c as f64;
                let est = lo + frac * (hi - lo);
                return est.min(self.max_micros().max(1) as f64);
            }
        }
        self.max_micros() as f64
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum_us.store(0, Ordering::Relaxed);
        self.max_us.store(0, Ordering::Relaxed);
    }
}

/// Terminal status of one recorded statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStatus {
    Ok,
    Error,
    /// The statement exceeded `EngineConfig::statement_timeout`.
    Timeout,
}

impl QueryStatus {
    pub fn as_str(self) -> &'static str {
        match self {
            QueryStatus::Ok => "ok",
            QueryStatus::Error => "error",
            QueryStatus::Timeout => "timeout",
        }
    }
}

/// One entry of the `sys.query_log` ring buffer.
#[derive(Debug, Clone)]
pub struct QueryLogEntry {
    /// Monotonic statement id (never reused, survives ring eviction).
    pub id: u64,
    /// Statement text, truncated to [`MAX_LOGGED_SQL`] bytes.
    pub sql: String,
    pub status: QueryStatus,
    /// Error text for failed statements.
    pub error: Option<String>,
    /// Whether the plan cache served the physical plan.
    pub cache_hit: bool,
    /// Whether total duration exceeded `EngineConfig::slow_query_threshold`.
    pub slow: bool,
    pub parse_us: u64,
    pub sema_us: u64,
    pub plan_us: u64,
    pub exec_us: u64,
    pub total_us: u64,
    /// Rows returned (queries) or affected (DML).
    pub rows: u64,
    /// Peak bytes charged against the statement's memory budget (cumulative
    /// materialized operator state; 0 for statements that broke no pipeline).
    pub peak_mem_bytes: u64,
    /// Time queued behind the admission gate, backfilled from the
    /// statement's trace (`None` when the statement ran untraced).
    pub queue_wait_us: Option<u64>,
    /// Time waiting on WAL fsyncs, backfilled from the statement's trace
    /// (`None` when the statement ran untraced).
    pub fsync_wait_us: Option<u64>,
    /// WAL write retries observed while this statement ran, backfilled from
    /// the statement's trace (`None` when the statement ran untraced).
    pub retry_count: Option<u64>,
}

/// Statement text stored in the query log is truncated to this many bytes
/// (on a char boundary) so the ring holds a bounded amount of memory.
pub const MAX_LOGGED_SQL: usize = 512;

/// Per-operator rollup accumulated from `EXPLAIN ANALYZE` stats trees.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpAgg {
    /// Operator invocations (stats-tree nodes) observed.
    pub calls: u64,
    pub rows_out: u64,
    pub nanos: u64,
}

/// Serving metrics of one BornSQL model, populated by `bornsql` through
/// [`Telemetry::record_model_predict`] and friends; queryable as
/// `sys.born_models`.
#[derive(Debug, Default)]
pub struct ModelStats {
    pub deployed: bool,
    pub predict_calls: u64,
    /// Rows returned by predict calls.
    pub rows_returned: u64,
    /// Incremental-learning batches (`fit` counts as one batch too).
    pub fit_batches: u64,
    pub unlearn_calls: u64,
    pub predict_us: Histogram,
}

/// The engine-wide telemetry registry. One per [`Database`]; shared with the
/// WAL and with `bornsql` models behind `Arc`.
///
/// [`Database`]: crate::Database
#[derive(Default)]
pub struct Telemetry {
    enabled: bool,
    slow_threshold_us: u64,
    log_capacity: usize,
    next_statement_id: AtomicU64,

    // -- statement lifecycle ------------------------------------------------
    pub statements: Counter,
    pub statement_errors: Counter,
    pub statement_timeouts: Counter,
    pub rows_returned: Counter,
    pub parse_us: Histogram,
    pub sema_us: Histogram,
    pub plan_us: Histogram,
    pub exec_us: Histogram,
    pub statement_us: Histogram,

    // -- write-ahead log ----------------------------------------------------
    pub wal_appends: Counter,
    pub wal_append_bytes: Counter,
    pub wal_fsyncs: Counter,
    pub wal_fsync_us: Histogram,
    pub wal_checkpoints: Counter,
    pub wal_checkpoint_bytes: Counter,

    // -- hash-join key filter -----------------------------------------------
    /// Hash joins that may find the rows of the base table they probe
    /// through its derived index (`probe=keyset(index)`).
    pub keyset_index_probes: Counter,
    /// Hash joins probing straight off a base-table scan row by row
    /// (`probe=keyset(row)`).
    pub keyset_row_probes: Counter,
    /// Hash-join probe rows rejected because the build side holds no such
    /// key (by the derived-index lookup or by the per-row lookup).
    pub join_probe_rows_pruned: Counter,
    /// Rows inserted into hash-join build tables: the build side's rows with
    /// a non-NULL key, whichever input the planner chose to build on.
    pub join_build_rows: Counter,
    /// Rows a collecting sink stored as an operator's intermediate input (a
    /// hash-join build side, a sort input, a shared CTE's slot) — never the
    /// rows a streaming pipeline passed through, nor the statement result.
    /// The same at every parallelism.
    pub rows_materialized: Counter,
    /// References to a shared CTE served from the rows its first reference
    /// to run collected, instead of running the CTE again.
    pub shared_reuses: Counter,
    /// Rows a `DELETE`/`UPDATE` examined: its index candidates, or every
    /// row of the table when no index answers the predicate.
    pub dml_rows_examined: Counter,

    // -- resource governance -------------------------------------------------
    /// Statements admitted past the concurrency gate (immediately or after
    /// queueing).
    pub admission_admitted: Counter,
    /// Statements that had to wait in the admission queue before running.
    pub admission_queued: Counter,
    /// Statements shed with `Overloaded` (queue full, or deadline expired
    /// while queued).
    pub admission_shed: Counter,
    /// Statements aborted by `ResourceExhausted` (memory budget).
    pub mem_budget_aborts: Counter,
    /// Largest per-statement memory-budget peak observed (bytes).
    pub mem_peak_bytes: Counter,
    /// WAL write attempts retried after a transient storage error.
    pub wal_retries: Counter,

    // -- wait-state rollups ---------------------------------------------------
    // Always-on (telemetry-gated, independent of trace sampling) and only
    // recorded on contended paths, so the uncontended hot path reads no
    // extra clocks. Queryable as `sys.wait_events`.
    /// Time statements spent queued behind the admission gate.
    pub wait_admission_us: Histogram,
    /// Time spent waiting on WAL fsyncs (group-commit leader/follower and
    /// inline non-group fsyncs).
    pub wait_fsync_us: Histogram,
    /// Backoff sleeps between WAL write retries.
    pub wait_wal_retry_us: Histogram,
    /// Coordinator time blocked waiting on the worker pool.
    pub wait_worker_idle_us: Histogram,

    // -- error taxonomy ------------------------------------------------------
    /// Statement failures by error family (see `Telemetry::record_error`).
    pub errors_timeout: Counter,
    pub errors_wal: Counter,
    pub errors_resource: Counter,
    pub errors_overloaded: Counter,
    pub errors_statement: Counter,

    // -- static plan verification --------------------------------------------
    /// Physical plans walked by the post-planning verifier
    /// (`EngineConfig::verify_plans` / `EXPLAIN (VERIFY)`).
    pub verify_plans_checked: Counter,
    /// Invariant violations the verifier reported (each rejected plan counts
    /// every violated check, so one corrupt plan can add several).
    pub verify_violations: Counter,

    /// Ring buffer of the last `log_capacity` statements.
    log: Mutex<std::collections::VecDeque<QueryLogEntry>>,
    /// Ring buffer of kept statement traces (same capacity as the query
    /// log, so a kept trace's query-log row is usually still present).
    traces: Mutex<std::collections::VecDeque<StatementTrace>>,
    /// Per-operator rollups keyed by operator kind (`Scan`, `HashJoin`, …).
    ops: Mutex<BTreeMap<String, OpAgg>>,
    /// Per-model serving metrics keyed by model name.
    models: Mutex<BTreeMap<String, ModelStats>>,
}

impl Telemetry {
    pub fn new(enabled: bool, slow_query_threshold: Duration, log_capacity: usize) -> Telemetry {
        Telemetry {
            enabled,
            slow_threshold_us: slow_query_threshold.as_micros() as u64,
            log_capacity: log_capacity.max(1),
            next_statement_id: AtomicU64::new(1),
            ..Telemetry::default()
        }
    }

    /// A disabled registry: every recording call is a cheap no-op.
    pub fn disabled() -> Telemetry {
        Telemetry::new(false, Duration::ZERO, 1)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Every event counter under its `sys.metrics` name: the one list that
    /// [`Telemetry::reset`] and `sys.metrics` both walk.
    pub(crate) fn counters(&self) -> [(&'static str, &Counter); 28] {
        [
            ("statements.total", &self.statements),
            ("statements.errors", &self.statement_errors),
            ("statements.timeouts", &self.statement_timeouts),
            ("statements.rows_returned", &self.rows_returned),
            ("wal.appends", &self.wal_appends),
            ("wal.append_bytes", &self.wal_append_bytes),
            ("wal.fsyncs", &self.wal_fsyncs),
            ("wal.checkpoints", &self.wal_checkpoints),
            ("wal.checkpoint_bytes", &self.wal_checkpoint_bytes),
            ("exec.keyset_index_probes", &self.keyset_index_probes),
            ("exec.keyset_row_probes", &self.keyset_row_probes),
            ("exec.join.probe_rows_pruned", &self.join_probe_rows_pruned),
            ("exec.join.build_rows", &self.join_build_rows),
            ("exec.rows_materialized", &self.rows_materialized),
            ("exec.shared_reuses", &self.shared_reuses),
            ("dml.rows_examined", &self.dml_rows_examined),
            ("verify.plans_checked", &self.verify_plans_checked),
            ("verify.violations", &self.verify_violations),
            ("admission.admitted", &self.admission_admitted),
            ("admission.queued", &self.admission_queued),
            ("admission.shed", &self.admission_shed),
            ("mem.budget_aborts", &self.mem_budget_aborts),
            ("wal.retries", &self.wal_retries),
            ("errors.timeout", &self.errors_timeout),
            ("errors.wal", &self.errors_wal),
            ("errors.resource", &self.errors_resource),
            ("errors.overloaded", &self.errors_overloaded),
            ("errors.statement", &self.errors_statement),
        ]
    }

    /// Every latency histogram under its `sys.histograms` name, with the
    /// `sys.metrics` prefix of those also summarised there.
    pub(crate) fn histograms(&self) -> [(&'static str, Option<&'static str>, &Histogram); 10] {
        [
            ("phase.parse_us", Some("phase.parse"), &self.parse_us),
            ("phase.sema_us", Some("phase.sema"), &self.sema_us),
            ("phase.plan_us", Some("phase.plan"), &self.plan_us),
            ("phase.exec_us", Some("phase.exec"), &self.exec_us),
            (
                "statement.total_us",
                Some("statement.duration"),
                &self.statement_us,
            ),
            ("wal.fsync_us", Some("wal.fsync"), &self.wal_fsync_us),
            ("wait.admission_us", None, &self.wait_admission_us),
            ("wait.fsync_us", None, &self.wait_fsync_us),
            ("wait.wal_retry_us", None, &self.wait_wal_retry_us),
            ("wait.worker_idle_us", None, &self.wait_worker_idle_us),
        ]
    }

    /// Zero every counter and histogram and clear the query log and rollups
    /// (model registrations survive, their numbers reset).
    pub fn reset(&self) {
        for (_, c) in self.counters() {
            c.reset();
        }
        self.mem_peak_bytes.reset();
        for (_, _, h) in self.histograms() {
            h.reset();
        }
        self.log.lock().clear();
        self.traces.lock().clear();
        self.ops.lock().clear();
        let mut models = self.models.lock();
        for stats in models.values_mut() {
            let deployed = stats.deployed;
            *stats = ModelStats::default();
            stats.deployed = deployed;
        }
    }

    // ----------------------------------------------------------------------
    // Statement lifecycle
    // ----------------------------------------------------------------------

    /// Record one finished statement: counters, phase histograms, and a
    /// query-log entry, all read off the statement's one clock (wait columns
    /// are backfilled from its spans — `NULL` when it ran untraced). Returns
    /// the allocated statement id (so a kept trace can be stored under the
    /// same id); `None` when the registry is disabled.
    pub fn record_statement(
        &self,
        clock: &PhaseClock,
        sql: &str,
        status: QueryStatus,
        error: Option<String>,
        rows: u64,
        peak_mem: u64,
    ) -> Option<u64> {
        if !self.enabled || !clock.enabled() {
            return None;
        }
        self.mem_peak_bytes.set_max(peak_mem);
        self.statements.incr();
        match status {
            QueryStatus::Ok => self.rows_returned.add(rows),
            QueryStatus::Error => self.statement_errors.incr(),
            QueryStatus::Timeout => {
                self.statement_errors.incr();
                self.statement_timeouts.incr();
            }
        }
        let [parse_us, sema_us, plan_us, exec_us] =
            [Phase::Parse, Phase::Sema, Phase::Plan, Phase::Exec].map(|p| clock.phase_us(p));
        let total_us = clock.total_us();
        self.parse_us.record_micros(parse_us);
        self.sema_us.record_micros(sema_us);
        // A hit's plan phase is the lookup plus the memoized verify, not
        // planning; the histogram keeps measuring planning.
        if !clock.cache_hit {
            self.plan_us.record_micros(plan_us);
        }
        self.exec_us.record_micros(exec_us);
        self.statement_us.record_micros(total_us);

        let id = self.next_statement_id.fetch_add(1, Ordering::Relaxed);
        let waits = clock.wait_totals();
        let entry = QueryLogEntry {
            id,
            sql: truncate_sql(sql),
            status,
            error,
            cache_hit: clock.cache_hit,
            slow: self.is_slow(total_us),
            parse_us,
            sema_us,
            plan_us,
            exec_us,
            total_us,
            rows,
            peak_mem_bytes: peak_mem,
            queue_wait_us: waits.map(|w| w.queue_wait_us),
            fsync_wait_us: waits.map(|w| w.fsync_wait_us),
            retry_count: waits.map(|w| w.retry_count),
        };
        let mut log = self.log.lock();
        if log.len() >= self.log_capacity {
            log.pop_front();
        }
        log.push_back(entry);
        Some(id)
    }

    /// Whether a statement ran longer than `slow_query_threshold` (the
    /// query-log `slow` flag, and an always-keep reason for its trace).
    pub fn is_slow(&self, total_us: u64) -> bool {
        self.slow_threshold_us > 0 && total_us >= self.slow_threshold_us
    }

    /// Store one kept statement trace in the bounded trace ring.
    pub fn store_trace(&self, trace: StatementTrace) {
        if !self.enabled {
            return;
        }
        let mut traces = self.traces.lock();
        if traces.len() >= self.log_capacity {
            traces.pop_front();
        }
        traces.push_back(trace);
    }

    /// Snapshot of the kept-trace ring, oldest first.
    pub fn traces(&self) -> Vec<StatementTrace> {
        self.traces.lock().iter().cloned().collect()
    }

    /// Bump the per-family error counter for a failed statement. Families
    /// mirror [`EngineError::is_retryable`]: the retryable variants each get
    /// a dedicated counter, everything else lands in `errors.statement`.
    ///
    /// [`EngineError::is_retryable`]: crate::error::EngineError::is_retryable
    pub fn record_error(&self, err: &crate::error::EngineError) {
        use crate::error::EngineError;
        if !self.enabled {
            return;
        }
        match err {
            EngineError::Timeout => self.errors_timeout.incr(),
            EngineError::Wal(_) => self.errors_wal.incr(),
            EngineError::ResourceExhausted { .. } => self.errors_resource.incr(),
            EngineError::Overloaded(_) => self.errors_overloaded.incr(),
            _ => self.errors_statement.incr(),
        }
    }

    /// Snapshot of the query-log ring, oldest first.
    pub fn query_log(&self) -> Vec<QueryLogEntry> {
        self.log.lock().iter().cloned().collect()
    }

    // ----------------------------------------------------------------------
    // Per-operator rollups
    // ----------------------------------------------------------------------

    /// Fold an `EXPLAIN ANALYZE` stats tree into the per-operator rollups,
    /// keyed by operator kind (the label up to its first detail bracket).
    pub fn record_op_stats(&self, stats: &OpStats) {
        if !self.enabled {
            return;
        }
        let mut ops = self.ops.lock();
        fold_op_stats(&mut ops, stats);
    }

    /// Snapshot of the per-operator rollups.
    pub fn op_rollups(&self) -> Vec<(String, OpAgg)> {
        self.ops
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    // ----------------------------------------------------------------------
    // WAL
    // ----------------------------------------------------------------------

    pub fn record_wal_append(&self, bytes: u64) {
        if !self.enabled {
            return;
        }
        self.wal_appends.incr();
        self.wal_append_bytes.add(bytes);
    }

    pub fn record_wal_fsync(&self, took: Duration) {
        if !self.enabled {
            return;
        }
        self.wal_fsyncs.incr();
        self.wal_fsync_us.record(took);
    }

    pub fn record_wal_checkpoint(&self, bytes: u64) {
        if !self.enabled {
            return;
        }
        self.wal_checkpoints.incr();
        self.wal_checkpoint_bytes.add(bytes);
    }

    // ----------------------------------------------------------------------
    // BornSQL model serving metrics
    // ----------------------------------------------------------------------

    /// Ensure a model row exists in `sys.born_models`.
    pub fn register_model(&self, model: &str) {
        if !self.enabled {
            return;
        }
        self.models.lock().entry(model.to_string()).or_default();
    }

    pub fn record_model_predict(&self, model: &str, took: Duration, rows: u64) {
        if !self.enabled {
            return;
        }
        let mut models = self.models.lock();
        let stats = models.entry(model.to_string()).or_default();
        stats.predict_calls += 1;
        stats.rows_returned += rows;
        stats.predict_us.record(took);
    }

    pub fn record_model_fit_batch(&self, model: &str) {
        if !self.enabled {
            return;
        }
        self.models
            .lock()
            .entry(model.to_string())
            .or_default()
            .fit_batches += 1;
    }

    pub fn record_model_unlearn(&self, model: &str) {
        if !self.enabled {
            return;
        }
        self.models
            .lock()
            .entry(model.to_string())
            .or_default()
            .unlearn_calls += 1;
    }

    pub fn set_model_deployed(&self, model: &str, deployed: bool) {
        if !self.enabled {
            return;
        }
        self.models
            .lock()
            .entry(model.to_string())
            .or_default()
            .deployed = deployed;
    }

    /// Run `f` over the per-model stats map (used by `sys.born_models`
    /// materialization).
    pub fn with_models<R>(&self, f: impl FnOnce(&BTreeMap<String, ModelStats>) -> R) -> R {
        f(&self.models.lock())
    }
}

fn truncate_sql(sql: &str) -> String {
    if sql.len() <= MAX_LOGGED_SQL {
        return sql.to_string();
    }
    let mut end = MAX_LOGGED_SQL;
    while !sql.is_char_boundary(end) {
        end -= 1;
    }
    sql[..end].to_string()
}

fn fold_op_stats(ops: &mut BTreeMap<String, OpAgg>, stats: &OpStats) {
    let kind = op_kind(&stats.label);
    let agg = ops.entry(kind.to_string()).or_default();
    agg.calls += 1;
    agg.rows_out += stats.rows_out as u64;
    agg.nanos += stats.elapsed.as_nanos() as u64;
    for child in &stats.children {
        fold_op_stats(ops, child);
    }
}

/// Operator kind of an `EXPLAIN` label: the leading word (`"HashJoin
/// [Inner, 1 keys]"` → `"HashJoin"`).
fn op_kind(label: &str) -> &str {
    label.split([' ', '[']).next().unwrap_or(label)
}

pub mod sys;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_percentiles() {
        let h = Histogram::default();
        assert_eq!(h.percentile_micros(0.5), 0.0);
        for us in [1u64, 2, 3, 100, 1000, 1000, 1000, 8000] {
            h.record_micros(us);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.max_micros(), 8000);
        let p50 = h.percentile_micros(0.5);
        // The 4th sample of 8 lands in the 100µs region: upper bound 128.
        assert!((64.0..=256.0).contains(&p50), "p50 = {p50}");
        let p99 = h.percentile_micros(0.99);
        assert!(p99 >= 1000.0, "p99 = {p99}");
        // Zero-duration samples land in the first bucket, not a panic.
        h.record_micros(0);
        assert_eq!(h.count(), 9);
    }

    #[test]
    fn sys_names() {
        assert!(sys::is_sys_name("sys.metrics"));
        assert!(sys::is_sys_name("SYS.QUERY_LOG"));
        assert!(!sys::is_sys_name("system"));
        assert!(!sys::is_sys_name("mytable"));
        assert_eq!(sys::canonical("SYS.Tables"), Some(sys::TABLES));
        assert_eq!(sys::canonical("sys.nope"), None);
        for name in sys::ALL {
            assert!(sys::schema(name).is_some());
        }
    }

    #[test]
    fn query_log_ring_evicts_oldest() {
        let t = Telemetry::new(true, Duration::from_millis(100), 2);
        for i in 0..3 {
            let clock = PhaseClock::start(true, false);
            let id =
                t.record_statement(&clock, &format!("SELECT {i}"), QueryStatus::Ok, None, 1, 0);
            assert_eq!(id, Some(i + 1));
        }
        let log = t.query_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].sql, "SELECT 1");
        assert_eq!(log[1].sql, "SELECT 2");
        assert_eq!(log[1].id, 3);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let t = Telemetry::disabled();
        let clock = PhaseClock::start(t.enabled(), false);
        assert!(!clock.enabled());
        let id = t.record_statement(&clock, "SELECT 1", QueryStatus::Ok, None, 1, 0);
        assert_eq!(id, None);
        t.record_wal_append(10);
        t.record_model_predict("m", Duration::from_micros(5), 1);
        t.store_trace(crate::trace::StatementTrace {
            statement_id: 1,
            spans: Vec::new(),
        });
        assert_eq!(t.statements.get(), 0);
        assert_eq!(t.wal_appends.get(), 0);
        assert!(t.query_log().is_empty());
        assert!(t.traces().is_empty());
        assert!(t.with_models(|m| m.is_empty()));
    }

    #[test]
    fn percentile_is_clamped_to_max_and_interpolated() {
        // Every sample equals 65µs: the old estimator attributed the p99
        // sample to its bucket's upper bound (128µs, a ~2× overshoot); the
        // clamp pins the estimate to the recorded max exactly.
        let h = Histogram::default();
        for _ in 0..1000 {
            h.record_micros(65);
        }
        assert_eq!(h.percentile_micros(0.99), 65.0);
        assert_eq!(h.percentile_micros(0.5), 65.0);

        // Uniform 1..=1000µs: interpolation keeps mid-range percentiles
        // near their true values instead of the bucket upper bound.
        let u = Histogram::default();
        for us in 1..=1000u64 {
            u.record_micros(us);
        }
        let p50 = u.percentile_micros(0.5);
        assert!((450.0..=512.0).contains(&p50), "p50 = {p50}");
        let p99 = u.percentile_micros(0.99);
        assert!(p99 <= 1000.0, "p99 = {p99} exceeds the recorded max");
        assert!(p99 >= 900.0, "p99 = {p99}");
    }

    #[test]
    fn trace_ring_is_bounded() {
        let t = Telemetry::new(true, Duration::from_millis(100), 2);
        for id in 1..=3u64 {
            t.store_trace(crate::trace::StatementTrace {
                statement_id: id,
                spans: Vec::new(),
            });
        }
        let traces = t.traces();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].statement_id, 2);
        assert_eq!(traces[1].statement_id, 3);
    }

    #[test]
    fn op_kind_strips_details() {
        assert_eq!(op_kind("Scan [10 rows × 2 cols]"), "Scan");
        assert_eq!(op_kind("HashJoin [Inner, 1 keys]"), "HashJoin");
        assert_eq!(
            op_kind("IndexScan weights_j (probed) [of 6000 rows]"),
            "IndexScan"
        );
        assert_eq!(op_kind("Distinct"), "Distinct");
    }
}
