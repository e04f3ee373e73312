//! Hierarchical statement tracing with wait-state attribution.
//!
//! A [`TraceCtx`] records one statement's causal span tree: admission queue
//! wait, parse / sema / plan phases, per-operator execution (derived from the
//! same `OpStats` tree that `EXPLAIN ANALYZE` renders, so the two can never
//! disagree), and WAL activity (append, retry backoff, group-commit fsync
//! wait with leader/follower attribution). Each span carries a name, a parent
//! span id, a start offset and duration in microseconds, an optional wait
//! class, an optional row count, and a small set of typed attributes.
//!
//! The statement driver times its phases on a [`PhaseClock`], which owns the
//! statement's `TraceCtx` when it is traced: one clock reading per phase
//! boundary feeds both the flat `sys.query_log` totals and the phase spans.
//!
//! Capture is governed by [`TraceSampling`] (`EngineConfig::trace_sampling`):
//! off by default, so the untraced serving path performs **zero** additional
//! clock reads. When sampling is on, every statement records tentatively and
//! the keep decision happens at finish: errors and statements slower than
//! `slow_query_threshold` are always kept, everything else passes through a
//! deterministic seeded sampler keyed by statement id. Kept traces land in a
//! bounded ring inside [`Telemetry`](crate::Telemetry) and are queryable as
//! `sys.trace_spans` (joinable to `sys.query_log` on `statement_id`);
//! wait-time rollups are always on (contended paths only) and queryable as
//! `sys.wait_events`.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use crate::exec::OpStats;
use crate::sync::Mutex;

/// Sampling policy for per-statement trace capture.
///
/// `Off` (the default) records nothing and adds no clock reads to any
/// statement path. `On` tentatively captures every statement; at finish,
/// errors and slow statements are always kept, and everything else is kept
/// with probability `rate` decided by a deterministic sampler seeded with
/// `seed` and keyed by the statement id (so a given id's keep decision is
/// reproducible across runs).
#[derive(Debug, Clone, Copy, Default)]
pub enum TraceSampling {
    /// No trace capture (release default).
    #[default]
    Off,
    /// Tentative capture for every statement; keep errors + slow always,
    /// others with probability `rate` under a seeded deterministic sampler.
    On { rate: f64, seed: u64 },
}

impl TraceSampling {
    /// Whether statements should tentatively capture spans at all.
    pub fn is_on(self) -> bool {
        matches!(self, TraceSampling::On { .. })
    }

    /// The keep decision for a finished statement. Errors and slow
    /// statements are always kept; the rest go through the seeded sampler.
    pub fn keep(self, statement_id: u64, error_or_slow: bool) -> bool {
        match self {
            TraceSampling::Off => false,
            TraceSampling::On { rate, seed } => {
                if error_or_slow {
                    return true;
                }
                if rate >= 1.0 {
                    return true;
                }
                if rate <= 0.0 {
                    return false;
                }
                // 53 uniform bits of splitmix64(seed ^ id) in [0, 1).
                let u = (splitmix64(seed ^ statement_id) >> 11) as f64 / (1u64 << 53) as f64;
                u < rate
            }
        }
    }
}

/// SplitMix64: a tiny, high-quality 64-bit mixer; deterministic sampling
/// without any shared mutable PRNG state.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Wait classes rolled up into `sys.wait_events`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitClass {
    /// Time queued behind the admission gate before running.
    Admission,
    /// Time waiting on a WAL fsync (group-commit leader, follower, or an
    /// inline non-group fsync).
    Fsync,
    /// Backoff sleeps between WAL write retries.
    WalRetry,
    /// Coordinator time blocked waiting on the worker pool.
    WorkerIdle,
}

impl WaitClass {
    pub fn as_str(self) -> &'static str {
        match self {
            WaitClass::Admission => "admission",
            WaitClass::Fsync => "fsync",
            WaitClass::WalRetry => "wal_retry",
            WaitClass::WorkerIdle => "worker_idle",
        }
    }
}

/// A typed span attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    Int(i64),
    Text(&'static str),
    /// Text built at run time (an index name).
    String(String),
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::Text(v) => write!(f, "{v}"),
            AttrValue::String(v) => write!(f, "{v}"),
        }
    }
}

/// One recorded span. `start_us` is the offset from the statement's trace
/// origin; ids are unique within one statement with the root at
/// [`ROOT_SPAN`] and the execution phase pre-reserved at [`EXEC_SPAN`].
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u32,
    /// Parent span id (`None` only for the root).
    pub parent: Option<u32>,
    pub name: String,
    pub start_us: u64,
    pub duration_us: u64,
    pub wait_class: Option<WaitClass>,
    /// Output rows for execution-operator spans.
    pub rows: Option<u64>,
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanRec {
    /// Attributes rendered as `k=v` pairs separated by spaces (the
    /// `sys.trace_spans.attrs` column).
    pub fn attrs_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.attrs {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(k);
            out.push('=');
            out.push_str(&v.to_string());
        }
        out
    }
}

/// Id of the statement root span (duration = whole statement).
pub const ROOT_SPAN: u32 = 0;
/// Pre-reserved id of the execution-phase span, so WAL spans recorded while
/// the executor runs can parent under it before it is itself recorded.
pub const EXEC_SPAN: u32 = 1;

/// Per-statement span recorder. Created once per traced statement (before
/// admission, so queue wait is visible) and finished after the query-log
/// entry is written. Span recording takes a short mutex per span — traced
/// statements are the sampled minority, never the untraced hot path.
#[derive(Debug)]
pub struct TraceCtx {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<SpanRec>>,
}

impl TraceCtx {
    /// A recorder whose span offsets are measured from `origin`.
    pub fn new(origin: Instant) -> TraceCtx {
        TraceCtx {
            origin,
            next_id: AtomicU32::new(EXEC_SPAN + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Microsecond offset of `t` from the trace origin.
    pub fn offset_us(&self, t: Instant) -> u64 {
        t.checked_duration_since(self.origin)
            .map_or(0, |d| d.as_micros() as u64)
    }

    /// Allocate a fresh span id (for callers that need the id before the
    /// span body is known).
    pub fn alloc_id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn record(&self, span: SpanRec) {
        self.spans.lock().push(span);
    }

    /// Record the execution-operator subtree from an `EXPLAIN ANALYZE`
    /// stats tree, parented under the pre-reserved exec span. Row counts
    /// are copied verbatim from the stats tree, so `sys.trace_spans` and
    /// `EXPLAIN ANALYZE` agree by construction. Operator start offsets are
    /// derived (parent start + preceding siblings' durations): `OpStats`
    /// records durations only, and operator spans nest, so the derived
    /// offsets always stay inside the parent interval.
    pub fn record_op_tree(&self, stats: &OpStats, exec_start_us: u64) {
        self.record_op_node(stats, EXEC_SPAN, exec_start_us);
    }

    fn record_op_node(&self, stats: &OpStats, parent: u32, start_us: u64) {
        let id = self.alloc_id();
        let mut attrs = vec![("rows_in", AttrValue::Int(stats.rows_in as i64))];
        if stats.workers > 1 {
            attrs.push(("workers", AttrValue::Int(stats.workers as i64)));
            attrs.push(("morsels", AttrValue::Int(stats.morsels as i64)));
        }
        if let Some(mode) = crate::exec::mode_of_label(&stats.label) {
            attrs.push(("mode", AttrValue::Text(mode)));
        }
        if stats.mem_bytes > 0 {
            attrs.push(("peak_mem_bytes", AttrValue::Int(stats.mem_bytes as i64)));
        }
        self.record(SpanRec {
            id,
            parent: Some(parent),
            name: op_span_name(&stats.label),
            start_us,
            duration_us: stats.elapsed.as_micros() as u64,
            wait_class: None,
            rows: Some(stats.rows_out as u64),
            attrs,
        });
        let mut child_start = start_us;
        for child in &stats.children {
            self.record_op_node(child, id, child_start);
            child_start += child.elapsed.as_micros() as u64;
        }
    }

    /// Finish the trace: add the root `statement` span and return all spans,
    /// root first, children in recording order.
    fn finish(self, total_us: u64) -> Vec<SpanRec> {
        let mut spans = self.spans.into_inner();
        spans.insert(
            0,
            SpanRec {
                id: ROOT_SPAN,
                parent: None,
                name: "statement".into(),
                start_us: 0,
                duration_us: total_us,
                wait_class: None,
                rows: None,
                attrs: Vec::new(),
            },
        );
        spans
    }
}

/// Span name of an operator: the `EXPLAIN` label up to its detail bracket /
/// mode suffix (details travel as typed attributes instead).
fn op_span_name(label: &str) -> String {
    label.split([' ', '[']).next().unwrap_or(label).to_string()
}

/// Borrowed handle threaded into subsystems (WAL) that record spans under a
/// fixed parent while a statement executes.
#[derive(Clone, Copy)]
pub struct TraceScope<'a> {
    pub ctx: &'a TraceCtx,
    pub parent: u32,
}

impl TraceScope<'_> {
    /// Record a wait span that started at `from` and ends now.
    pub fn record_wait(
        &self,
        name: &'static str,
        wait_class: WaitClass,
        from: Instant,
        attrs: Vec<(&'static str, AttrValue)>,
    ) {
        self.ctx.record(SpanRec {
            id: self.ctx.alloc_id(),
            parent: Some(self.parent),
            name: name.into(),
            start_us: self.ctx.offset_us(from),
            duration_us: from.elapsed().as_micros() as u64,
            wait_class: Some(wait_class),
            rows: None,
            attrs,
        });
    }
}

/// The top-level phases of a statement, in lifecycle order. Each is a flat
/// `sys.query_log` column and, for traced statements, a span of the same
/// name under the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Parse,
    Sema,
    Plan,
    Exec,
}

impl Phase {
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Sema => "sema",
            Phase::Plan => "plan",
            Phase::Exec => "exec",
        }
    }
}

/// The one clock of a statement. Phases tile the statement's timeline: every
/// boundary is a single clock read ([`PhaseClock::lap`]) that closes the
/// phase open since the previous boundary, and that one measurement both
/// adds to the flat per-phase totals (`sys.query_log`) and — when the
/// statement is traced — becomes the phase's span (`sys.trace_spans`), so
/// the two agree by construction. The statement's total is the distance
/// from the origin to the last boundary.
///
/// With telemetry disabled the clock holds no instants and never reads the
/// time; every method is a branch.
#[derive(Debug)]
pub struct PhaseClock {
    /// `(origin, last boundary)`; `None` when telemetry is disabled.
    marks: Option<(Instant, Instant)>,
    phase_us: [u64; 4],
    /// Whether the plan cache served the physical plan.
    pub cache_hit: bool,
    trace: Option<TraceCtx>,
    /// Attributes the exec span carries when it closes (traced only).
    exec_attrs: Vec<(&'static str, AttrValue)>,
}

impl PhaseClock {
    /// Start the clock (one read when `enabled`, none otherwise). `traced`
    /// additionally allocates the span recorder, sharing the clock's origin.
    pub fn start(enabled: bool, traced: bool) -> PhaseClock {
        let marks = enabled.then(|| {
            let now = Instant::now();
            (now, now)
        });
        PhaseClock {
            marks,
            phase_us: [0; 4],
            cache_hit: false,
            trace: marks
                .filter(|_| traced)
                .map(|(origin, _)| TraceCtx::new(origin)),
            exec_attrs: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.marks.is_some()
    }

    pub fn traced(&self) -> bool {
        self.trace.is_some()
    }

    /// Move the boundary to now without attributing the time since the
    /// previous one to any phase (it still counts toward the total).
    pub fn skip(&mut self) {
        if let Some((_, last)) = &mut self.marks {
            *last = Instant::now();
        }
    }

    /// [`PhaseClock::skip`] at the end of admission: the boundary moves past
    /// the gate, and a statement that had to queue gets its
    /// `admission.queue_wait` span, ending at the new boundary.
    pub fn admitted(&mut self, queue_wait: Option<Duration>) {
        self.skip();
        if let (Some(trace), Some((_, last)), Some(waited)) = (&self.trace, self.marks, queue_wait)
        {
            trace.record(SpanRec {
                id: trace.alloc_id(),
                parent: Some(ROOT_SPAN),
                name: "admission.queue_wait".into(),
                start_us: trace.offset_us(last.checked_sub(waited).unwrap_or(last)),
                duration_us: waited.as_micros() as u64,
                wait_class: Some(WaitClass::Admission),
                rows: None,
                attrs: Vec::new(),
            });
        }
    }

    /// Close `phase` at now: the time since the previous boundary is added
    /// to the phase's flat total and recorded as its span.
    pub fn lap(&mut self, phase: Phase) {
        self.lap_with(phase, Vec::new);
    }

    /// Close the plan phase, tagging its span with where the plan came from
    /// and its operator count (`None` when planning failed).
    pub fn lap_plan(&mut self, plan: Option<&crate::plan::PhysPlan>) {
        let source = if self.cache_hit { "hit" } else { "miss" };
        self.lap_with(Phase::Plan, || {
            let mut attrs = vec![("cache", AttrValue::Text(source))];
            if let Some(plan) = plan {
                attrs.push(("nodes", AttrValue::Int(plan.node_count() as i64)));
            }
            attrs
        });
    }

    /// Tag the exec span, when it closes, with `key=value`. `value` only
    /// runs for traced statements.
    pub(crate) fn tag_exec(&mut self, key: &'static str, value: impl FnOnce() -> AttrValue) {
        if self.trace.is_some() {
            self.exec_attrs.push((key, value()));
        }
    }

    /// `attrs` only runs for traced statements, so untraced laps allocate
    /// nothing.
    fn lap_with(&mut self, phase: Phase, attrs: impl FnOnce() -> Vec<(&'static str, AttrValue)>) {
        let Some((_, last)) = &mut self.marks else {
            return;
        };
        let now = Instant::now();
        let duration_us = now.duration_since(*last).as_micros() as u64;
        self.phase_us[phase as usize] += duration_us;
        if let Some(trace) = &self.trace {
            let mut attrs = attrs();
            if phase == Phase::Exec {
                attrs.append(&mut self.exec_attrs);
            }
            trace.record(SpanRec {
                // The exec span's id is pre-reserved so operator subtrees
                // and WAL waits could parent under it before it closed.
                id: if phase == Phase::Exec {
                    EXEC_SPAN
                } else {
                    trace.alloc_id()
                },
                parent: Some(ROOT_SPAN),
                name: phase.name().into(),
                start_us: trace.offset_us(*last),
                duration_us,
                wait_class: None,
                rows: None,
                attrs,
            });
        }
        *last = now;
    }

    /// Flat total of one phase so far, µs.
    pub fn phase_us(&self, phase: Phase) -> u64 {
        self.phase_us[phase as usize]
    }

    /// Microseconds from the origin to the last boundary (0 when disabled).
    pub fn total_us(&self) -> u64 {
        self.marks.map_or(0, |(origin, last)| {
            last.duration_since(origin).as_micros() as u64
        })
    }

    /// Scope for spans recorded beneath the exec phase while it is open
    /// (WAL fsync waits and retries).
    pub fn exec_scope(&self) -> Option<TraceScope<'_>> {
        self.trace.as_ref().map(|ctx| TraceScope {
            ctx,
            parent: EXEC_SPAN,
        })
    }

    /// Attach an executed plan's operator subtree beneath the exec phase,
    /// starting where the open phase started. No-op when untraced.
    pub fn record_op_tree(&self, stats: &OpStats) {
        if let (Some(trace), Some((_, last))) = (&self.trace, self.marks) {
            trace.record_op_tree(stats, trace.offset_us(last));
        }
    }

    /// Wait totals of the spans recorded so far (`None` when untraced).
    pub fn wait_totals(&self) -> Option<WaitTotals> {
        self.trace
            .as_ref()
            .map(|trace| WaitTotals::from_spans(&trace.spans.lock()))
    }

    /// Finish a traced statement: all spans, the root `statement` span
    /// (covering the clock's total) first. `None` when untraced.
    pub fn into_spans(self) -> Option<Vec<SpanRec>> {
        let total_us = self.total_us();
        self.trace.map(|trace| trace.finish(total_us))
    }
}

/// One kept statement trace, stored in the bounded ring inside `Telemetry`
/// and surfaced as `sys.trace_spans`.
#[derive(Debug, Clone)]
pub struct StatementTrace {
    pub statement_id: u64,
    pub spans: Vec<SpanRec>,
}

/// Wait totals extracted from one statement's spans, backfilled into the
/// `sys.query_log` columns `queue_wait_us` / `fsync_wait_us` / `retry_count`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitTotals {
    pub queue_wait_us: u64,
    pub fsync_wait_us: u64,
    pub retry_count: u64,
}

impl WaitTotals {
    pub fn from_spans(spans: &[SpanRec]) -> WaitTotals {
        let mut totals = WaitTotals::default();
        for span in spans {
            match span.wait_class {
                Some(WaitClass::Admission) => totals.queue_wait_us += span.duration_us,
                Some(WaitClass::Fsync) => totals.fsync_wait_us += span.duration_us,
                Some(WaitClass::WalRetry) => totals.retry_count += 1,
                _ => {}
            }
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_is_deterministic_and_respects_rate_bounds() {
        let on = TraceSampling::On {
            rate: 0.5,
            seed: 42,
        };
        for id in 0..64u64 {
            assert_eq!(on.keep(id, false), on.keep(id, false));
            assert!(on.keep(id, true), "errors/slow are always kept");
        }
        let kept = (0..1000u64).filter(|&id| on.keep(id, false)).count();
        assert!((300..=700).contains(&kept), "kept = {kept}");
        assert!(!TraceSampling::Off.keep(7, true));
        let always = TraceSampling::On { rate: 1.0, seed: 0 };
        assert!(always.keep(7, false));
        let never = TraceSampling::On { rate: 0.0, seed: 0 };
        assert!(!never.keep(7, false));
        assert!(never.keep(7, true));
    }

    #[test]
    fn wait_totals_fold_by_class() {
        let from = Instant::now();
        let ctx = TraceCtx::new(from);
        let scope = TraceScope {
            ctx: &ctx,
            parent: EXEC_SPAN,
        };
        scope.record_wait("admission.queue", WaitClass::Admission, from, Vec::new());
        scope.record_wait("wal.fsync_wait", WaitClass::Fsync, from, Vec::new());
        scope.record_wait("wal.retry", WaitClass::WalRetry, from, Vec::new());
        scope.record_wait("wal.retry", WaitClass::WalRetry, from, Vec::new());
        let spans = ctx.finish(10);
        let totals = WaitTotals::from_spans(&spans);
        assert_eq!(totals.retry_count, 2);
        assert_eq!(spans[0].id, ROOT_SPAN);
        assert_eq!(spans[0].parent, None);
    }

    #[test]
    fn attrs_render_as_pairs() {
        let span = SpanRec {
            id: 2,
            parent: Some(ROOT_SPAN),
            name: "plan".into(),
            start_us: 0,
            duration_us: 5,
            wait_class: None,
            rows: None,
            attrs: vec![
                ("cache", AttrValue::Text("hit")),
                ("nodes", AttrValue::Int(3)),
            ],
        };
        assert_eq!(span.attrs_text(), "cache=hit nodes=3");
    }
}
