//! Execution context: parallelism, the worker pool, and runtime statistics.
//!
//! [`ExecContext`] is threaded through every operator. It says whether work
//! fans out to the shared [`WorkerPool`] ([`ExecContext::fans_out`], the one
//! gate every use of the pool passes) and whether per-operator [`OpStats`]
//! are collected for `EXPLAIN ANALYZE`.
//!
//! A fan-out ([`ExecContext::fan_out`]) cuts its work into units — the
//! morsels of a pipeline, the runs of a sort — that the thread fanning out
//! and up to `parallelism - 1` pool workers claim one at a time from one
//! atomic counter, so a worker that is busy elsewhere simply claims none.
//! Results come back in unit order. Work handed to the pool is `'static`:
//! operators share what it reads with workers via `Arc` (row vectors are
//! reference counted end to end), and no worker ever fans out itself. Each
//! unit is told which participant runs it, so work can keep state per
//! thread, and the work is dropped by the thread that fanned out before
//! `fan_out` returns: no worker is still freeing it after the call.
//!
//! The pool is built on `std::thread` + `std::sync::mpsc` only — the build
//! environment has no crates.io access, so no external dependency (rayon,
//! crossbeam) is used. Its threads are spawned by the first fan-out and live
//! as long as the pool.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crate::catalog::Catalog;
use crate::error::{EngineError, Result, Span};
use crate::plan::PhysPlan;
use crate::sync::{Condvar, Mutex};
use crate::value::{Row, Value};

use super::program::{Bound, Program, Specs};

/// Work fans out to the pool only when its source holds at least this many
/// rows: two morsels. A source of one morsel has nothing to share, and
/// below it a fan-out's fixed cost (waking a worker, a partial per morsel,
/// the fold) is not repaid on two cores. It keeps the serving path's
/// statements — a single-item predict, a batch of 64, the stream's
/// 10-document fits — serial. Sized by measurement (DESIGN.md, "Executor
/// architecture").
pub(crate) const FAN_OUT_ROWS: usize = 2 * MORSEL_ROWS;

/// Rows per morsel, held rows or a key-filtered probe's table. Fixed, so
/// that morsel boundaries — and with them the order float partial sums
/// combine in — are the same at every parallelism above 1.
pub(crate) const MORSEL_ROWS: usize = 4096;

/// Operators accumulate charge amounts locally and flush them to the shared
/// [`MemoryBudget`] in chunks of this size, so budget accounting costs one
/// atomic per ~32 KiB of materialized state rather than one per row.
pub(crate) const CHARGE_FLUSH_BYTES: u64 = 32 * 1024;

/// Loops over rows look at the statement deadline once per this many rows.
pub(crate) const DEADLINE_STRIDE: usize = 1024;

/// Per-statement memory budget for the state operators hold.
///
/// Charged (conservatively, charge-only — no release on operator completion,
/// so the figure tracked is *cumulative materialized bytes*, an upper bound
/// on live usage) where a row is held: hash-join build tables, aggregation
/// hash tables, sort key runs, DISTINCT dedup sets, and every row a
/// collecting sink stores (a build side, a sort input, a shared subplan's
/// slot, the statement result). Streaming operators hold
/// nothing.
/// When a charge pushes usage past the limit the operator aborts with
/// [`EngineError::ResourceExhausted`] — a clean, retryable statement error
/// instead of a process OOM. The peak is always tracked (budgeted or not)
/// and lands in `sys.query_log`.
#[derive(Debug)]
pub struct MemoryBudget {
    /// Budget in bytes; `u64::MAX` means unlimited (track peak only).
    limit: u64,
    used: AtomicU64,
    peak: AtomicU64,
}

impl MemoryBudget {
    /// Track peak usage without enforcing any limit.
    pub fn unlimited() -> MemoryBudget {
        MemoryBudget::limited(u64::MAX)
    }

    /// Enforce a budget of `limit` bytes.
    pub fn limited(limit: u64) -> MemoryBudget {
        MemoryBudget {
            limit,
            used: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Charge `bytes` against the budget, failing with
    /// [`EngineError::ResourceExhausted`] once usage exceeds the limit. The
    /// error carries an empty span; the engine attaches the statement span
    /// at the entry point.
    pub fn charge(&self, bytes: u64) -> Result<()> {
        let used = self.used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(used, Ordering::Relaxed);
        if used > self.limit {
            return Err(EngineError::resource_exhausted(
                format!(
                    "statement memory budget exceeded: operator state reached \
                     {used} bytes of a {} byte budget",
                    self.limit
                ),
                Span::default(),
            ));
        }
        Ok(())
    }

    /// Peak bytes charged so far.
    pub fn peak_bytes(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Cumulative bytes charged so far (charge-only, monotonic). Sampling
    /// this around an operator's own work attributes the bytes it holds to
    /// it — [`OpStats::mem_bytes`], the `peak_mem_bytes` span attribute.
    pub fn used_bytes(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }
}

/// Rough heap footprint of one row: the inline `Value`s plus string heap
/// payloads plus the row vector's own header. Exact malloc accounting is not
/// the point — the estimate only has to scale with the real allocation so a
/// budget bounds it within a small constant factor.
pub(crate) fn approx_value_bytes(v: &Value) -> u64 {
    let heap = match v {
        Value::Str(s) => s.len(),
        _ => 0,
    };
    (std::mem::size_of::<Value>() + heap) as u64
}

pub(crate) fn approx_row_bytes(row: &[Value]) -> u64 {
    let heap: usize = row
        .iter()
        .map(|v| match v {
            Value::Str(s) => s.len(),
            _ => 0,
        })
        .sum();
    (std::mem::size_of::<Row>() + std::mem::size_of_val(row) + heap) as u64
}

/// Local accumulator over a shared [`MemoryBudget`]: buffers charges and
/// flushes every [`CHARGE_FLUSH_BYTES`] so tight per-row loops pay amortized
/// cost. Call [`ChargeBuf::flush`] (or drop the final partial charge — it is
/// flushed on the next add) when precision matters; operators flush at the
/// end of their build loops.
pub(crate) struct ChargeBuf {
    budget: Arc<MemoryBudget>,
    pending: u64,
}

impl ChargeBuf {
    pub(crate) fn new(budget: &Arc<MemoryBudget>) -> ChargeBuf {
        ChargeBuf {
            budget: Arc::clone(budget),
            pending: 0,
        }
    }

    pub(crate) fn add(&mut self, bytes: u64) -> Result<()> {
        self.pending += bytes;
        if self.pending >= CHARGE_FLUSH_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    pub(crate) fn add_row(&mut self, row: &[Value]) -> Result<()> {
        self.add(approx_row_bytes(row))
    }

    pub(crate) fn flush(&mut self) -> Result<()> {
        if self.pending > 0 {
            let pending = std::mem::take(&mut self.pending);
            self.budget.charge(pending)?;
        }
        Ok(())
    }
}

/// Runtime statistics for one operator in an executed plan, collected when
/// the context has stats enabled (`EXPLAIN ANALYZE`).
///
/// `elapsed` and `mem_bytes` follow one rule: what the operator booked
/// itself plus its children's figures, so every child's lie inside its
/// parent's. A pipeline's source books the time its rows take through the
/// steps above it into the breaker; a breaker that hands its rows on itself
/// books its run, its consumers' work on those rows included; a join books
/// building its side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpStats {
    /// Operator label as rendered by `EXPLAIN` (e.g. `HashJoin [Inner, 1 keys]`).
    pub label: String,
    /// Rows consumed from all inputs.
    pub rows_in: usize,
    /// Rows produced.
    pub rows_out: usize,
    /// Wall time attributed to this operator and its children (see struct
    /// docs).
    pub elapsed: Duration,
    /// Workers the pipeline this operator belongs to fanned out to (1 =
    /// serial).
    pub workers: usize,
    /// Morsels that pipeline's source was cut into when it fanned out (1 =
    /// serial).
    pub morsels: usize,
    /// Bytes charged against the statement memory budget for what this
    /// operator and its children hold — a hash table and the build rows it
    /// indexes, a group table, a sort's input — never for what its consumers
    /// hold.
    pub mem_bytes: u64,
    pub children: Vec<OpStats>,
}

impl OpStats {
    pub(crate) fn leaf(label: String, rows_out: usize) -> OpStats {
        OpStats {
            label,
            rows_in: 0,
            rows_out,
            elapsed: Duration::ZERO,
            workers: 1,
            morsels: 1,
            mem_bytes: 0,
            children: Vec::new(),
        }
    }

    /// Depth-first search for the first node whose label starts with `prefix`.
    pub fn find(&self, prefix: &str) -> Option<&OpStats> {
        if self.label.starts_with(prefix) {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(prefix))
    }
}

/// A persistent worker pool for `size`-way fan-outs: the thread that fans
/// out is one of the `size` workers, and `size - 1` threads drain a shared
/// job channel. They are spawned by the first job, so a database whose
/// statements never fan out never starts one.
pub struct WorkerPool {
    size: usize,
    /// The job channel, opened by the first job.
    tx: Mutex<Option<mpsc::Sender<Job>>>,
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
}

type Job = Box<dyn FnOnce() + Send + 'static>;

impl WorkerPool {
    /// A pool for `size`-way fan-outs (`size` is clamped to at least 2).
    pub fn new(size: usize) -> WorkerPool {
        WorkerPool {
            size: size.max(2),
            tx: Mutex::new(None),
            threads: Mutex::new(Vec::new()),
        }
    }

    pub fn size(&self) -> usize {
        self.size
    }

    /// Hand `job` to the next idle thread, spawning the threads first if
    /// this is the pool's first job.
    fn submit(&self, job: Job) {
        let mut tx = self.tx.lock();
        let tx = tx.get_or_insert_with(|| {
            let (tx, rx) = mpsc::channel::<Job>();
            let rx = Arc::new(Mutex::new(rx));
            let mut threads = self.threads.lock();
            for i in 1..self.size {
                let rx = Arc::clone(&rx);
                let spawned = thread::Builder::new()
                    .name(format!("sqlengine-worker-{i}"))
                    .spawn(move || loop {
                        // Take the lock only to receive; run the job unlocked
                        // so other workers keep draining the channel.
                        let job = rx.lock().recv();
                        match job {
                            Ok(job) => job(),
                            Err(_) => break, // pool dropped
                        }
                    });
                threads.push(spawned.expect("failed to spawn sqlengine worker thread"));
            }
            tx
        });
        tx.send(job).expect("worker pool hung up");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel ends every worker's recv loop.
        self.tx.lock().take();
        for handle in self.threads.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

/// One fan-out in flight: `units` pieces of `work`, claimed one at a time
/// from `next` by the thread that fanned out and the pool workers that
/// joined it.
struct FanOut<R> {
    units: usize,
    next: AtomicUsize,
    /// The lowest unit whose result failed: no unit above it starts.
    failed: AtomicUsize,
    fails: fn(&R) -> bool,
    state: Mutex<FanOutState<R>>,
    all_done: Condvar,
}

/// `work(unit, participant)`: participant 0 is the thread that fanned out,
/// `1..` the pool workers that joined it.
type UnitWork<R> = dyn Fn(usize, usize) -> R + Send + Sync;

/// What the threads of a fan-out hand each other under one lock.
struct FanOutState<R> {
    /// Taken away by the thread that fanned out once every unit is done and
    /// every participant has let go of it, so that thread frees what the
    /// work captured before `fan_out` returns — no worker frees it after —
    /// and a worker that joins later finds nothing to run.
    work: Option<Arc<UnitWork<R>>>,
    /// Participants holding `work`.
    active: usize,
    /// Units finished so far, and their results by unit (`None`: not
    /// started, because an earlier one failed).
    count: usize,
    results: Vec<Option<thread::Result<R>>>,
}

/// A unit that ran (or was skipped) and its result, not yet handed in.
type Ran<R> = (usize, Option<thread::Result<R>>);

impl<R> FanOut<R> {
    /// Claim and run units until none is left, as participant `who`. A
    /// unit's result is handed in once the next claim is made, so the last
    /// one follows letting go of the work.
    fn claim(&self, who: usize) {
        let work = {
            let mut state = self.state.lock();
            let Some(work) = state.work.clone() else {
                return;
            };
            state.active += 1;
            work
        };
        let mut ran: Option<Ran<R>> = None;
        loop {
            let unit = self.next.fetch_add(1, Ordering::Relaxed);
            if unit >= self.units {
                break;
            }
            let result = (unit <= self.failed.load(Ordering::Relaxed)).then(|| {
                let result =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(unit, who)));
                if result.as_ref().map_or(true, self.fails) {
                    self.failed.fetch_min(unit, Ordering::Relaxed);
                }
                result
            });
            if let Some(earlier) = ran.replace((unit, result)) {
                self.hand_in(Some(earlier), false);
            }
        }
        drop(work);
        self.hand_in(ran, true);
    }

    /// Record a unit's result and, when `leaving`, that this participant
    /// let go of the work; wake the thread that fanned out when it is all
    /// over.
    fn hand_in(&self, ran: Option<Ran<R>>, leaving: bool) {
        let mut state = self.state.lock();
        if let Some((unit, result)) = ran {
            state.results[unit] = result;
            state.count += 1;
        }
        state.active -= usize::from(leaving);
        if state.count == self.units && state.active == 0 {
            self.all_done.notify_all();
        }
    }
}

/// The rows one shared subplan holds.
type HeldRows = Arc<super::FlatRows>;

/// Per-query execution context: parallelism knob, shared pool, stats switch,
/// the statement deadline, and the slots of the run's shared subplans.
#[derive(Clone)]
pub struct ExecContext {
    parallelism: usize,
    pool: Option<Arc<WorkerPool>>,
    collect_stats: bool,
    /// Absolute point after which execution aborts with
    /// [`EngineError::Timeout`]. Checked at operator dispatch and every
    /// [`DEADLINE_STRIDE`] rows of a loop; `None` disables the check.
    deadline: Option<Instant>,
    /// Per-statement memory budget, charged where operators hold rows.
    /// Always present; defaults to an unlimited (peak-tracking) budget.
    budget: Arc<MemoryBudget>,
    /// Telemetry registry for the worker-idle wait rollup and the executor's
    /// row counters (`None` outside a [`Database`] statement or when
    /// telemetry is disabled, in which case `fan_out` reads no clocks).
    ///
    /// [`Database`]: crate::Database
    telemetry: Option<Arc<crate::telemetry::Telemetry>>,
    /// The held rows of each shared subplan ([`PhysPlan::Shared`]) by id,
    /// filled by the first reference to run. Every run of a plan starts
    /// with none and drops them when it ends, so no plan — cached or not —
    /// ever holds rows.
    shared: Arc<Mutex<Vec<(usize, HeldRows)>>>,
}

impl ExecContext {
    /// The serial executor (`parallelism = 1`): no pool, every pipeline run
    /// on the calling thread.
    pub fn serial() -> ExecContext {
        ExecContext {
            parallelism: 1,
            pool: None,
            collect_stats: false,
            deadline: None,
            budget: Arc::new(MemoryBudget::unlimited()),
            telemetry: None,
            shared: Arc::default(),
        }
    }

    /// A context owning its own pool for `parallelism`-way fan-outs.
    pub fn new(parallelism: usize) -> ExecContext {
        let parallelism = parallelism.max(1);
        ExecContext {
            parallelism,
            pool: (parallelism > 1).then(|| Arc::new(WorkerPool::new(parallelism))),
            collect_stats: false,
            deadline: None,
            budget: Arc::new(MemoryBudget::unlimited()),
            telemetry: None,
            shared: Arc::default(),
        }
    }

    /// A context borrowing a long-lived pool (the [`Database`] path, so
    /// queries do not pay thread spawns).
    ///
    /// [`Database`]: crate::Database
    pub fn with_pool(parallelism: usize, pool: Arc<WorkerPool>) -> ExecContext {
        let parallelism = parallelism.max(1);
        ExecContext {
            pool: (parallelism > 1).then_some(pool),
            parallelism,
            collect_stats: false,
            deadline: None,
            budget: Arc::new(MemoryBudget::unlimited()),
            telemetry: None,
            shared: Arc::default(),
        }
    }

    /// Builder-style statement deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> ExecContext {
        self.deadline = Some(deadline);
        self
    }

    /// Builder-style memory budget (shared with the statement's bookkeeping
    /// so the engine can read the peak afterwards).
    pub fn with_budget(mut self, budget: Arc<MemoryBudget>) -> ExecContext {
        self.budget = budget;
        self
    }

    /// Builder-style telemetry handle: enables the `worker_idle` wait
    /// rollup around worker-pool fan-outs, `exec.join.probe_rows_pruned`,
    /// `exec.join.build_rows` and `exec.rows_materialized`.
    pub fn with_telemetry(mut self, telemetry: Arc<crate::telemetry::Telemetry>) -> ExecContext {
        self.telemetry = Some(telemetry);
        self
    }

    /// The statement's memory budget; operators clone the `Arc` into morsel
    /// jobs.
    pub(crate) fn budget(&self) -> &Arc<MemoryBudget> {
        &self.budget
    }

    /// The statement deadline, if any (`Copy`, so morsel jobs can capture it
    /// into `'static` closures).
    pub(crate) fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Error out if the statement deadline has passed.
    pub(crate) fn check_timeout(&self) -> Result<()> {
        check_deadline(self.deadline)
    }

    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    pub(crate) fn stats_enabled(&self) -> bool {
        self.collect_stats
    }

    /// Whether a pipeline may fan out (`parallelism >= 2`).
    pub(crate) fn parallel(&self) -> bool {
        self.pool.is_some()
    }

    /// The one gate for every use of the pool: whether work whose source
    /// holds `rows` rows fans out.
    pub(crate) fn fans_out(&self, rows: usize) -> bool {
        self.parallel() && rows >= FAN_OUT_ROWS
    }

    /// Run `work(unit, participant)` over units `0..units` on this thread
    /// (participant 0) and up to `parallelism - 1` pool workers (participants
    /// `1..`), each claiming the next unit from one atomic counter. A unit
    /// whose result `fails` keeps the units after it from starting. Returns
    /// the results in unit order, up to and including the first that
    /// failed; a unit that panicked is resumed here. Nothing the work
    /// captured outlives the call on a worker. When a telemetry handle is
    /// present, the time this thread waits for the workers after running
    /// out of units is rolled up as `worker_idle`.
    pub(crate) fn fan_out<R: Send + 'static>(
        &self,
        units: usize,
        fails: fn(&R) -> bool,
        work: impl Fn(usize, usize) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        let job = Arc::new(FanOut {
            units,
            next: AtomicUsize::new(0),
            failed: AtomicUsize::new(usize::MAX),
            fails,
            state: Mutex::new(FanOutState {
                work: Some(Arc::new(work) as Arc<UnitWork<R>>),
                active: 0,
                count: 0,
                results: (0..units).map(|_| None).collect(),
            }),
            all_done: Condvar::new(),
        });
        if let Some(pool) = &self.pool {
            for who in 1..self.parallelism.min(units) {
                let job = Arc::clone(&job);
                pool.submit(Box::new(move || job.claim(who)));
            }
        }
        job.claim(0);
        let waited = self.telemetry.as_deref().map(|t| (t, Instant::now()));
        let mut state = job.state.lock();
        while state.count < units || state.active > 0 {
            state = job.all_done.wait(state);
        }
        if let Some((telemetry, start)) = waited {
            telemetry.wait_worker_idle_us.record(start.elapsed());
        }
        let (work, results) = (state.work.take(), std::mem::take(&mut state.results));
        drop(state);
        drop(work);
        let mut out = Vec::with_capacity(units);
        for result in results {
            match result {
                Some(Ok(result)) => {
                    let failed = fails(&result);
                    out.push(result);
                    if failed {
                        break;
                    }
                }
                Some(Err(panic)) => std::panic::resume_unwind(panic),
                None => unreachable!("a unit is skipped only after one that failed"),
            }
        }
        out
    }

    /// [`ExecContext::fan_out`] over fallible work: every unit's value, or
    /// the error of the first unit that failed.
    pub(crate) fn fan_out_ok<T: Send + 'static>(
        &self,
        units: usize,
        work: impl Fn(usize) -> Result<T> + Send + Sync + 'static,
    ) -> Result<Vec<T>> {
        self.fan_out(units, Result::is_err, move |unit, _| work(unit))
            .into_iter()
            .collect()
    }

    /// [`ExecContext::fan_out`] with one of `items` per unit.
    pub(crate) fn fan_out_each<I: Send + 'static, R: Send + 'static>(
        &self,
        items: Vec<I>,
        work: impl Fn(I) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        let items: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
        self.fan_out(
            items.len(),
            |_| false,
            move |unit, _| work(items[unit].lock().take().expect("each unit runs once")),
        )
    }

    /// Add to `exec.join.probe_rows_pruned`: probe rows a hash join rejected
    /// because the build side holds no such key.
    pub(crate) fn count_probe_rows_pruned(&self, rows: usize) {
        if let Some(telemetry) = &self.telemetry {
            telemetry.join_probe_rows_pruned.add(rows as u64);
        }
    }

    /// Add to `exec.join.build_rows`: rows inserted into a hash-join build
    /// table.
    pub(crate) fn count_join_build_rows(&self, rows: usize) {
        if let Some(telemetry) = &self.telemetry {
            telemetry.join_build_rows.add(rows as u64);
        }
    }

    /// Add to `exec.rows_materialized`: rows a collecting sink stored as an
    /// operator's intermediate input (never the statement result).
    pub(crate) fn count_rows_materialized(&self, rows: usize) {
        if let Some(telemetry) = &self.telemetry {
            telemetry.rows_materialized.add(rows as u64);
        }
    }

    /// Add to `exec.shared_reuses`: a shared-subplan reference served from
    /// its filled slot.
    pub(crate) fn count_shared_reuse(&self) {
        if let Some(telemetry) = &self.telemetry {
            telemetry.shared_reuses.incr();
        }
    }

    /// The rows shared subplan `id` holds, once a reference has run it.
    pub(crate) fn shared_rows(&self, id: usize) -> Option<HeldRows> {
        let slots = self.shared.lock();
        slots
            .iter()
            .find(|(slot, _)| *slot == id)
            .map(|(_, rows)| Arc::clone(rows))
    }

    /// Hold `rows`, all the rows of shared subplan `id`, for the rest of the
    /// run.
    pub(crate) fn hold_shared(&self, id: usize, rows: HeldRows) {
        self.shared.lock().push((id, rows));
    }

    /// This context for one run of a program: statistics on or off, and no
    /// shared subplan run yet.
    fn for_run(&self, collect_stats: bool) -> ExecContext {
        ExecContext {
            collect_stats,
            shared: Arc::default(),
            ..self.clone()
        }
    }

    /// Execute a plan to completion over the tables of `catalog`: lower it,
    /// bind its tables and run the program once.
    pub fn execute(&self, plan: &PhysPlan, catalog: &Catalog) -> Result<Vec<Row>> {
        let program = Arc::new(Program::lower(plan));
        let tables = program.bind(catalog)?;
        Ok(self
            .execute_program(&program, &[], tables, self.collect_stats)?
            .0)
    }

    /// Execute a plan over the tables of `catalog` and collect the
    /// per-operator statistics tree (`EXPLAIN ANALYZE`).
    pub fn execute_with_stats(
        &self,
        plan: &PhysPlan,
        catalog: &Catalog,
    ) -> Result<(Vec<Row>, OpStats)> {
        let program = Arc::new(Program::lower(plan));
        let tables = program.bind(catalog)?;
        let (rows, stats) = self.execute_program(&program, &[], tables, true)?;
        Ok((rows, stats.expect("stats were requested")))
    }

    /// Run a lowered program to completion over `tables`, what
    /// [`Program::bind`] bound for this run, its parameter sites bound to
    /// `params`, with the per-operator statistics tree when `stats` asks.
    pub(crate) fn execute_program(
        &self,
        program: &Arc<Program>,
        params: &[Value],
        tables: Vec<Bound>,
        stats: bool,
    ) -> Result<(Vec<Row>, Option<OpStats>)> {
        let specs = Specs::bind(program, params, tables)?;
        super::collect(&self.for_run(stats), &specs)
    }
}

/// Free-function form of the deadline check, for morsel jobs that captured
/// `Option<Instant>` rather than a whole context.
pub(crate) fn check_deadline(deadline: Option<Instant>) -> Result<()> {
    match deadline {
        Some(d) if Instant::now() >= d => Err(EngineError::Timeout),
        _ => Ok(()),
    }
}

/// Counts the rows a loop handles and looks at the statement deadline once
/// every [`DEADLINE_STRIDE`] of them, so any streamed loop — a scan, a
/// join's fan-out of one probe row — can be cut off part-way.
#[derive(Default)]
pub(crate) struct Ticker(usize);

impl Ticker {
    pub(crate) fn tick(&mut self, deadline: Option<Instant>) -> Result<()> {
        self.0 += 1;
        if self.0.is_multiple_of(DEADLINE_STRIDE) {
            check_deadline(deadline)?;
        }
        Ok(())
    }
}

/// Split `0..len` into at most `max_chunks` contiguous ranges of near-equal
/// size. Never returns an empty range; returns a single range when `len` is
/// small.
pub(crate) fn morsel_ranges(len: usize, max_chunks: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return std::iter::once(0..0).collect();
    }
    let chunks = max_chunks.clamp(1, len);
    let base = len / chunks;
    let extra = len % chunks; // first `extra` chunks get one more row
    let mut ranges = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let size = base + usize::from(i < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

// The whole execution layer must be shareable across worker threads.
#[allow(dead_code)]
fn _assert_send_sync() {
    fn assert<T: Send + Sync>() {}
    assert::<ExecContext>();
    assert::<WorkerPool>();
    assert::<OpStats>();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsel_ranges_cover_exactly() {
        for len in [0usize, 1, 2, 7, 128, 1000, 1001] {
            for chunks in [1usize, 2, 3, 8, 16] {
                let ranges = morsel_ranges(len, chunks);
                assert!(!ranges.is_empty());
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    if len > 0 {
                        assert!(r.end > r.start, "empty morsel for len={len}");
                    }
                    next = r.end;
                }
                assert_eq!(next, len);
                assert!(ranges.len() <= chunks.max(1));
            }
        }
    }

    #[test]
    fn pool_runs_jobs_in_submission_order() {
        // Units come back in unit order, and the pool's threads start with
        // the first fan-out.
        let ctx = ExecContext::new(4);
        let pool = ctx.pool.as_ref().expect("parallelism 4 has a pool");
        assert!(pool.threads.lock().is_empty());
        let results = ctx.fan_out(64, |_| false, |i, _| i * i);
        assert_eq!(results, (0..64).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(pool.threads.lock().len(), 3);
    }

    #[test]
    fn the_thread_that_fans_out_frees_what_the_work_captured() {
        // Every participant is one of the `parallelism` threads, and once
        // `fan_out` returns no worker still holds the work: what it captured
        // is freed on this thread, not by a worker after the call.
        let ctx = ExecContext::new(4);
        for _ in 0..50 {
            let captured = Arc::new(());
            let held = Arc::clone(&captured);
            let who = ctx.fan_out(
                64,
                |_| false,
                move |_, who| {
                    let _ = &held;
                    std::thread::sleep(Duration::from_micros(50));
                    who
                },
            );
            assert!(who.iter().all(|&who| who < 4), "{who:?}");
            assert_eq!(Arc::strong_count(&captured), 1);
        }
    }

    #[test]
    fn a_fan_out_reports_its_earliest_failing_unit() {
        // Units 40 and 41 fail; whichever fails first, no unit past the
        // earliest failure is returned, and its error is the one reported.
        let ctx = ExecContext::new(4);
        let err = ctx
            .fan_out_ok(64, |i| match i {
                40 | 41 => Err(EngineError::exec(format!("unit {i}"))),
                _ => Ok(i),
            })
            .unwrap_err();
        assert!(err.to_string().contains("unit 40"), "{err}");
        let done = ctx.fan_out(64, |&i: &usize| i == 40, |i, _| i);
        assert_eq!(done, (0..=40).collect::<Vec<_>>());
    }

    #[test]
    fn budget_charges_and_tracks_peak() {
        let b = MemoryBudget::limited(1000);
        b.charge(400).unwrap();
        b.charge(500).unwrap();
        assert_eq!(b.peak_bytes(), 900);
        let err = b.charge(200).unwrap_err();
        assert!(matches!(err, EngineError::ResourceExhausted { .. }));
        assert!(err.is_retryable());
        // Peak keeps tracking past the failure point.
        assert_eq!(b.peak_bytes(), 1100);
    }

    #[test]
    fn unlimited_budget_never_fails() {
        let b = MemoryBudget::unlimited();
        b.charge(u64::MAX / 2).unwrap();
        assert_eq!(b.peak_bytes(), u64::MAX / 2);
    }

    #[test]
    fn charge_buf_flushes_at_granularity() {
        let b = Arc::new(MemoryBudget::limited(CHARGE_FLUSH_BYTES * 2));
        let mut buf = ChargeBuf::new(&b);
        // Stays local until the flush threshold trips.
        buf.add(CHARGE_FLUSH_BYTES - 1).unwrap();
        assert_eq!(b.peak_bytes(), 0);
        buf.add(1).unwrap();
        assert_eq!(b.peak_bytes(), CHARGE_FLUSH_BYTES);
        buf.add(5).unwrap();
        buf.flush().unwrap();
        assert_eq!(b.peak_bytes(), CHARGE_FLUSH_BYTES + 5);
    }

    #[test]
    fn pool_survives_panicking_job() {
        let ctx = ExecContext::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.fan_out(
                8,
                |_| false,
                |i, _| match i {
                    5 => panic!("unit panic for test"),
                    i => i,
                },
            )
        }));
        assert!(caught.is_err());
        // The pool still works after a unit panicked.
        assert_eq!(
            ctx.fan_out(8, |_| false, |i, _| i).iter().sum::<usize>(),
            28
        );
    }
}
