//! The public database facade and the statement driver.
//!
//! [`Database`] owns the catalog behind a [`RwLock`]. Queries
//! plan under a read lock and execute on `Arc` row snapshots after the lock
//! is released; DML takes the write lock for its duration.
//!
//! Every SQL statement runs one lifecycle, whichever entry point it came
//! through ([`Database::run_statement`]): `begin` → `parse` → `check` →
//! `plan_or_fetch` → `bind` → `run` → `finish`. Entry points differ only in
//! the stage they join at ([`Entry`]) and in how they use the plan cache
//! ([`CacheUse`]); phase timings come from the statement's one
//! [`PhaseClock`].

mod dml;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::admission::{AdmissionGate, AdmissionPermit};
use crate::ast::{param_use, ExplainMode, ParamUse, Query, Statement};
use crate::catalog::{Catalog, Schema};
use crate::config::EngineConfig;
use crate::error::{EngineError, Result, Span};
use crate::exec::{ExecContext, MemoryBudget, OpStats, WorkerPool};
use crate::lexer::{scan_shape, Shape};
use crate::parser::{parse_script_spanned, parse_statement};
use crate::plan::{PhysPlan, PlannedQuery, Planner, VirtualTables};
use crate::plan_cache::{CacheHit, CacheUse, PlanCache};
use crate::sync::{Mutex, RwLock, RwLockReadGuard};
use crate::telemetry::{sys, QueryStatus, Telemetry};
use crate::trace::{Phase, PhaseClock, StatementTrace, TraceScope};
use crate::value::{Row, Value};
use crate::verify::{ParamDiscipline, SnapshotGuarantee, VerifyReport, VerifyRule};
use crate::wal::{self, StorageIo, Wal};

/// The result of a `SELECT`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
}

impl QueryResult {
    /// Position of an output column by name.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
    }

    /// First value of the first row, if any.
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first().and_then(|r| r.first())
    }

    /// A one-column result holding `text` line by line (the shape of every
    /// rendered `EXPLAIN` variant).
    fn lines(column: &str, text: &str) -> QueryResult {
        QueryResult {
            columns: vec![column.to_string()],
            rows: text.lines().map(|l| vec![Value::Str(l.into())]).collect(),
        }
    }
}

/// The result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementResult {
    Rows(QueryResult),
    /// Number of rows inserted / updated / deleted (DDL reports 0).
    Affected(usize),
}

impl StatementResult {
    pub fn into_rows(self) -> Result<QueryResult> {
        match self {
            StatementResult::Rows(r) => Ok(r),
            StatementResult::Affected(_) => Err(EngineError::exec("statement did not return rows")),
        }
    }

    pub fn affected(&self) -> usize {
        match self {
            StatementResult::Rows(r) => r.rows.len(),
            StatementResult::Affected(n) => *n,
        }
    }
}

/// An embedded, in-memory relational database.
pub struct Database {
    catalog: RwLock<Catalog>,
    config: EngineConfig,
    /// Executor worker pool when `config.parallelism >= 2`; its threads are
    /// spawned by the first statement that fans out and then live as long
    /// as the database, so individual queries never pay thread-spawn
    /// latency.
    pool: Option<Arc<WorkerPool>>,
    /// Snapshot of the catalog taken at `BEGIN`, restored on `ROLLBACK`.
    txn_backup: Mutex<Option<Catalog>>,
    /// Monotonic version bumped *before* any catalog write (DDL, DML, and
    /// `ROLLBACK` restores). Cached plans embed row/index snapshots, so any
    /// change to data or schema must invalidate them; the counter never goes
    /// backwards, which keeps a rolled-back catalog from aliasing a future
    /// version number.
    catalog_version: AtomicU64,
    /// Physical plans of queries, keyed by statement shape.
    plan_cache: PlanCache,
    /// Write-ahead log of committed logical changes; `None` for purely
    /// in-memory databases (`Database::new`).
    wal: Option<Wal>,
    /// Engine-wide observability registry, shared (`Arc`) with the WAL and
    /// with BornSQL model handles; queryable through the `sys.*` tables.
    telemetry: Arc<Telemetry>,
    /// Bounded statement admission gate; `None` unless
    /// [`EngineConfig::max_concurrent_statements`] is set.
    admission: Option<Arc<AdmissionGate>>,
}

/// One statement in flight: the wall-clock deadline (derived from
/// `statement_timeout` when the statement entered the engine, so time spent
/// queued for admission counts against it), the memory budget shared with
/// every operator the statement runs, its one clock, and the admission
/// permit held until the statement finishes.
struct StatementCtx {
    deadline: Option<Instant>,
    budget: Arc<MemoryBudget>,
    clock: PhaseClock,
    permit: Option<AdmissionPermit>,
}

impl StatementCtx {
    /// Scope under which WAL spans (fsync wait, retries) recorded while this
    /// statement executes are parented: the exec phase.
    fn wal_scope(&self) -> Option<TraceScope<'_>> {
        self.clock.exec_scope()
    }

    /// The context planner-time execution runs under (uncorrelated
    /// subqueries): serial, because it happens under the
    /// planner's catalog borrow, and bound by this statement's deadline and
    /// memory budget like the rest of it.
    fn planner_exec(&self) -> ExecContext {
        governed(ExecContext::serial(), self.deadline, &self.budget)
    }

    /// A context for `EXPLAIN (TRACE)`'s target query: it shares this
    /// statement's deadline and budget but records into its own clock, traced
    /// regardless of the engine's sampling policy.
    fn local_trace(&self) -> StatementCtx {
        StatementCtx {
            deadline: self.deadline,
            budget: Arc::clone(&self.budget),
            clock: PhaseClock::start(true, true),
            permit: None,
        }
    }
}

/// `exec` carrying a statement's deadline and memory budget.
fn governed(
    exec: ExecContext,
    deadline: Option<Instant>,
    budget: &Arc<MemoryBudget>,
) -> ExecContext {
    let exec = exec.with_budget(Arc::clone(budget));
    match deadline {
        Some(deadline) => exec.with_deadline(deadline),
        None => exec,
    }
}

/// The stage at which an entry point joins the statement lifecycle.
#[derive(Clone, Copy)]
enum Entry<'a> {
    /// Statement text: parse and check are still to do.
    Text,
    /// A parsed statement still to be checked against the current catalog
    /// (scripts: earlier statements may create the tables later ones use).
    Parsed(&'a Statement),
    /// Parsed and checked at prepare time.
    Checked(&'a Statement),
}

/// What the plan stage does with the verifier.
enum PlanVerify<'a> {
    /// Run it when `verify_plans` is on; a violation fails the statement.
    Enforce,
    /// Run it unconditionally and hand back the report instead of failing
    /// (`EXPLAIN (VERIFY)`).
    Report(&'a mut Option<VerifyReport>),
}

/// The outcome of `plan_or_fetch`: a physical plan, possibly a parameter
/// template that `bind` must fill before `run` — from the caller's
/// parameters, or from the literals lifted out of the statement text.
struct Planned {
    query: Arc<PlannedQuery>,
    template: bool,
    lifted: Option<Vec<Value>>,
}

/// What the lifecycle hands back: the statement's result, plus the operator
/// statistics tree when the caller asked to analyze a query.
type Outcome = (StatementResult, Option<OpStats>);

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    pub fn new() -> Self {
        Self::with_config(EngineConfig::default())
    }

    pub fn with_config(config: EngineConfig) -> Self {
        let telemetry = Arc::new(Telemetry::new(
            config.telemetry,
            config.slow_query_threshold,
            config.query_log_capacity,
        ));
        let admission = config.max_concurrent_statements.map(|max| {
            Arc::new(AdmissionGate::new(
                max,
                config.admission_queue_depth,
                Arc::clone(&telemetry),
            ))
        });
        Database {
            catalog: RwLock::new(Catalog::new()),
            pool: (config.parallelism > 1).then(|| Arc::new(WorkerPool::new(config.parallelism))),
            config,
            txn_backup: Mutex::new(None),
            catalog_version: AtomicU64::new(0),
            plan_cache: PlanCache::default(),
            wal: None,
            telemetry,
            admission,
        }
    }

    /// Open a durable database rooted at `dir`: load the latest checkpoint,
    /// replay the write-ahead log (truncating any torn tail), and attach a
    /// WAL so every committed change is persisted. The directory is created
    /// if it does not exist.
    pub fn open(dir: impl AsRef<std::path::Path>, config: EngineConfig) -> Result<Database> {
        Self::open_with_io(Arc::new(wal::FileIo::new(dir)?), config)
    }

    /// [`Database::open`] with the default configuration.
    pub fn persistent(dir: impl AsRef<std::path::Path>) -> Result<Database> {
        Self::open(dir, EngineConfig::default())
    }

    /// Open a durable database over an injectable storage backend. This is
    /// how the fault-injection tests drive the WAL against in-memory and
    /// failpoint-instrumented storage; applications normally use
    /// [`Database::open`].
    pub fn open_with_io(io: Arc<dyn StorageIo>, config: EngineConfig) -> Result<Database> {
        let recovered = wal::recover(io.as_ref())?;
        let mut db = Database::with_config(config);
        let wal = Wal::new(
            io,
            config.wal_sync,
            config.wal_group_commit,
            config.checkpoint_after_bytes,
            config.wal_retry,
            recovered.next_seq,
            recovered.wal_len,
            Arc::clone(&db.telemetry),
        );
        db.catalog = RwLock::new(recovered.catalog);
        db.wal = Some(wal);
        Ok(db)
    }

    /// Fold the current state into a checkpoint and truncate the WAL.
    /// Errors on in-memory databases and inside explicit transactions.
    pub fn checkpoint(&self) -> Result<()> {
        let Some(wal) = &self.wal else {
            return Err(EngineError::wal(
                "checkpoint requires a durable database (Database::open)",
            ));
        };
        if self.in_transaction() {
            return Err(EngineError::exec("cannot checkpoint inside a transaction"));
        }
        let catalog = self.catalog.write();
        wal.checkpoint(&catalog)
    }

    /// Bytes currently in the write-ahead log; `None` for in-memory
    /// databases. Exposed for checkpoint-trigger tests and benches.
    pub fn wal_bytes(&self) -> Option<u64> {
        self.wal.as_ref().map(|w| w.wal_bytes())
    }

    /// Current catalog version (bumped by every DDL/DML write).
    pub fn catalog_version(&self) -> u64 {
        self.catalog_version.load(Ordering::Acquire)
    }

    /// Plan-cache counters as `(hits, misses)` since the last
    /// [`Database::reset_plan_cache_stats`] (process lifetime otherwise).
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        let stats = self.plan_cache.stats();
        (stats.hits, stats.misses)
    }

    /// Plan-cache counters as `(hits, misses, evictions)`. Evictions count
    /// plans the cache dropped itself — dead plans reaped, and full clears at
    /// capacity.
    pub fn plan_cache_metrics(&self) -> (u64, u64, u64) {
        let stats = self.plan_cache.stats();
        (stats.hits, stats.misses, stats.evictions)
    }

    /// Zero the plan-cache hit/miss/eviction counters (cached plans stay).
    /// Lets tests and monitoring windows measure deltas instead of
    /// process-lifetime totals.
    pub fn reset_plan_cache_stats(&self) {
        self.plan_cache.reset_stats();
    }

    /// Test seam: replace the cached plan for statements of `sql`'s shape (if
    /// any) with a mutated copy, returning whether an entry was found. The
    /// plan-corruption harness uses this to prove each verifier invariant
    /// class fires; it has no other callers.
    #[doc(hidden)]
    pub fn mutate_cached_plan(&self, sql: &str, mutate: &mut dyn FnMut(&mut PhysPlan)) -> bool {
        self.plan_cache.mutate(sql, mutate)
    }

    /// The engine's telemetry registry (shared with the WAL and BornSQL
    /// model handles).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Whether a transaction started with `BEGIN` is open.
    pub fn in_transaction(&self) -> bool {
        self.txn_backup.lock().is_some()
    }

    pub fn config(&self) -> EngineConfig {
        self.config
    }

    // ------------------------------------------------------------------
    // Entry points
    // ------------------------------------------------------------------

    /// Execute one statement without parameters.
    pub fn execute(&self, sql: &str) -> Result<StatementResult> {
        self.execute_with(sql, &[])
    }

    /// Execute one statement with positional parameters (`?`, `?1`).
    ///
    /// Queries go through the plan cache (when enabled): a hit skips parsing
    /// and planning entirely. Parameterized queries are cached as plan
    /// *templates* — `?` markers stay symbolic in the cached tree and each
    /// execution substitutes its values into a fresh copy — except where a
    /// parameter's value is consumed at plan time (`LIMIT ?`, parameters
    /// inside subquery bodies), which plan inline and stay uncached. A query written with literals
    /// is cached the same way: its literals are lifted into parameters
    /// (see [`crate::lift`]), so texts that differ only in literal values
    /// share one template.
    pub fn execute_with(&self, sql: &str, params: &[Value]) -> Result<StatementResult> {
        let cache = self.cache_use();
        self.run_statement(sql, Entry::Text, params, cache, false)
            .map(|(result, _)| result)
    }

    /// Execute a semicolon-separated script; returns the last statement's
    /// result. Each statement runs (and is logged) individually — spans
    /// recover the original text — so script-driven clients show up in
    /// `sys.query_log` like everyone else. Script statements do not use the
    /// plan cache.
    pub fn execute_script(&self, sql: &str) -> Result<StatementResult> {
        let mut last = StatementResult::Affected(0);
        for (stmt, span) in &parse_script_spanned(sql)? {
            let text = sql
                .get(span.start as usize..span.end as usize)
                .unwrap_or(sql)
                .trim();
            (last, _) =
                self.run_statement(text, Entry::Parsed(stmt), &[], CacheUse::Bypass, false)?;
        }
        Ok(last)
    }

    /// Run a `SELECT` and return its rows.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.execute(sql)?.into_rows()
    }

    /// Run a `SELECT` with parameters.
    pub fn query_with(&self, sql: &str, params: &[Value]) -> Result<QueryResult> {
        self.execute_with(sql, params)?.into_rows()
    }

    /// Run a `SELECT` expected to return a single scalar.
    pub fn query_scalar(&self, sql: &str) -> Result<Value> {
        let r = self.query(sql)?;
        r.scalar()
            .cloned()
            .ok_or_else(|| EngineError::exec("query returned no rows"))
    }

    /// Run a `SELECT` and also return the per-operator runtime statistics
    /// tree (rows in/out and elapsed time per operator). A statement like
    /// any other — logged, counted, traced — except that it leaves the plan
    /// cache and its counters alone (see [`CacheUse::Peek`]).
    pub fn query_analyzed(&self, sql: &str) -> Result<(QueryResult, OpStats)> {
        let cache = match self.cache_use() {
            CacheUse::Serve => CacheUse::Peek,
            other => other,
        };
        let (result, stats) = self.run_statement(sql, Entry::Text, &[], cache, true)?;
        Ok((
            result.into_rows()?,
            stats.expect("analyzed queries return stats"),
        ))
    }

    /// Execute a query and render its `EXPLAIN ANALYZE` tree.
    pub fn explain_analyze(&self, sql: &str) -> Result<String> {
        let (_, stats) = self.query_analyzed(sql)?;
        Ok(crate::explain::render_analyze(&stats))
    }

    /// Parse a statement once for repeated execution with different
    /// parameters. Queries additionally go through the plan cache: the first
    /// execution plans once (keeping `?` markers symbolic) and caches the
    /// template; later executions bind their parameter values into the
    /// cached tree until a catalog write invalidates it.
    pub fn prepare(&self, sql: &str) -> Result<Prepared<'_>> {
        let stmt = parse_statement(sql)?;
        self.analyze_statement(&stmt)?;
        Ok(Prepared {
            db: self,
            sql: sql.to_string(),
            stmt,
        })
    }

    /// Statically check a statement against the current catalog without
    /// planning or executing it. Returns the typed output schema for
    /// queries (empty for DML/DDL). All execution entry points run the same
    /// analysis first, so a statement rejected here never executes.
    pub fn check(&self, sql: &str) -> Result<crate::sema::CheckReport> {
        let stmt = parse_statement(sql)?;
        let catalog = self.catalog.read();
        crate::sema::check_statement(&catalog, &stmt)
    }

    fn analyze_statement(&self, stmt: &Statement) -> Result<()> {
        let catalog = self.catalog.read();
        crate::sema::check_statement(&catalog, stmt).map(|_| ())
    }

    /// Render the physical plan of a query (an `EXPLAIN` equivalent).
    pub fn explain(&self, sql: &str) -> Result<String> {
        let stmt = parse_statement(sql)?;
        let Statement::Query(query) = stmt else {
            return Err(EngineError::plan("EXPLAIN supports only SELECT queries"));
        };
        crate::sema::check_query(&self.catalog.read(), &query)?;
        let exec = governed(ExecContext::serial(), self.deadline(), &self.budget());
        let (planned, _) = self.plan_query(sql, &query, &[], false, PlanVerify::Enforce, exec)?;
        Ok(crate::explain::render_plan(&planned.plan))
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.catalog.read().table_names()
    }

    /// Number of rows in a table.
    pub fn table_rows(&self, name: &str) -> Result<usize> {
        Ok(self.catalog.read().get(name)?.row_count())
    }

    /// Whether a table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.catalog.read().contains(name)
    }

    /// Dump a table's schema, primary-key columns, and rows (used by
    /// snapshots).
    pub fn dump_table(&self, name: &str) -> Result<(Schema, Vec<String>, Arc<Vec<Row>>)> {
        let catalog = self.catalog.read();
        let t = catalog.get(name)?;
        Ok((t.schema.clone(), t.primary_key_names(), Arc::clone(&t.rows)))
    }

    /// The catalog under a read lock (snapshots capture every table
    /// under one).
    pub(crate) fn read_catalog(&self) -> RwLockReadGuard<'_, Catalog> {
        self.catalog.read()
    }

    // ------------------------------------------------------------------
    // The statement driver
    // ------------------------------------------------------------------

    /// Plan-cache use of a statement that came in as text.
    fn cache_use(&self) -> CacheUse {
        if self.config.plan_cache {
            CacheUse::Serve
        } else {
            CacheUse::Bypass
        }
    }

    /// Run one statement through its whole lifecycle. `analyze` asks for the
    /// operator statistics tree of a query (and refuses anything else).
    fn run_statement(
        &self,
        sql: &str,
        entry: Entry<'_>,
        params: &[Value],
        cache: CacheUse,
        analyze: bool,
    ) -> Result<Outcome> {
        let (mut ctx, admitted) = self.begin();
        let result =
            admitted.and_then(|()| self.stages(sql, entry, params, cache, analyze, &mut ctx));
        self.finish(ctx, sql, result)
    }

    /// The statement's deadline, `statement_timeout` from now.
    fn deadline(&self) -> Option<Instant> {
        self.config
            .statement_timeout
            .map(|limit| Instant::now() + limit)
    }

    /// A fresh memory budget for one statement, per `memory_budget`.
    fn budget(&self) -> Arc<MemoryBudget> {
        Arc::new(match self.config.memory_budget {
            Some(limit) => MemoryBudget::limited(limit),
            None => MemoryBudget::unlimited(),
        })
    }

    /// Pass the admission gate (which may queue or shed). Dropping the permit
    /// — normally, or during a panic unwind — releases the slot.
    fn admit(&self, deadline: Option<Instant>) -> Result<Option<AdmissionPermit>> {
        self.admission
            .as_ref()
            .map(|gate| gate.admit(deadline))
            .transpose()
    }

    /// Stage `begin`: deadline → clock (and trace) origin → admission →
    /// budget. The origin predates admission so queue wait lands inside the
    /// statement's total and span tree. A shed statement still gets its
    /// context, so that `finish` logs it.
    fn begin(&self) -> (StatementCtx, Result<()>) {
        let deadline = self.deadline();
        let enabled = self.telemetry.enabled();
        let mut clock = PhaseClock::start(enabled, enabled && self.config.trace_sampling.is_on());
        let (permit, admitted) = match self.admit(deadline) {
            Ok(permit) => (permit, Ok(())),
            Err(e) => (None, Err(e)),
        };
        clock.admitted(permit.as_ref().and_then(AdmissionPermit::queue_wait));
        let ctx = StatementCtx {
            deadline,
            budget: self.budget(),
            clock,
            permit,
        };
        (ctx, admitted)
    }

    /// Stages `parse` → `check` → `plan_or_fetch` → `bind` → `run`, joined
    /// at `entry`. A cache hit goes straight from the lookup to `bind`.
    fn stages(
        &self,
        sql: &str,
        entry: Entry<'_>,
        params: &[Value],
        cache: CacheUse,
        analyze: bool,
        ctx: &mut StatementCtx,
    ) -> Result<Outcome> {
        // The one scan of the text: its cache identity serves the lookup
        // and, on a miss, the store. A text without one (it does not lex, or
        // it reads `sys.*`) runs outside the cache.
        let shape = match cache {
            CacheUse::Bypass => None,
            _ => scan_shape(sql),
        };
        let planned = match self.fetch(sql, shape.as_ref(), cache, ctx)? {
            Some(hit) => hit,
            None => {
                let parsed;
                let stmt = match entry {
                    Entry::Text => {
                        let result = parse_statement(sql);
                        ctx.clock.lap(Phase::Parse);
                        parsed = result?;
                        &parsed
                    }
                    Entry::Parsed(stmt) | Entry::Checked(stmt) => stmt,
                };
                if !matches!(entry, Entry::Checked(_)) {
                    let checked = self.analyze_statement(stmt);
                    ctx.clock.lap(Phase::Sema);
                    checked?;
                }
                match stmt {
                    Statement::Query(query) => {
                        let store = shape.filter(|_| cache == CacheUse::Serve);
                        self.plan_stage(sql, query, params, store, PlanVerify::Enforce, ctx)?
                    }
                    _ if analyze => {
                        return Err(EngineError::plan("ANALYZE supports only SELECT queries"))
                    }
                    // Everything else interleaves its work with catalog
                    // reads and writes; the whole tail is the exec phase.
                    other => {
                        return Self::run(ctx, |ctx| {
                            let result = match other {
                                Statement::Explain { mode, query } => StatementResult::Rows(
                                    self.explain_statement(sql, *mode, query, params, ctx)?,
                                ),
                                _ => self.apply(sql, other, params, ctx)?,
                            };
                            Ok((result, None))
                        })
                    }
                }
            }
        };
        Self::run(ctx, |ctx| {
            let (rows, stats) = self.bind_and_run(&planned, params, analyze, ctx)?;
            Ok((StatementResult::Rows(rows), stats))
        })
    }

    /// Stage `plan_or_fetch`, the fetch half: look the statement's shape up
    /// in the plan cache and vet the hit with the (memoized) verifier. On a
    /// hit the scan, the lookup and the verifier's walk *are* the plan
    /// phase; on a miss scan and lookup are charged to no phase.
    fn fetch(
        &self,
        sql: &str,
        shape: Option<&Shape>,
        cache: CacheUse,
        ctx: &mut StatementCtx,
    ) -> Result<Option<Planned>> {
        let Some(shape) = shape else {
            return Ok(None);
        };
        let Some(hit) = self.plan_cache.lookup(shape, self.catalog_version(), cache) else {
            ctx.clock.skip();
            return Ok(None);
        };
        ctx.clock.cache_hit = true;
        let verified = self.verify_cached(&hit, sql);
        ctx.clock.lap_plan(Some(&hit.planned.plan));
        verified?;
        Ok(Some(Planned {
            query: hit.planned,
            template: hit.template,
            lifted: hit.lifted,
        }))
    }

    /// Stage `plan_or_fetch`, the plan half: plan (and verify) `query`,
    /// close the plan phase, and store the plan under `store`, the shape of a
    /// statement that serves from the cache. A stored plan is a reusable
    /// template wherever the statement allows it: explicit `?` markers stay
    /// symbolic when none sits where the planner needs its value (otherwise
    /// the statement plans inline and stays uncached), and a statement
    /// without markers has its liftable literals turned into some. Every
    /// other plan has its parameters bound in.
    fn plan_stage(
        &self,
        sql: &str,
        query: &Query,
        params: &[Value],
        store: Option<Shape>,
        verify: PlanVerify<'_>,
        ctx: &mut StatementCtx,
    ) -> Result<Planned> {
        let params_used = param_use(query);
        let has_params = params_used != ParamUse::None;
        let store = store.filter(|_| params_used != ParamUse::PlanTime);
        // Read before planning: a plan that races a writer must carry the
        // pre-write version (see `PlanCache::insert`).
        let version = self.catalog_version();
        let prepared;
        let (mut slots, mut lifted) = (Vec::new(), Vec::new());
        let query = if let Some(shape) = &store {
            // Fold constant expressions once here so the cached plan — the
            // serving hot path — embeds pre-evaluated literals; what is still
            // a literal after that can be lifted. (A text with `?` markers
            // has no literals in its shape.)
            let mut query = query.clone();
            crate::sema::fold::fold_query(&mut query);
            (slots, lifted) = crate::lift::lift_literals(&mut query, &shape.literals);
            prepared = query;
            &prepared
        } else {
            query
        };
        let lifted = (!lifted.is_empty()).then_some(lifted);
        let template = store.is_some() && (has_params || lifted.is_some());
        // A template's parameters stay symbolic: it is planned without values.
        let plan_params = if template { &[] } else { params };
        let exec = ctx.planner_exec();
        let planned = self.plan_query(sql, query, plan_params, template, verify, exec);
        ctx.clock
            .lap_plan(planned.as_ref().ok().map(|(planned, _)| &planned.plan));
        let (planned, used_virtual) = planned?;
        let planned = Arc::new(planned);
        // Plans over `sys.*` embed point-in-time telemetry rows; serving one
        // from the cache would freeze the metrics. (The shape scan already
        // keeps `sys.` text out; this is the backstop.)
        if let Some(shape) = store.filter(|_| !used_virtual) {
            // With the verifier on the plan just passed a walk at `version`,
            // so the first hit can skip straight to execution.
            self.plan_cache.insert(
                shape.key,
                slots,
                version,
                Arc::clone(&planned),
                template,
                self.config.verify_plans,
            );
        }
        Ok(Planned {
            query: planned,
            template,
            lifted,
        })
    }

    /// The one place a query is planned: under the catalog read lock, with
    /// the joins narrowed to the columns read above them
    /// ([`crate::plan::narrow_joins`]) and the verifier run under that same
    /// lock so its snapshot-identity checks compare against the exact
    /// catalog state the plan captured. With
    /// `template` set, `?` markers stay [`crate::expr::PhysExpr::Param`]
    /// nodes. What the planner executes itself runs under `exec`. Also
    /// reports whether the plan reads a virtual `sys.*` table.
    fn plan_query(
        &self,
        sql: &str,
        query: &Query,
        params: &[Value],
        template: bool,
        verify: PlanVerify<'_>,
        exec: ExecContext,
    ) -> Result<(PlannedQuery, bool)> {
        let catalog = self.catalog.read();
        let mut planner =
            Planner::new(&catalog, params, self.config.planner(), exec).with_virtuals(self);
        if template {
            planner = planner.symbolic();
        }
        let mut planned = planner.plan_query(query)?;
        crate::plan::narrow_joins(&mut planned.plan);
        let discipline = if template {
            ParamDiscipline::Template
        } else {
            ParamDiscipline::Bound
        };
        let walk = || {
            crate::verify::verify_planned(
                &planned,
                Some(&catalog),
                SnapshotGuarantee::Current,
                discipline,
            )
        };
        match verify {
            PlanVerify::Report(out) => {
                let report = walk();
                self.record_verify(&report);
                *out = Some(report);
            }
            PlanVerify::Enforce if self.config.verify_plans => {
                self.verify_outcome(walk(), discipline, sql)?;
            }
            PlanVerify::Enforce => {}
        }
        let used_virtual = planner.used_virtual();
        Ok((planned, used_virtual))
    }

    /// Record a verifier run in telemetry and convert its violations into a
    /// spanned [`EngineError::Verify`] covering the statement text.
    ///
    /// Template-discipline `param-slots` findings (a `?` slot gap, e.g.
    /// `SELECT ?3` never consuming slots 1–2) are surfaced through the
    /// `verify.violations` counter and `EXPLAIN (VERIFY)` but do not abort
    /// the statement: under-binding is reported at bind time as the clearer
    /// [`EngineError::Parameter`], and over-binding keeps its historical
    /// permissiveness.
    fn verify_outcome(
        &self,
        mut report: VerifyReport,
        discipline: ParamDiscipline,
        sql: &str,
    ) -> Result<()> {
        self.record_verify(&report);
        if discipline == ParamDiscipline::Template {
            report
                .violations
                .retain(|v| v.rule != VerifyRule::ParamSlots);
        }
        report.into_result(Span::new(0, sql.len()))
    }

    fn record_verify(&self, report: &VerifyReport) {
        if self.telemetry.enabled() {
            self.telemetry.verify_plans_checked.incr();
            self.telemetry
                .verify_violations
                .add(report.violations.len() as u64);
        }
    }

    /// Verify a plan served from the cache. Templates are checked under
    /// [`ParamDiscipline::Template`]; the snapshot-identity checks only run
    /// while the live catalog version still equals the entry's under the
    /// read lock — a writer that advanced the catalog after the lookup
    /// makes the entry stale-but-harmless (the next lookup replans), not a
    /// violation.
    ///
    /// The walk is memoized per catalog version on the entry: the cached
    /// tree is immutable and the verdict is deterministic in (plan, catalog
    /// version), so only the first hit after a plan insert, a catalog
    /// change, or a marker reset pays for the walk.
    fn verify_cached(&self, hit: &CacheHit, sql: &str) -> Result<()> {
        if !self.config.verify_plans {
            return Ok(());
        }
        let discipline = if hit.template {
            ParamDiscipline::Template
        } else {
            ParamDiscipline::Bound
        };
        let (report, current) = {
            let catalog = self.catalog.read();
            let current = self.catalog_version();
            if hit.verified_at(current) {
                return Ok(());
            }
            let (catalog, guarantee) = if current == hit.version {
                (Some(&*catalog), SnapshotGuarantee::Current)
            } else {
                (None, SnapshotGuarantee::MayLag)
            };
            let report =
                crate::verify::verify_planned(&hit.planned, catalog, guarantee, discipline);
            (report, current)
        };
        self.verify_outcome(report, discipline, sql)?;
        hit.mark_verified(current);
        Ok(())
    }

    /// Stage `run`: `body` is the statement's exec phase. This is the one
    /// place the exec phase (and span) is closed; operator subtrees and WAL
    /// waits recorded by `body` attach beneath it.
    fn run<T>(
        ctx: &mut StatementCtx,
        body: impl FnOnce(&mut StatementCtx) -> Result<T>,
    ) -> Result<T> {
        let result = body(ctx);
        ctx.clock.lap(Phase::Exec);
        result
    }

    /// Stage `bind`, then execute: templates bind their parameter values
    /// into a fresh plan tree first, parameterless plans run as-is.
    fn bind_and_run(
        &self,
        planned: &Planned,
        params: &[Value],
        want_stats: bool,
        ctx: &StatementCtx,
    ) -> Result<(QueryResult, Option<OpStats>)> {
        let bound;
        let plan = if planned.template {
            let params = planned.lifted.as_deref().unwrap_or(params);
            bound = crate::plan::bind_plan_params(&planned.query.plan, params)?;
            &bound
        } else {
            &planned.query.plan
        };
        self.record_plan_modes(plan);
        let (rows, stats) = self.run_plan(plan, want_stats, ctx)?;
        let result = QueryResult {
            columns: planned.query.columns.clone(),
            rows,
        };
        Ok((result, stats))
    }

    /// Turn a plan into rows. Untraced statements that want no statistics
    /// take the plain executor path; otherwise the plan runs with stats
    /// collection, and a traced statement records the per-operator subtree
    /// beneath its exec span (the same `OpStats` tree `EXPLAIN ANALYZE`
    /// renders, so the two agree by construction).
    fn run_plan(
        &self,
        plan: &PhysPlan,
        want_stats: bool,
        ctx: &StatementCtx,
    ) -> Result<(Vec<Row>, Option<OpStats>)> {
        let exec = self.exec_ctx(ctx);
        if !want_stats && !ctx.clock.traced() {
            return Ok((exec.execute(plan)?, None));
        }
        let (rows, stats) = exec.execute_with_stats(plan)?;
        ctx.clock.record_op_tree(&stats);
        if want_stats {
            self.telemetry.record_op_stats(&stats);
        }
        Ok((rows, Some(stats)))
    }

    /// Count how many hash joins of an executed plan probe a base-table scan
    /// through its derived index vs row by row (surfaced as
    /// `exec.keyset_index_probes` / `exec.keyset_row_probes` in
    /// `sys.metrics`).
    fn record_plan_modes(&self, plan: &PhysPlan) {
        if !self.telemetry.enabled() {
            return;
        }
        let (index, row) = crate::exec::count_modes(plan);
        self.telemetry.keyset_index_probes.add(index);
        self.telemetry.keyset_row_probes.add(row);
    }

    /// The execution context queries run under: the configured parallelism
    /// plus the shared worker pool, carrying the statement's deadline and
    /// memory budget.
    fn exec_ctx(&self, stmt: &StatementCtx) -> ExecContext {
        let ctx = match &self.pool {
            Some(pool) => ExecContext::with_pool(self.config.parallelism, Arc::clone(pool)),
            None => ExecContext::serial(),
        };
        // Telemetry on the context feeds the `worker_idle` wait-class rollup
        // (time a fan-out waits for its workers' last morsels; recorded only
        // when work fans out, so serial execution stays clock-free) and
        // the `exec.join.probe_rows_pruned` / `exec.join.build_rows` /
        // `exec.rows_materialized` counters.
        let ctx = if self.telemetry.enabled() {
            ctx.with_telemetry(Arc::clone(&self.telemetry))
        } else {
            ctx
        };
        governed(ctx, stmt.deadline, &stmt.budget)
    }

    /// Stage `finish`: report the statement to the telemetry registry —
    /// per-variant error counters, budget-abort counter, and the query-log
    /// row with the statement's phase totals, peak operator memory and wait
    /// totals — then make the trace keep decision (errors and slow
    /// statements always, the rest per the sampler) and store a kept trace,
    /// rooted in the `statement` span, in the `sys.trace_spans` ring.
    fn finish(&self, mut ctx: StatementCtx, sql: &str, result: Result<Outcome>) -> Result<Outcome> {
        // The slot frees before the bookkeeping, not after it.
        drop(ctx.permit.take());
        let result = result.map_err(|e| e.with_statement_span(sql));
        if let Err(e) = &result {
            self.telemetry.record_error(e);
            if self.telemetry.enabled() && matches!(e, EngineError::ResourceExhausted { .. }) {
                self.telemetry.mem_budget_aborts.incr();
            }
        }
        if ctx.clock.enabled() {
            let (status, error, rows) = match &result {
                Ok((r, _)) => (QueryStatus::Ok, None, r.affected() as u64),
                Err(e @ EngineError::Timeout) => (QueryStatus::Timeout, Some(e.to_string()), 0),
                Err(e) => (QueryStatus::Error, Some(e.to_string()), 0),
            };
            let peak_mem = ctx.budget.peak_bytes();
            let id = self
                .telemetry
                .record_statement(&ctx.clock, sql, status, error, rows, peak_mem);
            let error_or_slow = result.is_err() || self.telemetry.is_slow(ctx.clock.total_us());
            if let (Some(id), Some(spans)) = (id, ctx.clock.into_spans()) {
                if self.config.trace_sampling.keep(id, error_or_slow) {
                    self.telemetry.store_trace(StatementTrace {
                        statement_id: id,
                        spans,
                    });
                }
            }
        }
        result
    }

    /// `EXPLAIN` in all its modes. The target query joins the lifecycle at
    /// the plan stage, on this statement's clock — except under
    /// `EXPLAIN (TRACE)`, which gives it a clock of its own.
    fn explain_statement(
        &self,
        sql: &str,
        mode: ExplainMode,
        query: &Query,
        params: &[Value],
        ctx: &mut StatementCtx,
    ) -> Result<QueryResult> {
        if mode == ExplainMode::Check {
            // Semantic analysis only: report the typed output schema
            // without planning or executing anything.
            let report = crate::sema::check_query(&self.catalog.read(), query)?;
            return Ok(QueryResult {
                columns: vec!["column".to_string(), "type".to_string()],
                rows: report
                    .columns
                    .into_iter()
                    .map(|(name, ty)| {
                        vec![Value::Str(name.into()), Value::Str(ty.to_string().into())]
                    })
                    .collect(),
            });
        }
        let mut local = (mode == ExplainMode::Trace).then(|| ctx.local_trace());
        let ctx = local.as_mut().unwrap_or(ctx);
        // `EXPLAIN (VERIFY)` is an explicit request: the verifier runs
        // whether or not `verify_plans` is on, and violations are the
        // result. The executing modes vet the plan first whenever the
        // verifier is on, so a rejected plan is reported instead of run.
        let mut report = None;
        let verify = match mode {
            ExplainMode::Verify => PlanVerify::Report(&mut report),
            _ => PlanVerify::Enforce,
        };
        let planned = self.plan_stage(sql, query, params, None, verify, ctx)?;
        let (column, rendered) = match mode {
            ExplainMode::Verify => {
                let report = report.expect("the plan stage fills in the requested report");
                return Ok(QueryResult {
                    columns: vec![
                        "check".to_string(),
                        "status".to_string(),
                        "detail".to_string(),
                    ],
                    rows: report.rows(),
                });
            }
            ExplainMode::Analyze => {
                let (_, stats) = self.bind_and_run(&planned, params, true, ctx)?;
                let stats = stats.expect("stats were requested");
                ("plan", crate::explain::render_analyze(&stats))
            }
            ExplainMode::Trace => {
                Self::run(ctx, |ctx| self.bind_and_run(&planned, params, true, ctx))?;
                let spans = local.and_then(|local| local.clock.into_spans());
                (
                    "trace",
                    crate::explain::render_trace(&spans.unwrap_or_default()),
                )
            }
            _ => ("plan", crate::explain::render_plan(&planned.query.plan)),
        };
        Ok(QueryResult::lines(column, &rendered))
    }
}

impl VirtualTables for Database {
    fn virtual_table(&self, catalog: &Catalog, name: &str) -> Option<(Schema, Arc<Vec<Row>>)> {
        sys::materialize(name, &self.telemetry, catalog, || sys::EngineGauges {
            plan_cache: self.plan_cache.stats(),
            plan_cache_entries: self.plan_cache.len(),
            catalog_version: self.catalog_version(),
            wal_bytes: self.wal_bytes().unwrap_or(0),
            wal_degraded: self.wal.as_ref().is_some_and(Wal::degraded),
        })
    }
}

/// A statement parsed once, executable many times with fresh parameters.
pub struct Prepared<'db> {
    db: &'db Database,
    sql: String,
    stmt: Statement,
}

impl Prepared<'_> {
    /// Execute with the given parameters. Joins the lifecycle past parse and
    /// check (done at prepare time) and otherwise drives the plan cache —
    /// lookups, hits, misses — exactly as [`Database::execute_with`] does.
    pub fn execute(&self, params: &[Value]) -> Result<StatementResult> {
        let cache = self.db.cache_use();
        self.db
            .run_statement(&self.sql, Entry::Checked(&self.stmt), params, cache, false)
            .map(|(result, _)| result)
    }

    /// Execute and return rows.
    pub fn query(&self, params: &[Value]) -> Result<QueryResult> {
        self.execute(params)?.into_rows()
    }
}
