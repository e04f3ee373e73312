//! # sqlengine — an embedded, from-scratch relational SQL engine
//!
//! This crate is the DBMS substrate for the BornSQL reproduction (see the
//! workspace `DESIGN.md`). It implements, in pure Rust with no external SQL
//! dependencies:
//!
//! * a lexer, recursive-descent parser, and AST for a practical SQL subset
//!   (`SELECT` with CTEs, joins, `GROUP BY`/`HAVING`, window `ROW_NUMBER`,
//!   `UNION [ALL]`, `ORDER BY`/`LIMIT`; `CREATE TABLE`/`INDEX`;
//!   `INSERT ... ON CONFLICT DO UPDATE`, also spelled MySQL's way,
//!   `ON DUPLICATE KEY UPDATE`; `UPDATE`; `DELETE`);
//! * an index-aware planner with predicate pushdown, equi-join detection
//!   (hash joins), CTEs inlined when read once and run once for all their
//!   references otherwise (`PhysPlan::Shared`), index-scan
//!   selection for equality and `IN`-list predicates, and a cost-gated
//!   index-nested-loop join for small probes against indexed tables;
//! * a push-based row executor (one module per operator family) with hash
//!   joins, index scans/joins, hash aggregation, window and sort operators,
//!   morsel-driven pipelines over a worker pool (`EngineConfig::parallelism`,
//!   the host's cores by default), and per-operator runtime statistics
//!   surfaced through `EXPLAIN ANALYZE`;
//! * an in-memory catalog with maintained primary-key (unique) and
//!   secondary indexes (`CREATE [UNIQUE] INDEX`), kept up to date
//!   incrementally across `INSERT`/`UPDATE`/`DELETE` and used by the
//!   planner for point and multi-point lookups, plus *derived* key indexes
//!   (`catalog::DerivedIndexes`): a hash join with few build keys finds the
//!   rows of the table it probes through an index of the probed column,
//!   built on first use and never logged (`EngineConfig::vectorized`,
//!   default on; `EXPLAIN` prints `probe=keyset(index|row)` on such a
//!   join);
//! * a static semantic analyzer (`sema`) that runs between parsing and
//!   planning on every execution path: scoped name resolution, bottom-up
//!   type inference from declared column types, aggregate/window placement
//!   rules, and constant folding, all reported as spanned diagnostics
//!   before anything executes (`Database::check`, `EXPLAIN (CHECK)`);
//! * a plan cache keyed by statement shape and catalog version: literals
//!   are lifted into parameters, so repeated queries that differ only in
//!   literal values (the model-serving hot path) skip parsing and planning
//!   entirely, and any DDL/DML invalidates stale entries;
//! * a durability subsystem (`wal`): a CRC-framed write-ahead log of
//!   committed logical changes over an injectable [`StorageIo`] backend,
//!   checkpointing, and crash recovery that replays the log and truncates
//!   torn tails (`Database::open` / `Database::persistent`), plus
//!   fault-injection storage (`MemIo`, `FaultyIo`) for crash-consistency
//!   tests;
//! * a post-planning static plan verifier (`verify`) that walks every
//!   physical plan against the sema-typed output scope and the live
//!   catalog, checking five invariant classes (output schema, index-key
//!   integrity, derived-index probes, parameter-slot discipline,
//!   deterministic-merge arity). It runs on every plan in debug builds and
//!   behind `EngineConfig::verify_plans` otherwise, and is surfaced through
//!   `EXPLAIN (VERIFY)` plus `verify.*` counters in `sys.metrics`;
//! * a hierarchical statement tracer (`trace`): sampled per-statement span
//!   trees with wait-state attribution (admission queue, group-commit fsync
//!   leader/follower, WAL retry backoff, worker-pool idle), captured under
//!   `EngineConfig::trace_sampling` and queryable as `sys.trace_spans` /
//!   `sys.wait_events`, with `EXPLAIN (TRACE)` rendering the span tree
//!   inline.
//!
//! ## Durability quick-start
//!
//! ```no_run
//! use sqlengine::{Database, EngineConfig, SyncPolicy};
//!
//! let db = Database::open(
//!     "data/mydb",
//!     EngineConfig::default().with_wal_sync(SyncPolicy::Always),
//! ).unwrap();
//! db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)").unwrap();
//! db.execute("INSERT INTO t VALUES (1, 'hello')").unwrap();
//! // Reopening after a crash replays the write-ahead log.
//! drop(db);
//! let db = Database::persistent("data/mydb").unwrap();
//! assert_eq!(db.table_rows("t").unwrap(), 1);
//! ```
//!
//! ## Quick example
//!
//! ```
//! use sqlengine::{Database, Value};
//!
//! let db = Database::new();
//! db.execute("CREATE TABLE t (n INTEGER, w REAL)").unwrap();
//! db.execute("INSERT INTO t VALUES (1, 0.5), (1, 1.5), (2, 4.0)").unwrap();
//! let r = db.query("SELECT n, SUM(w) AS w FROM t GROUP BY n ORDER BY n").unwrap();
//! assert_eq!(r.rows[0], vec![Value::Int(1), Value::Float(2.0)]);
//! assert_eq!(r.rows[1], vec![Value::Int(2), Value::Float(4.0)]);
//! ```

#![forbid(unsafe_code)]

pub(crate) mod admission;
pub mod ast;
pub mod catalog;
pub mod config;
pub mod csv;
pub mod engine;
pub mod error;
pub mod exec;
pub mod explain;
pub mod expr;
pub mod json;
pub mod lexer;
pub(crate) mod lift;
pub(crate) mod logical;
pub mod parser;
pub mod plan;
pub(crate) mod plan_cache;
pub mod sema;
pub mod snapshot;
pub(crate) mod sync;
pub mod telemetry;
pub mod trace;
pub mod value;
pub mod verify;
pub mod wal;

pub use ast::ExplainMode;
pub use config::EngineConfig;
pub use engine::{Database, Prepared, QueryResult, StatementResult};
pub use error::{EngineError, Result, Span};
pub use exec::{ExecContext, MemoryBudget, OpStats, WorkerPool};
pub use plan::JoinAlgo;
pub use sema::CheckReport;
pub use snapshot::Snapshot;
pub use telemetry::{QueryLogEntry, QueryStatus, Telemetry};
pub use trace::{SpanRec, StatementTrace, TraceSampling, WaitClass};
pub use value::{DataType, Row, Value};
pub use verify::{ParamDiscipline, SnapshotGuarantee, VerifyReport, VerifyRule, Violation};
pub use wal::{FaultKind, FaultyIo, FileIo, MemIo, StorageIo, SyncPolicy, WalRetry};
