//! Crash-consistency and fault-injection tests for the durability subsystem.
//!
//! The central property: **every** crash point yields a recovered database
//! whose state is exactly the state after some prefix of the committed
//! batches — never a torn record, never a panic, never a half-applied
//! statement. The tests drive the same `Database` API applications use,
//! against the in-memory and failpoint storage backends.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use sqlengine::wal::WAL_FILE;
use sqlengine::{
    Database, EngineConfig, EngineError, FaultKind, FaultyIo, MemIo, Snapshot, StorageIo,
    SyncPolicy, Value,
};

/// A durable database over the given backend, fsync on every batch, no
/// automatic checkpointing (tests drive checkpoints explicitly).
fn open_always(io: Arc<dyn StorageIo>) -> Database {
    Database::open_with_io(
        io,
        EngineConfig::default()
            .with_wal_sync(SyncPolicy::Always)
            .with_checkpoint_after_bytes(0),
    )
    .unwrap()
}

/// Canonical JSON of the database's entire logical state.
fn state_json(db: &Database) -> String {
    Snapshot::capture(db).unwrap().to_json().unwrap()
}

/// The mutating workload the crash tests run: one WAL batch per entry.
/// Exercises every op kind (create/drop table, create index, insert,
/// upsert-replace, delete) plus an explicit transaction.
const WORKLOAD: &[&str] = &[
    "CREATE TABLE t (id INTEGER PRIMARY KEY, tag TEXT, w REAL)",
    "INSERT INTO t VALUES (1, 'a', 0.5), (2, 'b', 1.5), (3, 'a', 2.5)",
    "CREATE INDEX t_tag ON t (tag)",
    "UPDATE t SET w = w * 2.0 WHERE tag = 'a'",
    "INSERT INTO t VALUES (2, 'b', 9.0) ON CONFLICT (id) DO UPDATE SET w = t.w + excluded.w",
    "DELETE FROM t WHERE id = 3",
    "CREATE TABLE u AS SELECT tag, COUNT(*) AS n FROM t GROUP BY tag",
    "INSERT INTO t VALUES (10, 'c', 0.25), (11, 'c', 0.75)",
    "DROP TABLE u",
    "BEGIN; INSERT INTO t VALUES (20, 'd', 4.0); UPDATE t SET w = 0.0 WHERE id = 1; COMMIT;",
    "INSERT INTO t SELECT id + 100, tag, w FROM t WHERE tag = 'c'",
];

/// Run the workload, returning the expected state after each completed
/// batch: `states[i]` is the state once `i` batches are durable.
fn run_workload(db: &Database) -> Vec<String> {
    let mut states = vec![state_json(db)];
    for sql in WORKLOAD {
        db.execute_script(sql).unwrap();
        states.push(state_json(db));
    }
    states
}

#[test]
fn every_wal_prefix_recovers_to_a_batch_boundary() {
    let io = Arc::new(MemIo::new());
    let db = open_always(Arc::clone(&io) as Arc<dyn StorageIo>);
    let states = run_workload(&db);

    let wal = io.read(WAL_FILE).unwrap().unwrap();
    let bounds = sqlengine::wal::frame_boundaries(&wal);
    assert_eq!(
        bounds.len(),
        WORKLOAD.len(),
        "each workload entry must produce exactly one batch"
    );

    // Kill the log at every byte: recovery must land exactly on the state
    // after the last complete frame, and must itself truncate the tail.
    for cut in 0..=wal.len() {
        let files: HashMap<String, Vec<u8>> =
            HashMap::from([(WAL_FILE.to_string(), wal[..cut].to_vec())]);
        let io = Arc::new(MemIo::from_files(files));
        let recovered = open_always(Arc::clone(&io) as Arc<dyn StorageIo>);
        let n_complete = bounds.iter().filter(|(_, end, _)| *end <= cut).count();
        assert_eq!(
            state_json(&recovered),
            states[n_complete],
            "cut at byte {cut}: expected the state after {n_complete} batches"
        );
        // The torn tail is gone from storage.
        let len = io.size(WAL_FILE).unwrap() as usize;
        assert!(len <= cut, "recovery must never grow the log");
        // Sampled (for runtime): the recovered database accepts new writes
        // and a further reopen sees them — sequence numbers stayed coherent.
        if cut % 251 == 0 && n_complete >= 1 {
            recovered
                .execute("INSERT INTO t VALUES (900, 'z', 1.0)")
                .unwrap();
            let reopened = open_always(Arc::new(MemIo::from_files(io.process_crash_files())));
            let has = reopened
                .query_scalar("SELECT COUNT(*) FROM t WHERE id = 900")
                .unwrap();
            assert_eq!(has, Value::Int(1), "cut at byte {cut}");
        }
    }
}

#[test]
fn process_crash_at_every_write_is_prefix_consistent() {
    // Reference run: what the states after each batch look like.
    let reference = {
        let io = Arc::new(MemIo::new());
        let db = open_always(Arc::clone(&io) as Arc<dyn StorageIo>);
        run_workload(&db)
    };

    // Crash at the nth storage write, for every n until the workload runs
    // fault-free. The workload stops at the first error (as a real process
    // would); the recovered state must equal some batch prefix.
    let mut crash_seen = false;
    for n in 0.. {
        let io = Arc::new(FaultyIo::new());
        io.arm(n, FaultKind::Crash);
        let db = open_always(Arc::clone(&io) as Arc<dyn StorageIo>);
        let mut clean = true;
        for sql in WORKLOAD {
            if db.execute_script(sql).is_err() {
                clean = false;
                break;
            }
        }
        if clean && !io.crashed() {
            assert!(crash_seen, "failpoint never fired");
            break;
        }
        crash_seen = true;
        // "Reboot": recover from what survived the crash.
        let survivor = Arc::new(MemIo::from_files(io.process_crash_files()));
        let recovered = open_always(survivor as Arc<dyn StorageIo>);
        let state = state_json(&recovered);
        let prefix = reference.iter().position(|s| *s == state);
        assert!(
            prefix.is_some(),
            "crash at write {n}: recovered state matches no batch prefix"
        );
    }
}

/// A group-commit database: same durability contract as [`open_always`]
/// (fsync before ack), with commit coalescing enabled.
fn open_group(io: Arc<dyn StorageIo>) -> Database {
    Database::open_with_io(
        io,
        EngineConfig::default()
            .with_wal_sync(SyncPolicy::Always)
            .with_wal_group_commit(true)
            .with_checkpoint_after_bytes(0),
    )
    .unwrap()
}

#[test]
fn group_commit_every_wal_prefix_recovers_to_a_batch_boundary() {
    let io = Arc::new(MemIo::new());
    let db = open_group(Arc::clone(&io) as Arc<dyn StorageIo>);
    let states = run_workload(&db);

    let wal = io.read(WAL_FILE).unwrap().unwrap();
    let bounds = sqlengine::wal::frame_boundaries(&wal);
    assert_eq!(
        bounds.len(),
        WORKLOAD.len(),
        "serial traffic under group commit still frames one batch per statement"
    );

    // Kill the log at every byte. Even with coalesced appends, recovery must
    // land on a whole-batch prefix — never inside a group.
    for cut in 0..=wal.len() {
        let files: HashMap<String, Vec<u8>> =
            HashMap::from([(WAL_FILE.to_string(), wal[..cut].to_vec())]);
        let recovered = open_group(Arc::new(MemIo::from_files(files)));
        let n_complete = bounds.iter().filter(|(_, end, _)| *end <= cut).count();
        assert_eq!(
            state_json(&recovered),
            states[n_complete],
            "cut at byte {cut}: expected the state after {n_complete} batches"
        );
    }
}

#[test]
fn group_commit_process_crash_at_every_write_is_prefix_consistent() {
    let reference = {
        let io = Arc::new(MemIo::new());
        let db = open_group(Arc::clone(&io) as Arc<dyn StorageIo>);
        run_workload(&db)
    };

    let mut crash_seen = false;
    for n in 0.. {
        let io = Arc::new(FaultyIo::new());
        io.arm(n, FaultKind::Crash);
        let db = open_group(Arc::clone(&io) as Arc<dyn StorageIo>);
        let mut clean = true;
        for sql in WORKLOAD {
            if db.execute_script(sql).is_err() {
                clean = false;
                break;
            }
        }
        if clean && !io.crashed() {
            assert!(crash_seen, "failpoint never fired");
            break;
        }
        crash_seen = true;
        let survivor = Arc::new(MemIo::from_files(io.process_crash_files()));
        let recovered = open_group(survivor as Arc<dyn StorageIo>);
        let state = state_json(&recovered);
        let prefix = reference.iter().position(|s| *s == state);
        assert!(
            prefix.is_some(),
            "crash at write {n}: recovered state matches no batch prefix"
        );
    }
}

#[test]
fn group_commit_acked_writes_survive_concurrent_crash() {
    let io = Arc::new(MemIo::new());
    let db = open_group(Arc::clone(&io) as Arc<dyn StorageIo>);
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        .unwrap();

    // Concurrent committers: overlapping waiters are exactly what the flush
    // leader coalesces. Every insert below returned Ok, so every row was
    // acknowledged durable and must survive the crash.
    std::thread::scope(|s| {
        for w in 0..4i64 {
            let db = &db;
            s.spawn(move || {
                for i in 0..25i64 {
                    db.execute_with("INSERT INTO t VALUES (?)", &[Value::Int(w * 100 + i)])
                        .unwrap();
                }
            });
        }
    });

    let recovered = open_group(Arc::new(MemIo::from_files(io.process_crash_files())));
    assert_eq!(
        recovered.query_scalar("SELECT COUNT(*) FROM t").unwrap(),
        Value::Int(100),
        "an acknowledged commit was lost under group commit"
    );
}

#[test]
fn acked_commits_survive_power_loss_under_oncommit() {
    let io = Arc::new(MemIo::new());
    let db = Database::open_with_io(
        Arc::clone(&io) as Arc<dyn StorageIo>,
        EngineConfig::default()
            .with_wal_sync(SyncPolicy::OnCommit)
            .with_checkpoint_after_bytes(0),
    )
    .unwrap();
    db.execute("CREATE TABLE acked (id INTEGER PRIMARY KEY)")
        .unwrap();
    // Two acknowledged transactions, then un-synced auto-commit traffic.
    db.execute_script("BEGIN; INSERT INTO acked VALUES (1); COMMIT;")
        .unwrap();
    db.execute_script("BEGIN; INSERT INTO acked VALUES (2); COMMIT;")
        .unwrap();
    db.execute("INSERT INTO acked VALUES (3)").unwrap();

    // Power loss: only fsynced bytes survive.
    let survivor = Arc::new(MemIo::from_files(io.power_loss_files()));
    let recovered = open_always(survivor as Arc<dyn StorageIo>);
    let ids = recovered.query("SELECT id FROM acked ORDER BY id").unwrap();
    let ids: Vec<&Value> = ids.rows.iter().map(|r| &r[0]).collect();
    // Every acknowledged COMMIT is present. Row 3 was never fsynced under
    // OnCommit, so it is legitimately gone; what matters is that rows 1 and
    // 2 can never be lost and the log is not torn.
    assert!(ids.contains(&&Value::Int(1)), "acked commit 1 lost");
    assert!(ids.contains(&&Value::Int(2)), "acked commit 2 lost");
    assert!(
        !ids.contains(&&Value::Int(3)),
        "unsynced write survived power loss"
    );

    // Under SyncPolicy::Never even a process crash keeps everything (page
    // cache intact) — only power loss is allowed to drop data.
    let io = Arc::new(MemIo::new());
    let db = Database::open_with_io(
        Arc::clone(&io) as Arc<dyn StorageIo>,
        EngineConfig::default().with_wal_sync(SyncPolicy::Never),
    )
    .unwrap();
    db.execute("CREATE TABLE t (x INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (7)").unwrap();
    let survivor = Arc::new(MemIo::from_files(io.process_crash_files()));
    let recovered = open_always(survivor as Arc<dyn StorageIo>);
    assert_eq!(recovered.table_rows("t").unwrap(), 1);
}

#[test]
fn torn_append_is_repaired_and_log_continues() {
    let io = Arc::new(FaultyIo::new());
    let db = open_always(Arc::clone(&io) as Arc<dyn StorageIo>);
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();

    // The next WAL append tears after 7 bytes.
    io.arm(0, FaultKind::ShortWrite(7));
    let err = db.execute("INSERT INTO t VALUES (2)").unwrap_err();
    assert!(matches!(err, EngineError::Wal(_)), "got {err:?}");

    // The in-memory state may be ahead of the durable state after a WAL
    // failure (the row was applied before the append), but the *log* must
    // have been repaired: later statements append cleanly after the torn
    // bytes were truncated away, and recovery replays them.
    db.execute("INSERT INTO t VALUES (3)").unwrap();
    let survivor = Arc::new(MemIo::from_files(io.process_crash_files()));
    let recovered = open_always(survivor as Arc<dyn StorageIo>);
    let ids = recovered.query("SELECT id FROM t ORDER BY id").unwrap();
    let ids: Vec<&Value> = ids.rows.iter().map(|r| &r[0]).collect();
    assert!(ids.contains(&&Value::Int(1)));
    assert!(ids.contains(&&Value::Int(3)), "post-repair append lost");
    assert!(!ids.contains(&&Value::Int(2)), "torn batch must not replay");
}

#[test]
fn injected_write_error_leaves_database_usable() {
    let io = Arc::new(FaultyIo::new());
    let db = open_always(Arc::clone(&io) as Arc<dyn StorageIo>);
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        .unwrap();
    io.arm(0, FaultKind::Error);
    assert!(db.execute("INSERT INTO t VALUES (1)").is_err());
    // Reads and further writes keep working.
    db.query("SELECT COUNT(*) FROM t").unwrap();
    db.execute("INSERT INTO t VALUES (2)").unwrap();
    let survivor = Arc::new(MemIo::from_files(io.process_crash_files()));
    let recovered = open_always(survivor as Arc<dyn StorageIo>);
    assert_eq!(
        recovered.query_scalar("SELECT COUNT(*) FROM t").unwrap(),
        Value::Int(1)
    );
}

#[test]
fn checkpoint_folds_wal_and_survives_reopen() {
    let io = Arc::new(MemIo::new());
    // Tiny threshold: the automatic trigger fires after every few rows.
    let db = Database::open_with_io(
        Arc::clone(&io) as Arc<dyn StorageIo>,
        EngineConfig::default()
            .with_wal_sync(SyncPolicy::Always)
            .with_checkpoint_after_bytes(256),
    )
    .unwrap();
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        .unwrap();
    for i in 0..50 {
        db.execute_with(
            "INSERT INTO t VALUES (?, ?)",
            &[Value::Int(i), Value::text(format!("row-{i}"))],
        )
        .unwrap();
    }
    assert!(
        db.wal_bytes().unwrap() < 256 + 128,
        "automatic checkpointing must keep the log bounded, got {:?}",
        db.wal_bytes()
    );
    let survivor = Arc::new(MemIo::from_files(io.process_crash_files()));
    let recovered = open_always(Arc::clone(&survivor) as Arc<dyn StorageIo>);
    assert_eq!(recovered.table_rows("t").unwrap(), 50);

    // Explicit checkpoint truncates the log to zero; state still recovers.
    recovered
        .execute("INSERT INTO t VALUES (99, 'tail')")
        .unwrap();
    recovered.checkpoint().unwrap();
    assert_eq!(recovered.wal_bytes(), Some(0));
    let reopened = open_always(Arc::new(MemIo::from_files(survivor.process_crash_files())));
    assert_eq!(reopened.table_rows("t").unwrap(), 51);
}

#[test]
fn durable_database_round_trips_through_real_files() {
    let dir = std::env::temp_dir().join(format!("sqlengine_durable_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    {
        let db = Database::persistent(&dir).unwrap();
        db.execute_script(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT);
             CREATE INDEX t_v ON t (v);
             INSERT INTO t VALUES (1, 'x'), (2, 'y');
             BEGIN; INSERT INTO t VALUES (3, 'z'); COMMIT;",
        )
        .unwrap();
    }
    {
        let db = Database::persistent(&dir).unwrap();
        assert_eq!(db.table_rows("t").unwrap(), 3);
        // The secondary index was recovered (planner can use it) and unique
        // constraints still hold.
        assert!(db.execute("INSERT INTO t VALUES (1, 'dup')").is_err());
        db.execute("DELETE FROM t WHERE v = 'y'").unwrap();
        db.checkpoint().unwrap();
    }
    {
        let db = Database::persistent(&dir).unwrap();
        let r = db.query("SELECT id FROM t ORDER BY id").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(1)], vec![Value::Int(3)]]);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rolled_back_transaction_writes_nothing_durable() {
    let io = Arc::new(MemIo::new());
    let db = open_always(Arc::clone(&io) as Arc<dyn StorageIo>);
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        .unwrap();
    let before = io.size(WAL_FILE).unwrap();
    db.execute_script("BEGIN; INSERT INTO t VALUES (1); INSERT INTO t VALUES (2); ROLLBACK;")
        .unwrap();
    assert_eq!(
        io.size(WAL_FILE).unwrap(),
        before,
        "a rolled-back transaction must not touch the log"
    );
    let recovered = open_always(Arc::new(MemIo::from_files(io.process_crash_files())));
    assert_eq!(recovered.table_rows("t").unwrap(), 0);
}

/// Satellite: a panic in the middle of a write (here: storage panics during
/// the WAL append, while the engine holds its catalog write lock) must not
/// poison the engine — later reads and writes work normally.
#[test]
fn panic_during_write_does_not_poison_the_engine() {
    use std::sync::atomic::{AtomicBool, Ordering};

    struct PanicOnce {
        inner: MemIo,
        armed: AtomicBool,
    }
    impl StorageIo for PanicOnce {
        fn read(&self, name: &str) -> sqlengine::Result<Option<Vec<u8>>> {
            self.inner.read(name)
        }
        fn append(&self, name: &str, data: &[u8]) -> sqlengine::Result<()> {
            if self.armed.swap(false, Ordering::SeqCst) {
                panic!("injected panic inside a write");
            }
            self.inner.append(name, data)
        }
        fn sync(&self, name: &str) -> sqlengine::Result<()> {
            self.inner.sync(name)
        }
        fn write_atomic(&self, name: &str, data: &[u8]) -> sqlengine::Result<()> {
            self.inner.write_atomic(name, data)
        }
        fn truncate(&self, name: &str, len: u64) -> sqlengine::Result<()> {
            self.inner.truncate(name, len)
        }
        fn size(&self, name: &str) -> sqlengine::Result<u64> {
            self.inner.size(name)
        }
    }

    let io = Arc::new(PanicOnce {
        inner: MemIo::new(),
        armed: AtomicBool::new(false),
    });
    let db = open_always(Arc::clone(&io) as Arc<dyn StorageIo>);
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        .unwrap();

    io.armed.store(true, Ordering::SeqCst);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        db.execute("INSERT INTO t VALUES (1)")
    }));
    assert!(caught.is_err(), "the injected panic must surface");

    // No lock is left poisoned or held: reads and writes both succeed.
    db.query("SELECT COUNT(*) FROM t").unwrap();
    db.execute("INSERT INTO t VALUES (2)").unwrap();
    assert_eq!(
        db.query_scalar("SELECT COUNT(*) FROM t WHERE id = 2")
            .unwrap(),
        Value::Int(1)
    );
}

/// Satellite: restoring a snapshot must invalidate cached plans — a query
/// answered before the restore must see the restored data afterwards.
#[test]
fn snapshot_restore_invalidates_cached_plans() {
    // Build a donor snapshot: t with 5 rows.
    let donor = Database::new();
    donor
        .execute_script(
            "CREATE TABLE t (id INTEGER PRIMARY KEY);
             INSERT INTO t VALUES (1), (2), (3), (4), (5);",
        )
        .unwrap();
    let snap = Snapshot::capture(&donor).unwrap().to_json().unwrap();

    let db = Database::with_config(EngineConfig::default().with_plan_cache(true));
    db.execute_script("CREATE TABLE t (id INTEGER PRIMARY KEY); INSERT INTO t VALUES (1);")
        .unwrap();
    let sql = "SELECT COUNT(*) FROM t";
    assert_eq!(db.query_scalar(sql).unwrap(), Value::Int(1));
    // Warm hit on the cached plan.
    assert_eq!(db.query_scalar(sql).unwrap(), Value::Int(1));
    let (hits, _) = db.plan_cache_stats();
    assert!(hits >= 1, "second query must hit the plan cache");

    db.execute("DROP TABLE t").unwrap();
    Snapshot::from_json(&snap)
        .unwrap()
        .restore_into(&db)
        .unwrap();

    // The same SQL text must re-plan against the restored catalog.
    assert_eq!(
        db.query_scalar(sql).unwrap(),
        Value::Int(5),
        "cached plan served stale pre-restore data"
    );
}

/// Satellite: a pathological statement (unconstrained cross join) aborts
/// with `EngineError::Timeout` instead of running unbounded.
#[test]
fn statement_timeout_aborts_pathological_cross_join() {
    fn load(db: &Database) {
        db.execute("CREATE TABLE a (x INTEGER)").unwrap();
        db.execute("CREATE TABLE b (y INTEGER)").unwrap();
        let rows: Vec<Vec<Value>> = (0..200).map(|i| vec![Value::Int(i)]).collect();
        db.insert_rows("a", rows.clone()).unwrap();
        db.insert_rows("b", rows).unwrap();
    }
    // The 200×200 cross join (40k pairs through a non-equi predicate) is
    // forced onto the nested-loop path, which checks the deadline per outer
    // row. An already-expired deadline makes the abort deterministic.
    let cross = "SELECT COUNT(*) FROM a, b WHERE a.x * b.y % 7 = 3";

    let strict = Database::with_config(
        EngineConfig::default().with_statement_timeout(Duration::from_nanos(1)),
    );
    load(&strict);
    let err = strict.query(cross).unwrap_err();
    assert!(matches!(err, EngineError::Timeout), "got {err:?}");

    // A generous budget lets the same query finish.
    let lenient = Database::with_config(
        EngineConfig::default().with_statement_timeout(Duration::from_secs(300)),
    );
    load(&lenient);
    lenient.query(cross).unwrap();
}

/// Derived key indexes are derived state: they are never written to the
/// WAL or to checkpoints, start unbuilt after recovery, and are rebuilt
/// lazily by the first hash join that key-filters the table — which must
/// answer exactly like the pre-crash database.
#[test]
fn recovery_rebuilds_derived_indexes_lazily() {
    let io = Arc::new(MemIo::new());
    let db = open_always(Arc::clone(&io) as Arc<dyn StorageIo>);
    db.execute("CREATE TABLE c (tag TEXT, n INTEGER, w REAL)")
        .unwrap();
    db.execute("CREATE TABLE k (n INTEGER)").unwrap();
    db.execute("INSERT INTO k VALUES (11), (12), (13)").unwrap();
    // 3 500 rows; dyadic weights keep SUM exact.
    let rows: Vec<Vec<Value>> = (0..3500i64)
        .map(|i| {
            vec![
                Value::text(format!("t{}", i % 4)),
                Value::Int(i % 50),
                Value::Float((i % 8) as f64 / 4.0),
            ]
        })
        .collect();
    db.insert_rows("c", rows).unwrap();

    let agg = "SELECT c.tag, COUNT(*) AS cnt, SUM(c.w) AS sw FROM c JOIN k ON c.n = k.n \
               GROUP BY c.tag ORDER BY c.tag";
    let before = format!("{:?}", db.query(agg).unwrap().rows);
    assert!(
        db.explain(agg).unwrap().contains("probe=keyset(index)"),
        "the witness query must read the derived index"
    );
    let built = db
        .query_scalar("SELECT derived_indexes FROM sys.tables WHERE name = 'c'")
        .unwrap();
    assert_eq!(built, Value::Int(1), "pre-crash index should be built");

    // Crash the process; recover from the surviving WAL.
    let recovered = open_always(Arc::new(MemIo::from_files(io.process_crash_files())));
    let after_recovery = recovered
        .query_scalar("SELECT derived_indexes FROM sys.tables WHERE name = 'c'")
        .unwrap();
    assert_eq!(
        after_recovery,
        Value::Int(0),
        "derived indexes are not persisted and must not be rebuilt eagerly"
    );
    assert_eq!(
        format!("{:?}", recovered.query(agg).unwrap().rows),
        before,
        "recovered key-filtered join must match pre-crash exactly"
    );
    let rebuilt = recovered
        .query_scalar("SELECT derived_indexes FROM sys.tables WHERE name = 'c'")
        .unwrap();
    assert_eq!(
        rebuilt,
        Value::Int(1),
        "the query should have rebuilt the index lazily"
    );

    // A row-mode replica recovered from the same files agrees too.
    let row_mode = Database::open_with_io(
        Arc::new(MemIo::from_files(io.process_crash_files())) as Arc<dyn StorageIo>,
        EngineConfig::default()
            .with_wal_sync(SyncPolicy::Always)
            .with_checkpoint_after_bytes(0)
            .with_vectorized(false),
    )
    .unwrap();
    assert_eq!(format!("{:?}", row_mode.query(agg).unwrap().rows), before);
}

/// Satellite: a statement waiting on the group-commit fsync queue respects
/// `statement_timeout`. The flush leader is stuck in a slow fsync; a second
/// committer queued behind it must come back with `EngineError::Timeout`
/// instead of blocking for the full fsync — and the leader's acked commit
/// must still be durable.
#[test]
fn group_commit_queue_wait_respects_statement_timeout() {
    use std::sync::atomic::{AtomicBool, Ordering};

    struct SlowSync {
        inner: MemIo,
        slow: AtomicBool,
    }
    impl StorageIo for SlowSync {
        fn read(&self, name: &str) -> sqlengine::Result<Option<Vec<u8>>> {
            self.inner.read(name)
        }
        fn append(&self, name: &str, data: &[u8]) -> sqlengine::Result<()> {
            self.inner.append(name, data)
        }
        fn sync(&self, name: &str) -> sqlengine::Result<()> {
            if self.slow.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(500));
            }
            self.inner.sync(name)
        }
        fn write_atomic(&self, name: &str, data: &[u8]) -> sqlengine::Result<()> {
            self.inner.write_atomic(name, data)
        }
        fn truncate(&self, name: &str, len: u64) -> sqlengine::Result<()> {
            self.inner.truncate(name, len)
        }
        fn size(&self, name: &str) -> sqlengine::Result<u64> {
            self.inner.size(name)
        }
    }

    let io = Arc::new(SlowSync {
        inner: MemIo::new(),
        slow: AtomicBool::new(false),
    });
    let db = Arc::new(
        Database::open_with_io(
            Arc::clone(&io) as Arc<dyn StorageIo>,
            EngineConfig::default()
                .with_wal_sync(SyncPolicy::Always)
                .with_wal_group_commit(true)
                .with_checkpoint_after_bytes(0)
                .with_statement_timeout(Duration::from_millis(80)),
        )
        .unwrap(),
    );
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        .unwrap();

    io.slow.store(true, Ordering::SeqCst);
    let db_leader = Arc::clone(&db);
    let leader = std::thread::spawn(move || db_leader.execute("INSERT INTO t VALUES (1)"));
    // Let the leader win the flush lock and enter the 500 ms fsync.
    std::thread::sleep(Duration::from_millis(50));

    // Queued behind the stuck leader, our 80 ms deadline expires long
    // before the fsync returns.
    let err = db.execute("INSERT INTO t VALUES (2)").unwrap_err();
    assert!(matches!(err, EngineError::Timeout), "{err:?}");
    assert!(err.is_retryable());

    // A slow-but-successful fsync is not an error for the leader: its
    // commit was acked and must survive recovery.
    io.slow.store(false, Ordering::SeqCst);
    leader.join().unwrap().unwrap();

    // The timed-out frame stayed queued (dropping it would tear a hole in
    // the sequence); the next durable statement flushes it along.
    db.execute("INSERT INTO t VALUES (3)").unwrap();

    drop(db);
    let recovered = Database::open_with_io(
        Arc::new(MemIo::from_files(io.inner.process_crash_files())) as Arc<dyn StorageIo>,
        EngineConfig::default()
            .with_wal_sync(SyncPolicy::Always)
            .with_wal_group_commit(true)
            .with_checkpoint_after_bytes(0),
    )
    .unwrap();
    for acked in [1, 3] {
        assert_eq!(
            recovered
                .query_scalar(&format!("SELECT COUNT(*) FROM t WHERE id = {acked}"))
                .unwrap(),
            Value::Int(1),
            "acked row {acked} lost"
        );
    }
}
