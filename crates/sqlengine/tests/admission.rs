//! Admission control: `EngineConfig::max_concurrent_statements` bounds how
//! many statements run at once, a bounded queue absorbs short bursts, and
//! everything else is shed with the retryable `EngineError::Overloaded`
//! instead of piling up unbounded.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sqlengine::{Database, EngineConfig, EngineError, MemIo, StorageIo, SyncPolicy, Value};

/// A query heavy enough (a few million join pairs) to reliably occupy its
/// admission slot while other threads poke at the gate.
const HEAVY: &str = "SELECT COUNT(*) FROM big a, big b WHERE a.n + b.n > 0";

fn busy_db(config: EngineConfig) -> Arc<Database> {
    let db = Database::with_config(config);
    db.execute("CREATE TABLE big (n INTEGER)").unwrap();
    let values: Vec<String> = (0..1500).map(|i| format!("({i})")).collect();
    db.execute(&format!("INSERT INTO big VALUES {}", values.join(", ")))
        .unwrap();
    Arc::new(db)
}

fn metric(db: &Database, name: &str) -> f64 {
    let sql = format!("SELECT value FROM sys.metrics WHERE name = '{name}'");
    match db.query(&sql).unwrap().rows[0][0] {
        Value::Float(v) => v,
        ref other => panic!("expected float metric, got {other:?}"),
    }
}

#[test]
fn overflow_is_shed_while_the_slot_is_busy() {
    let db = busy_db(
        EngineConfig::default()
            .with_max_concurrent_statements(1)
            .with_admission_queue_depth(0),
    );
    let db2 = Arc::clone(&db);
    let admitted = db.telemetry().admission_admitted.get();
    let busy = std::thread::spawn(move || db2.query(HEAVY).unwrap());
    // Wait until the heavy statement holds the only slot: were it to arrive
    // while one of the short statements below holds it, it would itself be
    // shed.
    while db.telemetry().admission_admitted.get() == admitted {
        std::thread::yield_now();
    }

    let mut shed = 0u32;
    let mut ran = 0u32;
    for _ in 0..5_000 {
        match db.query("SELECT 1") {
            Err(EngineError::Overloaded(msg)) => {
                shed += 1;
                assert!(msg.contains("queue is full"), "{msg}");
                if shed >= 3 {
                    break;
                }
            }
            Err(other) => panic!("only Overloaded is acceptable here: {other:?}"),
            Ok(_) => {
                ran += 1;
                std::thread::sleep(Duration::from_micros(100));
            }
        }
    }
    busy.join().unwrap();
    assert!(shed >= 1, "never shed (ran {ran} statements uncontended)");
    assert!(metric(&db, "admission.shed") >= f64::from(shed));
    // After the burst everything runs again.
    db.query("SELECT COUNT(*) FROM big").unwrap();
}

#[test]
fn queued_statements_run_when_a_slot_frees() {
    let db = busy_db(
        EngineConfig::default()
            .with_max_concurrent_statements(1)
            .with_admission_queue_depth(16),
    );
    let db2 = Arc::clone(&db);
    let busy = std::thread::spawn(move || db2.query(HEAVY).unwrap());
    // Give the heavy statement a head start so the short ones queue behind
    // it rather than beating it to the gate.
    std::thread::sleep(Duration::from_millis(30));

    let workers: Vec<_> = (0..4)
        .map(|i| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                db.query_scalar(&format!("SELECT COUNT(*) + {i} FROM big"))
                    .unwrap()
            })
        })
        .collect();
    for (i, w) in workers.into_iter().enumerate() {
        assert_eq!(w.join().unwrap(), Value::Int(1500 + i as i64));
    }
    busy.join().unwrap();
    assert!(metric(&db, "admission.admitted") >= 5.0);
}

#[test]
fn deadline_expiring_in_the_queue_sheds_the_statement() {
    // The slot is held by a statement stuck in a blocking fsync — the one
    // wait an in-flight statement cannot abandon — so a queued statement
    // with a short timeout must be shed rather than admitted late.
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
                std::thread::sleep(Duration::from_millis(400));
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
                .with_statement_timeout(Duration::from_millis(80))
                .with_max_concurrent_statements(1)
                .with_admission_queue_depth(8),
        )
        .unwrap(),
    );
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        .unwrap();

    io.slow.store(true, Ordering::SeqCst);
    let db2 = Arc::clone(&db);
    let writer = std::thread::spawn(move || db2.execute("INSERT INTO t VALUES (1)"));
    std::thread::sleep(Duration::from_millis(30));

    // The writer occupies the only slot for ~400 ms; our 80 ms deadline
    // expires while we wait in the admission queue.
    let err = db.query("SELECT 1").unwrap_err();
    assert!(matches!(err, EngineError::Overloaded(_)), "{err:?}");
    assert!(
        err.to_string().contains("deadline expired while queued"),
        "{err}"
    );
    assert!(err.is_retryable());

    io.slow.store(false, Ordering::SeqCst);
    // The writer's fsync eventually completes; its commit was acked.
    writer.join().unwrap().unwrap();
    assert_eq!(
        db.query_scalar("SELECT COUNT(*) FROM t").unwrap(),
        Value::Int(1)
    );
    assert!(metric(&db, "admission.shed") >= 1.0);
    assert!(metric(&db, "admission.queued") >= 1.0);
}

/// Satellite: a statement that panics while holding its admission permit
/// must not wedge the gate — queued and later statements either run or are
/// shed with `Overloaded`, and nothing hangs.
#[test]
fn panicking_writer_does_not_wedge_queued_statements() {
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
    let db = Arc::new(
        Database::open_with_io(
            Arc::clone(&io) as Arc<dyn StorageIo>,
            EngineConfig::default()
                .with_wal_sync(SyncPolicy::Always)
                .with_max_concurrent_statements(1)
                .with_admission_queue_depth(4),
        )
        .unwrap(),
    );
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        .unwrap();

    io.armed.store(true, Ordering::SeqCst);
    let db_writer = Arc::clone(&db);
    let writer = std::thread::spawn(move || {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            db_writer.execute("INSERT INTO t VALUES (1)")
        }));
    });

    // Concurrent statements racing the panicking writer: every one must
    // terminate — success or an Overloaded shed — never a hang.
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for _ in 0..50 {
                    match db.query("SELECT COUNT(*) FROM t") {
                        Ok(_) | Err(EngineError::Overloaded(_)) => {}
                        Err(other) => panic!("unexpected error class: {other:?}"),
                    }
                }
            })
        })
        .collect();
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }

    // The unwound permit was released: the gate still admits, and writes
    // still work.
    db.execute("INSERT INTO t VALUES (2)").unwrap();
    assert_eq!(
        db.query_scalar("SELECT COUNT(*) FROM t WHERE id = 2")
            .unwrap(),
        Value::Int(1)
    );
}
