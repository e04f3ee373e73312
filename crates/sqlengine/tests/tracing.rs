//! Hierarchical statement tracing: differential correctness against
//! `EXPLAIN ANALYZE`, span-tree nesting invariants, sampling semantics,
//! wait-state attribution under a saturated admission gate, and the
//! traced-vs-untraced overhead bound on the cached serving hot path.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sqlengine::trace::{EXEC_SPAN, ROOT_SPAN};
use sqlengine::{
    Database, EngineConfig, MemIo, SpanRec, StorageIo, SyncPolicy, TraceSampling, Value, WaitClass,
};

/// Tiny deterministic PRNG so fixtures are identical on every run.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn seeded_db(config: EngineConfig, rows: usize) -> Database {
    let db = Database::with_config(config);
    db.execute("CREATE TABLE t (g INTEGER, x INTEGER, w REAL)")
        .unwrap();
    let mut rng = Lcg(0x7E1E);
    let mut data = Vec::with_capacity(rows);
    for _ in 0..rows {
        data.push(vec![
            Value::Int((rng.next() % 13) as i64),
            Value::Int((rng.next() % 1000) as i64),
            Value::Float((rng.next() % 10_000) as f64 / 100.0),
        ]);
    }
    db.insert_rows("t", data).unwrap();
    db
}

fn always_on() -> TraceSampling {
    TraceSampling::On {
        rate: 1.0,
        seed: 0xC0FFEE,
    }
}

/// Extract `(operator, rows)` pairs in render order: from `EXPLAIN ANALYZE`
/// lines (`rows_out=N`) or `EXPLAIN (TRACE)` lines (` rows=N`).
fn op_rows(rendered: &str, marker: &str) -> Vec<(String, u64)> {
    rendered
        .lines()
        .filter_map(|line| {
            let at = line.find(marker)?;
            let tail = &line[at + marker.len()..];
            let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
            let op = line.trim_start().split([' ', '[']).next()?.to_string();
            Some((op, digits.parse().ok()?))
        })
        .collect()
}

fn rendered(db: &Database, sql: &str) -> String {
    db.query(sql)
        .unwrap()
        .rows
        .iter()
        .map(|r| match &r[0] {
            Value::Str(s) => s.to_string(),
            other => panic!("expected text line, got {other:?}"),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// The span-tree nesting invariant: children start no earlier than their
/// parent, their durations sum to no more than the parent's, and every
/// parent id exists.
fn assert_spans_nest(spans: &[SpanRec]) {
    for parent in spans {
        let children: Vec<_> = spans
            .iter()
            .filter(|s| s.parent == Some(parent.id))
            .collect();
        let sum: u64 = children.iter().map(|c| c.duration_us).sum();
        // Each span truncates to whole microseconds, so allow 1µs of
        // rounding slack per child.
        assert!(
            sum <= parent.duration_us + children.len() as u64 + 1,
            "children of {} ({}µs) sum to {sum}µs in trace {spans:?}",
            parent.name,
            parent.duration_us
        );
        for child in &children {
            assert!(
                child.start_us >= parent.start_us,
                "child {} starts before parent {}",
                child.name,
                parent.name
            );
        }
    }
    for span in spans {
        if let Some(p) = span.parent {
            assert!(
                spans.iter().any(|s| s.id == p),
                "span {} has dangling parent {p}",
                span.name
            );
        }
    }
}

// ---------------------------------------------------------------------
// Differential: EXPLAIN (TRACE) vs EXPLAIN ANALYZE
// ---------------------------------------------------------------------

#[test]
fn explain_trace_exec_subtree_matches_explain_analyze_rows() {
    let db = seeded_db(EngineConfig::default(), 500);
    let sql = "SELECT g, SUM(w) FROM t WHERE x >= 250 GROUP BY g ORDER BY g";

    let analyze = rendered(&db, &format!("EXPLAIN ANALYZE {sql}"));
    let trace = rendered(&db, &format!("EXPLAIN (TRACE) {sql}"));

    // Same operators, same observed row counts, same (preorder) order: the
    // trace's exec subtree is derived from the very OpStats tree ANALYZE
    // renders, so the two can never disagree.
    let analyzed = op_rows(&analyze, "rows_out=");
    let traced = op_rows(&trace, " rows=");
    assert!(!analyzed.is_empty(), "ANALYZE rendered no operators");
    assert_eq!(analyzed, traced, "\nANALYZE:\n{analyze}\nTRACE:\n{trace}");

    // The trace additionally shows the statement phases around execution.
    for phase in ["statement (", "plan (", "exec ("] {
        assert!(trace.contains(phase), "missing {phase:?} in:\n{trace}");
    }
    assert!(trace.contains("cache=miss") || trace.contains("cache=hit"));
}

// ---------------------------------------------------------------------
// Span-tree nesting invariant
// ---------------------------------------------------------------------

#[test]
fn child_span_durations_sum_within_parent_duration() {
    let db = seeded_db(
        EngineConfig::default().with_trace_sampling(always_on()),
        500,
    );
    db.query("SELECT g, COUNT(*) FROM t GROUP BY g").unwrap();
    db.query("SELECT g, COUNT(*) FROM t GROUP BY g").unwrap(); // cache hit
    db.execute("INSERT INTO t VALUES (99, 99, 9.9)").unwrap(); // DML path
    db.query("SELECT COUNT(*) FROM t a JOIN t b ON a.g = b.g WHERE a.x < 40")
        .unwrap();

    let traces = db.telemetry().traces();
    assert!(
        traces.len() >= 4,
        "expected every statement kept at rate 1.0"
    );
    for trace in &traces {
        assert_spans_nest(&trace.spans);
    }
}

/// A hash join books its build side's charges itself, so its span carries
/// `peak_mem_bytes` whichever breaker reads it: a group table, whose input
/// can fan out, or a sort, whose input never does.
#[test]
fn a_hash_join_span_carries_its_build_memory_under_a_group_by_and_a_sort() {
    let db = seeded_db(
        EngineConfig::default().with_trace_sampling(always_on()),
        500,
    );
    let join = "FROM t a JOIN (SELECT g, x FROM t WHERE x < 400) b ON a.g = b.g";
    for sql in [
        format!("SELECT a.g, COUNT(*) {join} GROUP BY a.g"),
        format!("SELECT a.g, b.x {join} ORDER BY a.g, b.x"),
    ] {
        db.query(&sql).unwrap();
        let trace = db.telemetry().traces().pop().expect("kept at rate 1.0");
        let span = trace.spans.iter().find(|s| s.name == "HashJoin");
        let span = span.unwrap_or_else(|| panic!("no HashJoin span for {sql}"));
        assert!(
            span.attrs_text().contains("peak_mem_bytes="),
            "{sql}: {}",
            span.attrs_text()
        );
    }
}

// ---------------------------------------------------------------------
// The paper's training statement: INSERT … SELECT … ON CONFLICT DO UPDATE
// ---------------------------------------------------------------------

#[test]
fn traced_upsert_from_select_shows_operators_and_wal_under_exec() {
    let io: Arc<dyn StorageIo> = Arc::new(MemIo::new());
    let db = Database::open_with_io(
        io,
        EngineConfig::default()
            .with_trace_sampling(always_on())
            .with_wal_sync(SyncPolicy::Always),
    )
    .unwrap();
    db.execute("CREATE TABLE t (g INTEGER, w REAL)").unwrap();
    let values: Vec<String> = (0..300).map(|i| format!("({}, {i}.0)", i % 5)).collect();
    db.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
        .unwrap();
    db.execute("CREATE TABLE corpus (g INTEGER PRIMARY KEY, w REAL)")
        .unwrap();
    let fit = "INSERT INTO corpus SELECT g, SUM(w) FROM t GROUP BY g \
               ON CONFLICT (g) DO UPDATE SET w = corpus.w + excluded.w";
    db.execute(fit).unwrap(); // inserts
    db.execute(fit).unwrap(); // conflicts: the DO UPDATE arm

    let ids: Vec<u64> = db
        .telemetry()
        .query_log()
        .iter()
        .filter(|e| e.sql == fit)
        .map(|e| e.id)
        .collect();
    assert_eq!(ids.len(), 2);
    let traces = db.telemetry().traces();
    // The second run is served from the plan cache: the statement is
    // stored, with its source's plan, by the first.
    for (id, cache) in ids.into_iter().zip(["cache=miss", "cache=hit"]) {
        let spans = &traces
            .iter()
            .find(|t| t.statement_id == id)
            .expect("training statement kept no trace")
            .spans;
        let exec = spans
            .iter()
            .find(|s| s.id == EXEC_SPAN)
            .expect("no exec span");
        assert_eq!((exec.name.as_str(), exec.parent), ("exec", Some(ROOT_SPAN)));

        // The source query's plan phase and operator subtree are there, with
        // the row counts the executor observed.
        let plan = spans
            .iter()
            .find(|s| s.name == "plan")
            .expect("no plan span");
        assert!(plan.attrs_text().contains(cache), "{plan:?}");
        let root_op = spans
            .iter()
            .find(|s| s.parent == Some(EXEC_SPAN) && s.rows.is_some())
            .unwrap_or_else(|| panic!("no operator under exec: {spans:?}"));
        assert_eq!(root_op.rows, Some(5), "five groups feed the upsert");
        let aggregate = spans
            .iter()
            .find(|s| s.name == "Aggregate")
            .unwrap_or_else(|| panic!("no Aggregate span: {spans:?}"));
        assert_eq!(aggregate.rows, Some(5));
        assert!(
            spans
                .iter()
                .any(|s| s.name == "Scan" && s.rows == Some(300)),
            "{spans:?}"
        );

        // The commit's fsync wait is a child of exec and lies inside it.
        let fsyncs: Vec<_> = spans
            .iter()
            .filter(|s| s.wait_class == Some(WaitClass::Fsync))
            .collect();
        assert!(!fsyncs.is_empty(), "no fsync span: {spans:?}");
        for wait in fsyncs {
            assert_eq!(wait.parent, Some(EXEC_SPAN), "{wait:?}");
            assert!(wait.start_us >= exec.start_us, "{wait:?} vs {exec:?}");
            assert!(
                wait.start_us + wait.duration_us <= exec.start_us + exec.duration_us + 1,
                "{wait:?} vs {exec:?}"
            );
        }

        assert_spans_nest(spans);
    }
}

// ---------------------------------------------------------------------
// Sampling semantics + query-log backfill
// ---------------------------------------------------------------------

#[test]
fn sampling_off_records_zero_spans_and_null_wait_columns() {
    let db = seeded_db(EngineConfig::default(), 64);
    db.query("SELECT COUNT(*) FROM t").unwrap();
    db.execute("INSERT INTO t VALUES (1, 1, 1.0)").unwrap();

    assert!(db.telemetry().traces().is_empty());
    let spans = db.query("SELECT * FROM sys.trace_spans").unwrap();
    assert!(spans.rows.is_empty(), "{:?}", spans.rows);

    // Unsampled statements report NULL wait columns (unknown), not zero.
    let log = db
        .query("SELECT queue_wait_us, fsync_wait_us, retry_count FROM sys.query_log")
        .unwrap();
    assert!(!log.rows.is_empty());
    for row in &log.rows {
        assert_eq!(row, &vec![Value::Null, Value::Null, Value::Null]);
    }
}

#[test]
fn kept_traces_join_query_log_by_statement_id() {
    let db = seeded_db(
        EngineConfig::default()
            .with_trace_sampling(always_on())
            // Everything is "slow" at a 1µs threshold, so the README's
            // slow-statement join shape has rows to find.
            .with_slow_query_threshold(Duration::from_micros(1)),
        128,
    );
    db.query("SELECT g, SUM(w) FROM t GROUP BY g").unwrap();
    db.query("SELECT g, SUM(w) FROM t GROUP BY g").unwrap();

    // Wait columns are backfilled (0, not NULL) for sampled statements.
    let log = db
        .query("SELECT id, queue_wait_us FROM sys.query_log WHERE slow = 1")
        .unwrap();
    assert!(!log.rows.is_empty());
    assert!(log.rows.iter().all(|r| r[1] == Value::Int(0)));

    // Every logged statement's trace is queryable by statement id, with a
    // root span named "statement" and an exec subtree.
    for row in &log.rows {
        let Value::Int(id) = row[0] else { panic!() };
        let spans = db
            .query(&format!(
                "SELECT name, parent_id FROM sys.trace_spans WHERE statement_id = {id}"
            ))
            .unwrap();
        assert!(
            spans
                .rows
                .iter()
                .any(|r| r[0] == Value::text("statement") && r[1] == Value::Null),
            "statement {id} has no root span: {:?}",
            spans.rows
        );
        assert!(spans.rows.iter().any(|r| r[0] == Value::text("exec")));
    }

    // The second execution was a cache hit and its plan span says so.
    let attrs = db
        .query("SELECT attrs FROM sys.trace_spans WHERE name = 'plan'")
        .unwrap();
    let texts: Vec<String> = attrs
        .rows
        .iter()
        .map(|r| match &r[0] {
            Value::Str(s) => s.to_string(),
            other => panic!("{other:?}"),
        })
        .collect();
    assert!(texts.iter().any(|t| t.contains("cache=miss")), "{texts:?}");
    assert!(texts.iter().any(|t| t.contains("cache=hit")), "{texts:?}");
}

#[test]
fn deterministic_sampler_keeps_a_rate_sized_subset() {
    let db = seeded_db(
        EngineConfig::default().with_trace_sampling(TraceSampling::On { rate: 0.5, seed: 7 }),
        64,
    );
    for _ in 0..200 {
        db.query("SELECT COUNT(*) FROM t").unwrap();
    }
    let kept = db.telemetry().traces().len();
    assert!(
        (40..=160).contains(&kept),
        "rate 0.5 kept {kept} of 200 traces"
    );
}

// ---------------------------------------------------------------------
// sys.histograms
// ---------------------------------------------------------------------

#[test]
fn sys_histograms_exposes_power_of_two_buckets() {
    let db = seeded_db(EngineConfig::default(), 64);
    for _ in 0..8 {
        db.query("SELECT COUNT(*) FROM t").unwrap();
    }
    let rows = db
        .query(
            "SELECT metric, bucket_lo_us, bucket_hi_us, count FROM sys.histograms \
             WHERE metric = 'statement.total_us'",
        )
        .unwrap()
        .rows;
    assert!(!rows.is_empty());
    let mut total = 0i64;
    for row in &rows {
        let (Value::Int(lo), Value::Int(hi), Value::Int(count)) = (&row[1], &row[2], &row[3])
        else {
            panic!("unexpected row {row:?}");
        };
        assert!(lo < hi, "bucket [{lo}, {hi}) is empty-range");
        assert!(
            *hi == 1 || (*hi & (*hi - 1)) == 0,
            "hi {hi} not a power of two"
        );
        assert!(*count > 0, "empty buckets are omitted");
        total += count;
    }
    // 8 queries + fixture DDL/DML all recorded a statement duration.
    assert!(total >= 8, "bucket counts sum to {total}");
}

// ---------------------------------------------------------------------
// Wait-state attribution under a saturated admission gate
// ---------------------------------------------------------------------

#[test]
fn saturated_gate_attributes_admission_wait() {
    let db = Database::with_config(
        EngineConfig::default()
            .with_trace_sampling(always_on())
            .with_max_concurrent_statements(1)
            .with_admission_queue_depth(16),
    );
    db.execute("CREATE TABLE big (n INTEGER)").unwrap();
    let values: Vec<String> = (0..1500).map(|i| format!("({i})")).collect();
    db.execute(&format!("INSERT INTO big VALUES {}", values.join(", ")))
        .unwrap();
    let db = Arc::new(db);

    // A query heavy enough to hold the only slot while the probe queues.
    let db2 = Arc::clone(&db);
    let busy = std::thread::spawn(move || {
        db2.query("SELECT COUNT(*) FROM big a, big b WHERE a.n + b.n > 0")
            .unwrap()
    });
    std::thread::sleep(Duration::from_millis(30));
    db.query("SELECT COUNT(*) FROM big WHERE n = 7").unwrap();
    busy.join().unwrap();

    // The queued statement's trace carries an admission wait span, and the
    // backfilled query-log column agrees.
    let log = db
        .query(
            "SELECT queue_wait_us FROM sys.query_log \
             WHERE sql LIKE '%WHERE n = 7%' AND sql NOT LIKE '%query_log%'",
        )
        .unwrap();
    assert_eq!(log.rows.len(), 1);
    let Value::Int(queue_wait) = log.rows[0][0] else {
        panic!("queue_wait_us must be backfilled, got {:?}", log.rows[0][0]);
    };
    assert!(
        queue_wait > 0,
        "queued statement reports {queue_wait}µs wait"
    );

    let spans = db
        .query("SELECT name FROM sys.trace_spans WHERE wait_class = 'admission'")
        .unwrap();
    assert!(!spans.rows.is_empty(), "no admission wait span recorded");

    // The always-on rollup shows the same contention, trace or no trace.
    let events = db
        .query("SELECT count, total_us FROM sys.wait_events WHERE wait_class = 'admission'")
        .unwrap();
    assert_eq!(events.rows.len(), 1);
    let (Value::Int(count), Value::Int(total_us)) = (&events.rows[0][0], &events.rows[0][1]) else {
        panic!("{:?}", events.rows);
    };
    assert!(*count >= 1, "admission rollup count = {count}");
    assert!(*total_us > 0, "admission rollup total_us = {total_us}");
}

// ---------------------------------------------------------------------
// Overhead bound: trace sampling on vs off on the cached serving path
// ---------------------------------------------------------------------

#[test]
fn tracing_overhead_on_cached_plan_hot_path_is_bounded() {
    // Same interleaved min-of-batches shape as the telemetry overhead pin:
    // the minimum over many rounds approximates the true cost, and the
    // bound is the best attempt so one quiet window suffices.
    let sql = "SELECT g, SUM(w) FROM t WHERE x >= 0 GROUP BY g";
    let on = seeded_db(
        EngineConfig::default().with_trace_sampling(always_on()),
        2000,
    );
    let off = seeded_db(EngineConfig::default(), 2000);
    for _ in 0..5 {
        on.query(sql).unwrap();
        off.query(sql).unwrap();
    }

    let batch = |db: &Database| {
        let started = Instant::now();
        for _ in 0..8 {
            db.query(sql).unwrap();
        }
        started.elapsed()
    };
    let mut best_ratio = f64::MAX;
    for attempt in 0..6 {
        let (mut best_on, mut best_off) = (Duration::MAX, Duration::MAX);
        for _ in 0..20 {
            best_on = best_on.min(batch(&on));
            best_off = best_off.min(batch(&off));
        }
        let ratio = best_on.as_secs_f64() / best_off.as_secs_f64();
        best_ratio = best_ratio.min(ratio);
        if best_ratio < 1.05 {
            break;
        }
        eprintln!("attempt {attempt}: ratio {ratio:.3} (on={best_on:?} off={best_off:?})");
    }
    assert!(
        best_ratio < 1.05,
        "trace-sampling overhead must stay under 5% (best ratio {best_ratio:.3})"
    );
    // Sanity: the traced side actually captured the traffic, the untraced
    // side recorded nothing.
    assert!(!on.telemetry().traces().is_empty());
    assert!(off.telemetry().traces().is_empty());
}
