//! The traced run: a short pass over every leg with the span recorder on,
//! plus probes that time each layer's public entry points from outside.
//!
//! Per-layer numbers come only from here and end-to-end numbers only from
//! the untraced run. Every probe runs on the workload's own fixture, so a
//! layer's cost is read under the conditions that workload sets.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use sqlengine::trace::ROOT_SPAN;
use sqlengine::{lexer, parser, Database, EngineConfig, OpStats, TraceSampling, Value};
use textproc::CountVectorizer;

use crate::fixture::{self, Storage};
use crate::gen::{Doc, DocGen, Rng};
use crate::spans::Recorder;
use crate::spec::PER_LAYER;
use crate::stats::{self, Samples};
use crate::workload::{
    self, Bed, Env, Metric, Report, Run, Workload, BATCH_DOCS, EXPLAIN_TOP, ROUNDS,
};

/// Iterations of one probe: at least, and at most.
const PROBE_MIN: usize = 8;
const PROBE_MAX: usize = 300;
/// Redeploys raced against a reader for `deploy_gap_reads`.
const GAP_DEPLOYS: usize = 5;

/// Time `body` as span `name` until `budget` has passed (within the
/// iteration limits); returns the durations.
fn probe<R>(
    rec: &mut Recorder,
    name: &'static str,
    budget: Duration,
    mut body: impl FnMut() -> R,
) -> Samples {
    let started = Instant::now();
    let mut samples = Samples::default();
    let mut i = 0;
    while i < PROBE_MIN || (i < PROBE_MAX && started.elapsed() < budget) {
        rec.next_op();
        let (result, took) = rec.time(name, &mut body);
        black_box(result);
        samples.push(took);
        i += 1;
    }
    samples
}

/// One side of a comparison: a span name and the call to time.
type Arm<'a> = (&'static str, Box<dyn FnMut() + 'a>);

/// Time the arms in turn, one call each per round, so that drift in the
/// machine's speed falls on all of them alike; returns each arm's median
/// in seconds. Differences and ratios are taken only between arms of one
/// race.
fn race(rec: &mut Recorder, budget: Duration, mut arms: Vec<Arm<'_>>) -> Vec<f64> {
    let started = Instant::now();
    let mut samples = vec![Samples::default(); arms.len()];
    let mut round = 0;
    while round < PROBE_MIN || (round < PROBE_MAX && started.elapsed() < budget * arms.len() as u32)
    {
        rec.next_op();
        for ((name, body), samples) in arms.iter_mut().zip(&mut samples) {
            let ((), took) = rec.time(name, body);
            samples.push(took);
        }
        round += 1;
    }
    samples.iter().map(Samples::median).collect()
}

/// Ids for the probes, drawn like the workload's single predicts: uniform
/// over the first `id_pool` loaded documents.
struct Ids {
    rng: Rng,
    pool: Vec<i64>,
}

impl Ids {
    fn new(w: &Workload, bed: &Bed, seed: u64, purpose: &str) -> Ids {
        Ids {
            rng: Rng::fork(seed, purpose),
            pool: w.id_pool_of(&bed.oracle),
        }
    }

    fn next(&mut self) -> i64 {
        self.pool[self.rng.below(self.pool.len())]
    }
}

/// Self time per operator family of one executed plan, in seconds:
/// scan, index scan, join, aggregate, window/sort; and rows read by leaves.
///
/// The engine reports no time on a `Scan` leaf: the rows are produced
/// inside the `Filter`/`Project` chain fused on top of it, so that chain is
/// the scan family. Probed index scans likewise report inside their join.
#[derive(Default, Clone, Copy)]
struct ExecBreakdown {
    total: f64,
    families: [f64; 5],
    rows_examined: usize,
}

impl ExecBreakdown {
    fn of(stats: &OpStats) -> ExecBreakdown {
        let mut out = ExecBreakdown {
            total: stats.elapsed.as_secs_f64(),
            ..ExecBreakdown::default()
        };
        out.visit(stats);
        out
    }

    fn is_scan_pipeline(node: &OpStats) -> bool {
        node.label.starts_with("Scan")
            || ((node.label.starts_with("Filter") || node.label.starts_with("Project"))
                && node.children.len() == 1
                && Self::is_scan_pipeline(&node.children[0]))
    }

    fn visit(&mut self, node: &OpStats) {
        let children: Duration = node.children.iter().map(|c| c.elapsed).sum();
        let own = node.elapsed.saturating_sub(children).as_secs_f64();
        let label = node.label.as_str();
        let family = if Self::is_scan_pipeline(node) {
            Some(0)
        } else if label.starts_with("IndexScan") {
            Some(1)
        } else if label.contains("Join") {
            Some(2)
        } else if label.starts_with("Aggregate") || label.starts_with("Distinct") {
            Some(3)
        } else if ["Window", "Sort", "Limit"]
            .iter()
            .any(|p| label.starts_with(p))
        {
            Some(4)
        } else {
            None
        };
        if let Some(f) = family {
            self.families[f] += own;
        }
        if matches!(family, Some(0 | 1)) && node.children.is_empty() {
            self.rows_examined += node.rows_out;
        }
        for child in &node.children {
            self.visit(child);
        }
    }

    fn add(&mut self, other: ExecBreakdown) {
        self.total += other.total;
        for (a, b) in self.families.iter_mut().zip(other.families) {
            *a += b;
        }
    }
}

/// The per-layer values collected so far, by metric name.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        let previous = self.0.insert(name, value);
        assert!(previous.is_none(), "{name} was measured twice");
    }
}

/// The front end, one layer at a time, and the engine's four ways to run
/// the serving statement.
fn front_end_probes(
    w: &Workload,
    bed: &Bed,
    cold: &Database,
    seed: u64,
    budget: Duration,
    rec: &mut Recorder,
    out: &mut Layers,
) {
    let shape = w.shape;
    let db = &bed.db;
    let model = fixture::model(db, shape);
    let cold_model = fixture::model(cold, shape);
    let generator = model.generator();
    let mut ids = Ids::new(w, bed, seed, "front-end");

    // One operation = the calls `model.predict` makes, issued one by one
    // from outside, then the real call on a database without a plan cache.
    let started = Instant::now();
    let mut exec_total = Samples::default();
    let mut rows_examined = 0.0;
    let mut i = 0;
    while i < PROBE_MIN || (i < PROBE_MAX && started.elapsed() < budget * 4) {
        let spec = shape.score_one(ids.next());
        rec.next_op();
        let decomposed = rec.enter("predict.decomposed");
        let (deployed, _) = rec.time("bornsql.model.is_deployed", || model.is_deployed());
        let (sql, _) = rec.time("bornsql.sql.predict", || generator.predict(&spec, deployed));
        rec.time("sqlengine.lexer.tokenize", || {
            lexer::tokenize(&sql).expect("tokenize")
        });
        rec.time("sqlengine.parser.parse_statement", || {
            parser::parse_statement(&sql).expect("parse")
        });
        rec.time("sqlengine.engine.check", || db.check(&sql).expect("check"));
        rec.time("sqlengine.engine.explain", || {
            db.explain(&sql).expect("explain")
        });
        let ((rows, stats), _) = rec.time("sqlengine.engine.query_analyzed", || {
            db.query_analyzed(&sql).expect("query_analyzed")
        });
        rec.exit(decomposed);
        let breakdown = ExecBreakdown::of(&stats);
        exec_total.push(Duration::from_secs_f64(breakdown.total));
        rows_examined = breakdown.rows_examined as f64 / rows.rows.len().max(1) as f64;
        rec.time("model.predict.cold", || {
            cold_model.predict(&spec).expect("cold predict")
        });
        i += 1;
    }
    let us = |rec: &Recorder, name: &str| rec.durations(name).median() * 1e6;
    let probe_us = us(rec, "bornsql.model.is_deployed");
    let gen_us = us(rec, "bornsql.sql.predict");
    let tokenize_us = us(rec, "sqlengine.lexer.tokenize");
    let parse_us = us(rec, "sqlengine.parser.parse_statement");
    let check_us = us(rec, "sqlengine.engine.check");
    let explain_us = us(rec, "sqlengine.engine.explain");
    let exec_us = exec_total.median() * 1e6;
    out.set("bornsql.model.deploy_probe_us", probe_us);
    out.set("bornsql.sql.predict_gen_us", gen_us);
    out.set("sqlengine.lexer.tokenize_us", tokenize_us);
    out.set("sqlengine.parser.parse_us", parse_us - tokenize_us);
    out.set("sqlengine.sema.check_us", check_us - parse_us);
    out.set("sqlengine.plan.plan_us", explain_us - check_us);
    out.set("sqlengine.exec.rows_examined_per_result", rows_examined);
    // tokenize + (parse − tokenize) + (check − parse) + (plan − check)
    // telescopes to the `explain` call.
    out.set(
        "bench.reconcile.cold_ratio",
        (probe_us + gen_us + explain_us + exec_us) / us(rec, "model.predict.cold"),
    );

    let fit_spec = shape.train_range(1, BATCH_DOCS as i64);
    let gen = probe(rec, "bornsql.sql.partial_fit", budget, || {
        generator.partial_fit(&fit_spec, 1.0)
    });
    out.set("bornsql.sql.partial_fit_gen_us", gen.median() * 1e6);

    // The same statement through the model and through the engine's four
    // ways to run it, raced. Each arm draws its own ids, so that no arm
    // finds the plan another arm's literal text just cached.
    let arm_ids = |arm: &str| Ids::new(w, bed, seed, arm);
    let hit_text = generator.predict(&shape.score_one(ids.next()), true);
    let param_text = generator.predict(&shape.score_param(), true);
    let prepared = db.prepare(&param_text).expect("prepare");
    let (mut a, mut b, mut c, mut d, mut e) = (
        arm_ids("model"),
        arm_ids("literal"),
        arm_ids("cold"),
        arm_ids("param"),
        arm_ids("prepared"),
    );
    let medians = race(
        rec,
        budget,
        vec![
            (
                "model.predict",
                Box::new(|| {
                    black_box(model.predict(&shape.score_one(a.next())).expect("predict"));
                }),
            ),
            (
                "sqlengine.engine.query",
                Box::new(|| {
                    let text = generator.predict(&shape.score_one(b.next()), true);
                    black_box(db.query(&text).expect("query"));
                }),
            ),
            (
                "sqlengine.engine.query.cold",
                Box::new(|| {
                    let text = generator.predict(&shape.score_one(c.next()), true);
                    black_box(cold.query(&text).expect("cold query"));
                }),
            ),
            (
                "sqlengine.engine.query.hit",
                Box::new(|| {
                    black_box(db.query(&hit_text).expect("repeated query"));
                }),
            ),
            (
                "sqlengine.engine.query_with",
                Box::new(|| {
                    let params = [Value::Int(d.next())];
                    black_box(db.query_with(&param_text, &params).expect("query_with"));
                }),
            ),
            (
                "sqlengine.engine.prepared_query",
                Box::new(|| {
                    let params = [Value::Int(e.next())];
                    black_box(prepared.query(&params).expect("prepared query"));
                }),
            ),
        ],
    );
    let [via_model, literal, cold_query, literal_hit, param, prepared_query] = medians[..] else {
        unreachable!("six arms, six medians");
    };
    out.set("bornsql.model.overhead_us", (via_model - literal) * 1e6);
    out.set("bornsql.model.over_engine_ratio", via_model / param);
    out.set("sqlengine.engine.cold_query_us", cold_query * 1e6);
    out.set("sqlengine.engine.literal_hit_query_us", literal_hit * 1e6);
    out.set("sqlengine.engine.param_query_us", param * 1e6);
    out.set("sqlengine.engine.prepared_query_us", prepared_query * 1e6);

    let native = probe(rec, "born.predict", budget, || {
        bed.oracle
            .deployed()
            .predict(bed.oracle.features(ids.next()))
    });
    out.set("born.native_predict_us", native.median() * 1e6);
}

/// Executor self time per operator family over the four statement kinds,
/// what the upsert adds to its SELECT, and the storage-side probes.
fn executor_probes(
    w: &Workload,
    bed: &Bed,
    row_mode: &Database,
    seed: u64,
    budget: Duration,
    rec: &mut Recorder,
    out: &mut Layers,
) {
    let shape = w.shape;
    let db = &bed.db;
    let model = fixture::model(db, shape);
    let generator = model.generator();

    let insert = generator.partial_fit(&shape.train_range(1, BATCH_DOCS as i64), 1.0);
    let undo = generator.partial_fit(&shape.train_range(1, BATCH_DOCS as i64), -1.0);
    let select_of = |statement: &str| -> String {
        let from = statement
            .find("WITH ")
            .expect("generated INSERT has a WITH");
        let to = statement
            .rfind(" ON CONFLICT")
            .expect("generated INSERT upserts");
        statement[from..to].to_string()
    };
    let texts = [
        generator.predict(&shape.score_one(1), true),
        generator.predict(&shape.score_all(), true),
        generator.explain_local(&shape.score_one(1), true, Some(EXPLAIN_TOP)),
        select_of(&insert),
    ];
    let mut rounds: Vec<ExecBreakdown> = Vec::new();
    for _ in 0..3 {
        let mut sum = ExecBreakdown::default();
        for text in &texts {
            rec.next_op();
            let ((_, stats), _) = rec.time("sqlengine.engine.query_analyzed", || {
                db.query_analyzed(text).expect("query_analyzed")
            });
            sum.add(ExecBreakdown::of(&stats));
        }
        rounds.push(sum);
    }
    let median_of = |pick: &dyn Fn(&ExecBreakdown) -> f64| {
        stats::median(&rounds.iter().map(pick).collect::<Vec<f64>>()) * 1e6
    };
    out.set("sqlengine.exec.total_us", median_of(&|b| b.total));
    for (f, name) in [
        "sqlengine.exec.scan_us",
        "sqlengine.exec.index_scan_us",
        "sqlengine.exec.join_us",
        "sqlengine.exec.aggregate_us",
        "sqlengine.exec.window_sort_us",
    ]
    .into_iter()
    .enumerate()
    {
        out.set(name, median_of(&|b| b.families[f]));
    }

    // Learn a batch and take it back, so the corpus stays where it was.
    let mut upsert = Samples::default();
    let mut select = Samples::default();
    let started = Instant::now();
    let mut i = 0;
    while i < PROBE_MIN || (i < PROBE_MAX && started.elapsed() < budget * 2) {
        let statement = if i % 2 == 0 { &insert } else { &undo };
        let text = select_of(statement);
        rec.next_op();
        let (_, took) = rec.time("sqlengine.engine.query_analyzed", || {
            db.query_analyzed(&text).expect("partial-fit SELECT")
        });
        select.push(took);
        let (_, took) = rec.time("sqlengine.engine.execute", || {
            db.execute(statement).expect("partial-fit INSERT")
        });
        upsert.push(took);
        i += 1;
    }
    if i % 2 == 1 {
        db.execute(&undo).expect("undo the last partial fit");
    }
    out.set(
        "sqlengine.exec.dml_apply_us",
        (upsert.median() - select.median()) * 1e6,
    );

    let score_all = shape.score_all();
    let row_model = fixture::model(row_mode, shape);
    let medians = race(
        rec,
        budget * 2,
        vec![
            (
                "model.predict_all",
                Box::new(|| {
                    black_box(model.predict(&score_all).expect("predict all"));
                }),
            ),
            (
                "model.predict_all.row_mode",
                Box::new(|| {
                    black_box(
                        row_model
                            .predict(&score_all)
                            .expect("predict all, row mode"),
                    );
                }),
            ),
        ],
    );
    out.set(
        "sqlengine.column.vectorized_speedup",
        medians[1] / medians[0],
    );

    // The largest table: its column chunks are rebuilt on the first scan
    // after any write to it.
    let (table, id_col) = *shape.tables().last().expect("shape has tables");
    let scan = format!("SELECT COUNT(*), SUM(cnt) FROM {table}");
    let writes = [
        format!("INSERT INTO {table} VALUES (-1, 'probe', 1.0)"),
        format!("DELETE FROM {table} WHERE {id_col} = -1"),
    ];
    let mut first = Samples::default();
    let mut warm = Samples::default();
    for round in 0..2 * PROBE_MIN {
        db.execute(&writes[round % 2]).expect("chunk probe write");
        rec.next_op();
        let (_, took) = rec.time("sqlengine.engine.query.after_write", || {
            db.query(&scan).expect("scan")
        });
        first.push(took);
        for _ in 0..3 {
            let (_, took) = rec.time("sqlengine.engine.query.warm_scan", || {
                db.query(&scan).expect("scan")
            });
            warm.push(took);
        }
    }
    out.set(
        "sqlengine.column.chunk_rebuild_us",
        (first.median() - warm.median()) * 1e6,
    );

    // Bulk insert and keyed delete of ten documents the model never saw.
    let spare: Vec<Doc> = DocGen::new(seed ^ 0x5EED).docs(9_000_001, BATCH_DOCS);
    let vectorizer = CountVectorizer::default();
    let mut insert_rate = Vec::new();
    let mut delete_rate = Vec::new();
    for _ in 0..PROBE_MIN {
        let rows = shape.rows(&spare, &vectorizer);
        rec.next_op();
        let (inserted, took) = rec.time("sqlengine.engine.insert_rows", || {
            rows.into_iter()
                .map(|(table, rows)| db.insert_rows(table, rows).expect("insert_rows"))
                .sum::<usize>()
        });
        insert_rate.push(inserted as f64 / took.as_secs_f64());
        let (deleted, took) = rec.time("sqlengine.engine.delete", || {
            shape
                .delete_range(spare[0].id, spare[BATCH_DOCS - 1].id)
                .iter()
                .map(|s| db.execute(s).expect("DELETE").affected())
                .sum::<usize>()
        });
        assert_eq!(inserted, deleted, "the probe deletes what it inserted");
        delete_rate.push(deleted as f64 / took.as_secs_f64());
    }
    out.set(
        "sqlengine.catalog.insert_rows_per_s",
        stats::median(&insert_rate),
    );
    out.set(
        "sqlengine.catalog.delete_rows_per_s",
        stats::median(&delete_rate),
    );
}

/// Serving p50 with one engine setting changed, against the default.
fn variant_probes(
    w: &Workload,
    bed: &Bed,
    docs: &[Doc],
    seed: u64,
    budget: Duration,
    rec: &mut Recorder,
    out: &mut Layers,
) {
    let shape = w.shape;
    let default = fixture::memory_config;
    // Five copies of the read database, fitted and deployed alike: the
    // default settings and one setting changed in each of the others.
    let configs: [(&'static str, EngineConfig); 5] = [
        ("model.predict.default", default()),
        ("model.predict.verify_on", default().with_verify_plans(true)),
        (
            "model.predict.telemetry_off",
            default().with_telemetry(false),
        ),
        (
            "model.predict.admission_gate",
            default().with_max_concurrent_statements(8),
        ),
        (
            "model.predict.trace_on",
            default().with_trace_sampling(TraceSampling::On { rate: 1.0, seed }),
        ),
    ];
    let copies: Vec<Database> = configs
        .iter()
        .map(|(_, config)| Bed::build(&Storage::Memory, *config, shape, docs).0.db)
        .collect();
    let arms = configs
        .iter()
        .zip(&copies)
        .map(|((name, _), db)| {
            let model = fixture::model(db, shape);
            let mut ids = Ids::new(w, bed, seed, name);
            let arm: Arm<'_> = (
                name,
                Box::new(move || {
                    black_box(model.predict(&shape.score_one(ids.next())).expect(name));
                }),
            );
            arm
        })
        .collect();
    let [base, verify, quiet, gated, traced] = race(rec, budget, arms)[..] else {
        unreachable!("five arms, five medians");
    };
    out.set("sqlengine.verify.overhead_us", (verify - base) * 1e6);
    out.set("sqlengine.telemetry.overhead_ratio", base / quiet);
    out.set("sqlengine.admission.gate_overhead_us", (gated - base) * 1e6);
    out.set("sqlengine.trace.overhead_ratio", traced / base);

    let traced_db = &copies[4];
    let mut ids = Ids::new(w, bed, seed, "span-sum");
    // What the engine's own spans account for, against the wall clock
    // measured out here. The trace ring keeps 256 statements; a predict
    // is two (the deploy probe and the query).
    traced_db.telemetry().reset();
    let model = fixture::model(traced_db, shape);
    let started = Instant::now();
    for _ in 0..100 {
        model
            .predict(&shape.score_one(ids.next()))
            .expect("traced predict");
    }
    let wall_us = started.elapsed().as_secs_f64() * 1e6;
    let span_us: u64 = traced_db
        .telemetry()
        .traces()
        .iter()
        .flat_map(|t| &t.spans)
        .filter(|s| s.parent == Some(ROOT_SPAN))
        .map(|s| s.duration_us)
        .sum();
    out.set(
        "sqlengine.trace.span_sum_over_wall",
        span_us as f64 / wall_us,
    );
}

/// Reads that found the weights missing or empty while another thread
/// redeployed: `deploy` is drop + create + insert + index, not atomic.
fn deploy_gap_reads(w: &Workload, bed: &Bed, seed: u64) -> f64 {
    let shape = w.shape;
    let db = &bed.db;
    let done = AtomicBool::new(false);
    let mut ids = Ids::new(w, bed, seed, "deploy-gap");
    std::thread::scope(|scope| {
        let deployer = scope.spawn(|| {
            let model = fixture::model(db, shape);
            for _ in 0..GAP_DEPLOYS {
                model.deploy().expect("redeploy");
            }
            done.store(true, Ordering::SeqCst);
        });
        let model = fixture::model(db, shape);
        let mut gaps = 0u32;
        while !done.load(Ordering::SeqCst) {
            match model.predict(&shape.score_one(ids.next())) {
                Ok(rows) if !rows.is_empty() => {}
                _ => gaps += 1,
            }
        }
        deployer.join().expect("deployer thread panicked");
        f64::from(gaps)
    })
}

/// Reopen from a WAL tail only, then from a checkpoint only.
fn recovery_probes(
    w: &Workload,
    docs: &[Doc],
    out_dir: &Path,
    rec: &mut Recorder,
    out: &mut Layers,
) {
    let dir = fixture::fresh_dir(out_dir, &format!("db-{}-replay", w.name));
    let config = fixture::durable_config().with_checkpoint_after_bytes(0);
    let (bed, _) = Bed::build(&Storage::Durable(dir.clone()), config, w.shape, docs);
    drop(bed);
    let reopen = |rec: &mut Recorder, name: &'static str| -> (Database, f64) {
        let mut times = Samples::default();
        let mut db = None;
        for _ in 0..3 {
            drop(db.take());
            rec.next_op();
            let (opened, took) = rec.time(name, || Database::open(&dir, config));
            times.push(took);
            db = Some(opened.expect("reopen"));
        }
        (db.expect("reopened"), times.median())
    };
    let (db, replay) = reopen(rec, "sqlengine.open.wal_only");
    out.set("sqlengine.wal.replay_ms", replay * 1e3);
    db.checkpoint().expect("checkpoint");
    let rows: usize = db
        .table_names()
        .iter()
        .map(|t| db.table_rows(t).expect("table_rows"))
        .sum();
    let bytes = std::fs::metadata(dir.join(sqlengine::wal::CHECKPOINT_FILE))
        .expect("checkpoint file")
        .len();
    out.set(
        "sqlengine.snapshot.bytes_per_row",
        bytes as f64 / rows as f64,
    );
    drop(db);
    let (db, restore) = reopen(rec, "sqlengine.open.checkpoint_only");
    out.set("sqlengine.snapshot.restore_ms", restore * 1e3);
    drop(db);
    std::fs::remove_dir_all(&dir).expect("remove replay directory");
}

pub fn run_per_layer(w: &'static Workload, seed: u64, seconds: f64, out_dir: &Path) -> Report {
    let shape = w.shape;
    let steps = w.stream_steps(seconds);
    let (mut env, _) = workload::setup(w, seed, steps, out_dir);
    let mut run = Run::new(w, seed, false);
    let mut out = Layers::default();
    let budget = Duration::from_secs_f64(seconds / 40.0);

    // The same leg untraced and traced, in alternating slices: their ratio
    // is what recording costs, and the traced one's counters are the
    // workload's cache story. `quiet` is a second run that never records.
    let mut quiet = Run::new(w, seed ^ 1, false);
    run.rec.set_recording(true);
    let slice = Duration::from_secs_f64(seconds / 8.0 / ROUNDS as f64);
    for _ in 0..ROUNDS {
        quiet.single_leg(&mut env, slice);
        run.single_leg(&mut env, slice);
    }
    let untraced_p50 = quiet.tally.predict.median();
    let t = &run.tally;
    out.set(
        "bench.trace_overhead_ratio",
        t.predict.median() / untraced_p50,
    );
    out.set(
        "sqlengine.engine.plan_cache_hit_ratio",
        t.cache_hits as f64 / (t.cache_hits + t.cache_misses).max(1) as f64,
    );
    out.set(
        "sqlengine.engine.plan_cache_invalidations_per_s",
        t.catalog_versions as f64 / t.single_elapsed.as_secs_f64(),
    );
    out.set("predict_p99_us", t.predict.segment_tail(0.99) * 1e6);
    out.set(
        "bench.writer_lateness_ms",
        if w.concurrent_writer {
            t.writer.lateness.median() * 1e3
        } else {
            0.0
        },
    );
    run.batch_leg(&mut env, budget);
    run.bulk_leg(&mut env, budget);

    // Probes on the read database, and on copies of it with one setting
    // changed. The copies hold the same documents, fitted and deployed.
    let read_docs = env.read_docs().to_vec();
    {
        let rec = &mut run.rec;
        let copy =
            |config: EngineConfig| Bed::build(&Storage::Memory, config, shape, &read_docs).0.db;
        let cold = copy(fixture::memory_config().with_plan_cache(false));
        front_end_probes(w, env.read_bed(), &cold, seed, budget, rec, &mut out);
        drop(cold);
        let row_mode = copy(fixture::memory_config().with_vectorized(false));
        executor_probes(w, env.read_bed(), &row_mode, seed, budget, rec, &mut out);
        drop(row_mode);
        variant_probes(w, env.read_bed(), &read_docs, seed, budget, rec, &mut out);
    }
    out.set(
        "bornsql.model.deploy_gap_reads",
        deploy_gap_reads(w, env.read_bed(), seed),
    );

    let Env {
        read,
        mut stream,
        stream_dir,
        mut window,
        feed,
        window_docs,
        digest,
        ..
    } = env;
    drop(read);
    let vectorizer = CountVectorizer::default();
    let vectorize = probe(&mut run.rec, "textproc.vectorize", budget, || {
        feed.iter()
            .map(|d| vectorizer.vectorize(&d.abstract_text).len())
            .sum::<usize>()
    });
    out.set(
        "textproc.vectorize_docs_per_s",
        feed.len() as f64 / vectorize.median(),
    );

    // The same step stream on an in-memory twin and, traced, on the
    // durable database, in alternating slices.
    let (mut twin, _) = Bed::build(
        &Storage::Memory,
        fixture::memory_config(),
        shape,
        &window_docs,
    );
    let mut twin_window = window.clone();
    for part in feed.chunks(feed.len() / ROUNDS) {
        quiet.stream_leg(&mut twin, &mut twin_window, part);
        run.stream_leg(&mut stream, &mut window, part);
    }
    quiet.check_stream(&mut twin);
    drop(twin);
    run.check_stream(&mut stream);
    run.ops.merge(quiet.ops);
    let in_memory_step = quiet.tally.step.median();
    // Beside a writer, the tail is the writer's, from each due time.
    let partial_fit = if w.concurrent_writer {
        &run.tally.writer.partial_fit
    } else {
        &run.tally.partial_fit
    };
    out.set("partial_fit_p95_ms", partial_fit.segment_tail(0.95) * 1e3);
    let wal = |name: &str| run.tally.stream_counters[name];
    let commits = wal("wal.appends").max(1.0);
    out.set(
        "sqlengine.wal.bytes_per_commit",
        wal("wal.append_bytes") / commits,
    );
    out.set(
        "sqlengine.wal.fsyncs_per_commit",
        wal("wal.fsyncs") / commits,
    );
    out.set(
        "sqlengine.wal.fsync_p50_us",
        workload::sys_metrics(&stream.db)["wal.fsync.p50_us"],
    );
    out.set("sqlengine.wal.checkpoints", wal("wal.checkpoints"));
    out.set(
        "sqlengine.wal.durable_over_memory_ratio",
        run.tally.step.median() / in_memory_step,
    );
    out.set(
        "sqlengine.wal.checkpoint_stall_ms",
        if run.tally.checkpoint_steps.len() == 0 {
            0.0
        } else {
            (run.tally.checkpoint_steps.max() - run.tally.step.median()) * 1e3
        },
    );
    let checkpoint = probe(&mut run.rec, "sqlengine.checkpoint", Duration::ZERO, || {
        stream.db.checkpoint().expect("checkpoint")
    });
    out.set("sqlengine.wal.checkpoint_ms", checkpoint.median() * 1e3);
    drop(run.recovery_leg(stream, &stream_dir));
    std::fs::remove_dir_all(&stream_dir).expect("remove stream directory");
    recovery_probes(w, &window_docs, out_dir, &mut run.rec, &mut out);

    let trace_file = out_dir.join(format!("trace-{}.jsonl", w.name));
    run.rec.write_jsonl(&trace_file).expect("write span file");
    println!(
        "{} spans written to {}",
        run.rec.len(),
        trace_file.display()
    );

    let host_kernel = run.speed.kernel_median();
    out.set("bench.host_kernel_us", host_kernel * 1e6);
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let value = out
                .0
                .get(m.name)
                .unwrap_or_else(|| panic!("{} was not measured", m.name));
            Metric::plain(m.name, *value)
        })
        .collect();
    Report {
        metrics,
        ops: run.ops,
        digest,
        host_kernel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::tests::{out_dir, TINY};

    #[test]
    fn a_traced_run_emits_every_per_layer_metric_and_a_span_file() {
        let out = out_dir("test-per-layer");
        std::fs::create_dir_all(&out).unwrap();
        let report = run_per_layer(&TINY, 3, 0.5, &out);
        let spans = std::fs::read_to_string(out.join("trace-tiny.jsonl")).unwrap();
        std::fs::remove_dir_all(&out).unwrap();
        let emitted: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(emitted, declared);
        assert!(report.metrics.iter().all(|m| m.value.is_finite()));
        assert_eq!(report.ops.failed, 0, "{:?}", report.ops.messages);
        assert!(spans.lines().count() > 100);
        for line in spans.lines().take(50) {
            let span = crate::json::Json::parse(line).expect("span line is JSON");
            assert!(
                span.get("self_us")
                    .and_then(crate::json::Json::as_f64)
                    .unwrap()
                    >= 0.0
            );
        }
    }

    #[test]
    fn scan_time_is_the_chain_fused_on_the_scan() {
        let leaf = |label: &str, ms: u64, children: Vec<OpStats>| OpStats {
            label: label.to_string(),
            rows_in: 0,
            rows_out: 7,
            elapsed: Duration::from_millis(ms),
            workers: 1,
            morsels: 1,
            mem_bytes: 0,
            children,
        };
        let tree = leaf(
            "HashJoin [Inner, 1 keys]",
            10,
            vec![
                leaf(
                    "Project [3 exprs] mode=row",
                    4,
                    vec![leaf("Scan [9 rows × 3 cols]", 0, vec![])],
                ),
                leaf("IndexScan t.pk (1 keys) [of 9 rows]", 1, vec![]),
            ],
        );
        let b = ExecBreakdown::of(&tree);
        assert!((b.total - 0.010).abs() < 1e-12);
        assert!((b.families[0] - 0.004).abs() < 1e-12, "scan");
        assert!((b.families[1] - 0.001).abs() < 1e-12, "index scan");
        assert!((b.families[2] - 0.005).abs() < 1e-12, "join self time");
        assert_eq!(b.rows_examined, 14);
    }
}
