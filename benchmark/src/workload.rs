//! The four workloads and the legs every one of them runs.
//!
//! A workload is a set of conditions — data shape, size, where the state
//! lives, who else is using the database — under which the same user calls
//! are timed. Every workload runs every leg, so every end-to-end metric
//! exists on every workload; the conditions decide which layer the time
//! goes to, and the shares decide where the samples are spent.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use sqlengine::{Database, Value};
use textproc::CountVectorizer;

use crate::fixture::{self, Shape, Storage};
use crate::gen::{Doc, DocGen, Rng};
use crate::hostspeed::HostSpeed;
use crate::oracle::{Ops, Oracle};
use crate::spans::Recorder;
use crate::stats::{self, Samples};

/// Documents per streamed batch, per writer batch, and per window slot.
pub const BATCH_DOCS: usize = 10;
/// Items per `predict_batch` call.
pub const PREDICT_BATCH: usize = 64;
/// Items scored on the fly after `undeploy`.
const UNDEPLOYED_ITEMS: usize = 200;
/// Rows kept from `explain_local`.
pub const EXPLAIN_TOP: usize = 20;
/// Items explained per bulk cycle.
const EXPLAINS: usize = 3;
/// The stream redeploys after this many steps.
const DEPLOY_EVERY: usize = 50;
/// The concurrent writer's schedule: 100 operations per second, open loop.
const WRITER_PERIOD: Duration = Duration::from_millis(10);
/// Batches the concurrent writer cycles through.
const WRITER_BATCHES: usize = 8;
/// Times the finished directory is reopened.
const REOPENS: usize = 3;
/// Times set-up is repeated; the median is reported and the last is used.
const SETUPS: usize = 3;
/// Turns the legs take in one run.
pub const ROUNDS: usize = 4;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
    /// Documents fitted in the database the read legs use.
    pub docs: usize,
    /// The read legs run on the durable stream database (one database for
    /// everything) instead of on an in-memory one.
    pub durable_reads: bool,
    /// Single-item predicts draw ids uniformly from this many documents.
    /// The engine's plan cache holds 128 statements.
    pub id_pool: usize,
    /// A second thread learns and unlearns batches while single-item
    /// predicts run; partial-fit and unlearn latencies are then the
    /// writer's, timed from each operation's due time.
    pub concurrent_writer: bool,
    /// Batches in the stream's sliding window (its stationary size).
    pub stream_window: usize,
    /// Stream steps per second of its share: the stream runs a fixed count
    /// of steps, not a duration, so that its byte counts repeat exactly.
    /// Sized on the builder's machine; not a baseline.
    pub stream_steps_per_s: f64,
    /// Shares of `--seconds`: single predicts, batch predicts, bulk
    /// cycles, stream.
    pub shares: [f64; 4],
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve_point",
        why: "flat shape in memory, ids over 2,000 items (far more than the 128-entry plan cache): execution is a few index probes, so SQL generation, the deploy probe, parse, sema and plan do most of the work",
        shape: Shape::Flat,
        docs: 2_000,
        durable_reads: false,
        id_pool: 2_000,
        concurrent_writer: false,
        stream_window: 20,
        stream_steps_per_s: 60.0,
        shares: [0.35, 0.20, 0.25, 0.20],
    },
    Workload {
        name: "bulk_cycle",
        why: "the paper's star schema with prefixed arms, 3,000 docs in memory: scans, hash joins, aggregates, sort and the upsert do nearly all the work, so a front-end change predicts no move here",
        shape: Shape::Star,
        docs: 3_000,
        durable_reads: false,
        id_pool: 3_000,
        concurrent_writer: false,
        stream_window: 15,
        stream_steps_per_s: 30.0,
        shares: [0.25, 0.05, 0.50, 0.20],
    },
    Workload {
        name: "train_stream",
        why: "flat shape on a durable database, fsync per commit, a 1,000-doc sliding window of learn, unlearn and delete, then reopen: DML, index upkeep, WAL, checkpoints and recovery, which reads never touch",
        shape: Shape::Flat,
        docs: 1_000,
        durable_reads: true,
        id_pool: 1_000,
        concurrent_writer: false,
        stream_window: 100,
        stream_steps_per_s: 25.0,
        shares: [0.15, 0.10, 0.20, 0.55],
    },
    Workload {
        name: "mixed_rw",
        why: "flat in memory, a reader on 32 hot ids (fits the plan cache) beside a writer paced at 100 ops/s: writes invalidate cached plans and share the catalog lock, so a gain that costs the other side shows",
        shape: Shape::Flat,
        docs: 2_000,
        durable_reads: false,
        id_pool: 32,
        concurrent_writer: true,
        stream_window: 30,
        stream_steps_per_s: 55.0,
        shares: [0.45, 0.10, 0.25, 0.20],
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// A whole number of steps per round, and at least one redeploy.
    pub fn stream_steps(&self, seconds: f64) -> usize {
        let steps = (seconds * self.shares[3] * self.stream_steps_per_s).round() as usize;
        steps.max(DEPLOY_EVERY).div_ceil(ROUNDS) * ROUNDS
    }

    /// The ids single-item predicts draw from: the first `id_pool`
    /// documents loaded right now (on the stream database the window moves).
    pub fn id_pool_of(&self, oracle: &Oracle) -> Vec<i64> {
        let mut pool = oracle.loaded_ids();
        pool.truncate(self.id_pool);
        pool
    }

    fn budget(&self, seconds: f64, leg: usize) -> Duration {
        Duration::from_secs_f64(seconds * self.shares[leg])
    }
}

/// One database and its native mirror.
pub struct Bed {
    pub db: Database,
    pub oracle: Oracle,
}

impl Bed {
    /// Load, fit and deploy `docs`; returns the bed and the time the SQL
    /// side took (the oracle mirror is not part of set-up time).
    pub fn build(
        storage: &Storage,
        config: sqlengine::EngineConfig,
        shape: Shape,
        docs: &[Doc],
    ) -> (Bed, Duration) {
        let started = Instant::now();
        let db = storage.open(config);
        fixture::create_schema(&db, shape);
        fixture::insert_docs(&db, shape, docs, &CountVectorizer::default());
        let model = fixture::model(&db, shape);
        model.fit(&shape.train_all()).expect("initial fit");
        model.deploy().expect("initial deploy");
        let took = started.elapsed();
        let mut oracle = Oracle::new(shape);
        oracle.loaded(docs);
        oracle.fit_all();
        oracle.deploy();
        (Bed { db, oracle }, took)
    }
}

/// Everything set-up produces.
pub struct Env {
    /// `None` when the read legs run on the stream database.
    pub read: Option<Bed>,
    pub stream: Bed,
    pub stream_dir: PathBuf,
    /// Id ranges of the batches in the stream's window, oldest first.
    pub window: VecDeque<(i64, i64)>,
    /// Raw documents the stream will ingest, in order.
    pub feed: Vec<Doc>,
    /// Id ranges of the loaded, unlearned batches the writer cycles through.
    writer_batches: Vec<(i64, i64)>,
    /// Documents loaded into the in-memory read database (none when the
    /// read legs run on the stream database).
    read_docs: Vec<Doc>,
    /// Documents the stream database was set up with.
    pub window_docs: Vec<Doc>,
    pub digest: u64,
}

impl Env {
    pub fn read_bed(&mut self) -> &mut Bed {
        self.read.as_mut().unwrap_or(&mut self.stream)
    }

    /// Documents loaded into the database the read legs use.
    pub fn read_docs(&self) -> &[Doc] {
        if self.read.is_some() {
            &self.read_docs
        } else {
            &self.window_docs
        }
    }
}

fn id_range(docs: &[Doc]) -> (i64, i64) {
    (docs[0].id, docs[docs.len() - 1].id)
}

/// Generate, load, fit, deploy and warm up; returns the set-up time.
pub fn setup(w: &Workload, seed: u64, steps: usize, out_dir: &Path) -> (Env, Duration) {
    let started = Instant::now();
    let mut gen = DocGen::new(seed);
    let mut next_id = 1i64;
    let mut take = |n: usize| {
        let docs = gen.docs(next_id, n);
        next_id += n as i64;
        docs
    };
    // The writer's batches sit in the read tables, loaded and not learned.
    let mut read_docs = if w.durable_reads {
        Vec::new()
    } else {
        take(w.docs)
    };
    let fitted = read_docs.len();
    if w.concurrent_writer {
        read_docs.extend(take(WRITER_BATCHES * BATCH_DOCS));
    }
    let window_docs = take(w.stream_window * BATCH_DOCS);
    let feed = take(steps * BATCH_DOCS);
    let digest = [&read_docs, &window_docs, &feed]
        .iter()
        .fold(0u64, |h, part| h.rotate_left(17) ^ crate::gen::digest(part));
    let mut took = started.elapsed();

    let stream_dir = fixture::fresh_dir(out_dir, &format!("db-{}", w.name));
    let (stream, t) = Bed::build(
        &Storage::Durable(stream_dir.clone()),
        fixture::durable_config(),
        w.shape,
        &window_docs,
    );
    took += t;
    let read = (!w.durable_reads).then(|| {
        let (fitted, unlearned) = read_docs.split_at(fitted);
        let (mut bed, t) = Bed::build(&Storage::Memory, fixture::memory_config(), w.shape, fitted);
        took += t;
        if !unlearned.is_empty() {
            let t = Instant::now();
            fixture::insert_docs(&bed.db, w.shape, unlearned, &CountVectorizer::default());
            took += t.elapsed();
            bed.oracle.loaded(unlearned);
        }
        bed
    });

    let mut env = Env {
        read,
        stream,
        stream_dir,
        window: window_docs.chunks(BATCH_DOCS).map(id_range).collect(),
        feed,
        writer_batches: read_docs[fitted..]
            .chunks(BATCH_DOCS)
            .map(id_range)
            .collect(),
        read_docs,
        window_docs,
        digest,
    };
    // Warm-up: the first statements of each kind pay for lazily built
    // column chunks and allocator growth, which no later call pays again.
    let t = Instant::now();
    let shape = w.shape;
    let bed = env.read_bed();
    let model = fixture::model(&bed.db, shape);
    for id in 1..=8 {
        model
            .predict(&shape.score_one(id))
            .expect("warm-up predict");
    }
    let items: Vec<Value> = (1..=PREDICT_BATCH as i64).map(Value::Int).collect();
    model
        .predict_batch(&shape.score_all(), &items)
        .expect("warm-up batch");
    took += t.elapsed();
    (env, took)
}

/// Run set-up [`SETUPS`] times, keeping the last.
fn setup_repeated(
    w: &Workload,
    seed: u64,
    steps: usize,
    out_dir: &Path,
    speed: &mut HostSpeed,
) -> (Env, Samples) {
    let mut times = Samples::default();
    let mut env = None;
    for _ in 0..SETUPS {
        // The previous databases go first: the directory is reused, and
        // peak memory should be that of one set-up, not three.
        drop(env.take());
        speed.read();
        let (e, took) = setup(w, seed, steps, out_dir);
        times.push(took);
        speed.read();
        env = Some(e);
    }
    (env.expect("at least one set-up"), times)
}

/// Loop `body` until `budget` has passed, and at least `min` times.
fn repeat_for(budget: Duration, min: usize, mut body: impl FnMut()) -> Duration {
    let started = Instant::now();
    let mut done = 0;
    while done < min || started.elapsed() < budget {
        body();
        done += 1;
    }
    started.elapsed()
}

/// What the concurrent writer measured.
#[derive(Default)]
pub struct WriterSamples {
    /// Timed from each operation's due time.
    pub partial_fit: Samples,
    pub unlearn: Samples,
    /// How late each operation started after it was due.
    pub lateness: Samples,
}

impl WriterSamples {
    fn extend(&mut self, other: WriterSamples) {
        self.partial_fit.extend(other.partial_fit);
        self.unlearn.extend(other.unlearn);
        self.lateness.extend(other.lateness);
    }
}

/// Every sample a run takes, by kind of operation.
#[derive(Default)]
pub struct Tally {
    pub predict: Samples,
    /// Seconds per item of `predict_batch`.
    pub batch_item: Samples,
    /// Seconds per document of `fit`.
    pub fit_doc: Samples,
    pub deploy: Samples,
    /// Seconds per item of a deployed `predict` over all items.
    pub score_item: Samples,
    pub explain: Samples,
    /// Seconds per item of a `predict` after `undeploy`.
    pub undeployed_item: Samples,
    /// From the stream's steps.
    pub partial_fit: Samples,
    pub unlearn: Samples,
    /// Whole steps; the oracle's mirror of a step is not in them.
    pub step: Samples,
    /// Steps during which the WAL was folded into a checkpoint
    /// (`wal_bytes()` shrank).
    pub checkpoint_steps: Samples,
    pub stream_docs: usize,
    /// `sys.metrics` counters, summed over the stream legs only.
    pub stream_counters: BTreeMap<String, f64>,
    pub writer: WriterSamples,
    pub reopen: Samples,
    /// Over the single-predict legs.
    pub single_elapsed: Duration,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub catalog_versions: u64,
}

/// One run's state across its legs.
pub struct Run {
    w: &'static Workload,
    pub rec: Recorder,
    pub ops: Ops,
    pub tally: Tally,
    /// Read between operations by every leg; see `hostspeed.rs`.
    pub speed: HostSpeed,
    single_rng: Rng,
    batch_rng: Rng,
    bulk_rng: Rng,
}

/// `PREDICT_BATCH` distinct ids out of `ids`, sorted.
fn draw_batch(rng: &mut Rng, ids: &[i64]) -> Vec<i64> {
    let mut pool = ids.to_vec();
    for i in 0..PREDICT_BATCH {
        let j = i + rng.below(pool.len() - i);
        pool.swap(i, j);
    }
    pool.truncate(PREDICT_BATCH);
    pool.sort_unstable();
    pool
}

/// Counters of `sys.metrics`, by name.
pub fn sys_metrics(db: &Database) -> BTreeMap<String, f64> {
    db.query("SELECT name, value FROM sys.metrics")
        .expect("read sys.metrics")
        .rows
        .into_iter()
        .filter_map(|row| Some((row[0].to_string(), row[1].as_f64().ok()??)))
        .collect()
}

impl Run {
    pub fn new(w: &'static Workload, seed: u64, recording: bool) -> Run {
        Run {
            w,
            rec: Recorder::new(recording),
            ops: Ops::default(),
            tally: Tally::default(),
            speed: HostSpeed::new(),
            single_rng: Rng::fork(seed, "single"),
            batch_rng: Rng::fork(seed, "batch"),
            bulk_rng: Rng::fork(seed, "bulk"),
        }
    }

    /// The open-loop writer: operation `k` is due at `start + k × period`
    /// whatever happened to operation `k − 1`, and its latency runs from
    /// then. Alternates learning and unlearning the same batch, and stops
    /// only after an unlearn, so the corpus ends where it began.
    fn writer_loop(
        db: &Database,
        shape: Shape,
        batches: &[(i64, i64)],
        stop: &AtomicBool,
    ) -> (WriterSamples, Ops, Vec<(&'static str, Instant, Instant)>) {
        let model = fixture::model(db, shape);
        let (mut samples, mut ops, mut spans) =
            (WriterSamples::default(), Ops::default(), Vec::new());
        let start = Instant::now();
        let mut k = 0u32;
        loop {
            let due = start + WRITER_PERIOD * k;
            // Spin rather than sleep: a sleeping thread is woken on the
            // scheduler's 4 ms tick when the reader keeps its core busy,
            // and that tick, not the engine, would set every latency.
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            let learn = k.is_multiple_of(2);
            if learn && stop.load(Ordering::SeqCst) {
                return (samples, ops, spans);
            }
            let (lo, hi) = batches[(k as usize / 2) % batches.len()];
            let spec = shape.train_range(lo, hi);
            let begun = Instant::now();
            let (name, result) = if learn {
                ("model.partial_fit", model.partial_fit(&spec))
            } else {
                ("model.unlearn", model.unlearn(&spec))
            };
            let done = Instant::now();
            ops.run(name, result);
            samples.lateness.push(begun.saturating_duration_since(due));
            let latency = done.saturating_duration_since(due);
            if learn {
                samples.partial_fit.push(latency);
            } else {
                samples.unlearn.push(latency);
            }
            spans.push((name, begun, done));
            k += 1;
        }
    }

    /// Leg 1: closed-loop single-item predicts, ids uniform over the
    /// workload's pool; beside the paced writer when the workload has one.
    pub fn single_leg(&mut self, env: &mut Env, budget: Duration) {
        let w = self.w;
        let shape = w.shape;
        let writer_batches = env.writer_batches.clone();
        let Bed { db, oracle } = env.read_bed();
        let db: &Database = db;
        let model = fixture::model(db, shape);
        let pool = w.id_pool_of(oracle);
        let (hits, misses) = db.plan_cache_stats();
        let version = db.catalog_version();
        let stop = AtomicBool::new(false);
        let Run {
            rec,
            ops,
            tally,
            speed,
            single_rng: rng,
            ..
        } = self;

        let written = std::thread::scope(|scope| {
            let writer = w.concurrent_writer.then(|| {
                let (stop, batches) = (&stop, &writer_batches);
                scope.spawn(move || Self::writer_loop(db, shape, batches, stop))
            });
            tally.single_elapsed += repeat_for(budget, 4, || {
                speed.tick();
                let id = pool[rng.below(pool.len())];
                let spec = shape.score_one(id);
                rec.next_op();
                let (result, took) = rec.time("model.predict", || model.predict(&spec));
                tally.predict.push(took);
                if let Some(rows) = ops.run("model.predict", result) {
                    ops.record(oracle.check_predictions(&rows, &[id]));
                }
            });
            stop.store(true, Ordering::SeqCst);
            writer.map(|h| h.join().expect("writer thread panicked"))
        });
        let (hits_now, misses_now) = db.plan_cache_stats();
        tally.cache_hits += hits_now - hits;
        tally.cache_misses += misses_now - misses;
        tally.catalog_versions += db.catalog_version() - version;
        if let Some((samples, writer_ops, spans)) = written {
            tally.writer.extend(samples);
            ops.merge(writer_ops);
            for (name, begun, done) in spans {
                rec.add(name, begun, done);
            }
            // Every batch learned was unlearned: the corpus must be back.
            let corpus = ops.run("model.corpus", model.corpus());
            ops.record(corpus.and_then(|c| oracle.check_corpus(&c)));
        }
    }

    /// Leg 2: `predict_batch` of [`PREDICT_BATCH`] ids drawn from every
    /// loaded document.
    pub fn batch_leg(&mut self, env: &mut Env, budget: Duration) {
        let shape = self.w.shape;
        let Bed { db, oracle } = env.read_bed();
        let model = fixture::model(db, shape);
        let ids = oracle.loaded_ids();
        let spec = shape.score_all();
        let Run {
            rec,
            ops,
            tally,
            speed,
            batch_rng: rng,
            ..
        } = self;
        repeat_for(budget, 1, || {
            speed.tick();
            let batch = draw_batch(rng, &ids);
            let items: Vec<Value> = batch.iter().map(|id| Value::Int(*id)).collect();
            rec.next_op();
            let (result, took) =
                rec.time("model.predict_batch", || model.predict_batch(&spec, &items));
            tally.batch_item.push(took / PREDICT_BATCH as u32);
            if let Some(rows) = ops.run("model.predict_batch", result) {
                ops.record(oracle.check_predictions(&rows, &batch));
            }
        });
    }

    /// Leg 3, the paper's Figs. 3, 4, 6 and Table 4 in one loop: repeat
    /// {fit → deploy → predict all → explain three items → undeploy →
    /// predict 200 on the fly}, then deploy once more so the model ends
    /// deployed.
    pub fn bulk_leg(&mut self, env: &mut Env, budget: Duration) {
        let shape = self.w.shape;
        let writer_docs = env
            .writer_batches
            .first()
            .zip(env.writer_batches.last())
            .map(|(first, last)| (first.0, last.1));
        let Bed { db, oracle } = env.read_bed();
        let model = fixture::model(db, shape);
        let ids = oracle.loaded_ids();
        let Run {
            rec,
            ops,
            tally,
            speed,
            bulk_rng: rng,
            ..
        } = self;
        let deploy = |rec: &mut Recorder, ops: &mut Ops, tally: &mut Tally, oracle: &mut Oracle| {
            let (result, took) = rec.time("model.deploy", || model.deploy());
            ops.run("model.deploy", result);
            tally.deploy.push(took);
            oracle.deploy();
        };
        repeat_for(budget, 1, || {
            speed.tick();
            rec.next_op();
            let (result, took) = rec.time("model.fit", || model.fit(&shape.train_all()));
            ops.run("model.fit", result);
            tally.fit_doc.push(took.div_f64(ids.len() as f64));
            oracle.fit_all();
            let corpus = ops.run("model.corpus", model.corpus());
            ops.record(corpus.and_then(|c| oracle.check_corpus(&c)));

            speed.tick();
            deploy(rec, ops, tally, oracle);

            speed.tick();
            let (result, took) =
                rec.time("model.predict_all", || model.predict(&shape.score_all()));
            if let Some(rows) = ops.run("model.predict(all)", result) {
                tally
                    .score_item
                    .push(took.div_f64(rows.len().max(1) as f64));
                ops.record(oracle.check_predictions(&rows, &ids));
            }

            speed.tick();
            for _ in 0..EXPLAINS {
                let id = ids[rng.below(ids.len())];
                let (result, took) = rec.time("model.explain_local", || {
                    model.explain_local(&shape.score_one(id), Some(EXPLAIN_TOP))
                });
                tally.explain.push(took);
                if let Some(rows) = ops.run("model.explain_local", result) {
                    ops.record(oracle.check_explanation(&rows, id, EXPLAIN_TOP));
                }
            }

            ops.run("model.undeploy", model.undeploy());
            let first = rng.below(ids.len() - UNDEPLOYED_ITEMS);
            let expected = &ids[first..first + UNDEPLOYED_ITEMS];
            let spec = shape.score_range(expected[0], expected[UNDEPLOYED_ITEMS - 1]);
            let (result, took) = rec.time("model.predict_undeployed", || model.predict(&spec));
            if let Some(rows) = ops.run("model.predict(undeployed)", result) {
                tally
                    .undeployed_item
                    .push(took.div_f64(rows.len().max(1) as f64));
                ops.record(oracle.check_predictions(&rows, expected));
            }
        });
        // The concurrent writer's batches sit in the tables `fit` reads, so
        // every cycle has just learned them. Take them back, untimed: the
        // writer learns batches the model does not hold and unlearns them
        // down to nothing, in every round as in the first.
        if let Some((lo, hi)) = writer_docs {
            ops.run("model.unlearn", model.unlearn(&shape.train_range(lo, hi)));
            oracle.unlearn(lo..=hi);
        }
        rec.next_op();
        deploy(rec, ops, tally, oracle);
    }

    /// Leg 4, the stream. Each step: vectorize ten raw abstracts →
    /// `insert_rows` → `partial_fit` of the new batch → `unlearn` and
    /// `DELETE` of the batch that left the window; `deploy` every
    /// [`DEPLOY_EVERY`] steps. Runs every batch of `feed`.
    pub fn stream_leg(&mut self, bed: &mut Bed, window: &mut VecDeque<(i64, i64)>, feed: &[Doc]) {
        let shape = self.w.shape;
        let Bed { db, oracle } = bed;
        let db: &Database = db;
        let model = fixture::model(db, shape);
        let vectorizer = CountVectorizer::default();
        let Run {
            rec,
            ops,
            tally,
            speed,
            ..
        } = self;
        let counters_before = sys_metrics(db);
        for batch in feed.chunks(BATCH_DOCS) {
            speed.tick();
            rec.next_op();
            let wal_before = db.wal_bytes();
            let step = rec.enter("stream.step");

            let (rows, _) = rec.time("textproc.vectorize", || shape.rows(batch, &vectorizer));
            let ((), _) = rec.time("sqlengine.insert_rows", || {
                for (table, rows) in rows {
                    ops.run("insert_rows", db.insert_rows(table, rows));
                }
            });
            let (lo, hi) = id_range(batch);
            let (result, took) = rec.time("model.partial_fit", || {
                model.partial_fit(&shape.train_range(lo, hi))
            });
            ops.run("model.partial_fit", result);
            tally.partial_fit.push(took);
            window.push_back((lo, hi));

            let (old_lo, old_hi) = window.pop_front().expect("window is never empty");
            let (result, took) = rec.time("model.unlearn", || {
                model.unlearn(&shape.train_range(old_lo, old_hi))
            });
            ops.run("model.unlearn", result);
            tally.unlearn.push(took);
            let ((), _) = rec.time("sqlengine.delete", || {
                for statement in shape.delete_range(old_lo, old_hi) {
                    ops.run("DELETE", db.execute(&statement));
                }
            });

            let redeploy = (tally.step.len() + 1) % DEPLOY_EVERY == 0;
            if redeploy {
                let (result, _) = rec.time("model.deploy", || model.deploy());
                ops.run("model.deploy", result);
            }
            let took = rec.exit(step);
            tally.step.push(took);
            if db.wal_bytes() < wal_before {
                tally.checkpoint_steps.push(took);
            }

            // The oracle's mirror of the step, outside the step's time.
            oracle.loaded(batch);
            oracle.partial_fit(lo..=hi);
            oracle.unlearn(old_lo..=old_hi);
            oracle.removed(old_lo..=old_hi);
            if redeploy {
                oracle.deploy();
            }
        }
        tally.stream_docs += feed.len();
        for (name, after) in sys_metrics(db) {
            let before = counters_before.get(&name).copied().unwrap_or(0.0);
            *tally.stream_counters.entry(name).or_insert(0.0) += after - before;
        }
    }

    /// After the stream, fit ≡ Σ partial_fit − Σ unlearn: the corpus is
    /// the oracle's, and a fresh deploy predicts what the oracle predicts.
    pub fn check_stream(&mut self, bed: &mut Bed) {
        let shape = self.w.shape;
        let Bed { db, oracle } = bed;
        let model = fixture::model(db, shape);
        let ops = &mut self.ops;
        let corpus = ops.run("model.corpus", model.corpus());
        ops.record(corpus.and_then(|c| oracle.check_corpus(&c)));
        ops.run("model.deploy", model.deploy());
        oracle.deploy();
        let ids = oracle.loaded_ids();
        if let Some(rows) = ops.run("model.predict(all)", model.predict(&shape.score_all())) {
            ops.record(oracle.check_predictions(&rows, &ids));
        }
    }

    /// Leg 5: checkpoint and close the stream database and reopen its
    /// directory [`REOPENS`] times; after each reopen the model must be
    /// what it was before the close.
    pub fn recovery_leg(&mut self, bed: Bed, dir: &Path) -> Bed {
        let shape = self.w.shape;
        let Bed { db, oracle } = bed;
        let before = fixture::model(&db, shape)
            .corpus()
            .expect("corpus before close");
        // Every seed reopens the same kind of state, a checkpoint and an
        // empty log: how much log the stream leaves behind differs from
        // seed to seed, and its replay moves the reopen by up to a
        // quarter. Replay alone is `sqlengine.wal.replay_ms`.
        self.ops.run("Database::checkpoint", db.checkpoint());
        drop(db);
        let Run {
            rec,
            ops,
            tally,
            speed,
            ..
        } = self;
        let mut reopened = None;
        speed.read();
        for _ in 0..REOPENS {
            drop(reopened.take());
            rec.next_op();
            let (result, took) = rec.time("sqlengine.open", || {
                Database::open(dir, fixture::durable_config())
            });
            tally.reopen.push(took);
            speed.read();
            let Some(db) = ops.run("Database::open", result) else {
                continue;
            };
            let model = fixture::model(&db, shape);
            let problem = match model.corpus() {
                Err(e) => Some(format!("corpus after reopen: {e}")),
                Ok(after) if after.len() != before.len() => Some(format!(
                    "{} corpus cells after reopen, {} before",
                    after.len(),
                    before.len()
                )),
                Ok(after) => after
                    .iter()
                    .zip(&before)
                    .find(|(a, b)| a.0 != b.0 || a.1 != b.1 || a.2.to_bits() != b.2.to_bits())
                    .map(|(a, b)| format!("corpus cell {a:?} after reopen, {b:?} before")),
            };
            ops.record(problem.or_else(|| {
                (!model.is_deployed()).then(|| "model not deployed after reopen".to_string())
            }));
            let ids: Vec<i64> = oracle
                .loaded_ids()
                .into_iter()
                .take(PREDICT_BATCH)
                .collect();
            let items: Vec<Value> = ids.iter().map(|id| Value::Int(*id)).collect();
            if let Some(rows) = ops.run(
                "model.predict_batch",
                model.predict_batch(&shape.score_all(), &items),
            ) {
                ops.record(oracle.check_predictions(&rows, &ids));
            }
            reopened = Some(db);
        }
        let db = reopened.unwrap_or_else(|| {
            Database::open(dir, fixture::durable_config()).expect("reopen stream directory")
        });
        Bed { db, oracle }
    }
}

// ---------------------------------------------------------------------
// The untraced run: every end-to-end metric
// ---------------------------------------------------------------------

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// The same statistic of the timings as the clock gave them, where
    /// `value` is scaled to the host's speed.
    pub raw: Option<f64>,
    /// Samples behind the number (0 for counts and gauges).
    pub samples: usize,
}

impl Metric {
    /// A count or a gauge.
    pub fn plain(name: &'static str, value: f64) -> Metric {
        Metric {
            name,
            value,
            raw: None,
            samples: 0,
        }
    }

    /// A statistic of timings, scaled to the host's speed.
    fn timing(
        name: &'static str,
        speed: &HostSpeed,
        samples: &Samples,
        statistic: impl Fn(&Samples) -> f64,
    ) -> Metric {
        Metric {
            name,
            value: statistic(&speed.scaled(samples)),
            raw: Some(statistic(samples)),
            samples: samples.len(),
        }
    }
}

pub struct Report {
    pub metrics: Vec<Metric>,
    pub ops: Ops,
    pub digest: u64,
    /// Median time of the host-speed kernel over the run, in seconds.
    pub host_kernel: f64,
}

pub fn run_end_to_end(w: &'static Workload, seed: u64, seconds: f64, out_dir: &Path) -> Report {
    let steps = w.stream_steps(seconds);
    let mut run = Run::new(w, seed, false);
    let (mut env, setups) = setup_repeated(w, seed, steps, out_dir, &mut run.speed);

    // The legs take turns, a slice of each per round, so that every
    // metric samples the whole run: the machine's speed drifts over
    // seconds, and a leg run in one piece would report the speed of its
    // own few seconds.
    let feed = std::mem::take(&mut env.feed);
    let mut window = std::mem::take(&mut env.window);
    for round in 0..ROUNDS {
        run.single_leg(&mut env, w.budget(seconds, 0) / ROUNDS as u32);
        run.batch_leg(&mut env, w.budget(seconds, 1) / ROUNDS as u32);
        run.bulk_leg(&mut env, w.budget(seconds, 2) / ROUNDS as u32);
        if w.durable_reads {
            // Fold the log the bulk leg wrote, so that the stream's bytes
            // and checkpoints are its own and repeat for a seed however
            // many bulk cycles the machine managed.
            env.stream.db.checkpoint().expect("checkpoint");
        }
        let slice = |r: usize| r * steps / ROUNDS * BATCH_DOCS;
        run.stream_leg(
            &mut env.stream,
            &mut window,
            &feed[slice(round)..slice(round + 1)],
        );
    }
    run.check_stream(&mut env.stream);
    let Env {
        read,
        stream,
        stream_dir,
        digest,
        ..
    } = env;
    drop(read);
    drop(run.recovery_leg(stream, &stream_dir));
    std::fs::remove_dir_all(&stream_dir).expect("remove stream directory");

    // Beside a writer, learning and unlearning are timed where they
    // compete with reads; otherwise in the stream.
    let Run {
        tally, ops, speed, ..
    } = run;
    let (partial_fit, unlearn) = if w.concurrent_writer {
        (&tally.writer.partial_fit, &tally.writer.unlearn)
    } else {
        (&tally.partial_fit, &tally.unlearn)
    };
    let wal_bytes =
        tally.stream_counters["wal.append_bytes"] + tally.stream_counters["wal.checkpoint_bytes"];
    let docs = tally.stream_docs as f64;
    let t = |name, samples, statistic: &dyn Fn(&Samples) -> f64| {
        Metric::timing(name, &speed, samples, statistic)
    };
    let metrics = vec![
        t("setup_s", &setups, &Samples::median),
        Metric::plain("peak_rss_mb", stats::peak_rss_mib()),
        t("predict_p50_us", &tally.predict, &|s| s.median() * 1e6),
        t("predict_batch_item_us", &tally.batch_item, &|s| {
            s.median() * 1e6
        }),
        t("fit_docs_per_s", &tally.fit_doc, &|s| 1.0 / s.median()),
        t("deploy_ms", &tally.deploy, &|s| s.median() * 1e3),
        t("score_items_per_s", &tally.score_item, &|s| {
            1.0 / s.median()
        }),
        t(
            "score_undeployed_items_per_s",
            &tally.undeployed_item,
            &|s| 1.0 / s.median(),
        ),
        t("explain_local_ms", &tally.explain, &|s| s.median() * 1e3),
        t("partial_fit_p50_ms", partial_fit, &|s| s.median() * 1e3),
        t("unlearn_p50_ms", unlearn, &|s| s.median() * 1e3),
        t("ingest_docs_per_s", &tally.step, &|s| docs / s.sum()),
        t("recovery_ms", &tally.reopen, &|s| s.median() * 1e3),
        Metric::plain("wal_bytes_per_doc", wal_bytes / docs),
    ];
    Report {
        metrics,
        ops,
        digest,
        host_kernel: speed.kernel_median(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::spec::END_TO_END;

    /// A workload small enough for a debug build, with every moving part:
    /// the star shape, the concurrent writer, a hot id pool.
    pub(crate) static TINY: Workload = Workload {
        name: "tiny",
        why: "smoke test",
        shape: Shape::Star,
        docs: 260,
        durable_reads: false,
        id_pool: 16,
        concurrent_writer: true,
        stream_window: 4,
        stream_steps_per_s: 1.0,
        shares: [0.25; 4],
    };

    pub(crate) fn out_dir(name: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(name)
    }

    #[test]
    fn an_untraced_run_emits_exactly_the_declared_end_to_end_metrics() {
        let out = out_dir("test-end-to-end");
        std::fs::create_dir_all(&out).unwrap();
        let report = run_end_to_end(&TINY, 3, 0.5, &out);
        std::fs::remove_dir_all(&out).unwrap();
        let emitted: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(emitted, declared);
        for m in &report.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} = {}",
                m.name,
                m.value
            );
        }
        assert_eq!(report.ops.failed, 0, "{:?}", report.ops.messages);
        assert!(report.ops.attempted > 100);
    }

    #[test]
    fn the_stream_runs_a_whole_number_of_steps_per_round() {
        for w in &WORKLOADS {
            for seconds in [1.0, 2.0, 12.0, 30.0] {
                let steps = w.stream_steps(seconds);
                assert_eq!(steps % ROUNDS, 0);
                assert!(steps >= DEPLOY_EVERY);
            }
        }
    }

    #[test]
    fn shares_cover_the_run() {
        for w in &WORKLOADS {
            assert!(
                (w.shares.iter().sum::<f64>() - 1.0).abs() < 1e-9,
                "{}",
                w.name
            );
        }
    }
}
