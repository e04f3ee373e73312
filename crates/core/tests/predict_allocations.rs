//! Allocation guard for the serving hot path: a cached, deployed single
//! `predict` on a flat model must stay under 154 heap allocations per call.
//!
//! The count comes from a global allocator that counts the allocations of
//! the calling thread, so the test harness's other threads do not show in
//! it. The fixture is the flat shape the benchmark's `serve_point` workload
//! serves: 2,000 items with 20 features each, an index on `features(n)`,
//! the model deployed, the engine at parallelism 1. Each call's `DataSpec`
//! is built before the counted region, as a caller holding one would.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bornsql::{BornSqlModel, DataSpec, ModelOptions};
use sqlengine::{Database, EngineConfig, Value};

/// The allocator of this test binary: the system's, counting every
/// allocation and reallocation the current thread makes.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down has no counter left.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const ITEMS: i64 = 2_000;
const FEATURES: i64 = 20;
const CLASSES: [&str; 4] = ["ai", "db", "ml", "os"];

/// The heap allocations a cached single predict must stay under: it made
/// 164 on this fixture while every call cloned its cached plan and rebuilt
/// the plan's pipelines, and 154 before pipelines were built at all.
const LIMIT: u64 = 154;

fn deployed(db: &Database) -> BornSqlModel<'_, Database> {
    db.execute_script(
        "CREATE TABLE labels (n INTEGER PRIMARY KEY, label TEXT);
         CREATE TABLE features (n INTEGER, term TEXT, cnt REAL);
         CREATE INDEX features_n ON features (n);",
    )
    .unwrap();
    let mut labels = Vec::new();
    let mut features = Vec::new();
    for n in 1..=ITEMS {
        let class = (n % CLASSES.len() as i64) as usize;
        labels.push(vec![Value::Int(n), Value::text(CLASSES[class])]);
        for f in 0..FEATURES {
            // Each class leans on its own terms, over a shared vocabulary.
            let term = (n * 7 + f * 13 + class as i64 * 101) % 600;
            features.push(vec![
                Value::Int(n),
                Value::text(format!("t{term}")),
                Value::Float(1.0 + (f % 3) as f64),
            ]);
        }
    }
    db.insert_rows("labels", labels).unwrap();
    db.insert_rows("features", features).unwrap();
    let model = BornSqlModel::create(db, "m", ModelOptions::default()).unwrap();
    let train = DataSpec::new("SELECT n, term AS j, cnt AS w FROM features")
        .with_targets("SELECT n, label AS k, 1.0 AS w FROM labels");
    model.fit(&train).unwrap();
    model.deploy().unwrap();
    model
}

fn single(id: i64) -> DataSpec {
    DataSpec::new("SELECT n, term AS j, cnt AS w FROM features")
        .with_items(format!("SELECT {id} AS n"))
}

#[test]
fn a_cached_deployed_predict_stays_under_its_allocation_budget() {
    let db = Database::with_config(EngineConfig::default().with_parallelism(1));
    let model = deployed(&db);
    // Plan and cache the statement's shape.
    for id in 1..=3 {
        assert_eq!(model.predict(&single(id)).unwrap().len(), 1);
    }
    let specs: Vec<DataSpec> = (100..400).map(single).collect();
    let (hits, _) = db.plan_cache_stats();
    let before = allocations();
    for spec in &specs {
        let predicted = model.predict(spec).unwrap();
        assert_eq!(predicted.len(), 1);
    }
    let per_call = (allocations() - before) as f64 / specs.len() as f64;
    let (hits_after, _) = db.plan_cache_stats();
    assert!(
        hits_after >= hits + specs.len() as u64,
        "every counted predict is a plan-cache hit"
    );
    eprintln!("a cached deployed predict makes {per_call:.1} heap allocations");
    assert!(
        per_call < LIMIT as f64,
        "{per_call:.1} heap allocations per cached predict, limit {LIMIT}"
    );
}

#[test]
fn a_predict_right_after_a_one_row_insert_is_a_hit_under_the_budget() {
    // A write keeps the cached plan: the next predict binds the written
    // table and stays within the budget of an undisturbed hit.
    let db = Database::with_config(EngineConfig::default().with_parallelism(1));
    let model = deployed(&db);
    for id in 1..=3 {
        assert_eq!(model.predict(&single(id)).unwrap().len(), 1);
    }
    let specs: Vec<DataSpec> = (100..200).map(single).collect();
    let mut counted = 0;
    for (at, spec) in specs.iter().enumerate() {
        let row = vec![
            Value::Int(ITEMS + 1 + at as i64),
            Value::text("t1"),
            Value::Float(1.0),
        ];
        db.insert_rows("features", vec![row]).unwrap();
        let (hits, misses) = db.plan_cache_stats();
        let before = allocations();
        assert_eq!(model.predict(spec).unwrap().len(), 1);
        counted += allocations() - before;
        let (hits_after, misses_after) = db.plan_cache_stats();
        assert_eq!((misses_after, hits_after > hits), (misses, true));
    }
    let per_call = counted as f64 / specs.len() as f64;
    eprintln!("a predict after a write makes {per_call:.1} heap allocations");
    assert!(
        per_call < LIMIT as f64,
        "{per_call:.1} heap allocations per predict after a write, limit {LIMIT}"
    );
}
