//! The virtual `sys.*` table namespace: names, schemas, name tests, and the
//! row snapshots the planner materializes. Schemas are static (only the
//! *rows* are live), so the semantic analyzer resolves them without touching
//! a registry.

use std::sync::Arc;

use super::{Histogram, Telemetry};
use crate::catalog::{Catalog, Column, Schema};
use crate::trace::WaitClass;
use crate::value::{DataType, Row, Value};

pub const METRICS: &str = "sys.metrics";
pub const QUERY_LOG: &str = "sys.query_log";
pub const TABLES: &str = "sys.tables";
pub const BORN_MODELS: &str = "sys.born_models";
pub const TRACE_SPANS: &str = "sys.trace_spans";
pub const WAIT_EVENTS: &str = "sys.wait_events";
pub const HISTOGRAMS: &str = "sys.histograms";

/// All virtual table names (lowercase canonical form).
pub const ALL: [&str; 7] = [
    METRICS,
    QUERY_LOG,
    TABLES,
    BORN_MODELS,
    TRACE_SPANS,
    WAIT_EVENTS,
    HISTOGRAMS,
];

/// Whether `name` lies in the reserved `sys.` namespace (it may still
/// fail to resolve if it matches no known virtual table).
pub fn is_sys_name(name: &str) -> bool {
    name.len() > 4 && name.as_bytes()[..4].eq_ignore_ascii_case(b"sys.")
}

/// Canonical (lowercase) name if `name` is a known virtual table.
pub fn canonical(name: &str) -> Option<&'static str> {
    ALL.iter().copied().find(|t| t.eq_ignore_ascii_case(name))
}

fn col(name: &str, ty: DataType) -> Column {
    Column {
        name: name.to_string(),
        ty,
    }
}

/// Static schema of a virtual table (`None` for unknown names).
pub fn schema(name: &str) -> Option<Schema> {
    use DataType::{Integer, Real, Text};
    let columns = match canonical(name)? {
        METRICS => vec![col("name", Text), col("kind", Text), col("value", Real)],
        QUERY_LOG => vec![
            col("id", Integer),
            col("sql", Text),
            col("status", Text),
            col("error", Text),
            col("cache_hit", Integer),
            col("slow", Integer),
            col("parse_us", Integer),
            col("sema_us", Integer),
            col("plan_us", Integer),
            col("exec_us", Integer),
            col("duration_ms", Real),
            col("rows", Integer),
            col("peak_mem_bytes", Integer),
            col("queue_wait_us", Integer),
            col("fsync_wait_us", Integer),
            col("retry_count", Integer),
        ],
        TABLES => vec![
            col("name", Text),
            col("rows", Integer),
            col("columns", Integer),
            col("primary_key", Text),
            col("secondary_indexes", Integer),
            col("derived_indexes", Integer),
        ],
        BORN_MODELS => vec![
            col("model", Text),
            col("deployed", Integer),
            col("predict_calls", Integer),
            col("predict_mean_us", Real),
            col("predict_p50_us", Real),
            col("predict_p99_us", Real),
            col("rows_returned", Integer),
            col("fit_batches", Integer),
            col("unlearn_calls", Integer),
        ],
        TRACE_SPANS => vec![
            col("statement_id", Integer),
            col("span_id", Integer),
            col("parent_id", Integer),
            col("name", Text),
            col("start_us", Integer),
            col("duration_us", Integer),
            col("wait_class", Text),
            col("rows", Integer),
            col("attrs", Text),
        ],
        WAIT_EVENTS => vec![
            col("wait_class", Text),
            col("count", Integer),
            col("total_us", Integer),
            col("mean_us", Real),
            col("max_us", Integer),
        ],
        HISTOGRAMS => vec![
            col("metric", Text),
            col("bucket_lo_us", Integer),
            col("bucket_hi_us", Integer),
            col("count", Integer),
        ],
        _ => unreachable!("canonical returns only known names"),
    };
    Some(Schema::new(columns))
}

/// Engine state `sys.metrics` reports beside the registry's own counters.
pub(crate) struct EngineGauges {
    pub plan_cache: crate::plan_cache::CacheStats,
    pub plan_cache_entries: usize,
    pub catalog_version: u64,
    pub wal_bytes: u64,
    pub wal_degraded: bool,
}

/// Materialize the named virtual table as a point-in-time row snapshot
/// (`None` for unknown names). `gauges` is only evaluated for `sys.metrics`.
pub(crate) fn materialize(
    name: &str,
    telemetry: &Telemetry,
    catalog: &Catalog,
    gauges: impl FnOnce() -> EngineGauges,
) -> Option<(Schema, Arc<Vec<Row>>)> {
    let canonical = canonical(name)?;
    let rows = match canonical {
        METRICS => metrics_rows(telemetry, catalog, &gauges()),
        QUERY_LOG => query_log_rows(telemetry),
        TABLES => tables_rows(catalog),
        BORN_MODELS => born_models_rows(telemetry),
        TRACE_SPANS => trace_spans_rows(telemetry),
        WAIT_EVENTS => wait_events_rows(telemetry),
        HISTOGRAMS => histograms_rows(telemetry),
        _ => unreachable!("canonical returns only known names"),
    };
    Some((schema(canonical)?, Arc::new(rows)))
}

fn opt_int(v: Option<u64>) -> Value {
    v.map_or(Value::Null, |v| Value::Int(v as i64))
}

/// One `sys.metrics` row.
fn metric(name: &str, kind: &str, value: f64) -> Row {
    vec![Value::text(name), Value::text(kind), Value::Float(value)]
}

fn metrics_rows(t: &Telemetry, catalog: &Catalog, g: &EngineGauges) -> Vec<Row> {
    // Built derived indexes only: a table no hash join has key-filtered
    // reports none (they are built on first use, and read without forcing
    // a build).
    let derived: usize = catalog
        .table_names()
        .into_iter()
        .filter_map(|name| catalog.get(&name).ok())
        .map(|table| table.derived.built().len())
        .sum();
    let cache = g.plan_cache;
    let mut rows: Vec<Row> = t
        .counters()
        .into_iter()
        .map(|(name, c)| (name, "counter", c.get() as f64))
        .chain([
            ("plan_cache.hits", "counter", cache.hits as f64),
            ("plan_cache.misses", "counter", cache.misses as f64),
            ("plan_cache.evictions", "counter", cache.evictions as f64),
            (
                "plan_cache.lifted_hits",
                "counter",
                cache.lifted_hits as f64,
            ),
            (
                "plan_cache.pinned_mismatches",
                "counter",
                cache.pinned_mismatches as f64,
            ),
            (
                "plan_cache.stats_replans",
                "counter",
                cache.stats_replans as f64,
            ),
            ("plan_cache.entries", "gauge", g.plan_cache_entries as f64),
            ("catalog.version", "gauge", g.catalog_version as f64),
            ("wal.bytes", "gauge", g.wal_bytes as f64),
            ("wal.degraded", "gauge", f64::from(g.wal_degraded)),
            ("derived_index.count", "gauge", derived as f64),
            ("mem.peak_bytes", "gauge", t.mem_peak_bytes.get() as f64),
        ])
        .map(|(name, kind, value)| metric(name, kind, value))
        .collect();
    for (_, prefix, h) in t.histograms() {
        let Some(prefix) = prefix else { continue };
        for (suffix, kind, value) in [
            ("count", "counter", h.count() as f64),
            ("mean_us", "histogram", h.mean_micros()),
            ("p50_us", "histogram", h.percentile_micros(0.50)),
            ("p99_us", "histogram", h.percentile_micros(0.99)),
            ("max_us", "histogram", h.max_micros() as f64),
        ] {
            rows.push(metric(&format!("{prefix}.{suffix}"), kind, value));
        }
    }
    for (op, agg) in t.op_rollups() {
        for (suffix, value) in [
            ("calls", agg.calls as f64),
            ("rows_out", agg.rows_out as f64),
            ("total_us", agg.nanos as f64 / 1e3),
        ] {
            rows.push(metric(&format!("op.{op}.{suffix}"), "counter", value));
        }
    }
    rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
    rows
}

fn query_log_rows(t: &Telemetry) -> Vec<Row> {
    t.query_log()
        .into_iter()
        .map(|e| {
            vec![
                Value::Int(e.id as i64),
                Value::Str(e.sql.into()),
                Value::text(e.status.as_str()),
                e.error.map_or(Value::Null, |m| Value::Str(m.into())),
                Value::Int(i64::from(e.cache_hit)),
                Value::Int(i64::from(e.slow)),
                Value::Int(e.parse_us as i64),
                Value::Int(e.sema_us as i64),
                Value::Int(e.plan_us as i64),
                Value::Int(e.exec_us as i64),
                Value::Float(e.total_us as f64 / 1e3),
                Value::Int(e.rows as i64),
                Value::Int(e.peak_mem_bytes as i64),
                opt_int(e.queue_wait_us),
                opt_int(e.fsync_wait_us),
                opt_int(e.retry_count),
            ]
        })
        .collect()
}

/// Every span of every kept statement trace, joinable to `sys.query_log` on
/// `statement_id`.
fn trace_spans_rows(t: &Telemetry) -> Vec<Row> {
    t.traces()
        .into_iter()
        .flat_map(|trace| {
            let statement_id = trace.statement_id;
            trace.spans.into_iter().map(move |s| {
                vec![
                    Value::Int(statement_id as i64),
                    Value::Int(i64::from(s.id)),
                    s.parent.map_or(Value::Null, |p| Value::Int(i64::from(p))),
                    Value::text(&s.name),
                    Value::Int(s.start_us as i64),
                    Value::Int(s.duration_us as i64),
                    s.wait_class
                        .map_or(Value::Null, |w| Value::text(w.as_str())),
                    opt_int(s.rows),
                    Value::Str(s.attrs_text().into()),
                ]
            })
        })
        .collect()
}

/// One rollup row per wait class, fed by the always-on wait histograms
/// (recorded only on contended paths, with or without trace sampling).
fn wait_events_rows(t: &Telemetry) -> Vec<Row> {
    [
        (WaitClass::Admission, &t.wait_admission_us),
        (WaitClass::Fsync, &t.wait_fsync_us),
        (WaitClass::WalRetry, &t.wait_wal_retry_us),
        (WaitClass::WorkerIdle, &t.wait_worker_idle_us),
    ]
    .into_iter()
    .map(|(class, hist)| {
        vec![
            Value::text(class.as_str()),
            Value::Int(hist.count() as i64),
            Value::Int(hist.sum_micros() as i64),
            Value::Float(hist.mean_micros()),
            Value::Int(hist.max_micros() as i64),
        ]
    })
    .collect()
}

/// The raw power-of-two latency buckets behind every latency histogram, one
/// row per non-empty bucket.
fn histograms_rows(t: &Telemetry) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, _, hist) in t.histograms() {
        for (i, count) in hist.bucket_counts().into_iter().enumerate() {
            if count == 0 {
                continue;
            }
            rows.push(vec![
                Value::text(name),
                Value::Int(Histogram::bucket_lo_us(i) as i64),
                Value::Int(Histogram::bucket_hi_us(i) as i64),
                Value::Int(count as i64),
            ]);
        }
    }
    rows
}

fn tables_rows(catalog: &Catalog) -> Vec<Row> {
    catalog
        .table_names()
        .into_iter()
        .filter_map(|name| {
            let t = catalog.get(&name).ok()?;
            Some(vec![
                Value::text(&name),
                Value::Int(t.row_count() as i64),
                Value::Int(t.schema.len() as i64),
                Value::Str(t.primary_key_names().join(",").into()),
                Value::Int(t.secondary.len() as i64),
                Value::Int(t.derived.built().len() as i64),
            ])
        })
        .collect()
}

fn born_models_rows(t: &Telemetry) -> Vec<Row> {
    t.with_models(|models| {
        models
            .iter()
            .map(|(name, s)| {
                vec![
                    Value::text(name),
                    Value::Int(i64::from(s.deployed)),
                    Value::Int(s.predict_calls as i64),
                    Value::Float(s.predict_us.mean_micros()),
                    Value::Float(s.predict_us.percentile_micros(0.50)),
                    Value::Float(s.predict_us.percentile_micros(0.99)),
                    Value::Int(s.rows_returned as i64),
                    Value::Int(s.fit_batches as i64),
                    Value::Int(s.unlearn_calls as i64),
                ]
            })
            .collect()
    })
}
