//! The names, units and bounds of every metric: what `BENCHMARK.json`
//! declares and what a run prints. A test holds the two together.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// The workloads the metric was designed for (ISSUE 12's table): where
    /// most of the samples are spent, where a claim should be made, and
    /// the pairs `run.sh aa` fails on. Every workload reports every
    /// metric all the same; the contract asks for that.
    pub primary: &'static [&'static str],
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    primary: &'static [&'static str],
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        primary,
    }
}

const ALL: &[&str] = &["serve_point", "bulk_cycle", "train_stream", "mixed_rw"];
const BULK: &[&str] = &["bulk_cycle"];
const STREAM: &[&str] = &["train_stream"];
const WRITES: &[&str] = &["train_stream", "mixed_rw"];

/// A bound is at least three times the widest spread (Q3 − Q1 over the
/// median of ten seeds) seen on any workload on the builder's machine
/// (README.md has the table), as the contract asks; 0.25 is the most it
/// allows, and what every timing needs. ISSUE 12 asked for 10 % on medians
/// and 1 % on `wal_bytes_per_doc`; timings spread by 2 to 10 % here even
/// after scaling to the host's speed, and bytes per document by 1 %
/// between seeds. The two tails the issue listed spread by 12 to 20 % and
/// are reported per layer instead.
pub const END_TO_END: [EndToEnd; 14] = [
    e2e("setup_s", "s", "lower", 0.25, ALL),
    e2e("peak_rss_mb", "MiB", "lower", 0.10, ALL),
    e2e(
        "predict_p50_us",
        "us",
        "lower",
        0.25,
        &["serve_point", "bulk_cycle", "mixed_rw"],
    ),
    e2e(
        "predict_batch_item_us",
        "us",
        "lower",
        0.25,
        &["serve_point"],
    ),
    e2e("fit_docs_per_s", "docs/s", "higher", 0.25, BULK),
    e2e(
        "deploy_ms",
        "ms",
        "lower",
        0.25,
        &["bulk_cycle", "train_stream"],
    ),
    e2e("score_items_per_s", "items/s", "higher", 0.25, BULK),
    e2e(
        "score_undeployed_items_per_s",
        "items/s",
        "higher",
        0.25,
        BULK,
    ),
    e2e("explain_local_ms", "ms", "lower", 0.25, BULK),
    e2e("partial_fit_p50_ms", "ms", "lower", 0.25, WRITES),
    e2e("unlearn_p50_ms", "ms", "lower", 0.25, STREAM),
    e2e("ingest_docs_per_s", "docs/s", "higher", 0.25, STREAM),
    e2e("recovery_ms", "ms", "lower", 0.25, STREAM),
    e2e("wal_bytes_per_doc", "B/doc", "lower", 0.04, STREAM),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Layer = module name. All are timed from the benchmark around public
/// calls; differences are taken between medians.
pub const PER_LAYER: [PerLayer; 51] = [
    layer("bornsql.sql.predict_gen_us", "us", "lower"),
    layer("bornsql.sql.partial_fit_gen_us", "us", "lower"),
    layer("bornsql.model.deploy_probe_us", "us", "lower"),
    layer("bornsql.model.overhead_us", "us", "lower"),
    layer("bornsql.model.over_engine_ratio", "ratio", "lower"),
    layer("bornsql.model.deploy_gap_reads", "count", "lower"),
    layer("textproc.vectorize_docs_per_s", "docs/s", "higher"),
    layer("born.native_predict_us", "us", "lower"),
    layer("sqlengine.lexer.tokenize_us", "us", "lower"),
    layer("sqlengine.parser.parse_us", "us", "lower"),
    layer("sqlengine.sema.check_us", "us", "lower"),
    layer("sqlengine.plan.plan_us", "us", "lower"),
    layer("sqlengine.verify.overhead_us", "us", "lower"),
    layer("sqlengine.engine.cold_query_us", "us", "lower"),
    layer("sqlengine.engine.literal_hit_query_us", "us", "lower"),
    layer("sqlengine.engine.param_query_us", "us", "lower"),
    layer("sqlengine.engine.prepared_query_us", "us", "lower"),
    layer("sqlengine.engine.plan_cache_hit_ratio", "ratio", "higher"),
    layer(
        "sqlengine.engine.plan_cache_invalidations_per_s",
        "1/s",
        "lower",
    ),
    layer("sqlengine.exec.total_us", "us", "lower"),
    layer("sqlengine.exec.scan_us", "us", "lower"),
    layer("sqlengine.exec.index_scan_us", "us", "lower"),
    layer("sqlengine.exec.join_us", "us", "lower"),
    layer("sqlengine.exec.aggregate_us", "us", "lower"),
    layer("sqlengine.exec.window_sort_us", "us", "lower"),
    layer(
        "sqlengine.exec.rows_examined_per_result",
        "rows/row",
        "lower",
    ),
    layer("sqlengine.exec.dml_apply_us", "us", "lower"),
    layer("sqlengine.column.vectorized_speedup", "ratio", "higher"),
    layer("sqlengine.column.chunk_rebuild_us", "us", "lower"),
    layer("sqlengine.catalog.insert_rows_per_s", "rows/s", "higher"),
    layer("sqlengine.catalog.delete_rows_per_s", "rows/s", "higher"),
    layer("sqlengine.wal.bytes_per_commit", "B/commit", "lower"),
    layer("sqlengine.wal.fsyncs_per_commit", "ratio", "lower"),
    layer("sqlengine.wal.fsync_p50_us", "us", "lower"),
    layer("sqlengine.wal.checkpoints", "count", "lower"),
    layer("sqlengine.wal.durable_over_memory_ratio", "ratio", "lower"),
    layer("sqlengine.wal.checkpoint_ms", "ms", "lower"),
    layer("sqlengine.wal.checkpoint_stall_ms", "ms", "lower"),
    layer("sqlengine.wal.replay_ms", "ms", "lower"),
    layer("sqlengine.snapshot.restore_ms", "ms", "lower"),
    layer("sqlengine.snapshot.bytes_per_row", "B/row", "lower"),
    layer("sqlengine.telemetry.overhead_ratio", "ratio", "lower"),
    layer("sqlengine.trace.overhead_ratio", "ratio", "lower"),
    layer("sqlengine.admission.gate_overhead_us", "us", "lower"),
    layer("sqlengine.trace.span_sum_over_wall", "ratio", "higher"),
    layer("bench.reconcile.cold_ratio", "ratio", "higher"),
    layer("bench.trace_overhead_ratio", "ratio", "lower"),
    layer("bench.writer_lateness_ms", "ms", "lower"),
    layer("bench.host_kernel_us", "us", "lower"),
    // Tails, end-to-end by nature, kept here because they do not repeat
    // within a third of any bound the contract allows (README.md).
    layer("predict_p99_us", "us", "lower"),
    layer("partial_fit_p95_ms", "ms", "lower"),
];

/// Unit and better direction of a declared metric.
pub fn unit_of(name: &str) -> (&'static str, &'static str) {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, better)| (unit, better))
        .unwrap_or_else(|| panic!("metric {name} is not declared in spec.rs"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workload::WORKLOADS;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("parse BENCHMARK.json")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).unwrap_or("")
    }

    /// The names a run emits are exactly the names `BENCHMARK.json`
    /// declares — both ways, with units, directions and bounds.
    #[test]
    fn emitted_names_equal_declared_names() {
        let manifest = manifest();
        let declared: Vec<(String, String)> = manifest
            .get("workloads")
            .unwrap()
            .as_array()
            .iter()
            .map(|w| (field(w, "name").to_string(), field(w, "why").to_string()))
            .collect();
        let emitted: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(declared, emitted);

        let declared: Vec<(String, String, String, f64)> = manifest
            .get("end_to_end")
            .unwrap()
            .as_array()
            .iter()
            .map(|m| {
                (
                    field(m, "name").to_string(),
                    field(m, "unit").to_string(),
                    field(m, "better").to_string(),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let emitted: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into(), m.bound))
            .collect();
        assert_eq!(declared, emitted);

        let declared: Vec<(String, String, String)> = manifest
            .get("per_layer")
            .unwrap()
            .as_array()
            .iter()
            .map(|m| {
                (
                    field(m, "name").to_string(),
                    field(m, "unit").to_string(),
                    field(m, "better").to_string(),
                )
            })
            .collect();
        let emitted: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect();
        assert_eq!(declared, emitted);
    }

    /// The limits the driver refuses a manifest for.
    #[test]
    fn manifest_is_inside_the_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| ok_name(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END
            .iter()
            .all(|m| ok_unit(m.unit) && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| ok_unit(m.unit)));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        let manifest = manifest();
        let keys: Vec<&str> = manifest
            .as_object()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
