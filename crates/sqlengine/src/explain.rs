//! `EXPLAIN`-style plan rendering.
//!
//! [`Database::explain`](crate::Database::explain) plans a query and renders
//! the physical operator tree, which is how the benchmark harness verifies
//! which join strategy a profile actually selected. `EXPLAIN ANALYZE`
//! renders the [`OpStats`] tree recorded during an actual execution instead,
//! annotating every operator with observed row counts and wall-clock time.

use crate::exec::OpStats;
use crate::plan::{JoinAlgo, PhysPlan};
use crate::trace::SpanRec;

/// Render a plan as an indented operator tree, each shared subplan's
/// subtree under its first reference only. A join narrowed to fewer
/// columns than its scope ends its line in ` out=k/n`: it passes on `k` of
/// the `n` values of its scope-order row ([`crate::plan::narrow_joins`]).
/// `EXPLAIN ANALYZE` lines leave it out, keeping a hash join's `pruned=N`
/// last.
pub fn render_plan(plan: &PhysPlan) -> String {
    let mut out = String::new();
    plan.for_each_node(&mut |node, depth, reused| {
        let label = match (reused, node) {
            (true, _) => reused_label(node),
            (
                false,
                PhysPlan::HashJoin {
                    out: Some(passed), ..
                }
                | PhysPlan::NestedLoopJoin {
                    out: Some(passed), ..
                }
                | PhysPlan::IndexJoin {
                    out: Some(passed), ..
                },
            ) => format!(
                "{} out={}/{}",
                op_label(node),
                passed.len(),
                node.scope_width()
            ),
            (false, _) => op_label(node),
        };
        line(&mut out, depth, &label);
    });
    out
}

/// One-line label for an operator node, shared between `EXPLAIN` rendering
/// and the executor's `EXPLAIN ANALYZE` stats collection. A hash join names
/// the input it builds on (`build=left|right`), and one probing straight off
/// a base-table scan says how it reads it: ` probe=keyset(vectorized|row)`.
pub(crate) fn op_label(plan: &PhysPlan) -> String {
    match plan {
        PhysPlan::Scan { rows, width, .. } => {
            format!("Scan [{} rows × {} cols]", rows.len(), width)
        }
        PhysPlan::VirtualScan { name, rows, width } => {
            format!("VirtualScan {name} [{} rows × {} cols]", rows.len(), width)
        }
        PhysPlan::IndexScan {
            rows,
            index_name,
            keys,
            ..
        } => match keys {
            Some(k) => format!(
                "IndexScan {index_name} ({} keys) [of {} rows]",
                k.len(),
                rows.len()
            ),
            None => format!("IndexScan {index_name} (probed) [of {} rows]", rows.len()),
        },
        PhysPlan::IndexJoin {
            kind,
            probe_keys,
            residual,
            ..
        } => format!(
            "IndexNestedLoopJoin [{kind:?}, {} keys{}]",
            probe_keys.len(),
            if residual.is_some() { ", residual" } else { "" }
        ),
        PhysPlan::OneRow => "OneRow".to_string(),
        PhysPlan::Filter { .. } => "Filter".to_string(),
        PhysPlan::Project { exprs, .. } => format!("Project [{} exprs]", exprs.len()),
        PhysPlan::HashJoin {
            left_keys,
            kind,
            algo,
            residual,
            build_left,
            ..
        } => {
            let (algo_name, build) = match (algo, build_left) {
                (JoinAlgo::Hash, true) => ("HashJoin", ", build=left"),
                (JoinAlgo::Hash, false) => ("HashJoin", ", build=right"),
                (JoinAlgo::SortMerge, _) => ("SortMergeJoin", ""),
            };
            format!(
                "{algo_name} [{kind:?}, {} keys{}{build}]{}",
                left_keys.len(),
                if residual.is_some() { ", residual" } else { "" },
                crate::exec::mode_suffix(plan)
            )
        }
        PhysPlan::NestedLoopJoin { kind, .. } => format!("NestedLoopJoin [{kind:?}]"),
        PhysPlan::Aggregate { keys, aggs, .. } => {
            format!("Aggregate [{} keys, {} aggs]", keys.len(), aggs.len())
        }
        PhysPlan::Window { partition, .. } => {
            format!("Window [row_number, {} partition keys]", partition.len())
        }
        PhysPlan::Sort { keys, .. } => format!("Sort [{} keys]", keys.len()),
        PhysPlan::Limit { limit, offset, .. } => {
            format!("Limit [limit={limit:?}, offset={offset}]")
        }
        PhysPlan::UnionAll { inputs } => format!("UnionAll [{} inputs]", inputs.len()),
        PhysPlan::Distinct { .. } => "Distinct".to_string(),
        PhysPlan::Shared { cte, refs, .. } => format!("Shared cte={cte} refs={refs}"),
    }
}

/// Label of a shared-subplan reference that does not run its input: one
/// served from the filled slot (`EXPLAIN ANALYZE`), or one whose subtree
/// `EXPLAIN` printed under an earlier reference.
pub(crate) fn reused_label(plan: &PhysPlan) -> String {
    match plan {
        PhysPlan::Shared { cte, .. } => format!("Shared cte={cte} (reused)"),
        other => op_label(other),
    }
}

fn line(out: &mut String, depth: usize, text: &str) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    out.push_str(text);
    out.push('\n');
}

/// Render an executed plan's stats tree (`EXPLAIN ANALYZE`): every operator
/// line is annotated with observed input/output row counts and elapsed time.
pub fn render_analyze(stats: &OpStats) -> String {
    let mut out = String::new();
    render_stats(stats, 0, &mut out);
    out
}

/// Render a recorded span tree (`EXPLAIN (TRACE)`): one line per span with
/// plain two-space indentation (no connector glyphs), annotated with
/// duration, row count, wait class, and typed attributes.
pub fn render_trace(spans: &[SpanRec]) -> String {
    let mut out = String::new();
    for span in spans.iter().filter(|s| s.parent.is_none()) {
        render_span(spans, span, 0, &mut out);
    }
    out
}

fn render_span(spans: &[SpanRec], span: &SpanRec, depth: usize, out: &mut String) {
    let mut text = format!("{} ({}µs", span.name, span.duration_us);
    if let Some(rows) = span.rows {
        text.push_str(&format!(" rows={rows}"));
    }
    if let Some(wait) = span.wait_class {
        text.push_str(&format!(" wait={}", wait.as_str()));
    }
    let attrs = span.attrs_text();
    if !attrs.is_empty() {
        text.push(' ');
        text.push_str(&attrs);
    }
    text.push(')');
    line(out, depth, &text);
    for child in spans.iter().filter(|s| s.parent == Some(span.id)) {
        render_span(spans, child, depth + 1, out);
    }
}

fn render_stats(stats: &OpStats, depth: usize, out: &mut String) {
    let micros = stats.elapsed.as_secs_f64() * 1e6;
    let workers = if stats.workers > 1 {
        format!(" workers={}", stats.workers)
    } else {
        String::new()
    };
    line(
        out,
        depth,
        &format!(
            "{} (rows_in={} rows_out={} time={micros:.1}µs{workers})",
            stats.label, stats.rows_in, stats.rows_out
        ),
    );
    for child in &stats.children {
        render_stats(child, depth + 1, out);
    }
}
