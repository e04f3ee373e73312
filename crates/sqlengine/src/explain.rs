//! `EXPLAIN`-style plan rendering.
//!
//! [`Database::explain`](crate::Database::explain) plans a query and renders
//! the physical operator tree, which is how the benchmark harness verifies
//! which join strategy a profile actually selected. `EXPLAIN ANALYZE`
//! renders the [`OpStats`] tree recorded during an actual execution instead,
//! annotating every operator with observed row counts and wall-clock time.

use std::fmt;
use std::sync::Arc;

use crate::ast::JoinKind;
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
/// and the executor's `EXPLAIN ANALYZE` stats collection ([`Label`]).
pub(crate) fn op_label(plan: &PhysPlan) -> String {
    Label::of(plan).to_string()
}

/// Label of a shared-subplan reference that does not run its input: one
/// served from the filled slot (`EXPLAIN ANALYZE`), or one whose subtree
/// `EXPLAIN` printed under an earlier reference.
pub(crate) fn reused_label(plan: &PhysPlan) -> String {
    Label::reused(plan).to_string()
}

/// An operator's label before it is rendered: what its line prints of its
/// plan node, taken without formatting anything, so that a lowered program
/// renders its labels only once a run that collects stats reads one. A hash
/// join names the input it builds on (`build=left|right`), and one probing
/// straight off a base-table scan says how it reads it:
/// ` probe=keyset(index|row)`.
pub(crate) enum Label {
    /// A base-table scan names its table: the plan holds no rows to count.
    Scan {
        table: String,
        width: usize,
    },
    VirtualScan {
        name: String,
        rows: usize,
        width: usize,
    },
    IndexScan {
        name: String,
        keys: Option<usize>,
    },
    IndexJoin {
        kind: JoinKind,
        keys: usize,
        residual: bool,
    },
    OneRow,
    Filter,
    Project {
        exprs: usize,
    },
    HashJoin {
        algo: JoinAlgo,
        kind: JoinKind,
        keys: usize,
        residual: bool,
        build_left: bool,
        mode: &'static str,
    },
    NestedLoopJoin {
        kind: JoinKind,
    },
    Aggregate {
        keys: usize,
        aggs: usize,
    },
    Window {
        partition: usize,
    },
    Sort {
        keys: usize,
    },
    /// A `Sort` under a `LIMIT`, run as top-k.
    TopK {
        keys: usize,
        k: usize,
    },
    Limit {
        limit: Option<usize>,
        offset: usize,
    },
    UnionAll {
        inputs: usize,
    },
    Distinct,
    Shared {
        cte: Arc<str>,
        refs: usize,
    },
    /// A shared-subplan reference that does not run its input.
    Reused {
        cte: Arc<str>,
    },
}

impl Label {
    pub(crate) fn of(plan: &PhysPlan) -> Label {
        match plan {
            PhysPlan::Scan { table, width, .. } => Label::Scan {
                table: table.clone(),
                width: *width,
            },
            PhysPlan::VirtualScan { name, rows, width } => Label::VirtualScan {
                name: name.clone(),
                rows: rows.len(),
                width: *width,
            },
            PhysPlan::IndexScan {
                index_name, keys, ..
            } => Label::IndexScan {
                name: index_name.clone(),
                keys: keys.as_ref().map(Vec::len),
            },
            PhysPlan::IndexJoin {
                kind,
                probe_keys,
                residual,
                ..
            } => Label::IndexJoin {
                kind: *kind,
                keys: probe_keys.len(),
                residual: residual.is_some(),
            },
            PhysPlan::OneRow => Label::OneRow,
            PhysPlan::Filter { .. } => Label::Filter,
            PhysPlan::Project { exprs, .. } => Label::Project { exprs: exprs.len() },
            PhysPlan::HashJoin {
                left_keys,
                kind,
                algo,
                residual,
                build_left,
                ..
            } => Label::HashJoin {
                algo: *algo,
                kind: *kind,
                keys: left_keys.len(),
                residual: residual.is_some(),
                build_left: *build_left,
                mode: crate::exec::mode_suffix(plan),
            },
            PhysPlan::NestedLoopJoin { kind, .. } => Label::NestedLoopJoin { kind: *kind },
            PhysPlan::Aggregate { keys, aggs, .. } => Label::Aggregate {
                keys: keys.len(),
                aggs: aggs.len(),
            },
            PhysPlan::Window { partition, .. } => Label::Window {
                partition: partition.len(),
            },
            PhysPlan::Sort { keys, .. } => Label::Sort { keys: keys.len() },
            PhysPlan::Limit { limit, offset, .. } => Label::Limit {
                limit: *limit,
                offset: *offset,
            },
            PhysPlan::UnionAll { inputs } => Label::UnionAll {
                inputs: inputs.len(),
            },
            PhysPlan::Distinct { .. } => Label::Distinct,
            PhysPlan::Shared { cte, refs, .. } => Label::Shared {
                cte: Arc::clone(cte),
                refs: *refs,
            },
        }
    }

    /// The label of a reference to `plan` that does not run its input.
    pub(crate) fn reused(plan: &PhysPlan) -> Label {
        match plan {
            PhysPlan::Shared { cte, .. } => Label::Reused {
                cte: Arc::clone(cte),
            },
            other => Label::of(other),
        }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Scan { table, width } => write!(f, "Scan {table} [{width} cols]"),
            Label::VirtualScan { name, rows, width } => {
                write!(f, "VirtualScan {name} [{rows} rows × {width} cols]")
            }
            Label::IndexScan {
                name,
                keys: Some(keys),
            } => write!(f, "IndexScan {name} ({keys} keys)"),
            Label::IndexScan { name, keys: None } => write!(f, "IndexScan {name} (probed)"),
            Label::IndexJoin {
                kind,
                keys,
                residual,
            } => write!(
                f,
                "IndexNestedLoopJoin [{kind:?}, {keys} keys{}]",
                if *residual { ", residual" } else { "" }
            ),
            Label::OneRow => f.write_str("OneRow"),
            Label::Filter => f.write_str("Filter"),
            Label::Project { exprs } => write!(f, "Project [{exprs} exprs]"),
            Label::HashJoin {
                algo,
                kind,
                keys,
                residual,
                build_left,
                mode,
            } => {
                let (algo_name, build) = match (algo, build_left) {
                    (JoinAlgo::Hash, true) => ("HashJoin", ", build=left"),
                    (JoinAlgo::Hash, false) => ("HashJoin", ", build=right"),
                    (JoinAlgo::SortMerge, _) => ("SortMergeJoin", ""),
                };
                write!(
                    f,
                    "{algo_name} [{kind:?}, {keys} keys{}{build}]{mode}",
                    if *residual { ", residual" } else { "" },
                )
            }
            Label::NestedLoopJoin { kind } => write!(f, "NestedLoopJoin [{kind:?}]"),
            Label::Aggregate { keys, aggs } => write!(f, "Aggregate [{keys} keys, {aggs} aggs]"),
            Label::Window { partition } => {
                write!(f, "Window [row_number, {partition} partition keys]")
            }
            Label::Sort { keys } => write!(f, "Sort [{keys} keys]"),
            Label::TopK { keys, k } => write!(f, "Sort [{keys} keys] (top-k, k={k})"),
            Label::Limit { limit, offset } => {
                write!(f, "Limit [limit={limit:?}, offset={offset}]")
            }
            Label::UnionAll { inputs } => write!(f, "UnionAll [{inputs} inputs]"),
            Label::Distinct => f.write_str("Distinct"),
            Label::Shared { cte, refs } => write!(f, "Shared cte={cte} refs={refs}"),
            Label::Reused { cte } => write!(f, "Shared cte={cte} (reused)"),
        }
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
