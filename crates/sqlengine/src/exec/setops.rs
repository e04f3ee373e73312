//! Set operations and row-count operators: `LIMIT`/`OFFSET`, `UNION ALL`,
//! `DISTINCT`.
//!
//! `DISTINCT` (which also implements `UNION` dedup — the planner lowers
//! `UNION` to `Distinct` over `UnionAll`) is hash-partitioned in parallel
//! mode: every row is hashed once with a fixed-seed hasher, each hash
//! partition is deduplicated by one worker, and the surviving first
//! occurrences are emitted in original input order — so the output is
//! identical to the serial path.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::Result;
use crate::plan::PhysPlan;
use crate::value::Row;

use super::context::{ChargeBuf, ChunkJob};
use super::{ExecContext, NodeOut, OpStats};

/// `LIMIT`/`OFFSET`. The window is taken in place (drain the offset prefix,
/// truncate the tail) instead of cloning `rows[start..end]`. When the child
/// is a `Sort` and a limit is present, the sort runs as top-k: it only ever
/// produces the first `offset + limit` rows.
pub(crate) fn limit(
    input: &PhysPlan,
    limit: Option<usize>,
    offset: usize,
    ctx: &ExecContext,
) -> Result<NodeOut> {
    let (mut rows, rows_in, children) = match (input, limit) {
        (PhysPlan::Sort { .. }, Some(l)) => {
            let (rows, stats) = super::sort::top_k(input, offset + l, ctx)?;
            let rows_in = rows.len();
            (rows, rows_in, stats.into_iter().collect())
        }
        _ => {
            let mut children = Vec::new();
            let mut rows_in = 0usize;
            let shared = super::run_input(input, ctx, &mut children, &mut rows_in)?;
            (super::into_owned(shared), rows_in, children)
        }
    };

    if let Some(l) = limit {
        rows.truncate((offset + l).min(rows.len()));
    }
    if offset > 0 {
        rows.drain(..offset.min(rows.len()));
    }
    Ok(NodeOut {
        rows,
        rows_in,
        workers: 1,
        children,
        pruned: None,
    })
}

pub(crate) fn union_all(inputs: &[PhysPlan], ctx: &ExecContext) -> Result<NodeOut> {
    // Children run serially: a child operator may itself fan out to the
    // shared pool, and nesting run_jobs inside a pool job would deadlock.
    let mut children = Vec::new();
    let mut rows_in = 0usize;
    let mut out = Vec::new();
    // UNION ALL concatenates fully-materialized child outputs; this is also
    // the operator that materializes batched-predict literal item tables
    // (inlined `VALUES`-style CTEs of one literal SELECT per item), so the
    // accumulated output is charged against the statement budget.
    let mut charge = ChargeBuf::new(ctx.budget());
    for input in inputs {
        let shared = super::run_input(input, ctx, &mut children, &mut rows_in)?;
        let owned = super::into_owned(shared);
        for row in &owned {
            charge.add_row(row)?;
        }
        charge.flush()?;
        if out.is_empty() {
            out = owned;
        } else {
            out.extend(owned);
        }
    }
    Ok(NodeOut {
        rows: out,
        rows_in,
        workers: 1,
        children,
        pruned: None,
    })
}

pub(crate) fn distinct(input: &PhysPlan, ctx: &ExecContext) -> Result<NodeOut> {
    let mut children = Vec::new();
    let mut rows_in = 0usize;
    let shared = super::run_input(input, ctx, &mut children, &mut rows_in)?;

    if ctx.should_parallelize(shared.len()) {
        return parallel_distinct(shared, rows_in, children, ctx);
    }
    let rows = super::into_owned(shared);
    let mut seen: HashSet<Row> = HashSet::with_capacity(rows.len());
    let mut out = Vec::new();
    let mut charge = ChargeBuf::new(ctx.budget());
    for row in rows {
        // The dedup set holds a full copy of every kept row.
        charge.add_row(&row)?;
        if seen.insert(row.clone()) {
            out.push(row);
        }
    }
    charge.flush()?;
    Ok(NodeOut {
        rows: out,
        rows_in,
        workers: 1,
        children,
        pruned: None,
    })
}

/// Hash-partitioned parallel DISTINCT.
///
/// Phase 1 hashes every row morsel-parallel with a fixed-seed hasher (all
/// workers agree on partition assignment). Phase 2 hands each of
/// `parallelism` hash partitions to one worker, which walks the partition in
/// input order and keeps the index of the first occurrence of every distinct
/// row (bucketed by full hash; collisions resolved by row equality).
/// Partitions are disjoint, so concatenating the kept indexes and sorting
/// restores the global first-occurrence order the serial path emits.
fn parallel_distinct(
    shared: Arc<Vec<Row>>,
    rows_in: usize,
    children: Vec<OpStats>,
    ctx: &ExecContext,
) -> Result<NodeOut> {
    let hash_jobs: Vec<ChunkJob<Vec<u64>>> = ctx
        .morsels(shared.len())
        .into_iter()
        .map(|range| {
            let rows = Arc::clone(&shared);
            let job: ChunkJob<Vec<u64>> =
                Box::new(move || rows[range].iter().map(row_hash).collect());
            job
        })
        .collect();
    let mut hashes = Vec::with_capacity(shared.len());
    for chunk in ctx.run_jobs(hash_jobs) {
        hashes.extend(chunk);
    }
    // Hash vector (8B each) plus the per-partition dedup buckets, which hold
    // two usize indexes per surviving row in the worst case.
    ctx.budget().charge(24 * hashes.len() as u64)?;
    let hashes = Arc::new(hashes);

    let nparts = ctx.parallelism();
    let part_jobs: Vec<ChunkJob<Vec<usize>>> = (0..nparts)
        .map(|p| {
            let rows = Arc::clone(&shared);
            let hashes = Arc::clone(&hashes);
            let job: ChunkJob<Vec<usize>> = Box::new(move || {
                let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
                let mut kept = Vec::new();
                for (i, &h) in hashes.iter().enumerate() {
                    if (h as usize) % nparts != p {
                        continue;
                    }
                    let bucket = buckets.entry(h).or_default();
                    if bucket.iter().all(|&j| rows[j] != rows[i]) {
                        bucket.push(i);
                        kept.push(i);
                    }
                }
                kept
            });
            job
        })
        .collect();
    let mut kept: Vec<usize> = Vec::new();
    for part in ctx.run_jobs(part_jobs) {
        kept.extend(part);
    }
    kept.sort_unstable();

    let mut rows = super::into_owned(shared);
    let out = kept
        .into_iter()
        .map(|i| std::mem::take(&mut rows[i]))
        .collect();
    Ok(NodeOut {
        rows: out,
        rows_in,
        workers: ctx.parallelism(),
        children,
        pruned: None,
    })
}

/// Fixed-seed row hash (`DefaultHasher::new()` uses fixed keys), so every
/// worker computes identical partition assignments.
fn row_hash(row: &Row) -> u64 {
    let mut h = DefaultHasher::new();
    row.hash(&mut h);
    h.finish()
}
