//! Set operations and row-count operators: `LIMIT`/`OFFSET`, `UNION ALL`,
//! `DISTINCT`.
//!
//! `LIMIT` and `UNION ALL` stream at every parallelism: a limit passes on
//! the rows of its window as they arrive, a union pushes each arm in turn
//! into the same sink. `DISTINCT` (which also implements `UNION` dedup —
//! the planner lowers `UNION` to `Distinct` over `UnionAll`) streams too,
//! holding only its dedup set; on the morsel path it is hash-partitioned:
//! every row is hashed once with a fixed-seed hasher, each hash partition is
//! deduplicated by one worker, and the surviving first occurrences are
//! emitted in original input order — so the output is identical to the
//! pushed path.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::Result;
use crate::plan::PhysPlan;
use crate::value::{Row, Value};

use super::context::{ChargeBuf, ChunkJob};
use super::{ExecContext, Held, NodeOut, Sink};

/// `LIMIT`/`OFFSET`: pass on the input rows at positions
/// `offset..offset + limit`. When the child is a `Sort` and a limit is
/// present, the sort runs as top-k: it only ever produces the first
/// `offset + limit` rows.
pub(crate) fn limit(
    input: &PhysPlan,
    limit: Option<usize>,
    offset: usize,
    ctx: &ExecContext,
    sink: &mut Sink,
) -> Result<NodeOut> {
    let end = limit.map_or(usize::MAX, |l| offset.saturating_add(l));
    let mut seen = 0usize;
    let mut window = |row: &[Value]| {
        seen += 1;
        if seen > offset && seen <= end {
            sink(row)?;
        }
        Ok(())
    };
    let stats = match (input, limit) {
        (PhysPlan::Sort { .. }, Some(_)) => super::sort::top_k(input, end, ctx, &mut window)?,
        _ => super::push(input, ctx, &mut window)?,
    };
    let mut node = NodeOut::new();
    node.child(stats);
    Ok(node)
}

/// `UNION ALL`: each arm, in order, into the one sink.
pub(crate) fn union_all(
    inputs: &[PhysPlan],
    ctx: &ExecContext,
    sink: &mut Sink,
) -> Result<NodeOut> {
    let mut node = NodeOut::new();
    for input in inputs {
        node.child(super::push(input, ctx, sink)?);
    }
    Ok(node)
}

pub(crate) fn distinct(input: &PhysPlan, ctx: &ExecContext, sink: &mut Sink) -> Result<NodeOut> {
    let mut node = NodeOut::new();
    let mut seen: HashSet<Row> = HashSet::new();
    let mut charge = ChargeBuf::new(ctx.budget());
    // The per-row function: pass on the first occurrence of each row. The
    // dedup set holds a full copy of every kept row.
    let mut first = |row: &[Value], sink: &mut Sink| {
        if seen.contains(row) {
            return Ok(());
        }
        charge.add_row(row)?;
        seen.insert(row.to_vec());
        sink(row)
    };
    if !ctx.parallel() {
        node.child(super::push(input, ctx, &mut |row| first(row, sink))?);
    } else {
        let rows = super::run_input(input, ctx, &mut node)?;
        if ctx.should_parallelize(rows.len()) {
            node.workers = ctx.parallelism();
            let kept = parallel_distinct(&rows, ctx)?;
            super::emit(kept.iter().map(|&i| rows.row(i)), ctx, sink)?;
        } else {
            for row in rows.iter() {
                first(row, sink)?;
            }
        }
    }
    charge.flush()?;
    Ok(node)
}

/// Hash-partitioned parallel DISTINCT: the positions of the rows to keep,
/// ascending.
///
/// Phase 1 hashes every row morsel-parallel with a fixed-seed hasher (all
/// workers agree on partition assignment). Phase 2 hands each of
/// `parallelism` hash partitions to one worker, which walks the partition in
/// input order and keeps the index of the first occurrence of every distinct
/// row (bucketed by full hash; collisions resolved by row equality).
/// Partitions are disjoint, so concatenating the kept indexes and sorting
/// restores the global first-occurrence order the serial path emits.
fn parallel_distinct(held: &Held, ctx: &ExecContext) -> Result<Vec<usize>> {
    let hash_jobs: Vec<ChunkJob<Vec<u64>>> = ctx
        .morsels(held.len())
        .into_iter()
        .map(|range| {
            let rows = held.clone();
            let job: ChunkJob<Vec<u64>> =
                Box::new(move || rows.rows(range).map(row_hash).collect());
            job
        })
        .collect();
    let mut hashes = Vec::with_capacity(held.len());
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
            let rows = held.clone();
            let hashes = Arc::clone(&hashes);
            let job: ChunkJob<Vec<usize>> = Box::new(move || {
                let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
                let mut kept = Vec::new();
                for (i, &h) in hashes.iter().enumerate() {
                    if (h as usize) % nparts != p {
                        continue;
                    }
                    let bucket = buckets.entry(h).or_default();
                    if bucket.iter().all(|&j| rows.row(j) != rows.row(i)) {
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
    Ok(kept)
}

/// Fixed-seed row hash (`DefaultHasher::new()` uses fixed keys), so every
/// worker computes identical partition assignments.
fn row_hash(row: &[Value]) -> u64 {
    let mut h = DefaultHasher::new();
    row.hash(&mut h);
    h.finish()
}
