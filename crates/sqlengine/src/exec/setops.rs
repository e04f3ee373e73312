//! Set operations and row-count operators: `LIMIT`/`OFFSET`, `UNION ALL`,
//! `DISTINCT`.
//!
//! A `LIMIT` passes on the rows of its window as its input's pipeline hands
//! them to it; a `UNION ALL` is a pipeline's step whose arms are that
//! pipeline's sources ([`super::PipeRun`]). `DISTINCT` (which also implements `UNION` dedup — the planner lowers
//! `UNION` to `Distinct` over `UnionAll`) is a pipeline's breaker: each
//! partial keeps the first occurrence of every row its morsel saw, in order,
//! and the partials fold into the first in morsel order, which keeps the
//! global first occurrences in input order — the output of a serial run.

use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::Arc;

use crate::error::Result;
use crate::value::{Row, Value, ValueHash};

use super::context::ChargeBuf;
use super::program::{Breaker, BreakerKind, Spec};
use super::{NodeOut, Partial, Run, Sink};

/// `LIMIT`/`OFFSET`: pass on the input rows at positions
/// `offset..offset + limit`. Over a `Sort`, with a limit, the sort runs as
/// top-k: it only ever produces the first `offset + limit` rows.
pub(super) fn limit(run: &Run, breaker: &Breaker, sink: &mut Sink) -> Result<NodeOut> {
    let Spec::Limit { limit, offset } = *run.spec(breaker.stage) else {
        unreachable!("a limit runs its own spec");
    };
    let end = limit.map_or(usize::MAX, |l| offset.saturating_add(l));
    let mut seen = 0usize;
    let mut window = |row: &[Value]| {
        seen += 1;
        if seen > offset && seen <= end {
            sink(row)?;
        }
        Ok(())
    };
    let mut node = NodeOut::new();
    match &breaker.kind {
        BreakerKind::TopK(sort, input) => {
            node.child(super::sort::top_k(run, *sort, input, end, &mut window)?);
        }
        BreakerKind::Limit(input) => super::hold(run, *input, &mut node, &mut window)?,
        _ => unreachable!("a limit runs its input or a top-k sort"),
    }
    Ok(node)
}

pub(super) fn distinct(run: &Run, input: usize, sink: &mut Sink) -> Result<NodeOut> {
    let mut node = NodeOut::new();
    let budget = Arc::clone(run.ctx.budget());
    let ended = super::fold(run, input, &mut node, move |_| Firsts {
        rows: Vec::new(),
        buckets: HashMap::default(),
        charge: ChargeBuf::new(&budget),
    });
    // The rows before an error are handed on before it, as a serial run
    // would.
    super::emit(ended.part.rows.iter(), run.ctx, sink)?;
    ended.error.map_or(Ok(node), Err)
}

/// The dedup set: the first occurrence of every row, in order, bucketed by
/// the row's hash (collisions resolved by row equality). It holds a copy of
/// every row it keeps.
struct Firsts {
    rows: Vec<Row>,
    buckets: HashMap<u64, Vec<usize>, ValueHash>,
    charge: ChargeBuf,
}

impl Firsts {
    /// Whether a row equal to `row`, hashed `hash`, was kept.
    fn seen(&self, hash: u64, row: &[Value]) -> bool {
        let bucket = self.buckets.get(&hash);
        bucket.is_some_and(|kept| kept.iter().any(|&i| self.rows[i] == row))
    }

    fn keep(&mut self, hash: u64, row: Row) {
        self.buckets.entry(hash).or_default().push(self.rows.len());
        self.rows.push(row);
    }
}

/// The engine hasher's hash of a row, seeded once per process, so every
/// thread agrees on it.
fn hash_row(row: &[Value]) -> u64 {
    ValueHash::default().hash_one(row)
}

impl Partial for Firsts {
    fn row(&mut self, row: &[Value]) -> Result<()> {
        let hash = hash_row(row);
        if !self.seen(hash, row) {
            self.charge.add_row(row)?;
            self.keep(hash, row.to_vec());
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<()> {
        self.charge.flush()
    }

    fn combine(&mut self, later: Firsts) -> Result<()> {
        for row in later.rows {
            let hash = hash_row(&row);
            if !self.seen(hash, &row) {
                self.keep(hash, row);
            }
        }
        Ok(())
    }
}
