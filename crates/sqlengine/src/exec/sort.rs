//! Sort, top-k (`ORDER BY ... LIMIT`), and window ranking — operators that
//! hold their whole input, then hand their rows on in their order.
//!
//! A sort input of at least [`super::context::FAN_OUT_ROWS`] rows is sorted
//! in parallel: per-row key evaluation fans out over morsels, each worker
//! sorts one run, and the sorted runs are combined by pairwise parallel
//! merge rounds. The comparator ties on original row
//! index, making it a *total* order — no two elements compare equal — so the
//! merge is unambiguous and the parallel result is identical to the serial
//! stable sort. Top-k avoids the full sort with a `select_nth_unstable_by`
//! partition followed by sorting just the head — the same index tiebreak
//! makes the head exactly the first k rows the stable full sort would
//! produce.

use std::sync::Arc;

use crate::ast::WindowFunc;
use crate::error::Result;
use crate::expr::PhysExpr;
use crate::plan::PhysPlan;
use crate::value::Value;

use super::context::{approx_row_bytes, ChargeBuf, Ticker, MORSEL_ROWS};
use super::program::{Input, Spec};
use super::{ExecContext, Held, NodeOut, OpStats, Run, Sink};

/// Evaluate sort keys for every row, over morsels in parallel when the rows
/// are many enough to fan out.
fn eval_keys(rows: &Held, keys: &SortKeys, ctx: &ExecContext) -> Result<Vec<Vec<Value>>> {
    let (held, keys, budget) = (rows.clone(), Arc::clone(keys), Arc::clone(ctx.budget()));
    let eval = move |range: std::ops::Range<usize>| {
        let mut out = Vec::with_capacity(range.len());
        let mut charge = ChargeBuf::new(&budget);
        for row in held.rows(range) {
            let mut kv = Vec::with_capacity(keys.len());
            for (e, _) in keys.iter() {
                kv.push(e.eval(row)?);
            }
            charge.add(approx_row_bytes(&kv) + 8)?;
            out.push(kv);
        }
        charge.flush()?;
        Ok(out)
    };
    if !ctx.fans_out(rows.len()) {
        return eval(0..rows.len());
    }
    let len = rows.len();
    let parts = ctx.fan_out_ok(len.div_ceil(MORSEL_ROWS), move |m| {
        eval(m * MORSEL_ROWS..len.min((m + 1) * MORSEL_ROWS))
    })?;
    Ok(parts.into_iter().flatten().collect())
}

/// Total-order comparator over (key values, original index). The index
/// tiebreak reproduces stable-sort semantics even through unstable
/// selection/sorting.
fn cmp_keyed(
    keys: &[(PhysExpr, bool)],
    (ka, ia): &(Vec<Value>, usize),
    (kb, ib): &(Vec<Value>, usize),
) -> std::cmp::Ordering {
    for (i, (_, desc)) in keys.iter().enumerate() {
        let ord = ka[i].total_cmp(&kb[i]);
        let ord = if *desc { ord.reverse() } else { ord };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    ia.cmp(ib)
}

/// A sort's keys, each with whether it descends; lowered once per plan and
/// shared with the workers of a parallel sort.
pub(super) type SortKeys = Arc<Vec<(PhysExpr, bool)>>;

/// The keys of the sort `stage` runs.
fn sort_keys<'r>(run: &'r Run, stage: usize) -> &'r SortKeys {
    let Spec::Sort(keys) = run.spec(stage) else {
        unreachable!("a sort runs its own keys");
    };
    keys
}

pub(super) fn sort(run: &Run, stage: usize, input: &Input, sink: &mut Sink) -> Result<NodeOut> {
    let (ctx, keys) = (run.ctx, sort_keys(run, stage));
    let mut node = NodeOut::new();
    let rows = super::run_input(run, input, &mut node)?;

    let parallel = ctx.fans_out(rows.len());
    let mut keyed = keyed_rows(&rows, keys, ctx)?;
    if parallel {
        node.workers = ctx.parallelism();
        keyed = parallel_sort(keyed, keys, ctx);
    } else {
        keyed.sort_by(|a, b| cmp_keyed(keys, a, b));
    }
    super::emit(keyed.iter().map(|(_, i)| rows.row(*i)), ctx, sink)?;
    Ok(node)
}

/// Every row's sort key paired with its position.
fn keyed_rows(rows: &Held, keys: &SortKeys, ctx: &ExecContext) -> Result<Vec<Keyed>> {
    let key_values = eval_keys(rows, keys, ctx)?;
    Ok(key_values
        .into_iter()
        .enumerate()
        .map(|(i, k)| (k, i))
        .collect())
}

type Keyed = (Vec<Value>, usize);

/// Parallel sort: one run per worker sorted on the pool, then pairwise
/// parallel merge rounds. Because [`cmp_keyed`] is a total order (index
/// tiebreak), `sort_unstable_by` inside a run and the two-way merges both
/// reproduce the serial stable sort exactly.
fn parallel_sort(mut keyed: Vec<Keyed>, keys: &SortKeys, ctx: &ExecContext) -> Vec<Keyed> {
    // One run per worker (not per morsel): fewer, larger runs keep the merge
    // tree shallow, and run sorting is already load-balanced by size.
    let mut runs: Vec<Vec<Keyed>> = super::context::morsel_ranges(keyed.len(), ctx.parallelism())
        .into_iter()
        .rev()
        .map(|range| keyed.split_off(range.start))
        .collect();
    runs.reverse();
    let sorting = Arc::clone(keys);
    let mut runs = ctx.fan_out_each(runs, move |mut run| {
        run.sort_unstable_by(|a, b| cmp_keyed(&sorting, a, b));
        run
    });
    while runs.len() > 1 {
        let mut pairs = Vec::with_capacity(runs.len().div_ceil(2));
        let mut iter = runs.into_iter();
        while let Some(a) = iter.next() {
            pairs.push((a, iter.next()));
        }
        let keys = Arc::clone(keys);
        runs = ctx.fan_out_each(pairs, move |(a, b)| match b {
            Some(b) => merge_runs(a, b, &keys),
            None => a,
        });
    }
    runs.pop().unwrap_or_default()
}

/// Two-way merge of sorted runs under the total order.
fn merge_runs(a: Vec<Keyed>, b: Vec<Keyed>, keys: &[(PhysExpr, bool)]) -> Vec<Keyed> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut a = a.into_iter().peekable();
    let mut b = b.into_iter().peekable();
    loop {
        match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => {
                if cmp_keyed(keys, x, y) == std::cmp::Ordering::Greater {
                    out.push(b.next().expect("peeked"));
                } else {
                    out.push(a.next().expect("peeked"));
                }
            }
            (Some(_), None) => out.push(a.next().expect("peeked")),
            (None, Some(_)) => out.push(b.next().expect("peeked")),
            (None, None) => break,
        }
    }
    out
}

/// `ORDER BY ... LIMIT`: hand on only the first `k` rows of the sort
/// `stage`, found by partition-selection instead of a full sort. Called by
/// the `Limit` operator; the returned stats (when collected) describe the
/// sort.
pub(super) fn top_k(
    run: &Run,
    stage: usize,
    input: &Input,
    k: usize,
    sink: &mut Sink,
) -> Result<Option<OpStats>> {
    let label = || run.label(stage);
    super::recorded(run.ctx, label, sink, |sink| {
        let (ctx, keys) = (run.ctx, sort_keys(run, stage));
        let mut node = NodeOut::new();
        let rows = super::run_input(run, input, &mut node)?;

        let mut keyed = keyed_rows(&rows, keys, ctx)?;
        if k < keyed.len() && k > 0 {
            keyed.select_nth_unstable_by(k - 1, |a, b| cmp_keyed(keys, a, b));
            keyed.truncate(k);
        }
        keyed.sort_by(|a, b| cmp_keyed(keys, a, b));
        keyed.truncate(k);
        super::emit(keyed.iter().map(|(_, i)| rows.row(*i)), ctx, sink)?;
        Ok(node)
    })
}

/// What a window evaluates, lowered once per plan.
#[derive(Clone)]
pub(super) struct WindowSpec {
    func: WindowFunc,
    partition: Vec<PhysExpr>,
    order: Vec<(PhysExpr, bool)>,
}

impl WindowSpec {
    pub(super) fn of(node: &PhysPlan) -> WindowSpec {
        let PhysPlan::Window {
            func,
            partition,
            order,
            ..
        } = node
        else {
            unreachable!("a window lowers a Window");
        };
        WindowSpec {
            func: *func,
            partition: partition.clone(),
            order: order.clone(),
        }
    }

    pub(super) fn for_each_expr_mut(&mut self, f: &mut impl FnMut(&mut PhysExpr)) {
        let order = self.order.iter_mut().map(|(key, _)| key);
        self.partition.iter_mut().chain(order).for_each(f);
    }
}

pub(super) fn window_rank(
    run: &Run,
    spec: &WindowSpec,
    input: &Input,
    sink: &mut Sink,
) -> Result<NodeOut> {
    let WindowSpec {
        func,
        partition,
        order,
    } = spec;
    let (ctx, func) = (run.ctx, *func);
    let mut node = NodeOut::new();
    let rows = super::run_input(run, input, &mut node)?;

    // (partition key, order key, original index)
    let mut keyed: Vec<(Vec<Value>, Vec<Value>, usize)> = Vec::with_capacity(rows.len());
    let mut charge = ChargeBuf::new(ctx.budget());
    for (i, row) in rows.iter().enumerate() {
        let mut pk = Vec::with_capacity(partition.len());
        for p in partition {
            pk.push(p.eval(row)?);
        }
        let mut ok = Vec::with_capacity(order.len());
        for (e, _) in order {
            ok.push(e.eval(row)?);
        }
        charge.add(approx_row_bytes(&pk) + approx_row_bytes(&ok) + 8)?;
        keyed.push((pk, ok, i));
    }
    charge.flush()?;
    let cmp_order = |oa: &[Value], ob: &[Value]| {
        for (i, (_, desc)) in order.iter().enumerate() {
            let ord = oa[i].total_cmp(&ob[i]);
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    };
    keyed.sort_by(|(pa, oa, ia), (pb, ob, ib)| {
        for (x, y) in pa.iter().zip(pb) {
            let ord = x.total_cmp(y);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        cmp_order(oa, ob).then(ia.cmp(ib))
    });
    // Rank in sorted order, hand on in input order.
    let mut ranks = vec![0i64; rows.len()];
    let mut row_number = 0i64; // position within partition
    let mut rank = 0i64; // RANK (with gaps)
    let mut dense = 0i64; // DENSE_RANK
    let mut prev_partition: Option<&Vec<Value>> = None;
    let mut prev_order: Option<&Vec<Value>> = None;
    for (pk, ok, i) in &keyed {
        let same_partition = prev_partition == Some(pk);
        if same_partition {
            row_number += 1;
            let tie = prev_order
                .map(|po| cmp_order(po, ok) == std::cmp::Ordering::Equal)
                .unwrap_or(false);
            if !tie {
                rank = row_number;
                dense += 1;
            }
        } else {
            row_number = 1;
            rank = 1;
            dense = 1;
        }
        prev_partition = Some(pk);
        prev_order = Some(ok);
        ranks[*i] = match func {
            WindowFunc::RowNumber => row_number,
            WindowFunc::Rank => rank,
            WindowFunc::DenseRank => dense,
        };
    }
    let (mut out, mut ticker, deadline) = (Vec::new(), Ticker::default(), ctx.deadline());
    for (row, rank) in rows.iter().zip(ranks) {
        ticker.tick(deadline)?;
        out.clear();
        out.extend_from_slice(row);
        out.push(Value::Int(rank));
        sink(&out)?;
    }
    Ok(node)
}
