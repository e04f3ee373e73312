//! The hash join's key filter over columnar chunks.
//!
//! A hash join whose probe child is a bare base-table scan with a columnar
//! image reads that image: [`key_filter`] tests one typed key column of each
//! chunk against the build side's key set ([`KeySet`]) and yields the
//! offsets of the candidate rows, so rows the join would discard are never
//! touched. It is the chunk image's one reader; every other operator runs
//! row at a time.

use std::collections::HashSet;
use std::sync::Arc;

use crate::column::{ColVec, ColumnData};
use crate::plan::{JoinAlgo, PhysPlan};
use crate::value::{Value, ValueHash};

/// How a hash join reads the input it probes ([`super::keyset_mode`]):
/// `Some(true)` = through the key filter, `Some(false)` = row by row
/// straight off a base-table scan, `None` = any other operator, or a hash
/// join over some other child.
pub(crate) fn node_mode(plan: &PhysPlan) -> Option<bool> {
    match plan {
        PhysPlan::HashJoin {
            kind,
            algo: JoinAlgo::Hash,
            ..
        } => super::keyset_mode(plan.join_sides()?.1, *kind),
        _ => None,
    }
}

/// ` probe=keyset(vectorized)` / ` probe=keyset(row)`: the label suffix of
/// a hash join saying how it reads the base table it probes; empty for
/// every other node.
pub(crate) fn mode_suffix(plan: &PhysPlan) -> &'static str {
    match node_mode(plan) {
        Some(true) => " probe=keyset(vectorized)",
        Some(false) => " probe=keyset(row)",
        None => "",
    }
}

/// Recover the probe mode from a rendered `EXPLAIN` label (the inverse of
/// [`mode_suffix`]): the tracer derives operator spans from `OpStats`
/// trees, which carry only the label, and attaches the mode as a typed
/// span attribute instead of label text.
pub(crate) fn mode_of_label(label: &str) -> Option<&'static str> {
    if label.contains(" probe=keyset(vectorized)") {
        Some("vectorized")
    } else if label.contains(" probe=keyset(row)") {
        Some("row")
    } else {
        None
    }
}

/// Count `(vectorized, row)` keyset probes over the whole plan tree, a
/// shared subplan's once, for the telemetry registry (`exec.vectorized_ops`
/// / `exec.row_ops`).
pub(crate) fn count_modes(plan: &PhysPlan) -> (u64, u64) {
    let mut acc = (0, 0);
    plan.for_each_node(&mut |node, _, _| match node_mode(node) {
        Some(true) => acc.0 += 1,
        Some(false) => acc.1 += 1,
        None => {}
    });
    acc
}

/// The build side's join keys, as a typed set one probe column can be
/// tested against without building a `Value` per row.
#[derive(Debug)]
pub(super) enum KeySet {
    /// Every key is a single `Int`: sorted, for a range check and a binary
    /// search (build sides here hold one to a few hundred keys).
    Ints(Vec<i64>),
    /// Every key is a single `Str`.
    Strs(HashSet<Arc<str>, ValueHash>),
    /// Floats, several columns, or a mix of variants: `Int(1)` and
    /// `Float(1.0)` are one join key, so only the row probe can decide.
    Untyped,
}

impl KeySet {
    pub(super) fn of<'a>(keys: impl Iterator<Item = &'a Vec<Value>>) -> KeySet {
        let (mut ints, mut strs) = (Vec::new(), HashSet::default());
        for key in keys {
            match key.as_slice() {
                [Value::Int(i)] => ints.push(*i),
                [Value::Str(s)] => {
                    strs.insert(Arc::clone(s));
                }
                _ => return KeySet::Untyped,
            }
        }
        match (ints.is_empty(), strs.is_empty()) {
            (_, true) => {
                ints.sort_unstable();
                KeySet::Ints(ints)
            }
            (true, false) => KeySet::Strs(strs),
            (false, false) => KeySet::Untyped,
        }
    }
}

/// Offsets of the rows of one chunk column whose value is among `keys` (NULL
/// never is), or `None` when the column's representation and the key set do
/// not allow a typed answer and the caller must probe row by row. A string
/// never equals a number, so a column of one against keys of the other
/// selects nothing.
pub(super) fn key_filter(col: &ColVec, keys: &KeySet) -> Option<Vec<u32>> {
    match (&col.data, keys) {
        (ColumnData::Int(xs), KeySet::Ints(set)) => Some(match set.as_slice() {
            [] => Vec::new(),
            [only] => offsets_where(col, xs.len(), |i| xs[i] == *only),
            [lo, .., hi] => offsets_where(col, xs.len(), |i| {
                xs[i] >= *lo && xs[i] <= *hi && set.binary_search(&xs[i]).is_ok()
            }),
        }),
        (ColumnData::Dict { codes, values, .. }, KeySet::Strs(set)) => {
            // One verdict per dictionary code, then a code-indexed scan.
            let verdicts: Vec<bool> = values.iter().map(|s| set.contains(s)).collect();
            Some(offsets_where(col, codes.len(), |i| {
                verdicts[codes[i] as usize]
            }))
        }
        (ColumnData::Int(_) | ColumnData::Float(_), KeySet::Strs(_))
        | (ColumnData::Dict { .. }, KeySet::Ints(_)) => Some(Vec::new()),
        _ => None,
    }
}

/// The non-NULL offsets below `len` that `wanted` accepts. Typed columns
/// keep a placeholder at NULL offsets, so the mask is consulted only for
/// offsets the placeholder got through.
fn offsets_where(col: &ColVec, len: usize, wanted: impl Fn(usize) -> bool) -> Vec<u32> {
    (0..len)
        .filter(|&i| wanted(i) && !col.is_null(i))
        .map(|i| i as u32)
        .collect()
}

#[cfg(test)]
mod tests;
