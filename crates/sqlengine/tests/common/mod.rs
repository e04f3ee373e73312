//! What the seeded property suites share: the `(g, x, w)` fixture generator
//! of the three engine differentials, byte programs for the two statement
//! decoders, and order-free result comparison.
#![allow(dead_code)] // each suite uses a part

use std::ops::Range;

use seeded::SplitMix64;
use sqlengine::{Database, Value};

/// NULL with probability `null_p`, else a draw from `range`.
pub fn nullable(rng: &mut SplitMix64, null_p: f64, range: Range<i64>) -> Option<i64> {
    (!rng.chance(null_p)).then(|| rng.range(range))
}

/// `len` rows `(g, x, w)`: `g` in `0..groups` and `x` in `-span..span`, each
/// NULL with probability `null_p`; `w` is a dyadic rational `k/4` with
/// `k < quarters`, so float sums are exact and results compare exactly
/// across morsel groupings.
pub fn gxw_rows(
    rng: &mut SplitMix64,
    len: Range<i64>,
    (groups, span, quarters): (i64, i64, i64),
    null_p: f64,
) -> Vec<(Option<i64>, Option<i64>, f64)> {
    (0..rng.range(len))
        .map(|_| {
            let g = nullable(rng, null_p, 0..groups);
            let x = nullable(rng, null_p, -span..span);
            (g, x, rng.range(0..quarters) as f64 / 4.0)
        })
        .collect()
}

/// A byte program of `len` bytes for a statement decoder: the grammar lives
/// in ordinary Rust in the suite, and a short program (reads past the end
/// give 0) yields a short statement.
pub fn byte_program(rng: &mut SplitMix64, len: Range<i64>) -> Vec<u8> {
    (0..rng.range(len)).map(|_| rng.below(256) as u8).collect()
}

/// Sort rows into a canonical order (NULLs first, then by value) so result
/// sets can be compared independent of operator output order.
pub fn canonical(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b.iter()) {
            let ord = x.total_cmp(y);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        a.len().cmp(&b.len())
    });
    rows
}

/// Both databases answer `query` with the same columns and, up to order,
/// the same rows.
pub fn assert_equivalent(a: &Database, b: &Database, query: &str) {
    let (a, b) = (a.query(query).unwrap(), b.query(query).unwrap());
    assert_eq!(a.columns, b.columns, "columns differ for {query}");
    assert_eq!(
        canonical(a.rows),
        canonical(b.rows),
        "rows differ for {query}"
    );
}
