//! Seeded randomness for the dataset generators and the property suites:
//! one [`SplitMix64`] stream, and [`cases`], which runs a property over
//! derived seeds and names the failing case's seed so it can be replayed.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Steele, Lea & Flood's SplitMix64: a 64-bit counter run through a
/// bijective mixer. Every seed gives a full-period, well-mixed stream.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below `n / 2^64`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) has no values to draw");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in the half-open `range`.
    pub fn range(&mut self, range: Range<i64>) -> i64 {
        let width = range.end.checked_sub(range.start).filter(|w| *w > 0);
        let width = width.expect("range must be non-empty and narrower than 2^63");
        range.start + self.below(width as usize) as i64
    }

    /// Uniform in `[0, 1)`, from the top 53 bits.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Run `property` on `n` streams whose seeds derive from `seed`. When a case
/// panics, panic again with its seed in the message: the failure replays as
/// `property(&mut SplitMix64::new(case_seed))`.
pub fn cases(n: u32, seed: u64, property: impl Fn(&mut SplitMix64)) {
    let mut seeds = SplitMix64::new(seed);
    for case in 0..n {
        let case_seed = seeds.next_u64();
        let run = || property(&mut SplitMix64::new(case_seed));
        if let Err(panic) = catch_unwind(AssertUnwindSafe(run)) {
            let message = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string panic)");
            panic!("case {case} of {n} failed, case seed = {case_seed:#x}: {message}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_matches_the_reference_vector() {
        // First outputs for seed 1234567, from the reference C implementation.
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
    }

    #[test]
    fn draws_stay_in_bounds_and_cover_them() {
        let mut rng = SplitMix64::new(7);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            seen[rng.below(5)] = true;
            assert!((-3..4).contains(&rng.range(-3..4)));
            assert!((0.0..1.0).contains(&rng.unit_f64()));
        }
        assert!(seen.iter().all(|&s| s));
        assert!(!rng.chance(0.0) && rng.chance(1.0));
    }

    #[test]
    fn shuffle_is_a_permutation_and_repeats_by_seed() {
        let shuffled = |seed| {
            let mut v: Vec<u32> = (0..50).collect();
            SplitMix64::new(seed).shuffle(&mut v);
            v
        };
        let mut sorted = shuffled(3);
        assert_eq!(shuffled(3), sorted);
        assert_ne!(shuffled(4), sorted);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn a_failing_case_reports_a_seed_that_replays_it() {
        let property = |rng: &mut SplitMix64| assert!(rng.below(4) != 0, "drew zero");
        let panic = catch_unwind(|| cases(64, 9, property)).expect_err("one of 64 draws is zero");
        let message = panic.downcast_ref::<String>().expect("formatted message");
        assert!(message.ends_with("drew zero"), "{message}");
        let hex = message
            .split("case seed = 0x")
            .nth(1)
            .expect("names the seed");
        let hex = hex.split(':').next().expect("seed ends at the colon");
        let case_seed = u64::from_str_radix(hex, 16).expect("hex seed");
        assert_eq!(SplitMix64::new(case_seed).below(4), 0);
    }
}
