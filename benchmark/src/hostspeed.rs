//! The host's speed, read while the benchmark runs.
//!
//! The builder's machine is a small virtual guest whose speed changes by
//! tens of percent between runs and within them (README.md, "How steady
//! this machine is"). A fixed kernel of this file — formatting, hashing and
//! a sort, the kind of work the engine's front end and index probes do —
//! is timed about every [`EVERY`] seconds between operations, and every
//! end-to-end timing is multiplied by `NOMINAL ÷ kernel time around it`: a
//! timing reads what it would have been had the host run the kernel in
//! [`NOMINAL`]. Nothing under `crates/` runs inside the kernel, so a change
//! in the program moves a scaled timing as it moves the raw one, which is
//! printed beside it.

use std::collections::HashMap;
use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::{self, Samples};

/// The kernel's time on the builder's machine at its usual speed, in
/// seconds: scaled timings read like raw ones there.
pub const NOMINAL: f64 = 76e-6;
/// Seconds between two readings.
const EVERY: f64 = 0.1;
/// Kernel runs per reading; the median is kept (about 1 ms a reading).
const RUNS: usize = 15;
/// Entries formatted, hashed and sorted per kernel run.
const ENTRIES: usize = 2_000;
/// A timing is scaled by the median of the readings within this many
/// seconds of it. Single readings carry the host's fast jitter, which says
/// nothing about the operation next to them; the changes that last are
/// what is tracked.
const WINDOW: f64 = 0.5;

pub struct HostSpeed {
    keys: Vec<u64>,
    index: HashMap<u64, u32>,
    text: String,
    /// `(clock, kernel seconds)`, in time order.
    readings: Vec<(f64, f64)>,
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        let mut speed = HostSpeed {
            keys: Vec::with_capacity(ENTRIES),
            index: HashMap::with_capacity(ENTRIES),
            text: String::with_capacity(8 * ENTRIES),
            readings: Vec::new(),
        };
        speed.read();
        speed
    }

    /// Format, hash and sort [`ENTRIES`] pseudo-random keys in buffers that
    /// are never reallocated: the allocator's state, which the program
    /// under test shapes, must not reach the kernel's time.
    fn kernel(&mut self) -> usize {
        self.keys.clear();
        self.index.clear();
        self.text.clear();
        let mut x = 12_345u64;
        for _ in 0..ENTRIES {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            self.keys.push(x);
            let at = self.text.len() as u32;
            write!(self.text, "t{}", x % 1_000).expect("write to a String");
            self.index.insert(x >> 40, at);
        }
        self.keys.sort_unstable();
        self.index.values().map(|at| *at as usize).sum::<usize>() + self.keys.len()
    }

    /// Take a reading now.
    pub fn read(&mut self) {
        let mut runs = Samples::default();
        for _ in 0..RUNS {
            let started = Instant::now();
            black_box(self.kernel());
            runs.push(started.elapsed());
        }
        self.readings.push((stats::clock(), runs.median()));
    }

    /// Take a reading if the last one is older than [`EVERY`]. Called
    /// between operations, never inside a timed one.
    pub fn tick(&mut self) {
        let (last, _) = self.readings[self.readings.len() - 1];
        if stats::clock() - last >= EVERY {
            self.read();
        }
    }

    /// What a timing that ended at `at` is multiplied by.
    fn factor(&self, at: f64) -> f64 {
        let after = self.readings.partition_point(|(t, _)| *t < at);
        let nearest = match (after.checked_sub(1), self.readings.get(after)) {
            (Some(b), Some(a)) if at - self.readings[b].0 <= a.0 - at => b,
            (_, Some(_)) => after,
            (Some(b), None) => b,
            (None, None) => unreachable!("new() takes a reading"),
        };
        // Around the nearest reading rather than around `at`, so that a
        // long operation, which no reading falls into, still finds some.
        let middle = self.readings[nearest].0;
        let lo = self.readings.partition_point(|(t, _)| *t < middle - WINDOW);
        let hi = self
            .readings
            .partition_point(|(t, _)| *t <= middle + WINDOW);
        let around: Vec<f64> = self.readings[lo..hi].iter().map(|(_, k)| *k).collect();
        NOMINAL / stats::median(&around)
    }

    /// The samples as they would have read on a host that runs the kernel
    /// in [`NOMINAL`].
    pub fn scaled(&self, samples: &Samples) -> Samples {
        samples.scaled(|at| self.factor(at))
    }

    /// Median kernel time over the run, in seconds.
    pub fn kernel_median(&self) -> f64 {
        stats::median(&self.readings.iter().map(|(_, k)| *k).collect::<Vec<f64>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn a_timing_is_scaled_by_the_readings_around_it() {
        let mut speed = HostSpeed::new();
        // A host at its usual speed, one spike, then twice as slow.
        speed.readings = vec![
            (1.0, NOMINAL),
            (1.1, 3.0 * NOMINAL),
            (1.2, NOMINAL),
            (5.0, 2.0 * NOMINAL),
            (5.1, 2.0 * NOMINAL),
        ];
        assert_eq!(speed.factor(0.0), 1.0);
        assert_eq!(speed.factor(1.1), 1.0, "one spike does not move it");
        assert_eq!(speed.factor(3.0), 1.0, "the nearer side");
        assert_eq!(speed.factor(3.2), 0.5);
        assert_eq!(speed.factor(9.0), 0.5);
    }

    #[test]
    fn readings_are_taken_no_more_often_than_asked() {
        let mut speed = HostSpeed::new();
        speed.tick();
        assert_eq!(speed.readings.len(), 1);
        std::thread::sleep(Duration::from_secs_f64(EVERY));
        speed.tick();
        assert_eq!(speed.readings.len(), 2);
        assert!(speed.kernel_median() > 0.0);
    }
}
