//! Sample statistics and process memory.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Seconds since the first call in this process: the one clock every
/// sample and every host-speed reading is stamped with, on any thread.
pub fn clock() -> f64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Timings of one kind of operation, in the order they were taken, each
/// with the time it ended at.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    seconds: Vec<f64>,
    at: Vec<f64>,
}

impl Samples {
    /// Record an operation that has just ended.
    pub fn push(&mut self, d: Duration) {
        self.seconds.push(d.as_secs_f64());
        self.at.push(clock());
    }

    pub fn len(&self) -> usize {
        self.seconds.len()
    }

    pub fn extend(&mut self, other: Samples) {
        self.seconds.extend(other.seconds);
        self.at.extend(other.at);
    }

    /// The same samples, each multiplied by `factor(time it ended at)`.
    pub fn scaled(&self, factor: impl Fn(f64) -> f64) -> Samples {
        Samples {
            seconds: self
                .seconds
                .iter()
                .zip(&self.at)
                .map(|(s, at)| s * factor(*at))
                .collect(),
            at: self.at.clone(),
        }
    }

    pub fn sum(&self) -> f64 {
        self.seconds.iter().sum()
    }

    fn sorted(values: &[f64]) -> Vec<f64> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Quantile `q` of sorted values, interpolating between neighbours.
    fn quantile_of(sorted: &[f64], q: f64) -> f64 {
        assert!(!sorted.is_empty(), "quantile of no samples");
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    }

    /// Median, in seconds.
    pub fn median(&self) -> f64 {
        Self::quantile_of(&Self::sorted(&self.seconds), 0.5)
    }

    /// A tail that repeats: the phase is cut into up to ten equal segments
    /// in time order, each segment gives its own quantile `q`, and the
    /// median of them is reported. One stall then moves one segment, not
    /// the metric. A segment keeps at least two samples beyond the
    /// quantile, so few samples make few segments (one, below
    /// `4 ÷ (1 − q)` samples); the sample count is printed beside the
    /// metric so the reader can tell.
    pub fn segment_tail(&self, q: f64) -> f64 {
        let beyond = self.len() as f64 * (1.0 - q);
        let segments = ((beyond / 2.0) as usize).clamp(1, 10);
        let tails: Vec<f64> = (0..segments)
            .map(|s| {
                let lo = s * self.len() / segments;
                let hi = (s + 1) * self.len() / segments;
                Self::quantile_of(&Self::sorted(&self.seconds[lo..hi]), q)
            })
            .collect();
        Self::quantile_of(&Self::sorted(&tails), 0.5)
    }

    pub fn max(&self) -> f64 {
        self.seconds.iter().copied().fold(f64::MIN, f64::max)
    }
}

/// Median of plain numbers (rates, ratios).
pub fn median(values: &[f64]) -> f64 {
    Samples::quantile_of(&Samples::sorted(values), 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(ms: &[u64]) -> Samples {
        let mut s = Samples::default();
        for m in ms {
            s.push(Duration::from_millis(*m));
        }
        s
    }

    #[test]
    fn median_interpolates() {
        assert!((samples(&[1, 3]).median() - 0.002).abs() < 1e-12);
        assert!((samples(&[5, 1, 3]).median() - 0.003).abs() < 1e-12);
    }

    #[test]
    fn one_stall_does_not_move_the_segment_tail() {
        let mut ms = vec![10u64; 1000];
        ms[500] = 5_000;
        assert!((samples(&ms).segment_tail(0.99) - 0.010).abs() < 1e-9);
        // The plain maximum does see it.
        assert!((samples(&ms).max() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn few_samples_make_one_segment() {
        let ms: Vec<u64> = (1..=60).collect();
        // 60 × 0.05 = 3 samples beyond p95: one segment, the plain quantile.
        assert!((samples(&ms).segment_tail(0.95) - 0.05705).abs() < 1e-9);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 1.0);
    }
}
