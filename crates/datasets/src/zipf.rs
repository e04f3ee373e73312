//! A small Zipf-law sampler.
//!
//! Real-world categorical attributes (publication venues, keywords, word
//! frequencies) follow heavy-tailed rank-frequency laws; the paper's feature
//! growth curves (Figure 5) only reproduce if the synthetic data does too.

use seeded::SplitMix64;

/// Samples ranks `0..n` with probability proportional to `1 / (rank+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Cumulative distribution over ranks.
    cdf: Vec<f64>,
}

impl Zipf {
    /// Create a sampler over `n` ranks with exponent `s` (s = 1 is the
    /// classic Zipf law; larger s concentrates more mass on low ranks).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(total);
        }
        let norm = total;
        for c in &mut cdf {
            *c /= norm;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit_f64();
        // First rank whose CDF value exceeds u.
        match self.cdf.binary_search_by(|c| c.partial_cmp(&u).unwrap()) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_ranks_dominate() {
        let z = Zipf::new(100, 1.0);
        let mut rng = SplitMix64::new(1);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10], "rank 0 must beat rank 10");
        assert!(counts[0] > counts[99] * 5, "head must dominate tail");
    }

    #[test]
    fn all_ranks_reachable() {
        let z = Zipf::new(5, 0.5);
        let mut rng = SplitMix64::new(2);
        let mut seen = [false; 5];
        for _ in 0..5_000 {
            seen[z.sample(&mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn deterministic_under_seed() {
        let z = Zipf::new(50, 1.2);
        let mut a = SplitMix64::new(3);
        let mut b = SplitMix64::new(3);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut a), z.sample(&mut b));
        }
    }

    #[test]
    fn single_rank() {
        let z = Zipf::new(1, 1.0);
        let mut rng = SplitMix64::new(4);
        assert_eq!(z.sample(&mut rng), 0);
    }
}
