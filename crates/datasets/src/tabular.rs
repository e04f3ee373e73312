//! Synthetic analogues of the UCI Adult and RLCP datasets (paper Section 5).
//!
//! * **Adult-like** — binary income classification from one-hot encoded
//!   census categoricals: 102 one-hot features over 8 attribute families,
//!   ~24% positive rate, 32,561 train / 16,281 test at full scale.
//! * **RLCP-like** — record-linkage comparison patterns: 18 binary
//!   match/non-match features, extreme imbalance (~0.36% positive),
//!   5,749,132 instances at full scale (scaled down by default).
//!
//! Both generators plant a class-conditional structure whose strength is
//! tuned so that linear baselines and BornSQL land in the accuracy regime
//! the paper reports (Table 5): high-90s on RLCP, ~0.7 macro-F1 on Adult.

use seeded::SplitMix64;

use crate::sparse::{SparseDataset, SparseItem};

/// Scale configuration shared by the tabular generators.
#[derive(Debug, Clone)]
pub struct TabularConfig {
    pub n_items: usize,
    pub seed: u64,
}

impl TabularConfig {
    pub fn new(n_items: usize, seed: u64) -> Self {
        TabularConfig { n_items, seed }
    }
}

/// Attribute families of the Adult-like dataset: (name, cardinality).
/// Cardinalities sum to 102, the paper's one-hot feature count.
const ADULT_ATTRIBUTES: [(&str, usize); 8] = [
    ("workclass", 9),
    ("education", 16),
    ("marital_status", 7),
    ("occupation", 15),
    ("relationship", 6),
    ("race", 5),
    ("sex", 2),
    ("native_country", 42),
];

/// Generate an Adult-like census dataset. Labels are `">50K"` / `"<=50K"`
/// with the UCI positive rate (~24%).
pub fn adult_like(config: &TabularConfig) -> SparseDataset {
    let mut rng = SplitMix64::new(config.seed);
    let total_card: usize = ADULT_ATTRIBUTES.iter().map(|(_, c)| c).sum();
    debug_assert_eq!(total_card, 102);

    let mut items = Vec::with_capacity(config.n_items);
    for id in 1..=(config.n_items as i64) {
        let positive = rng.chance(11_687.0 / 48_842.0); // UCI class prior
        let mut features = Vec::with_capacity(ADULT_ATTRIBUTES.len());
        for (attr, card) in ADULT_ATTRIBUTES {
            // Class-conditional categorical draw: the positive class skews
            // toward low category indexes, the negative toward high ones,
            // with heavy overlap (this is what caps F1 around the paper's
            // ~0.7 level rather than making the task trivial).
            let skew: f64 = if positive { 0.40 } else { 0.60 };
            let u: f64 = rng.unit_f64() * 0.66 + skew * 0.34;
            let idx = ((u * card as f64) as usize).min(card - 1);
            features.push((format!("{attr}:v{idx}"), 1.0));
        }
        // Rare categories appear in the negative class only — the bias the
        // paper's Section 5.4 explainability example detects.
        if !positive && rng.chance(0.0006) {
            features.push(("native_country:Holand-Netherlands".to_string(), 1.0));
        }
        items.push(SparseItem {
            id,
            features,
            label: if positive { ">50K" } else { "<=50K" }.to_string(),
        });
    }
    SparseDataset {
        name: "adult-like".into(),
        items,
    }
}

/// Generate an RLCP-like record-linkage dataset: 18 binary comparison
/// features (`cmp_i:match` present when field i agrees), labels
/// `"match"` / `"nonmatch"` with ~0.36% positive rate. True matches agree on
/// almost all fields; non-matches agree rarely.
pub fn rlcp_like(config: &TabularConfig) -> SparseDataset {
    let mut rng = SplitMix64::new(config.seed);
    let mut items = Vec::with_capacity(config.n_items);
    for id in 1..=(config.n_items as i64) {
        let is_match = rng.chance(20_931.0 / 5_749_132.0);
        let agree_p = if is_match { 0.93 } else { 0.08 };
        let mut features = Vec::new();
        for field in 0..18 {
            if rng.chance(agree_p) {
                features.push((format!("cmp_{field}:match"), 1.0));
            } else {
                features.push((format!("cmp_{field}:nonmatch"), 1.0));
            }
        }
        items.push(SparseItem {
            id,
            features,
            label: if is_match { "match" } else { "nonmatch" }.to_string(),
        });
    }
    SparseDataset {
        name: "rlcp-like".into(),
        items,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adult_has_102_possible_features_and_right_prior() {
        let d = adult_like(&TabularConfig::new(20_000, 1));
        assert!(d.n_features() <= 103); // 102 + the planted rare country
        let pos = d.items.iter().filter(|i| i.label == ">50K").count();
        let rate = pos as f64 / d.items.len() as f64;
        assert!((rate - 0.2393).abs() < 0.02, "positive rate {rate}");
        // Every item has exactly one value per attribute family.
        assert!(d.items.iter().all(|i| i.features.len() >= 8));
    }

    #[test]
    fn rlcp_is_extremely_imbalanced() {
        let d = rlcp_like(&TabularConfig::new(100_000, 2));
        let pos = d.items.iter().filter(|i| i.label == "match").count();
        let rate = pos as f64 / d.items.len() as f64;
        assert!(rate < 0.01, "positive rate {rate}");
        assert!(pos > 0, "some matches must exist at this scale");
        assert_eq!(d.n_features(), 36); // 18 fields × match/nonmatch
    }

    #[test]
    fn matches_agree_more_than_nonmatches() {
        let d = rlcp_like(&TabularConfig::new(200_000, 3));
        let avg_agree = |label: &str| {
            let sel: Vec<_> = d.items.iter().filter(|i| i.label == label).collect();
            let agrees: usize = sel
                .iter()
                .map(|i| {
                    i.features
                        .iter()
                        .filter(|(j, _)| j.ends_with(":match"))
                        .count()
                })
                .sum();
            agrees as f64 / sel.len().max(1) as f64
        };
        assert!(avg_agree("match") > 14.0);
        assert!(avg_agree("nonmatch") < 4.0);
    }

    #[test]
    fn deterministic() {
        let a = adult_like(&TabularConfig::new(100, 7));
        let b = adult_like(&TabularConfig::new(100, 7));
        assert_eq!(a.items[50].features, b.items[50].features);
        assert_eq!(a.items[50].label, b.items[50].label);
    }
}
