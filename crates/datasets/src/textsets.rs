//! Synthetic analogues of the 20 Newsgroups and Reuters (R8 / R52) text
//! corpora (paper Section 5.3).
//!
//! The paper reports BornSQL accuracies of 87.3% (20NG), 95.4% (R8), and
//! 88.0% (R52), replicating the NeurIPS results. These generators produce
//! multi-class text datasets whose separability is tuned (via the
//! class-token mixing ratio and vocabulary overlap) so a Born classifier
//! lands in the same accuracy regime — preserving the *shape* of the
//! result (R8 easiest, 20NG/R52 harder with many confusable classes).

use seeded::SplitMix64;

use crate::sparse::{SparseDataset, SparseItem};
use crate::zipf::Zipf;

/// Configuration of a synthetic text classification corpus.
#[derive(Debug, Clone)]
pub struct TextSetConfig {
    pub n_classes: usize,
    pub n_items: usize,
    /// Probability that a token is a *signal* token (from some class's
    /// vocabulary) rather than shared filler.
    pub class_signal: f64,
    /// Probability that a signal token comes from the document's true class
    /// (otherwise a uniformly random class — misleading evidence). This is
    /// the knob that sets the irreducible Bayes error, keeping accuracies in
    /// the paper's 0.85–0.95 band instead of a trivial 1.0.
    pub signal_fidelity: f64,
    /// Tokens per class vocabulary.
    pub class_vocab: usize,
    /// Tokens in the shared vocabulary.
    pub shared_vocab: usize,
    /// Mean document length in tokens.
    pub doc_len: usize,
    /// Class imbalance exponent: class c has prior ∝ 1/(c+1)^imbalance.
    pub imbalance: f64,
    pub seed: u64,
}

/// Generate a corpus from the configuration.
pub fn generate(config: &TextSetConfig, name: &str) -> SparseDataset {
    let mut rng = SplitMix64::new(config.seed);
    let class_prior = Zipf::new(config.n_classes, config.imbalance);
    let class_tok = Zipf::new(config.class_vocab, 1.0);
    let shared_tok = Zipf::new(config.shared_vocab, 1.0);

    let mut items = Vec::with_capacity(config.n_items);
    for id in 1..=(config.n_items as i64) {
        let class = class_prior.sample(&mut rng);
        let len = (config.doc_len / 2) + rng.below(config.doc_len.max(1));
        let mut counts: std::collections::BTreeMap<String, f64> = Default::default();
        for _ in 0..len.max(3) {
            let u = rng.unit_f64();
            let tok = if u < config.class_signal {
                // Signal token — usually from the true class, sometimes from
                // a random class (misleading evidence).
                let c = if rng.chance(config.signal_fidelity) {
                    class
                } else {
                    rng.below(config.n_classes)
                };
                format!("c{c}_t{}", class_tok.sample(&mut rng))
            } else {
                format!("shared_t{}", shared_tok.sample(&mut rng))
            };
            *counts.entry(tok).or_insert(0.0) += 1.0;
        }
        items.push(SparseItem {
            id,
            features: counts.into_iter().collect(),
            label: format!("class{class}"),
        });
    }
    SparseDataset {
        name: name.into(),
        items,
    }
}

/// 20-Newsgroups-like: 20 moderately confusable, roughly balanced classes.
pub fn newsgroups_like(n_items: usize, seed: u64) -> SparseDataset {
    generate(
        &TextSetConfig {
            n_classes: 20,
            n_items,
            class_signal: 0.45,
            signal_fidelity: 0.58,
            class_vocab: 300,
            shared_vocab: 2_000,
            doc_len: 18,
            imbalance: 0.1,
            seed,
        },
        "20ng-like",
    )
}

/// Reuters-like: `r8` (8 classes, strong signal → mid-90s accuracy) or
/// `r52` (52 classes, skewed priors → high-80s).
pub fn reuters_like(variant: &str, n_items: usize, seed: u64) -> SparseDataset {
    match variant {
        "r8" => generate(
            &TextSetConfig {
                n_classes: 8,
                n_items,
                class_signal: 0.55,
                signal_fidelity: 0.74,
                class_vocab: 250,
                shared_vocab: 1_500,
                doc_len: 16,
                imbalance: 0.8,
                seed,
            },
            "r8-like",
        ),
        "r52" => generate(
            &TextSetConfig {
                n_classes: 52,
                n_items,
                class_signal: 0.5,
                signal_fidelity: 0.60,
                class_vocab: 150,
                shared_vocab: 1_500,
                doc_len: 16,
                imbalance: 1.0,
                seed,
            },
            "r52-like",
        ),
        other => panic!("unknown Reuters variant '{other}' (use r8 or r52)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newsgroups_has_20_classes() {
        let d = newsgroups_like(2_000, 1);
        assert_eq!(d.labels().len(), 20);
        assert_eq!(d.items.len(), 2_000);
    }

    #[test]
    fn r52_is_skewed() {
        let d = reuters_like("r52", 5_000, 2);
        let labels = d.labels();
        assert!(labels.len() >= 40, "saw {} classes", labels.len());
        let count = |l: &str| d.items.iter().filter(|i| i.label == l).count();
        assert!(count("class0") > count("class30") * 3);
    }

    #[test]
    #[should_panic(expected = "unknown Reuters variant")]
    fn bad_variant_panics() {
        reuters_like("r9", 10, 0);
    }

    #[test]
    fn documents_contain_class_tokens() {
        let d = reuters_like("r8", 500, 3);
        let item = &d.items[0];
        let class_idx = item.label.strip_prefix("class").unwrap();
        let has_own = item
            .features
            .iter()
            .any(|(j, _)| j.starts_with(&format!("c{class_idx}_")));
        assert!(has_own || item.features.iter().any(|(j, _)| j.starts_with("shared")));
    }
}
