//! Property-based tests of the Born classifier's exactness guarantees
//! (paper Definitions 2.1 and 2.2).

use born::{BornClassifier, HyperParams, TrainItem};
use seeded::{cases, SplitMix64};
use std::ops::Range;

type Item = TrainItem<i64, i64>;

/// `len` draws of `(key in 0..keys, weight in 1..max_w)`.
fn pairs(rng: &mut SplitMix64, len: Range<i64>, keys: i64, max_w: i64) -> Vec<(i64, f64)> {
    let pair = |rng: &mut SplitMix64| (rng.range(0..keys), rng.range(1..max_w) as f64);
    (0..rng.range(len)).map(|_| pair(rng)).collect()
}

/// A sparse training item with up to 5 features from a vocabulary of 20, up
/// to 2 target classes out of 4, and a positive sample weight.
fn arb_item(rng: &mut SplitMix64) -> Item {
    TrainItem {
        x: pairs(rng, 1..6, 20, 5),
        y: pairs(rng, 1..3, 4, 3),
        weight: rng.range(1..4) as f64,
    }
}

fn arb_items(rng: &mut SplitMix64, len: Range<i64>) -> Vec<Item> {
    (0..rng.range(len)).map(|_| arb_item(rng)).collect()
}

fn assert_same_model(a: &BornClassifier<i64, i64>, b: &BornClassifier<i64, i64>) {
    assert_eq!(a.n_cells(), b.n_cells(), "cell count differs");
    assert_eq!(a.n_classes(), b.n_classes(), "class count differs");
    for (j, k, w) in a.corpus_entries() {
        let other = b.weight(j, k);
        assert!(
            (w - other).abs() <= 1e-9 * (1.0 + w.abs()),
            "P[{j},{k}]: {w} vs {other}"
        );
    }
}

const CASES: u32 = 64;

/// Eq. 2/3: training in any batch split equals training all at once.
#[test]
fn incremental_learning_is_exact() {
    cases(CASES, 1, |rng| {
        let items = arb_items(rng, 1..30);
        let split = rng.below(30).min(items.len());
        let full = BornClassifier::fit(&items);
        let mut inc = BornClassifier::new();
        inc.partial_fit(&items[..split]);
        inc.partial_fit(&items[split..]);
        assert_same_model(&full, &inc);
    });
}

/// Eq. 5/6: unlearning a forget set equals retraining on the remainder.
#[test]
fn unlearning_is_exact() {
    cases(CASES, 2, |rng| {
        let items = arb_items(rng, 1..30);
        let forget = rng.below(30).min(items.len());
        let mut clf = BornClassifier::fit(&items);
        clf.unlearn(&items[..forget]);
        let retrained = BornClassifier::fit(&items[forget..]);
        assert_same_model(&retrained, &clf);
    });
}

/// Unlearning everything returns an empty model.
#[test]
fn unlearning_everything_empties_the_model() {
    cases(CASES, 3, |rng| {
        let items = arb_items(rng, 1..20);
        let mut clf = BornClassifier::fit(&items);
        clf.unlearn(&items);
        assert_eq!(clf.n_cells(), 0);
        assert_eq!(clf.n_classes(), 0);
        assert!(clf.deploy(HyperParams::default()).is_none());
    });
}

/// Batch order does not matter (addition is commutative).
#[test]
fn batch_order_is_irrelevant() {
    cases(CASES, 4, |rng| {
        let a = arb_items(rng, 1..15);
        let b = arb_items(rng, 1..15);
        let mut ab = BornClassifier::new();
        ab.partial_fit(&a);
        ab.partial_fit(&b);
        let mut ba = BornClassifier::new();
        ba.partial_fit(&b);
        ba.partial_fit(&a);
        assert_same_model(&ab, &ba);
    });
}

/// predict_proba always yields a probability distribution.
#[test]
fn probabilities_are_a_distribution() {
    cases(CASES, 5, |rng| {
        let items = arb_items(rng, 1..20);
        let x = pairs(rng, 1..6, 25, 5);
        let Some(model) = BornClassifier::fit(&items).deploy(HyperParams::default()) else {
            return;
        };
        let proba = model.predict_proba(&x);
        let total: f64 = proba.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9, "sums to {total}");
        for (_, p) in proba {
            assert!((0.0..=1.0 + 1e-12).contains(&p));
        }
    });
}

/// The argmax of predict matches the argmax of predict_proba.
#[test]
fn predict_consistent_with_proba() {
    cases(CASES, 6, |rng| {
        let items = arb_items(rng, 1..20);
        let x = pairs(rng, 1..6, 20, 5);
        let Some(model) = BornClassifier::fit(&items).deploy(HyperParams::default()) else {
            return;
        };
        if let Some(pred) = model.predict(&x) {
            let proba = model.predict_proba(&x);
            let best = proba
                .iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(k, _)| *k)
                .unwrap();
            let pred_p = proba.iter().find(|(k, _)| *k == pred).unwrap().1;
            let best_p = proba.iter().find(|(k, _)| *k == best).unwrap().1;
            // Ties may resolve differently; probabilities must agree.
            assert!((pred_p - best_p).abs() < 1e-9);
        }
    });
}

/// Scaling every x uniformly does not change the trained model
/// (the per-item normalization divides it out).
#[test]
fn feature_scale_invariance_in_training() {
    cases(CASES, 7, |rng| {
        let items = arb_items(rng, 1..15);
        let scale = rng.range(2..10) as f64;
        let scaled: Vec<Item> = items
            .iter()
            .map(|i| TrainItem {
                x: i.x.iter().map(|(j, w)| (*j, w * scale)).collect(),
                y: i.y.clone(),
                weight: i.weight,
            })
            .collect();
        let a = BornClassifier::fit(&items);
        let b = BornClassifier::fit(&scaled);
        assert_same_model(&a, &b);
    });
}

/// Hyper-parameters do not affect training, only deployment: deploying
/// the same corpus with different params yields the same feature/class
/// support.
#[test]
fn deploy_support_is_param_independent() {
    cases(CASES, 8, |rng| {
        let clf = BornClassifier::fit(&arb_items(rng, 1..15));
        let a = rng.range(1..5) as f64 / 2.0;
        let h = rng.range(0..3) as f64;
        let m1 = clf.deploy(HyperParams::default()).unwrap();
        let m2 = clf.deploy(HyperParams::new(a, 0.5, h).unwrap()).unwrap();
        assert_eq!(m1.n_weights(), m2.n_weights());
    });
}
