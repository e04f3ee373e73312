//! The Born classifier: training, incremental learning, unlearning,
//! deployment, inference, and explanations — all sparse.

use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hash;

/// Inference hyper-parameters (paper Section 2.2). Training does **not**
/// depend on them, which is what makes cached-weight deployment and
/// retrain-free tuning possible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HyperParams {
    /// Born exponent, `a > 0`. The NeurIPS paper's default is `1/2`.
    pub a: f64,
    /// Balance between class and feature normalization, `0 ≤ b ≤ 1`.
    pub b: f64,
    /// Entropy-weight exponent, `h ≥ 0`.
    pub h: f64,
}

impl Default for HyperParams {
    fn default() -> Self {
        HyperParams {
            a: 0.5,
            b: 1.0,
            h: 1.0,
        }
    }
}

impl HyperParams {
    pub fn new(a: f64, b: f64, h: f64) -> Result<Self, String> {
        // NaN must fail every check, hence the negated comparisons.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(a > 0.0) {
            return Err(format!("hyper-parameter a must be > 0, got {a}"));
        }
        if !(0.0..=1.0).contains(&b) {
            return Err(format!("hyper-parameter b must be in [0, 1], got {b}"));
        }
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(h >= 0.0) {
            return Err(format!("hyper-parameter h must be ≥ 0, got {h}"));
        }
        Ok(HyperParams { a, b, h })
    }
}

/// One training example: a sparse feature vector, a sparse target vector,
/// and a sample weight. Negative weights unlearn (paper eq. 6).
#[derive(Debug, Clone)]
pub struct TrainItem<J, K> {
    pub x: Vec<(J, f64)>,
    pub y: Vec<(K, f64)>,
    pub weight: f64,
}

impl<J, K> TrainItem<J, K> {
    /// A single-label item with unit weights.
    pub fn labeled(x: Vec<(J, f64)>, label: K) -> Self {
        TrainItem {
            x,
            y: vec![(label, 1.0)],
            weight: 1.0,
        }
    }

    /// Flip the sample weight — turns a learning item into an unlearning one.
    pub fn negated(mut self) -> Self {
        self.weight = -self.weight;
        self
    }
}

/// The Born classifier state: the sparse joint-probability tensor `P_jk`.
///
/// Generic over feature (`J`) and class (`K`) key types; `Ord` bounds keep
/// iteration deterministic, which matters for reproducible explanations.
/// [`corpus_entries`](Self::corpus_entries) *is* the model (training state
/// included), mirroring the `{model}_corpus` table.
#[derive(Debug, Clone, Default)]
pub struct BornClassifier<J = String, K = String>
where
    J: Ord + Clone,
    K: Ord + Clone,
{
    /// `P[j][k]` — the unnormalized joint probability of feature j, class k.
    corpus: BTreeMap<J, BTreeMap<K, f64>>,
    /// All classes ever seen (needed for the entropy scale `ln(Σ_k 1)`).
    classes: BTreeSet<K>,
}

impl<J, K> BornClassifier<J, K>
where
    J: Ord + Clone + Hash,
    K: Ord + Clone + Hash,
{
    pub fn new() -> Self {
        BornClassifier {
            corpus: BTreeMap::new(),
            classes: BTreeSet::new(),
        }
    }

    /// Train from scratch (paper eq. 1). Equivalent to `new` + `partial_fit`.
    pub fn fit(items: &[TrainItem<J, K>]) -> Self {
        let mut clf = Self::new();
        clf.partial_fit(items);
        clf
    }

    /// Exact incremental learning (paper eq. 3): `B(D) + B(D_i)`.
    pub fn partial_fit(&mut self, items: &[TrainItem<J, K>]) {
        for item in items {
            let x_norm: f64 = item.x.iter().map(|(_, w)| w).sum();
            let y_norm: f64 = item.y.iter().map(|(_, w)| w).sum();
            let denom = x_norm * y_norm;
            if denom == 0.0 {
                continue; // an empty item carries no probability mass
            }
            for (k, _) in &item.y {
                self.classes.insert(k.clone());
            }
            for (j, xw) in &item.x {
                let row = self.corpus.entry(j.clone()).or_default();
                for (k, yw) in &item.y {
                    let delta = item.weight * xw * yw / denom;
                    let cell = row.entry(k.clone()).or_insert(0.0);
                    *cell += delta;
                }
            }
        }
        self.prune();
    }

    /// Exact unlearning (paper eq. 6): incremental learning on `-D_f`.
    ///
    /// The caller must pass the same items (features, targets, and weights)
    /// that were originally learned; the entries they contributed are
    /// subtracted exactly.
    pub fn unlearn(&mut self, items: &[TrainItem<J, K>]) {
        let negated: Vec<TrainItem<J, K>> = items.iter().map(|i| i.clone().negated()).collect();
        self.partial_fit(&negated);
    }

    /// Merge another classifier's parameters (eq. 3 at tensor level).
    pub fn merge(&mut self, other: &Self) {
        for (j, row) in &other.corpus {
            let dst = self.corpus.entry(j.clone()).or_default();
            for (k, w) in row {
                *dst.entry(k.clone()).or_insert(0.0) += w;
            }
        }
        self.classes.extend(other.classes.iter().cloned());
        self.prune();
    }

    /// Drop cells that cancelled to (numerically) zero and empty rows, so an
    /// unlearned model is structurally identical to one retrained without
    /// the forgotten data.
    fn prune(&mut self) {
        for row in self.corpus.values_mut() {
            row.retain(|_, w| w.abs() > 1e-12);
        }
        self.corpus.retain(|_, row| !row.is_empty());
        // A class disappears only when no cell references it anymore.
        let live: BTreeSet<K> = self
            .corpus
            .values()
            .flat_map(|row| row.keys().cloned())
            .collect();
        self.classes = live;
    }

    /// Number of distinct features with non-zero mass.
    pub fn n_features(&self) -> usize {
        self.corpus.len()
    }

    /// Number of distinct classes with non-zero mass.
    pub fn n_classes(&self) -> usize {
        self.classes.len()
    }

    /// Number of non-zero `(j, k)` cells — the size of the corpus table.
    pub fn n_cells(&self) -> usize {
        self.corpus.values().map(|r| r.len()).sum()
    }

    /// Iterate the raw corpus entries `(j, k, P_jk)` in deterministic order.
    pub fn corpus_entries(&self) -> impl Iterator<Item = (&J, &K, f64)> {
        self.corpus
            .iter()
            .flat_map(|(j, row)| row.iter().map(move |(k, w)| (j, k, *w)))
    }

    /// Raw `P_jk` cell lookup.
    pub fn weight(&self, j: &J, k: &K) -> f64 {
        self.corpus
            .get(j)
            .and_then(|row| row.get(k))
            .copied()
            .unwrap_or(0.0)
    }

    /// Deploy: pre-compute the cached inference weights `HW_jk = H_j^h·W_jk^a`
    /// (paper eqs. 8–10 and Section 3.3).
    ///
    /// Returns `None` when the model is empty.
    pub fn deploy(&self, params: HyperParams) -> Option<DeployedModel<J, K>> {
        if self.corpus.is_empty() || self.classes.is_empty() {
            return None;
        }
        // Marginals. Cells with non-positive mass (possible only transiently
        // through float cancellation) are excluded, matching a retrained
        // model.
        let mut p_j: BTreeMap<&J, f64> = BTreeMap::new();
        let mut p_k: BTreeMap<&K, f64> = BTreeMap::new();
        for (j, row) in &self.corpus {
            for (k, &w) in row {
                if w <= 0.0 {
                    continue;
                }
                *p_j.entry(j).or_insert(0.0) += w;
                *p_k.entry(k).or_insert(0.0) += w;
            }
        }

        // W_jk = P_jk / ((Σ_j P_jk)^b · (Σ_k P_jk)^(1-b))   (eq. 8)
        let mut w_jk: BTreeMap<J, BTreeMap<K, f64>> = BTreeMap::new();
        for (j, row) in &self.corpus {
            for (k, &w) in row {
                if w <= 0.0 {
                    continue;
                }
                let denom = p_k[k].powf(params.b) * p_j[j].powf(1.0 - params.b);
                w_jk.entry(j.clone())
                    .or_default()
                    .insert(k.clone(), w / denom);
            }
        }

        // H_j = 1 + Σ_k H̃_jk ln H̃_jk / ln(n_classes)   (eqs. 9–10)
        let n_classes = self.classes.len();
        let ln_classes = (n_classes as f64).ln();
        let mut weights: BTreeMap<J, BTreeMap<K, f64>> = BTreeMap::new();
        for (j, row) in &w_jk {
            let w_j: f64 = row.values().sum();
            let h_j = if n_classes <= 1 {
                // One class: the entropy term is 0/0; the classifier is
                // degenerate and every feature is equally (un)informative.
                1.0
            } else {
                let entropy: f64 = row
                    .values()
                    .map(|&w| {
                        let p = w / w_j;
                        if p > 0.0 {
                            p * p.ln()
                        } else {
                            0.0
                        }
                    })
                    .sum();
                1.0 + entropy / ln_classes
            };
            let hw_row: BTreeMap<K, f64> = row
                .iter()
                .map(|(k, &w)| (k.clone(), h_j.powf(params.h) * w.powf(params.a)))
                .collect();
            weights.insert(j.clone(), hw_row);
        }

        Some(DeployedModel {
            weights,
            classes: self.classes.clone(),
            params,
        })
    }
}

/// A deployed model: the cached weights `HW_jk` plus hyper-parameters.
/// This corresponds to the paper's `{model}_weights` table.
#[derive(Debug, Clone)]
pub struct DeployedModel<J = String, K = String>
where
    J: Ord + Clone,
    K: Ord + Clone,
{
    /// `HW[j][k] = H_j^h · W_jk^a`.
    weights: BTreeMap<J, BTreeMap<K, f64>>,
    classes: BTreeSet<K>,
    params: HyperParams,
}

/// A ranked list of `(feature, class, weight)` contributions.
pub type Explanation<J, K> = Vec<(J, K, f64)>;

impl<J, K> DeployedModel<J, K>
where
    J: Ord + Clone,
    K: Ord + Clone,
{
    pub fn params(&self) -> HyperParams {
        self.params
    }

    pub fn n_weights(&self) -> usize {
        self.weights.values().map(|r| r.len()).sum()
    }

    pub fn classes(&self) -> impl Iterator<Item = &K> {
        self.classes.iter()
    }

    /// Unnormalized class scores `u_k^a = Σ_j HW_jk · x_j^a` (paper eq. 11,
    /// before the `1/a` root).
    pub fn scores(&self, x: &[(J, f64)]) -> BTreeMap<K, f64> {
        let mut scores: BTreeMap<K, f64> = BTreeMap::new();
        for (j, xw) in x {
            if *xw <= 0.0 {
                continue;
            }
            if let Some(row) = self.weights.get(j) {
                let xa = xw.powf(self.params.a);
                for (k, hw) in row {
                    *scores.entry(k.clone()).or_insert(0.0) += hw * xa;
                }
            }
        }
        scores
    }

    /// Predicted class: `argmax_k u_k^a`. Deterministic tie-break on the
    /// class order. `None` when no feature is known to the model.
    pub fn predict(&self, x: &[(J, f64)]) -> Option<K> {
        let scores = self.scores(x);
        scores
            .into_iter()
            .max_by(|(ka, wa), (kb, wb)| {
                wa.total_cmp(wb).then_with(|| kb.cmp(ka)) // prefer the smaller key on ties
            })
            .map(|(k, _)| k)
    }

    /// The `k` most probable classes with their probabilities, best first.
    pub fn predict_topk(&self, x: &[(J, f64)], k: usize) -> Vec<(K, f64)> {
        let mut proba = self.predict_proba(x);
        proba.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        proba.truncate(k);
        proba
    }

    /// Normalized probability distribution `u_k / Σ_k u_k` over all classes.
    /// Classes with no evidence get probability zero; an all-unknown item
    /// yields the uniform distribution.
    pub fn predict_proba(&self, x: &[(J, f64)]) -> Vec<(K, f64)> {
        let scores = self.scores(x);
        let inv_a = 1.0 / self.params.a;
        let u: BTreeMap<&K, f64> = scores.iter().map(|(k, s)| (k, s.powf(inv_a))).collect();
        let total: f64 = u.values().sum();
        if total <= 0.0 {
            let p = 1.0 / self.classes.len().max(1) as f64;
            return self.classes.iter().map(|k| (k.clone(), p)).collect();
        }
        self.classes
            .iter()
            .map(|k| (k.clone(), u.get(k).copied().unwrap_or(0.0) / total))
            .collect()
    }

    /// Global explanation: the cached weights `HW_jk` themselves, sorted by
    /// descending weight (paper Section 3.5).
    pub fn explain_global(&self) -> Explanation<J, K> {
        let mut out: Explanation<J, K> = self
            .weights
            .iter()
            .flat_map(|(j, row)| row.iter().map(move |(k, &w)| (j.clone(), k.clone(), w)))
            .collect();
        out.sort_by(|a, b| b.2.total_cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Local explanation for a set of items: weights `HW_jk · z_j^a` where
    /// `z` is the weighted average of the normalized feature vectors
    /// (paper eq. 30).
    pub fn explain_local(&self, items: &[(Vec<(J, f64)>, f64)]) -> Explanation<J, K> {
        // z_j = Σ_n w_n · x_nj / Σ_j x_nj
        let mut z: BTreeMap<J, f64> = BTreeMap::new();
        for (x, sample_w) in items {
            let norm: f64 = x.iter().map(|(_, w)| w).sum();
            if norm == 0.0 {
                continue;
            }
            for (j, w) in x {
                *z.entry(j.clone()).or_insert(0.0) += sample_w * w / norm;
            }
        }
        let mut out: Explanation<J, K> = Vec::new();
        for (j, zj) in &z {
            if *zj <= 0.0 {
                continue;
            }
            if let Some(row) = self.weights.get(j) {
                let za = zj.powf(self.params.a);
                for (k, hw) in row {
                    out.push((j.clone(), k.clone(), hw * za));
                }
            }
        }
        out.sort_by(|a, b| b.2.total_cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Iterate the cached weights in deterministic order.
    pub fn weight_entries(&self) -> impl Iterator<Item = (&J, &K, f64)> {
        self.weights
            .iter()
            .flat_map(|(j, row)| row.iter().map(move |(k, w)| (j, k, *w)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(x: Vec<(&'static str, f64)>, k: &'static str) -> TrainItem<&'static str, &'static str> {
        TrainItem::labeled(x, k)
    }

    fn toy_items() -> Vec<TrainItem<&'static str, &'static str>> {
        vec![
            item(vec![("robot", 2.0), ("neural", 1.0)], "ai"),
            item(vec![("neural", 1.0), ("vision", 1.0)], "ai"),
            item(vec![("poisson", 1.0), ("variance", 2.0)], "stats"),
            item(vec![("variance", 1.0), ("sample", 1.0)], "stats"),
            item(vec![("queue", 1.0), ("inventory", 1.0)], "ops"),
        ]
    }

    #[test]
    fn fit_accumulates_joint_probability() {
        let clf = BornClassifier::fit(&[item(vec![("a", 1.0), ("b", 3.0)], "k1")]);
        // denom = (1+3)*1 = 4
        assert!((clf.weight(&"a", &"k1") - 0.25).abs() < 1e-15);
        assert!((clf.weight(&"b", &"k1") - 0.75).abs() < 1e-15);
    }

    #[test]
    fn incremental_equals_batch() {
        let items = toy_items();
        let full = BornClassifier::fit(&items);
        let mut inc = BornClassifier::new();
        inc.partial_fit(&items[..2]);
        inc.partial_fit(&items[2..]);
        assert_eq!(full.n_cells(), inc.n_cells());
        for (j, k, w) in full.corpus_entries() {
            assert!((w - inc.weight(j, k)).abs() < 1e-12, "cell ({j:?},{k:?})");
        }
    }

    #[test]
    fn unlearn_equals_retrain() {
        let items = toy_items();
        let mut clf = BornClassifier::fit(&items);
        clf.unlearn(&items[3..]);
        let retrained = BornClassifier::fit(&items[..3]);
        assert_eq!(clf.n_cells(), retrained.n_cells());
        assert_eq!(clf.n_classes(), retrained.n_classes());
        for (j, k, w) in retrained.corpus_entries() {
            assert!((w - clf.weight(j, k)).abs() < 1e-12);
        }
    }

    #[test]
    fn unlearning_whole_class_removes_it() {
        let items = toy_items();
        let mut clf = BornClassifier::fit(&items);
        assert_eq!(clf.n_classes(), 3);
        clf.unlearn(&items[4..]); // the only "ops" item
        assert_eq!(clf.n_classes(), 2);
        assert!(!clf.corpus_entries().any(|(_, k, _)| *k == "ops"));
    }

    #[test]
    fn predict_prefers_class_with_evidence() {
        let model = BornClassifier::fit(&toy_items())
            .deploy(HyperParams::default())
            .unwrap();
        assert_eq!(model.predict(&[("robot", 1.0)]).unwrap(), "ai");
        assert_eq!(model.predict(&[("variance", 1.0)]).unwrap(), "stats");
        assert_eq!(model.predict(&[("queue", 2.0)]).unwrap(), "ops");
        assert!(model.predict(&[("unseen", 1.0)]).is_none());
    }

    #[test]
    fn probabilities_normalize() {
        let model = BornClassifier::fit(&toy_items())
            .deploy(HyperParams::default())
            .unwrap();
        let proba = model.predict_proba(&[("neural", 1.0), ("variance", 1.0)]);
        let total: f64 = proba.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(proba.iter().all(|(_, p)| (0.0..=1.0).contains(p)));
        // Unknown item → uniform.
        let uniform = model.predict_proba(&[("unseen", 1.0)]);
        for (_, p) in uniform {
            assert!((p - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn entropy_weight_downweights_nondiscriminative_features() {
        // "common" appears equally in both classes; "rare" only in one.
        let items = vec![
            item(vec![("common", 1.0), ("rare", 1.0)], "k1"),
            item(vec![("common", 1.0)], "k2"),
        ];
        let model = BornClassifier::fit(&items)
            .deploy(HyperParams {
                a: 0.5,
                b: 1.0,
                h: 1.0,
            })
            .unwrap();
        let global = model.explain_global();
        let w_common_k1 = global
            .iter()
            .find(|(j, k, _)| *j == "common" && *k == "k1")
            .map(|(_, _, w)| *w)
            .unwrap_or(0.0);
        let w_rare_k1 = global
            .iter()
            .find(|(j, k, _)| *j == "rare" && *k == "k1")
            .map(|(_, _, w)| *w)
            .unwrap();
        assert!(
            w_rare_k1 > w_common_k1,
            "discriminative feature must outweigh common one: {w_rare_k1} vs {w_common_k1}"
        );
    }

    #[test]
    fn perfectly_balanced_feature_has_zero_weight() {
        // A feature whose class-normalized weights W_jk are uniform has
        // H̃ uniform → H_j = 0 → HW = 0 when h > 0. With b = 1 the
        // normalization is by class mass, so the class masses must be equal
        // for "even" to be genuinely uninformative.
        let items = vec![
            item(vec![("even", 1.0)], "k1"),
            item(vec![("even", 1.0)], "k2"),
            item(vec![("odd", 1.0)], "k1"),
            item(vec![("odd2", 1.0)], "k2"),
        ];
        let model = BornClassifier::fit(&items)
            .deploy(HyperParams {
                a: 0.5,
                b: 1.0,
                h: 1.0,
            })
            .unwrap();
        let scores = model.scores(&[("even", 1.0)]);
        for (_, s) in scores {
            assert!(s.abs() < 1e-12, "balanced feature must contribute zero");
        }
    }

    #[test]
    fn hyperparams_validation() {
        assert!(HyperParams::new(0.5, 1.0, 1.0).is_ok());
        assert!(HyperParams::new(0.0, 1.0, 1.0).is_err());
        assert!(HyperParams::new(0.5, 1.5, 1.0).is_err());
        assert!(HyperParams::new(0.5, 1.0, -0.1).is_err());
        assert!(HyperParams::new(f64::NAN, 1.0, 1.0).is_err());
    }

    #[test]
    fn deploy_empty_model_is_none() {
        let clf: BornClassifier<&str, &str> = BornClassifier::new();
        assert!(clf.deploy(HyperParams::default()).is_none());
    }

    #[test]
    fn local_explanation_ranks_strong_evidence_first() {
        let model = BornClassifier::fit(&toy_items())
            .deploy(HyperParams::default())
            .unwrap();
        let local = model.explain_local(&[(vec![("robot", 3.0), ("neural", 1.0)], 1.0)]);
        assert!(!local.is_empty());
        let (j, k, _) = &local[0];
        assert_eq!((*j, *k), ("robot", "ai"));
    }

    #[test]
    fn sample_weights_scale_contributions() {
        let light = BornClassifier::fit(&[item(vec![("f", 1.0)], "k")]);
        let heavy = BornClassifier::fit(&[TrainItem {
            x: vec![("f", 1.0)],
            y: vec![("k", 1.0)],
            weight: 3.0,
        }]);
        assert!((heavy.weight(&"f", &"k") - 3.0 * light.weight(&"f", &"k")).abs() < 1e-15);
    }

    #[test]
    fn merge_matches_joint_fit() {
        let items = toy_items();
        let mut a = BornClassifier::fit(&items[..2]);
        let b = BornClassifier::fit(&items[2..]);
        a.merge(&b);
        let full = BornClassifier::fit(&items);
        for (j, k, w) in full.corpus_entries() {
            assert!((w - a.weight(j, k)).abs() < 1e-12);
        }
    }

    #[test]
    fn multilabel_targets_split_mass() {
        let clf = BornClassifier::fit(&[TrainItem {
            x: vec![("f", 1.0)],
            y: vec![("k1", 1.0), ("k2", 1.0)],
            weight: 1.0,
        }]);
        // denom = 1 * 2
        assert!((clf.weight(&"f", &"k1") - 0.5).abs() < 1e-15);
        assert!((clf.weight(&"f", &"k2") - 0.5).abs() < 1e-15);
    }

    #[test]
    fn topk_is_sorted_and_truncated() {
        let model = BornClassifier::fit(&toy_items())
            .deploy(HyperParams::default())
            .unwrap();
        let top = model.predict_topk(&[("neural", 1.0), ("variance", 1.0)], 2);
        assert_eq!(top.len(), 2);
        assert!(top[0].1 >= top[1].1);
        let all = model.predict_topk(&[("neural", 1.0)], 99);
        assert_eq!(all.len(), 3, "truncation caps at n_classes");
    }

    #[test]
    fn empty_items_are_ignored() {
        let mut clf = BornClassifier::fit(&toy_items());
        let before = clf.n_cells();
        clf.partial_fit(&[TrainItem {
            x: vec![],
            y: vec![("ai", 1.0)],
            weight: 1.0,
        }]);
        assert_eq!(clf.n_cells(), before);
    }
}
