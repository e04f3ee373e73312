//! The `born` oracle and failure accounting.
//!
//! Every fit, partial fit and unlearn issued through SQL is mirrored into a
//! native `born::BornClassifier`; every result the SQL model returns is
//! compared with what the oracle says. An error or a mismatch is a failed
//! operation, and any failed operation makes the run incorrect.

use std::collections::HashMap;

use born::{BornClassifier, DeployedModel, HyperParams, TrainItem};
use bornsql::{Prediction, Weight};
use textproc::CountVectorizer;

use crate::fixture::Shape;
use crate::gen::Doc;

/// Relative tolerance between SQL and oracle floats. Both sum the same
/// terms in different orders, so they agree to rounding, not bit for bit.
const REL_TOL: f64 = 1e-9;

/// Operations attempted and failed, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Ops {
    /// Count one operation; `problem` is `Some` when it failed.
    pub fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(message) = problem {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(message);
            }
        }
    }

    /// Count one operation that returned a `Result`, keeping its value.
    pub fn run<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.record(None);
                Some(v)
            }
            Err(e) => {
                self.record(Some(format!("{what}: {e}")));
                None
            }
        }
    }

    pub fn merge(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.messages.extend(other.messages);
        self.messages.truncate(8);
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs())
}

/// The native mirror of one SQL model.
pub struct Oracle {
    shape: Shape,
    vectorizer: CountVectorizer,
    /// Features and class of every document loaded into the database.
    docs: HashMap<i64, (Vec<(String, f64)>, String)>,
    classifier: BornClassifier<String, String>,
    deployed: Option<DeployedModel<String, String>>,
}

impl Oracle {
    pub fn new(shape: Shape) -> Oracle {
        Oracle {
            shape,
            vectorizer: CountVectorizer::default(),
            docs: HashMap::new(),
            classifier: BornClassifier::new(),
            deployed: None,
        }
    }

    /// Documents were inserted into the tables (not yet learned).
    pub fn loaded(&mut self, docs: &[Doc]) {
        for d in docs {
            self.docs.insert(
                d.id,
                (
                    self.shape.features(d, &self.vectorizer),
                    self.shape.class_of(d),
                ),
            );
        }
    }

    /// Documents were deleted from the tables.
    pub fn removed(&mut self, ids: impl Iterator<Item = i64>) {
        for id in ids {
            self.docs.remove(&id);
        }
    }

    pub fn loaded_ids(&self) -> Vec<i64> {
        let mut ids: Vec<i64> = self.docs.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    fn items(&self, ids: impl Iterator<Item = i64>) -> Vec<TrainItem<String, String>> {
        ids.map(|id| {
            let (x, k) = &self.docs[&id];
            TrainItem::labeled(x.clone(), k.clone())
        })
        .collect()
    }

    /// Mirror of `model.fit` over every loaded document.
    pub fn fit_all(&mut self) {
        self.classifier = BornClassifier::fit(&self.items(self.loaded_ids().into_iter()));
    }

    /// Mirror of `model.partial_fit` over the given loaded documents.
    pub fn partial_fit(&mut self, ids: impl Iterator<Item = i64>) {
        let items = self.items(ids);
        self.classifier.partial_fit(&items);
    }

    /// Mirror of `model.unlearn` over the given loaded documents.
    pub fn unlearn(&mut self, ids: impl Iterator<Item = i64>) {
        let items = self.items(ids);
        self.classifier.unlearn(&items);
    }

    /// Mirror of `model.deploy` with the default hyper-parameters.
    pub fn deploy(&mut self) {
        self.deployed = self.classifier.deploy(HyperParams::default());
    }

    pub fn deployed(&self) -> &DeployedModel<String, String> {
        self.deployed.as_ref().expect("oracle is deployed")
    }

    pub fn features(&self, id: i64) -> &[(String, f64)] {
        &self.docs[&id].0
    }

    /// `None` when the SQL label for `id` is the oracle's, or scores within
    /// rounding of the oracle's best; otherwise what differs. `weights` is
    /// the oracle model the SQL statement should have used.
    fn label_problem(
        &self,
        weights: &DeployedModel<String, String>,
        id: i64,
        label: &str,
    ) -> Option<String> {
        let Some((x, _)) = self.docs.get(&id) else {
            return Some(format!("prediction for unknown item {id}"));
        };
        let scores = weights.scores(x);
        let best = scores.values().copied().fold(f64::MIN, f64::max);
        match scores.get(label) {
            Some(s) if *s >= best * (1.0 - REL_TOL) => None,
            _ => Some(format!(
                "item {id}: SQL says {label}, oracle says {:?}",
                weights.predict(x)
            )),
        }
    }

    /// Compare the rows of one `predict` call with the oracle: one row per
    /// expected item (ids ascending), each with the oracle's label (same
    /// tie-break).
    pub fn check_predictions(&self, rows: &[Prediction], expected: &[i64]) -> Option<String> {
        debug_assert!(expected.windows(2).all(|w| w[0] < w[1]));
        let weights = self.deployed();
        if rows.len() != expected.len() {
            // Items none of whose features the model knows produce no row.
            let scorable = expected
                .iter()
                .filter(|id| !weights.scores(&self.docs[id].0).is_empty())
                .count();
            if rows.len() != scorable {
                return Some(format!(
                    "predict returned {} rows for {scorable} scorable items",
                    rows.len()
                ));
            }
        }
        rows.iter().find_map(|(n, k)| match n.as_i64() {
            Ok(Some(id)) if expected.binary_search(&id).is_ok() => {
                self.label_problem(weights, id, &k.to_string())
            }
            _ => Some(format!("unexpected item {n} in predictions")),
        })
    }

    /// Compare the model's corpus table with the oracle's tensor: the same
    /// cells, each within rounding (fit ≡ Σ partial_fit − Σ unlearn).
    pub fn check_corpus(&self, corpus: &[Weight]) -> Option<String> {
        if corpus.len() != self.classifier.n_cells() {
            return Some(format!(
                "corpus has {} cells, oracle has {}",
                corpus.len(),
                self.classifier.n_cells()
            ));
        }
        corpus.iter().find_map(|(j, k, w)| {
            let expected = self.classifier.weight(&j.to_string(), &k.to_string());
            (!close(*w, expected)).then(|| format!("corpus cell ({j}, {k}): {w} vs {expected}"))
        })
    }

    /// Compare a deployed `explain_local` of one item (top `limit`) with
    /// the oracle's ranking: the same weights in the same order, and each
    /// returned cell carrying the oracle's weight for that cell.
    pub fn check_explanation(&self, rows: &[Weight], id: i64, limit: usize) -> Option<String> {
        let expected = self
            .deployed()
            .explain_local(&[(self.docs[&id].0.clone(), 1.0)]);
        let top = &expected[..expected.len().min(limit)];
        if rows.len() != top.len() {
            return Some(format!(
                "explain_local returned {} rows, oracle {}",
                rows.len(),
                top.len()
            ));
        }
        rows.iter().zip(top).find_map(|((j, k, w), (_, _, ew))| {
            let (j, k) = (j.to_string(), k.to_string());
            let cell = expected
                .iter()
                .find(|(ej, ek, _)| *ej == j && *ek == k)
                .map(|(_, _, cw)| *cw);
            match cell {
                Some(cw) if close(*w, cw) && close(*w, *ew) => None,
                _ => Some(format!("explanation ({j}, {k}): {w} vs ranked {ew}")),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::DocGen;
    use sqlengine::Value;

    fn trained(shape: Shape) -> (Oracle, Vec<Doc>) {
        let docs = DocGen::new(1).docs(1, 200);
        let mut oracle = Oracle::new(shape);
        oracle.loaded(&docs);
        oracle.fit_all();
        oracle.deploy();
        (oracle, docs)
    }

    fn oracle_rows(oracle: &Oracle, ids: &[i64]) -> Vec<Prediction> {
        ids.iter()
            .map(|id| {
                let label = oracle.deployed().predict(oracle.features(*id)).unwrap();
                (Value::Int(*id), Value::text(label))
            })
            .collect()
    }

    #[test]
    fn the_oracles_own_labels_pass() {
        let (oracle, _) = trained(Shape::Flat);
        let ids = [3, 17, 42];
        assert_eq!(
            oracle.check_predictions(&oracle_rows(&oracle, &ids), &ids),
            None
        );
    }

    #[test]
    fn one_wrong_expected_label_is_one_failed_operation() {
        let (oracle, _) = trained(Shape::Flat);
        let ids = [3, 17, 42];
        let mut rows = oracle_rows(&oracle, &ids);
        let truth = rows[1].1.to_string();
        let wrong = ["ai", "ds", "st"]
            .into_iter()
            .find(|l| *l != truth)
            .unwrap();
        rows[1].1 = Value::text(wrong);
        let mut ops = Ops::default();
        ops.record(oracle.check_predictions(&oracle_rows(&oracle, &ids), &ids));
        ops.record(oracle.check_predictions(&rows, &ids));
        assert_eq!((ops.attempted, ops.failed), (2, 1));
        assert!(ops.messages[0].contains("item 17"), "{:?}", ops.messages);
    }

    #[test]
    fn a_missing_row_fails() {
        let (oracle, _) = trained(Shape::Star);
        let ids = [3, 17, 42];
        let rows = oracle_rows(&oracle, &ids[..2]);
        assert!(oracle.check_predictions(&rows, &ids).is_some());
    }

    #[test]
    fn unlearning_returns_to_the_smaller_fit() {
        let (mut oracle, docs) = trained(Shape::Flat);
        oracle.unlearn(151..=200);
        let mut smaller = Oracle::new(Shape::Flat);
        smaller.loaded(&docs[..150]);
        smaller.fit_all();
        let cells: Vec<Weight> = smaller
            .classifier
            .corpus_entries()
            .map(|(j, k, w)| (Value::text(j), Value::text(k), w))
            .collect();
        assert_eq!(oracle.check_corpus(&cells), None);
    }
}
