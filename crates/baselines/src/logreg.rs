//! Multinomial logistic regression trained by mini-batch SGD — the stand-in
//! for MADlib's `madlib.logregr_train`.

use crate::DenseClassifier;

/// Softmax regression with L2 regularization.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    /// Per-class weight vectors (n_classes × d) plus bias at the end.
    weights: Vec<Vec<f64>>,
    pub epochs: usize,
    pub learning_rate: f64,
    pub l2: f64,
}

impl Default for LogisticRegression {
    fn default() -> Self {
        LogisticRegression {
            weights: Vec::new(),
            epochs: 30,
            learning_rate: 0.1,
            l2: 1e-4,
        }
    }
}

impl LogisticRegression {
    pub fn new(epochs: usize, learning_rate: f64, l2: f64) -> Self {
        LogisticRegression {
            weights: Vec::new(),
            epochs,
            learning_rate,
            l2,
        }
    }

    fn scores(&self, x: &[f64]) -> Vec<f64> {
        self.weights
            .iter()
            .map(|w| {
                let d = x.len();
                let mut s = w[d]; // bias
                for i in 0..d {
                    if x[i] != 0.0 {
                        s += w[i] * x[i];
                    }
                }
                s
            })
            .collect()
    }

    /// Class probabilities via softmax.
    pub fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let mut scores = self.scores(x);
        let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut total = 0.0;
        for s in &mut scores {
            *s = (*s - max).exp();
            total += *s;
        }
        for s in &mut scores {
            *s /= total;
        }
        scores
    }
}

impl DenseClassifier for LogisticRegression {
    fn fit(&mut self, x: &[Vec<f64>], y: &[usize], n_classes: usize) {
        assert_eq!(x.len(), y.len());
        let d = x.first().map(|r| r.len()).unwrap_or(0);
        self.weights = vec![vec![0.0; d + 1]; n_classes];
        let n = x.len() as f64;
        for epoch in 0..self.epochs {
            // Simple learning-rate decay.
            let lr = self.learning_rate / (1.0 + epoch as f64 * 0.1);
            for (row, &label) in x.iter().zip(y) {
                let proba = self.predict_proba(row);
                for (c, w) in self.weights.iter_mut().enumerate() {
                    let err = proba[c] - if c == label { 1.0 } else { 0.0 };
                    for i in 0..d {
                        if row[i] != 0.0 {
                            w[i] -= lr * (err * row[i] + self.l2 * w[i] / n);
                        }
                    }
                    w[d] -= lr * err;
                }
            }
        }
    }

    fn predict_row(&self, x: &[f64]) -> usize {
        let scores = self.scores(x);
        scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    fn name(&self) -> &'static str {
        "LR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linearly_separable() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..50 {
            let t = i as f64 / 50.0;
            x.push(vec![1.0 + t, 0.0]);
            y.push(0);
            x.push(vec![0.0, 1.0 + t]);
            y.push(1);
        }
        (x, y)
    }

    #[test]
    fn learns_separable_data() {
        let (x, y) = linearly_separable();
        let mut clf = LogisticRegression::default();
        clf.fit(&x, &y, 2);
        let preds = clf.predict(&x);
        let acc = preds.iter().zip(&y).filter(|(p, t)| p == t).count() as f64 / y.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn probabilities_sum_to_one() {
        let (x, y) = linearly_separable();
        let mut clf = LogisticRegression::default();
        clf.fit(&x, &y, 2);
        let p = clf.predict_proba(&[1.0, 0.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[0] > p[1]);
    }

    #[test]
    fn three_class_problem() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..40 {
            x.push(vec![1.0, 0.0, 0.0]);
            y.push(0);
            x.push(vec![0.0, 1.0, 0.0]);
            y.push(1);
            x.push(vec![0.0, 0.0, 1.0]);
            y.push(2);
        }
        let mut clf = LogisticRegression::default();
        clf.fit(&x, &y, 3);
        assert_eq!(clf.predict_row(&[1.0, 0.0, 0.0]), 0);
        assert_eq!(clf.predict_row(&[0.0, 1.0, 0.0]), 1);
        assert_eq!(clf.predict_row(&[0.0, 0.0, 1.0]), 2);
    }
}
