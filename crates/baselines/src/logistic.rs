//! L2-regularized logistic regression trained with mini-batch SGD.

use er_core::{BinaryConfusion, MatchLabel, Rng};

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Epochs over the training set.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f64,
    /// L2 penalty λ.
    pub l2: f64,
    /// Loss weight multiplier for positive (matching) examples — ER
    /// training sets are heavily imbalanced (Table II: ~10% matches).
    pub positive_weight: f64,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { epochs: 30, lr: 0.15, l2: 1e-4, positive_weight: 1.0, seed: 42 }
    }
}

/// A trained logistic model.
#[derive(Debug, Clone)]
pub struct LogisticModel {
    weights: Vec<f64>,
    bias: f64,
    /// Decision threshold on the probability (tunable on validation data).
    pub threshold: f64,
}

impl LogisticModel {
    /// Trains on parallel `(features, label)` slices.
    ///
    /// # Panics
    /// Panics on empty input or ragged feature vectors — harness bugs.
    pub fn train(xs: &[Vec<f64>], ys: &[bool], config: TrainConfig) -> Self {
        assert!(!xs.is_empty(), "training set must be non-empty");
        assert_eq!(xs.len(), ys.len(), "features and labels must be parallel");
        let dim = xs[0].len();
        assert!(
            xs.iter().all(|x| x.len() == dim),
            "all feature vectors must share one dimension"
        );

        let mut weights = vec![0.0f64; dim];
        let mut bias = 0.0f64;
        let mut order: Vec<usize> = (0..xs.len()).collect();
        let mut rng = Rng::from_seed(config.seed);

        for epoch in 0..config.epochs {
            // Simple 1/sqrt decay keeps early progress fast and late
            // updates stable.
            let lr = config.lr / (1.0 + epoch as f64).sqrt();
            rng.shuffle(&mut order);
            for &i in &order {
                let x = &xs[i];
                let y = if ys[i] { 1.0 } else { 0.0 };
                let w_i = if ys[i] { config.positive_weight } else { 1.0 };
                let p = sigmoid(dot(&weights, x) + bias);
                let grad = w_i * (p - y);
                for (w, &xi) in weights.iter_mut().zip(x) {
                    *w -= lr * (grad * xi + config.l2 * *w);
                }
                bias -= lr * grad;
            }
        }
        Self { weights, bias, threshold: 0.5 }
    }

    /// Match probability of a feature vector.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        sigmoid(dot(&self.weights, x) + self.bias)
    }

    /// Hard decision at the model's threshold.
    pub fn predict(&self, x: &[f64]) -> bool {
        self.predict_proba(x) >= self.threshold
    }

    /// Tunes the decision threshold to maximize F1 on a validation set,
    /// scanning a fixed probability grid. No-op on an empty set.
    pub fn tune_threshold(&mut self, xs: &[Vec<f64>], ys: &[bool]) {
        if xs.is_empty() {
            return;
        }
        let probs: Vec<f64> = xs.iter().map(|x| self.predict_proba(x)).collect();
        let mut best = (self.threshold, f1_at(&probs, ys, self.threshold));
        for step in 1..20 {
            let t = step as f64 * 0.05;
            let f1 = f1_at(&probs, ys, t);
            if f1 > best.1 {
                best = (t, f1);
            }
        }
        self.threshold = best.0;
    }

    /// The learned weights (exposed for tests and diagnostics).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

fn f1_at(probs: &[f64], ys: &[bool], t: f64) -> f64 {
    let mut confusion = BinaryConfusion::new();
    for (&p, &y) in probs.iter().zip(ys) {
        confusion.observe(MatchLabel::from_bool(y), MatchLabel::from_bool(p >= t));
    }
    confusion.f1()
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linearly separable toy data: label = x0 > 0.5.
    fn toy(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<bool>) {
        let mut rng = Rng::from_seed(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let x0 = rng.f64();
            let x1 = rng.f64();
            xs.push(vec![x0, x1]);
            ys.push(x0 > 0.5);
        }
        (xs, ys)
    }

    #[test]
    fn learns_separable_data() {
        let (xs, ys) = toy(400, 1);
        let model = LogisticModel::train(&xs, &ys, TrainConfig::default());
        let (txs, tys) = toy(200, 2);
        let correct = txs
            .iter()
            .zip(&tys)
            .filter(|(x, &y)| model.predict(x) == y)
            .count();
        assert!(correct > 180, "only {correct}/200 correct");
    }

    #[test]
    fn weight_on_informative_feature_dominates() {
        let (xs, ys) = toy(500, 3);
        let model = LogisticModel::train(&xs, &ys, TrainConfig::default());
        assert!(model.weights()[0].abs() > model.weights()[1].abs() * 3.0);
    }

    #[test]
    fn deterministic_in_seed() {
        let (xs, ys) = toy(100, 4);
        let a = LogisticModel::train(&xs, &ys, TrainConfig::default());
        let b = LogisticModel::train(&xs, &ys, TrainConfig::default());
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    fn positive_weight_raises_recall() {
        // Imbalanced data: 5% positives with a weak signal.
        let mut rng = Rng::from_seed(5);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..1000 {
            let y = i % 20 == 0;
            let x0: f64 = if y {
                0.55 + 0.3 * rng.f64()
            } else {
                0.45 * rng.f64() + 0.2
            };
            xs.push(vec![x0]);
            ys.push(y);
        }
        let plain = LogisticModel::train(&xs, &ys, TrainConfig::default());
        let weighted = LogisticModel::train(
            &xs,
            &ys,
            TrainConfig { positive_weight: 8.0, ..Default::default() },
        );
        let recall = |m: &LogisticModel| {
            let tp = xs
                .iter()
                .zip(&ys)
                .filter(|(x, &y)| y && m.predict(x))
                .count();
            tp as f64 / ys.iter().filter(|&&y| y).count() as f64
        };
        assert!(recall(&weighted) >= recall(&plain));
    }

    #[test]
    fn threshold_tuning_improves_or_keeps_f1() {
        let (xs, ys) = toy(300, 6);
        let mut model = LogisticModel::train(&xs, &ys, TrainConfig::default());
        let before = f1_at(
            &xs.iter()
                .map(|x| model.predict_proba(x))
                .collect::<Vec<_>>(),
            &ys,
            model.threshold,
        );
        model.tune_threshold(&xs, &ys);
        let after = f1_at(
            &xs.iter()
                .map(|x| model.predict_proba(x))
                .collect::<Vec<_>>(),
            &ys,
            model.threshold,
        );
        assert!(after >= before - 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_training_panics() {
        let _ = LogisticModel::train(&[], &[], TrainConfig::default());
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn ragged_labels_panic() {
        let _ = LogisticModel::train(&[vec![1.0]], &[], TrainConfig::default());
    }
}
