//! Simulated PLM-based matchers: Ditto, JointBERT, RobEM.
//!
//! Each baseline is a logistic matcher over [`crate::features::plm_features`]
//! with a per-baseline profile controlling the contextual dimensionality
//! (sample complexity), regularization and class weighting. Calibrated to
//! reproduce Figure 7's shape: all three need hundreds to thousands of
//! labeled pairs to approach BatchER, with RobEM the most label-efficient
//! (its contribution is robustness to data imbalance) and JointBERT the
//! hungriest. A split's structure rows are built once for every kind and
//! every point of its curves ([`LearningCurves`]).

use batcher_core::features::structure_rows;
use er_core::{BinaryConfusion, LabeledPair, MatchLabel};

use crate::features::with_context;
use crate::logistic::{LogisticModel, TrainConfig};

/// The three PLM baselines of §VI-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlmKind {
    /// Ditto (Li et al., VLDB 2020) — RoBERTa fine-tuning with domain
    /// knowledge injection.
    Ditto,
    /// JointBERT (Peeters & Bizer, VLDB 2021) — dual-objective BERT.
    JointBert,
    /// RobEM (Akbarian Rastaghi et al., CIKM 2022) — robustness-focused
    /// PLM matcher addressing data imbalance.
    RobEm,
}

impl PlmKind {
    /// All baselines.
    pub const ALL: [PlmKind; 3] = [PlmKind::Ditto, PlmKind::JointBert, PlmKind::RobEm];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PlmKind::Ditto => "Ditto",
            PlmKind::JointBert => "JointBert",
            PlmKind::RobEm => "RobEM",
        }
    }

    /// Simulation profile: `(ctx_dim, train config, tunes threshold)`.
    ///
    /// * `ctx_dim` controls sample complexity — more contextual
    ///   pseudo-dimensions mean more labeled data needed before test F1
    ///   converges (see [`crate::features::plm_features`]).
    fn profile(self) -> (usize, TrainConfig, bool) {
        match self {
            PlmKind::Ditto => (
                560,
                TrainConfig { epochs: 40, lr: 0.2, l2: 3e-4, positive_weight: 2.0, seed: 11 },
                true,
            ),
            PlmKind::JointBert => (
                832,
                TrainConfig { epochs: 40, lr: 0.2, l2: 2e-4, positive_weight: 1.0, seed: 12 },
                false,
            ),
            PlmKind::RobEm => (
                416,
                TrainConfig { epochs: 40, lr: 0.2, l2: 5e-4, positive_weight: 4.0, seed: 13 },
                true,
            ),
        }
    }
}

impl std::fmt::Display for PlmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A fine-tuned PLM baseline.
#[derive(Debug)]
pub struct PlmMatcher {
    model: LogisticModel,
}

/// Result of a train + evaluate run.
#[derive(Debug, Clone, Copy)]
pub struct TrainOutcome {
    /// Test-set confusion counts.
    pub confusion: BinaryConfusion,
    /// Number of training pairs actually used.
    pub train_size: usize,
}

impl PlmMatcher {
    /// Confusion counts of the matcher's decisions on rows `xs` labeled `ys`.
    fn evaluate(&self, xs: &[Vec<f64>], ys: &[bool]) -> BinaryConfusion {
        let mut confusion = BinaryConfusion::new();
        for (x, &y) in xs.iter().zip(ys) {
            confusion.observe(
                MatchLabel::from_bool(y),
                MatchLabel::from_bool(self.model.predict(x)),
            );
        }
        confusion
    }

    /// Trains on the first `train_size` pairs of `train` and evaluates on
    /// `test` — one point of a Figure 7 learning curve.
    ///
    /// # Panics
    /// Panics when no training pair is used.
    pub fn learning_curve_point(
        kind: PlmKind,
        train: &[&LabeledPair],
        valid: &[&LabeledPair],
        test: &[&LabeledPair],
        train_size: usize,
    ) -> TrainOutcome {
        LearningCurves::new(train, valid, test, &[train_size]).curve(kind)[0]
    }
}

/// A split's structure rows, built once for the Figure 7 learning curves
/// of every PLM kind.
pub struct LearningCurves<'p> {
    sizes: Vec<usize>,
    /// The train pairs up to the largest size, the valid pairs and the
    /// test pairs, each set with its structure rows.
    sets: [(&'p [&'p LabeledPair], Vec<Vec<f64>>); 3],
}

impl<'p> LearningCurves<'p> {
    /// The rows of a split whose curves have a point at each of `sizes`
    /// training pairs; a size beyond `train` uses all of it.
    pub fn new(
        train: &'p [&'p LabeledPair],
        valid: &'p [&'p LabeledPair],
        test: &'p [&'p LabeledPair],
        sizes: &[usize],
    ) -> Self {
        let sizes: Vec<usize> = sizes.iter().map(|&s| s.min(train.len())).collect();
        let largest = sizes.iter().copied().max().unwrap_or(0);
        let sets = [&train[..largest], valid, test]
            .map(|pairs| (pairs, structure_rows(pairs.iter().map(|p| &p.pair))));
        Self { sizes, sets }
    }

    /// `kind`'s learning curve, one outcome per size: fine-tuned on that
    /// many train pairs, its threshold tuned on the valid pairs if its
    /// profile tunes one, evaluated on the test pairs.
    ///
    /// # Panics
    /// Panics when a size uses no training pair.
    pub fn curve(&self, kind: PlmKind) -> Vec<TrainOutcome> {
        let (ctx_dim, config, tune) = kind.profile();
        // A set's PLM rows and labels. One set's rows are held at a time:
        // every point is trained before the valid rows are built, and
        // tuned before the test rows are.
        let rows = |(pairs, base): &(&[&LabeledPair], Vec<Vec<f64>>)| -> (Vec<_>, Vec<_>) {
            let row = |(p, base): (&&LabeledPair, &Vec<f64>)| {
                (
                    with_context(base, &p.pair, ctx_dim, config.seed),
                    p.label.is_match(),
                )
            };
            pairs.iter().zip(base).map(row).unzip()
        };
        let [train, valid, test] = &self.sets;
        let (xs, ys) = rows(train);
        let mut matchers: Vec<PlmMatcher> = self
            .sizes
            .iter()
            .map(|&n| {
                assert!(n > 0, "PLM fine-tuning requires labeled pairs");
                PlmMatcher { model: LogisticModel::train(&xs[..n], &ys[..n], config) }
            })
            .collect();
        drop(xs);
        if tune && !valid.0.is_empty() {
            let (xs, ys) = rows(valid);
            for matcher in &mut matchers {
                matcher.model.tune_threshold(&xs, &ys);
            }
        }
        let (xs, ys) = rows(test);
        matchers
            .iter()
            .zip(&self.sizes)
            .map(|(m, &train_size)| TrainOutcome { confusion: m.evaluate(&xs, &ys), train_size })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, DatasetKind};

    fn split(kind: DatasetKind) -> (Vec<LabeledPair>, ()) {
        let d = generate(kind, 21);
        (d.pairs().to_vec(), ())
    }

    #[test]
    fn more_data_helps() {
        let (pairs, ()) = split(DatasetKind::DblpAcm);
        let train: Vec<&LabeledPair> = pairs[..6000].iter().collect();
        let valid: Vec<&LabeledPair> = pairs[6000..7000].iter().collect();
        let test: Vec<&LabeledPair> = pairs[7000..9000].iter().collect();
        let small = PlmMatcher::learning_curve_point(PlmKind::Ditto, &train, &valid, &test, 50);
        let large = PlmMatcher::learning_curve_point(PlmKind::Ditto, &train, &valid, &test, 4000);
        assert!(
            large.confusion.f1() > small.confusion.f1() + 0.03,
            "no learning-curve growth: {} -> {}",
            small.confusion.f1(),
            large.confusion.f1()
        );
        assert!(
            large.confusion.f1() > 0.75,
            "converged F1 too low: {}",
            large.confusion.f1()
        );
    }

    #[test]
    fn robem_beats_jointbert_on_small_data() {
        // RobEM's contribution is label efficiency under imbalance; with 100
        // training pairs it should not be behind JointBERT.
        let (pairs, ()) = split(DatasetKind::WalmartAmazon);
        let train: Vec<&LabeledPair> = pairs[..4000].iter().collect();
        let valid: Vec<&LabeledPair> = pairs[4000..4800].iter().collect();
        let test: Vec<&LabeledPair> = pairs[4800..6800].iter().collect();
        let robem = PlmMatcher::learning_curve_point(PlmKind::RobEm, &train, &valid, &test, 100);
        let jointbert =
            PlmMatcher::learning_curve_point(PlmKind::JointBert, &train, &valid, &test, 100);
        assert!(
            robem.confusion.f1() + 0.02 >= jointbert.confusion.f1(),
            "RobEM {} vs JointBERT {}",
            robem.confusion.f1(),
            jointbert.confusion.f1()
        );
    }

    /// A point as it was trained before rows were cached: every pair
    /// featurized on its own by `plm_features`, for training, threshold
    /// tuning and each prediction.
    fn per_pair_point(
        kind: PlmKind,
        train: &[&LabeledPair],
        valid: &[&LabeledPair],
        test: &[&LabeledPair],
    ) -> BinaryConfusion {
        let (ctx_dim, config, tune) = kind.profile();
        let x = |p: &LabeledPair| crate::features::plm_features(&p.pair, ctx_dim, config.seed);
        let rows = |set: &[&LabeledPair]| -> (Vec<_>, Vec<_>) {
            set.iter().map(|p| (x(p), p.label.is_match())).unzip()
        };
        let (xs, ys) = rows(train);
        let mut model = LogisticModel::train(&xs, &ys, config);
        if tune && !valid.is_empty() {
            let (xs, ys) = rows(valid);
            model.tune_threshold(&xs, &ys);
        }
        let mut confusion = BinaryConfusion::new();
        for p in test {
            confusion.observe(p.label, MatchLabel::from_bool(model.predict(&x(p))));
        }
        confusion
    }

    #[test]
    fn cached_curve_matches_one_point_runs_and_per_pair_rows() {
        let (pairs, ()) = split(DatasetKind::Beer);
        let train: Vec<&LabeledPair> = pairs[..200].iter().collect();
        let valid: Vec<&LabeledPair> = pairs[200..260].iter().collect();
        let test: Vec<&LabeledPair> = pairs[260..360].iter().collect();
        // Sizes out of order, and one past the train split.
        let sizes = [100, 30, 500];
        let curves = LearningCurves::new(&train, &valid, &test, &sizes);
        for kind in PlmKind::ALL {
            let curve = curves.curve(kind);
            assert_eq!(curve.len(), sizes.len());
            for (outcome, &size) in curve.iter().zip(&sizes) {
                let point = PlmMatcher::learning_curve_point(kind, &train, &valid, &test, size);
                let used = size.min(train.len());
                assert_eq!((outcome.train_size, point.train_size), (used, used));
                assert_eq!(outcome.confusion.total() as usize, test.len());
                assert_eq!(outcome.confusion, point.confusion, "{kind} at {size}");
                let reference = per_pair_point(kind, &train[..used], &valid, &test);
                assert_eq!(outcome.confusion, reference, "{kind} at {size}");
            }
        }
    }

    #[test]
    fn names_and_display() {
        assert_eq!(PlmKind::Ditto.to_string(), "Ditto");
        assert_eq!(PlmKind::ALL.len(), 3);
    }

    #[test]
    #[should_panic(expected = "labeled pairs")]
    fn empty_training_panics() {
        let _ = PlmMatcher::learning_curve_point(PlmKind::Ditto, &[], &[], &[], 10);
    }
}
