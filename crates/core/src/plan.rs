//! Batch planning for externally supplied question sets.
//!
//! The offline runner ([`crate::runner`]) owns its questions from a
//! dataset split; the serving layer (`er-service`) receives arbitrary
//! pair questions from concurrent clients at run time. Both need the same
//! pipeline stages — featurize, batch, select demonstrations — so this
//! module exposes them as one reusable planning step over plain
//! [`EntityPair`] slices, with no dataset or split in sight.

use er_core::{EntityPair, LabeledPair};

use crate::batching::{
    batches_for_clustering, cluster_questions_pinned, BatchingStrategy, ClusteringKind,
};
use crate::features::{DistanceKind, ExtractorKind, FeatureSpace};
use crate::runner::RunConfig;
use crate::selection::{
    fixed, select_demonstrations_pinned, SelectionParams, SelectionPlan, SelectionStrategy,
};

/// Configuration of one planning pass — the batching/selection slice of a
/// [`RunConfig`], without the execution-side knobs (model, retries).
#[derive(Debug, Clone, Copy)]
pub struct BatchPlanConfig {
    /// Question batching strategy.
    pub batching: BatchingStrategy,
    /// Demonstration selection strategy.
    pub selection: SelectionStrategy,
    /// Feature extractor for questions and pool.
    pub extractor: ExtractorKind,
    /// Distance function over feature vectors.
    pub distance: DistanceKind,
    /// Clustering algorithm driving batching.
    pub clustering: ClusteringKind,
    /// Questions per batch.
    pub batch_size: usize,
    /// Demonstrations per batch for fixed / top-k strategies.
    pub k: usize,
    /// Covering threshold percentile.
    pub cover_percentile: f64,
    /// Determinism seed.
    pub seed: u64,
}

impl Default for BatchPlanConfig {
    fn default() -> Self {
        Self::from_run_config(&RunConfig::default())
    }
}

impl BatchPlanConfig {
    /// Extracts the planning slice of a full [`RunConfig`].
    pub fn from_run_config(config: &RunConfig) -> Self {
        Self {
            batching: config.batching,
            selection: config.selection,
            extractor: config.extractor,
            distance: config.distance,
            clustering: config.clustering,
            batch_size: config.batch_size,
            k: config.k,
            cover_percentile: config.cover_percentile,
            seed: config.seed,
        }
    }
}

/// The output of planning: batches over the question slice plus the
/// demonstrations chosen for each batch from the pool slice.
#[derive(Debug, Clone, PartialEq)]
pub struct QuestionBatchPlan {
    /// Question indices per batch; the batches partition `0..questions.len()`.
    pub batches: Vec<Vec<usize>>,
    /// Pool indices to include in each batch's prompt (parallel to
    /// `batches`).
    pub demos_per_batch: Vec<Vec<usize>>,
    /// Unique pool indices that require human labels.
    pub labeled: Vec<usize>,
    /// The covering threshold actually used, when covering selection ran.
    pub threshold: Option<f64>,
}

impl QuestionBatchPlan {
    /// Number of planned batches.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// True when no batches were planned (empty question set).
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }
}

/// What a planning pass reads, as a function of the design cell: the
/// fixed strategy samples pool *indices* and random batching shuffles
/// question *indices*, so neither reads a feature; only covering weighs
/// demonstrations by their token count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Needs {
    /// Pool feature vectors (every selection strategy but fixed).
    pool_features: bool,
    /// Per-demonstration token counts (covering's batch-cover weights).
    token_weights: bool,
    /// Question feature vectors (clustering, or a relevance-driven
    /// selection).
    question_features: bool,
}

impl Needs {
    const ALL: Needs = Needs { pool_features: true, token_weights: true, question_features: true };

    fn of(config: &BatchPlanConfig) -> Self {
        let relevance = config.selection != SelectionStrategy::Fixed;
        Needs {
            pool_features: relevance,
            token_weights: config.selection == SelectionStrategy::Covering,
            question_features: relevance || config.batching != BatchingStrategy::Random,
        }
    }
}

/// A demonstration pool featurized once, for callers that plan against
/// the same pool repeatedly (the serving layer plans on every queue
/// flush; re-embedding a static pool each time would put O(pool) work on
/// the dispatcher's critical path). It holds the feature matrix and the
/// token weights and nothing derived from them: a plan's coverage sweep
/// streams the matrix's flat buffer once per question (or, from
/// `selection::TOPK_INDEX_MIN` questions up, indexes the *questions*), and
/// a metric index over the pool itself measured slower than that sweep at
/// flush sizes (CHANGES.md, PR 23).
#[derive(Debug, Clone)]
pub struct PreparedPool {
    len: usize,
    /// `None` only inside [`plan_question_batches`], for a design cell
    /// that reads no pool feature.
    space: Option<FeatureSpace>,
    /// Empty under the same condition, for a cell that reads no weight.
    token_weights: Vec<f64>,
    extractor: ExtractorKind,
    distance: DistanceKind,
}

impl PreparedPool {
    /// The pool's feature space.
    pub(crate) fn space(&self) -> &FeatureSpace {
        self.space
            .as_ref()
            .expect("pool features are built for every strategy that reads them")
    }

    /// Token counts per pool demonstration (covering weights).
    pub(crate) fn token_weights(&self) -> &[f64] {
        &self.token_weights
    }

    /// The extractor the pool was featurized with.
    pub(crate) fn extractor_kind(&self) -> ExtractorKind {
        self.extractor
    }

    /// The distance function the pool was featurized with.
    pub(crate) fn distance_kind(&self) -> DistanceKind {
        self.distance
    }

    /// Featurizes `pool` with the given extractor/distance. Question
    /// featurization during planning uses the same pair, overriding
    /// whatever the per-call config says — the two spaces must agree.
    ///
    /// Eager: the result serves every strategy, so one prepared pool can
    /// back plans of any configuration.
    pub fn prepare(
        pool: &[&LabeledPair],
        extractor: ExtractorKind,
        distance: DistanceKind,
    ) -> Self {
        Self::with_needs(pool, extractor, distance, Needs::ALL)
    }

    /// Builds only what `needs` names.
    fn with_needs(
        pool: &[&LabeledPair],
        extractor: ExtractorKind,
        distance: DistanceKind,
        needs: Needs,
    ) -> Self {
        let space = needs
            .pool_features
            .then(|| FeatureSpace::extract(pool.iter().map(|p| &p.pair), extractor, distance));
        let token_weights = if needs.token_weights {
            pool_token_weights(pool)
        } else {
            Vec::new()
        };
        Self { len: pool.len(), space, token_weights, extractor, distance }
    }

    /// Number of pool demonstrations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Prompt-token count of every pool demonstration, serialized through
/// one reused buffer.
fn pool_token_weights(pool: &[&LabeledPair]) -> Vec<f64> {
    let mut serialized = String::new();
    pool.iter()
        .map(|p| {
            p.pair.serialize_into(&mut serialized);
            llm::count_tokens(&serialized) as f64
        })
        .collect()
}

/// Plans diversity batches and demonstration assignments for an
/// externally supplied question set.
///
/// * `questions` — the pairs to resolve, in caller order; the returned
///   batch indices refer to this slice.
/// * `pool` — the labeled-on-demand demonstration pool; `demos_per_batch`
///   and `labeled` index into it. May be empty, in which case every batch
///   runs zero-shot.
///
/// The plan is a pure function of `(questions, pool, config)` — no
/// interior randomness — so identical inputs always produce identical
/// batches, which the serving layer relies on for reproducible answers.
pub fn plan_question_batches(
    questions: &[&EntityPair],
    pool: &[&LabeledPair],
    config: &BatchPlanConfig,
) -> QuestionBatchPlan {
    let prepared =
        PreparedPool::with_needs(pool, config.extractor, config.distance, Needs::of(config));
    plan_with_prepared_pool(questions, &prepared, config)
}

/// Like [`plan_question_batches`], but against a pool featurized once
/// via [`PreparedPool::prepare`]. The prepared pool's extractor and
/// distance govern question featurization.
pub fn plan_with_prepared_pool(
    questions: &[&EntityPair],
    pool: &PreparedPool,
    config: &BatchPlanConfig,
) -> QuestionBatchPlan {
    plan_with_prepared_pool_pinned(questions, pool, config, PlanThresholds::default())
}

/// Pinned distance thresholds for a planning pass. `None` fields derive
/// from the question set as usual; `Some` fields replace the derivation —
/// the contract the incremental planner's equivalence rests on: a plan
/// maintained under frozen thresholds must equal a from-scratch plan with
/// the same thresholds pinned.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlanThresholds {
    /// DBSCAN ε for the batching stage.
    pub eps: Option<f64>,
    /// Covering threshold `t` for demonstration selection.
    pub cover_t: Option<f64>,
}

/// [`plan_with_prepared_pool`] with pinned thresholds (see
/// [`PlanThresholds`]).
pub fn plan_with_prepared_pool_pinned(
    questions: &[&EntityPair],
    pool: &PreparedPool,
    config: &BatchPlanConfig,
    thresholds: PlanThresholds,
) -> QuestionBatchPlan {
    if questions.is_empty() {
        return QuestionBatchPlan {
            batches: Vec::new(),
            demos_per_batch: Vec::new(),
            labeled: Vec::new(),
            threshold: None,
        };
    }

    // Standard prompting (random batches, fixed demonstrations) reads no
    // question feature either.
    let q_space = Needs::of(config)
        .question_features
        .then(|| FeatureSpace::extract(questions.iter().copied(), pool.extractor, pool.distance));
    let q_features = || {
        q_space
            .as_ref()
            .expect("question features are built for every strategy that reads them")
    };
    let clusters = (config.batching != BatchingStrategy::Random).then(|| {
        cluster_questions_pinned(
            q_features(),
            config.clustering,
            config.batch_size,
            config.seed,
            thresholds.eps,
        )
        .0
    });
    let batches = batches_for_clustering(
        questions.len(),
        clusters.as_ref(),
        config.batching,
        config.batch_size,
        config.seed,
    );

    if pool.is_empty() {
        let demos_per_batch = vec![Vec::new(); batches.len()];
        return QuestionBatchPlan {
            batches,
            demos_per_batch,
            labeled: Vec::new(),
            threshold: None,
        };
    }

    let params = SelectionParams {
        k: config.k,
        cover_percentile: config.cover_percentile,
        seed: config.seed,
    };
    let SelectionPlan { per_batch, labeled, threshold } = match config.selection {
        SelectionStrategy::Fixed => fixed(pool.len(), batches.len(), params),
        relevance => select_demonstrations_pinned(
            relevance,
            q_features(),
            pool.space(),
            &batches,
            params,
            thresholds.cover_t,
            |d| pool.token_weights[d],
        ),
    };

    QuestionBatchPlan { batches, demos_per_batch: per_batch, labeled, threshold }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, DatasetKind};

    fn fixtures() -> (Vec<er_core::LabeledPair>, Vec<er_core::LabeledPair>) {
        let d = generate(DatasetKind::Beer, 3);
        let pairs = d.pairs().to_vec();
        let pool = pairs[..40].to_vec();
        let questions = pairs[40..72].to_vec();
        (pool, questions)
    }

    #[test]
    fn plan_partitions_questions() {
        let (pool, questions) = fixtures();
        let q: Vec<&EntityPair> = questions.iter().map(|p| &p.pair).collect();
        let p: Vec<&LabeledPair> = pool.iter().collect();
        let plan = plan_question_batches(&q, &p, &BatchPlanConfig::default());
        let mut seen: Vec<usize> = plan.batches.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..q.len()).collect::<Vec<_>>());
        assert_eq!(plan.demos_per_batch.len(), plan.batches.len());
        assert!(!plan.is_empty());
    }

    #[test]
    fn plan_is_deterministic() {
        let (pool, questions) = fixtures();
        let q: Vec<&EntityPair> = questions.iter().map(|p| &p.pair).collect();
        let p: Vec<&LabeledPair> = pool.iter().collect();
        let config = BatchPlanConfig { seed: 11, ..BatchPlanConfig::default() };
        assert_eq!(
            plan_question_batches(&q, &p, &config),
            plan_question_batches(&q, &p, &config)
        );
    }

    #[test]
    fn demos_index_into_pool_and_labeled() {
        let (pool, questions) = fixtures();
        let q: Vec<&EntityPair> = questions.iter().map(|p| &p.pair).collect();
        let p: Vec<&LabeledPair> = pool.iter().collect();
        let plan = plan_question_batches(&q, &p, &BatchPlanConfig::default());
        for demos in &plan.demos_per_batch {
            for &d in demos {
                assert!(d < pool.len());
                assert!(plan.labeled.contains(&d), "prompted demo {d} unlabeled");
            }
        }
        assert!(!plan.labeled.is_empty());
    }

    /// Demand-driven == eager: whatever `plan_question_batches` skips
    /// building for a design cell, the plan is the one an all-needs
    /// `PreparedPool::prepare` gives.
    #[test]
    fn prepared_pool_matches_direct_planning() {
        let (pool, questions) = fixtures();
        let q: Vec<&EntityPair> = questions.iter().map(|p| &p.pair).collect();
        let p: Vec<&LabeledPair> = pool.iter().collect();
        let assert_same = |pool: &[&LabeledPair], config: &BatchPlanConfig, what: &str| {
            let prepared = PreparedPool::prepare(pool, config.extractor, config.distance);
            assert_eq!(prepared.len(), pool.len());
            assert_eq!(
                plan_question_batches(&q, pool, config),
                plan_with_prepared_pool(&q, &prepared, config),
                "{what}: {config:?}"
            );
        };
        for extractor in ExtractorKind::ALL {
            for batching in BatchingStrategy::ALL {
                for selection in SelectionStrategy::ALL {
                    let config =
                        BatchPlanConfig { batching, selection, extractor, ..Default::default() };
                    assert_same(&p, &config, "full pool");
                    assert_same(&[], &config, "empty pool");
                }
            }
        }
        // A pool smaller than k under the fixed strategy, and standard
        // prompting (one question per batch).
        let fixed = BatchPlanConfig { selection: SelectionStrategy::Fixed, ..Default::default() };
        assert!(fixed.k > 3);
        assert_same(&p[..3], &fixed, "pool smaller than k");
        let standard =
            BatchPlanConfig { batching: BatchingStrategy::Random, batch_size: 1, ..fixed };
        assert_same(&p, &standard, "standard prompting");
        assert_eq!(plan_question_batches(&q, &p, &standard).len(), q.len());
    }

    #[test]
    fn needs_follow_the_design_cell() {
        let needs = |batching, selection| {
            Needs::of(&BatchPlanConfig { batching, selection, ..Default::default() })
        };
        use BatchingStrategy::{Diversity, Random};
        use SelectionStrategy::{Covering, Fixed, TopKBatch};
        assert_eq!(needs(Diversity, Covering), Needs::ALL);
        assert_eq!(
            needs(Random, TopKBatch),
            Needs { token_weights: false, ..Needs::ALL }
        );
        assert_eq!(
            needs(Diversity, Fixed),
            Needs { pool_features: false, token_weights: false, question_features: true }
        );
        assert_eq!(
            needs(Random, Fixed),
            Needs { pool_features: false, token_weights: false, question_features: false }
        );
    }

    #[test]
    fn token_weights_count_the_serialized_pair() {
        for kind in DatasetKind::ALL {
            let d = generate(kind, 3);
            let pool: Vec<&LabeledPair> = d.pairs().iter().collect();
            let weights = pool_token_weights(&pool);
            assert_eq!(weights.len(), pool.len());
            for (p, w) in pool.iter().zip(weights) {
                assert_eq!(w, llm::count_tokens(&p.pair.serialize()) as f64);
            }
        }
    }

    #[test]
    fn empty_pool_plans_zero_shot() {
        let (_, questions) = fixtures();
        let q: Vec<&EntityPair> = questions.iter().map(|p| &p.pair).collect();
        let plan = plan_question_batches(&q, &[], &BatchPlanConfig::default());
        assert!(!plan.batches.is_empty());
        assert!(plan.demos_per_batch.iter().all(Vec::is_empty));
        assert!(plan.labeled.is_empty());
    }

    #[test]
    fn empty_questions_plan_nothing() {
        let (pool, _) = fixtures();
        let p: Vec<&LabeledPair> = pool.iter().collect();
        let plan = plan_question_batches(&[], &p, &BatchPlanConfig::default());
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
    }
}
