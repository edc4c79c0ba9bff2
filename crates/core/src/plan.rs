//! Batch planning for externally supplied question sets.
//!
//! The offline runner ([`crate::runner`]) owns its questions from a
//! dataset split; the serving layer (`er-service`) receives arbitrary
//! pair questions from concurrent clients at run time. Both need the same
//! pipeline stages — featurize, batch, select demonstrations — so this
//! module exposes them as one reusable planning step over plain
//! [`EntityPair`] slices, with no dataset or split in sight.

use std::cell::RefCell;
use std::sync::Arc;

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
/// `selection::INDEX_MIN_ROWS` questions up, indexes the *questions*), and
/// a metric index over the pool itself measured slower than that sweep at
/// flush sizes (CHANGES.md, PR 23).
///
/// Both pieces sit behind `Arc`s: inside [`plan_question_batches`] they
/// are shared with that function's per-thread memo of the last pool (see
/// there), so a plan and the memo hold one copy between them. A pool
/// built with [`PreparedPool::prepare`] owns its pieces and never enters
/// the memo.
#[derive(Debug, Clone)]
pub struct PreparedPool {
    len: usize,
    /// `None` only inside [`plan_question_batches`], for a design cell
    /// that reads no pool feature.
    space: Option<Arc<FeatureSpace>>,
    /// Empty under the same condition, for a cell that reads no weight.
    token_weights: Arc<[f64]>,
    extractor: ExtractorKind,
    distance: DistanceKind,
}

impl PreparedPool {
    /// The pool's feature space.
    pub(crate) fn space(&self) -> &FeatureSpace {
        self.space
            .as_deref()
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
        let pairs = || pool.iter().map(|p| &p.pair);
        let space = FeatureSpace::extract(pairs(), extractor, distance);
        Self {
            len: pool.len(),
            space: Some(Arc::new(space)),
            token_weights: pool_token_weights(pairs()).into(),
            extractor,
            distance,
        }
    }

    /// Only what `needs` names, taken from this thread's [`PoolMemo`] and
    /// built into it first when it lacks them. A cell that reads neither
    /// pool piece leaves the memo as it was.
    fn remembered(
        pool: &[&LabeledPair],
        extractor: ExtractorKind,
        distance: DistanceKind,
        needs: Needs,
    ) -> Self {
        let (space, token_weights) = if needs.pool_features || needs.token_weights {
            LAST_POOL.with_borrow_mut(|slot| {
                slot.take_if(|memo| !memo.holds(pool));
                let memo = slot.get_or_insert_with(|| PoolMemo {
                    pool: pool.iter().map(|p| p.pair.clone()).collect(),
                    spaces: Vec::new(),
                    token_weights: None,
                });
                let space = needs.pool_features.then(|| memo.space(extractor, distance));
                let weights = if needs.token_weights {
                    memo.token_weights()
                } else {
                    Arc::default()
                };
                (space, weights)
            })
        } else {
            (None, Arc::default())
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
fn pool_token_weights<'p>(pool: impl IntoIterator<Item = &'p EntityPair>) -> Vec<f64> {
    let mut serialized = String::new();
    pool.into_iter()
        .map(|pair| {
            pair.serialize_into(&mut serialized);
            llm::count_tokens(&serialized) as f64
        })
        .collect()
}

/// The pool pieces [`plan_question_batches`] built last on this thread:
/// the need-set union of the design cells planned against that pool so
/// far, filled as cells ask.
struct PoolMemo {
    /// The pool the pieces were built from. Extractors and token counts
    /// read only a pair's schema and values, so any pool whose pairs
    /// compare equal — shared records or deep copies — may use them.
    pool: Vec<EntityPair>,
    /// One feature space per (extractor, distance) asked for.
    spaces: Vec<((ExtractorKind, DistanceKind), Arc<FeatureSpace>)>,
    token_weights: Option<Arc<[f64]>>,
}

impl PoolMemo {
    /// True when `pool` is the memo's pool, pair for pair. `EntityPair`'s
    /// `==` checks the shared `Arc<Record>`s by pointer first, so a pool
    /// built from the same records costs two comparisons per pair.
    fn holds(&self, pool: &[&LabeledPair]) -> bool {
        self.pool.len() == pool.len() && self.pool.iter().zip(pool).all(|(m, p)| *m == p.pair)
    }

    fn space(&mut self, extractor: ExtractorKind, distance: DistanceKind) -> Arc<FeatureSpace> {
        let key = (extractor, distance);
        if let Some((_, space)) = self.spaces.iter().find(|(k, _)| *k == key) {
            return Arc::clone(space);
        }
        let space = Arc::new(FeatureSpace::extract(&self.pool, extractor, distance));
        self.spaces.push((key, Arc::clone(&space)));
        space
    }

    fn token_weights(&mut self) -> Arc<[f64]> {
        let pool = &self.pool;
        Arc::clone(
            self.token_weights
                .get_or_insert_with(|| pool_token_weights(pool).into()),
        )
    }
}

thread_local! {
    /// One slot: a pool that differs from the last one replaces it whole.
    static LAST_POOL: RefCell<Option<PoolMemo>> = const { RefCell::new(None) };
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
///
/// The pool is featurized once per (extractor, distance), not once per
/// call: each thread remembers the last pool it planned against, keyed
/// by the pool's pairs in order (equal pairs, labels aside), with the
/// feature spaces and token weights built for it so far. A design-space
/// sweep — every cell of a dataset on one split, the next dataset after —
/// therefore pays for a pool's features once per extractor and its
/// weights once. The memo keeps the last pool's records and pieces alive
/// until the thread plans against a different pool or exits; a design
/// cell that reads no pool piece (fixed selection) neither reads nor
/// replaces it. Callers that already hold their pool for good — the
/// serving layer, via [`plan_with_prepared_pool`] — bypass the memo: it
/// would cost them a pool comparison per plan and a second reference for
/// nothing.
pub fn plan_question_batches(
    questions: &[&EntityPair],
    pool: &[&LabeledPair],
    config: &BatchPlanConfig,
) -> QuestionBatchPlan {
    let prepared =
        PreparedPool::remembered(pool, config.extractor, config.distance, Needs::of(config));
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

        // Memoized == fresh: every cell of Tables IV and VII plus standard
        // prompting on one split, back to back, so each cell plans with
        // what the cells before it left in the memo — in both orders, and
        // again under cosine (a memo keyed without the distance hands it
        // a Euclidean space), another seed and another percentile.
        let mut cells: Vec<BatchPlanConfig> = Vec::new();
        for extractor in ExtractorKind::ALL {
            for batching in BatchingStrategy::ALL {
                for selection in SelectionStrategy::ALL {
                    cells.push(BatchPlanConfig {
                        batching,
                        selection,
                        extractor,
                        ..Default::default()
                    });
                }
            }
        }
        cells.push(standard);
        let variants: [fn(BatchPlanConfig) -> BatchPlanConfig; 4] = [
            |c| c,
            |c| BatchPlanConfig { distance: DistanceKind::Cosine, ..c },
            |c| BatchPlanConfig { seed: 7, ..c },
            |c| BatchPlanConfig { cover_percentile: 20.0, ..c },
        ];
        let bits = |space: &FeatureSpace| -> Vec<u64> {
            space.matrix().flat().iter().map(|x| x.to_bits()).collect()
        };
        for variant in variants {
            let forward: Vec<BatchPlanConfig> = cells.iter().map(|&c| variant(c)).collect();
            let backward: Vec<BatchPlanConfig> = forward.iter().rev().copied().collect();
            for config in forward.iter().chain(&backward) {
                assert_same(&p, config, "sweep");
                // What the plan read is what `prepare` builds.
                let fresh = PreparedPool::prepare(&p, config.extractor, config.distance);
                let used = remembered(&p, config);
                if let Some(space) = &used.space {
                    assert_eq!(space.distance_kind(), config.distance, "{config:?}");
                    assert_eq!(bits(space), bits(fresh.space()), "{config:?}");
                }
                if Needs::of(config).token_weights {
                    assert_eq!(used.token_weights(), fresh.token_weights(), "{config:?}");
                }
            }
        }
    }

    /// The pool pieces a plan of `config` on `pool` gets, as
    /// [`plan_question_batches`] gets them.
    fn remembered(pool: &[&LabeledPair], config: &BatchPlanConfig) -> PreparedPool {
        PreparedPool::remembered(pool, config.extractor, config.distance, Needs::of(config))
    }

    fn space_of(prepared: &PreparedPool) -> &Arc<FeatureSpace> {
        prepared
            .space
            .as_ref()
            .expect("a cell that reads pool features")
    }

    /// Two LR covering cells on one split read one feature space and one
    /// weight vector, though a Jaccard cell ran between them.
    #[test]
    fn cells_on_one_pool_share_its_pieces() {
        let (pool, questions) = fixtures();
        let q: Vec<&EntityPair> = questions.iter().map(|p| &p.pair).collect();
        let p: Vec<&LabeledPair> = pool.iter().collect();
        let best = BatchPlanConfig::default();
        assert_eq!(best.extractor, ExtractorKind::LevenshteinRatio);
        plan_question_batches(&q, &p, &best);
        let first = remembered(&p, &best);

        let jaccard = BatchPlanConfig { extractor: ExtractorKind::Jaccard, ..best };
        plan_question_batches(&q, &p, &jaccard);
        assert!(!Arc::ptr_eq(
            space_of(&remembered(&p, &jaccard)),
            space_of(&first)
        ));

        let random = BatchPlanConfig { batching: BatchingStrategy::Random, ..best };
        plan_question_batches(&q, &p, &random);
        let second = remembered(&p, &random);
        assert!(Arc::ptr_eq(space_of(&first), space_of(&second)));
        assert!(Arc::ptr_eq(&first.token_weights, &second.token_weights));
        assert_eq!(first.token_weights.len(), p.len());
    }

    /// A different pool — one pair replaced, or the pool before last — is
    /// a miss and plans as a fresh pool does; the same pairs in new
    /// allocations are a hit; a fixed-selection cell leaves the memo be.
    #[test]
    fn the_memo_misses_on_any_other_pool() {
        let (pool, questions) = fixtures();
        let q: Vec<&EntityPair> = questions.iter().map(|p| &p.pair).collect();
        let a: Vec<&LabeledPair> = pool.iter().collect();
        let mut replaced = a.clone();
        replaced[17] = &questions[0];
        let b: Vec<&LabeledPair> = questions.iter().collect();
        let config = BatchPlanConfig::default();
        let plan = |pool: &[&LabeledPair]| {
            let fresh = PreparedPool::prepare(pool, config.extractor, config.distance);
            let plan = plan_question_batches(&q, pool, &config);
            assert_eq!(plan, plan_with_prepared_pool(&q, &fresh, &config));
            plan
        };

        plan(&a);
        let a_first = remembered(&a, &config);
        plan(&replaced);
        let after_replaced = remembered(&replaced, &config);
        assert!(!Arc::ptr_eq(space_of(&a_first), space_of(&after_replaced)));

        // A → B → A: each step rebuilds.
        plan(&a);
        let a_again = remembered(&a, &config);
        plan(&b);
        let b_pieces = remembered(&b, &config);
        plan(&a);
        let a_third = remembered(&a, &config);
        let spaces = [&a_first, &after_replaced, &a_again, &b_pieces, &a_third].map(space_of);
        for (i, x) in spaces.iter().enumerate() {
            for y in &spaces[i + 1..] {
                assert!(!Arc::ptr_eq(x, y));
            }
        }

        // Deep-copied records compare equal: a hit, and the same plan.
        let copies: Vec<LabeledPair> = pool
            .iter()
            .map(|lp| {
                let (x, y) = (Arc::new(lp.pair.a().clone()), Arc::new(lp.pair.b().clone()));
                LabeledPair::new(EntityPair::new(lp.pair.id(), x, y).unwrap(), lp.label)
            })
            .collect();
        let copied: Vec<&LabeledPair> = copies.iter().collect();
        assert!(!std::ptr::eq(copied[0].pair.a(), a[0].pair.a()));
        assert_eq!(plan(&copied), plan(&a));
        assert!(Arc::ptr_eq(
            space_of(&remembered(&copied, &config)),
            space_of(&a_third)
        ));

        // A fixed-selection cell on another pool reads and replaces nothing.
        let fixed = BatchPlanConfig { selection: SelectionStrategy::Fixed, ..config };
        plan_question_batches(&q, &b, &fixed);
        assert!(Arc::ptr_eq(
            space_of(&remembered(&a, &config)),
            space_of(&a_third)
        ));
    }

    #[test]
    fn needs_follow_the_design_cell() {
        let needs = |batching, selection| {
            Needs::of(&BatchPlanConfig { batching, selection, ..Default::default() })
        };
        use BatchingStrategy::{Diversity, Random};
        use SelectionStrategy::{Covering, Fixed, TopKBatch};
        let all = Needs { pool_features: true, token_weights: true, question_features: true };
        assert_eq!(needs(Diversity, Covering), all);
        assert_eq!(
            needs(Random, TopKBatch),
            Needs { token_weights: false, ..all }
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
            let weights = pool_token_weights(pool.iter().map(|p| &p.pair));
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
