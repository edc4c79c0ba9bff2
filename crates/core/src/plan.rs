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

use cluster::Clustering;
use er_core::{EntityPair, LabeledPair};

use crate::batching::{
    batches_for_clustering, cluster_questions, BatchingStrategy, ClusteringKind,
};
use crate::features::{DistanceKind, ExtractorKind, FeatureSpace, PackedPairs};
use crate::runner::RunConfig;
use crate::selection::{
    cover_batches, fixed, topk_batch, topk_question, CoverSet, NearestDemos, SelectionParams,
    SelectionPlan, SelectionStrategy,
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
/// are shared with that function's per-thread memo of the last pool and
/// question set (see there), so a plan and the memo hold one copy between
/// them. A pool built with [`PreparedPool::prepare`] owns its pieces and
/// never enters the memo, and every plan against it builds its question
/// pieces afresh and drops them when it returns.
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
        let text = PackedPairs::new(pool.iter().map(|p| &p.pair).collect());
        let space = FeatureSpace::from_packed(&text, extractor, distance);
        Self {
            len: pool.len(),
            space: Some(Arc::new(space)),
            token_weights: text.token_weights().into(),
            extractor,
            distance,
        }
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

/// The question set's pieces in one feature space, each built the first
/// time a plan asks for it. A plan against a [`PreparedPool`] builds its
/// own and drops it; [`plan_question_batches`] keeps one per (extractor,
/// distance) in its memo, so the design cells of a split share them. The
/// pool-derived pieces (nearest lists, covering phase 1) are only ever
/// built against one pool: the memo's, or the prepared pool's.
struct QuestionPieces {
    space: Arc<FeatureSpace>,
    /// Keyed by (algorithm, batch size, seed), what `cluster_questions`
    /// reads besides the space.
    clusterings: Vec<((ClusteringKind, usize, u64), Arc<Clustering>)>,
    /// Covering phase 1 keyed by (percentile bits, seed), what the
    /// threshold reads besides the space.
    covers: Vec<((u64, u64), Arc<CoverSet>)>,
    /// The longest nearest lists asked for so far; a plan of a smaller
    /// `k` folds their prefixes.
    nearest: Option<Arc<NearestDemos>>,
}

impl QuestionPieces {
    fn new(space: FeatureSpace) -> Self {
        Self {
            space: Arc::new(space),
            clusterings: Vec::new(),
            covers: Vec::new(),
            nearest: None,
        }
    }

    fn clustering(
        &mut self,
        kind: ClusteringKind,
        batch_size: usize,
        seed: u64,
    ) -> Arc<Clustering> {
        let key = (kind, batch_size, seed);
        if let Some((_, clustering)) = self.clusterings.iter().find(|(k, _)| *k == key) {
            return Arc::clone(clustering);
        }
        let clustering = Arc::new(cluster_questions(&self.space, kind, batch_size, seed));
        self.clusterings.push((key, Arc::clone(&clustering)));
        clustering
    }

    fn cover(&mut self, pool: &FeatureSpace, params: SelectionParams) -> Arc<CoverSet> {
        let key = (params.cover_percentile.to_bits(), params.seed);
        if let Some((_, set)) = self.covers.iter().find(|(k, _)| *k == key) {
            return Arc::clone(set);
        }
        let set = Arc::new(CoverSet::build(&self.space, pool, params));
        self.covers.push((key, Arc::clone(&set)));
        set
    }

    fn nearest(&mut self, pool: &FeatureSpace, k: usize) -> Arc<NearestDemos> {
        let held = self.nearest.as_ref().filter(|n| n.k() >= k.min(pool.len()));
        if let Some(nearest) = held {
            return Arc::clone(nearest);
        }
        Arc::clone(
            self.nearest
                .insert(Arc::new(NearestDemos::of(&self.space, pool, k))),
        )
    }
}

/// What [`plan_question_batches`] built last on this thread: the pool's
/// pieces (the need-set union of the design cells planned against it so
/// far) and the last question set's pieces, filled as cells ask.
struct PoolMemo {
    /// The pool the pieces were built from, with its packed text, which
    /// every extractor and the token weights read. Extractors and token
    /// counts read only a pair's schema and values, so any pool whose
    /// pairs compare equal — shared records or deep copies — may use
    /// them.
    pool: PackedPairs<EntityPair>,
    /// One feature space per (extractor, distance) asked for.
    spaces: Vec<((ExtractorKind, DistanceKind), Arc<FeatureSpace>)>,
    token_weights: Option<Arc<[f64]>>,
    /// The question set the question pieces were built from, compared as
    /// the pool is, with its packed text.
    questions: PackedPairs<EntityPair>,
    /// Per (extractor, distance), the pieces of `questions`; those derived
    /// from a pool were derived from `pool`.
    question_pieces: Vec<((ExtractorKind, DistanceKind), QuestionPieces)>,
}

/// True when `memo` holds `pairs`, pair for pair. `EntityPair`'s `==`
/// checks the shared `Arc<Record>`s by pointer first, so a set built from
/// the same records costs two comparisons per pair.
fn same_pairs<'p>(
    memo: &[EntityPair],
    pairs: impl ExactSizeIterator<Item = &'p EntityPair>,
) -> bool {
    memo.len() == pairs.len() && memo.iter().zip(pairs).all(|(m, p)| m == p)
}

impl PoolMemo {
    /// The memo to plan (`pool`, `questions`) with under `needs`, in
    /// `slot`. A cell that reads a pool piece replaces the memo whole when
    /// the pool differs; a cell that reads question pieces replaces the
    /// question half when the question set differs. A cell that reads
    /// question pieces but no pool piece (fixed selection over clustered
    /// batches) keeps whatever pool the memo holds: it reads no piece
    /// derived from a pool.
    fn for_plan<'m>(
        slot: &'m mut Option<PoolMemo>,
        pool: &[&LabeledPair],
        questions: &[&EntityPair],
        needs: Needs,
    ) -> &'m mut PoolMemo {
        if needs.pool_features || needs.token_weights {
            slot.take_if(|memo| !same_pairs(memo.pool.pairs(), pool.iter().map(|p| &p.pair)));
        }
        let memo = slot.get_or_insert_with(|| PoolMemo {
            pool: PackedPairs::new(pool.iter().map(|p| p.pair.clone()).collect()),
            spaces: Vec::new(),
            token_weights: None,
            questions: PackedPairs::new(Vec::new()),
            question_pieces: Vec::new(),
        });
        if needs.question_features && !same_pairs(memo.questions.pairs(), questions.iter().copied())
        {
            memo.questions = PackedPairs::new(questions.iter().map(|&q| q.clone()).collect());
            memo.question_pieces.clear();
        }
        memo
    }

    /// The pool pieces `needs` names, as a [`PreparedPool`] of `len`
    /// demonstrations sharing them. `len` is the planned pool's, which is
    /// the memo's only when `needs` reads a pool piece.
    fn prepared(
        &mut self,
        len: usize,
        extractor: ExtractorKind,
        distance: DistanceKind,
        needs: Needs,
    ) -> PreparedPool {
        let space = needs.pool_features.then(|| self.space(extractor, distance));
        let token_weights = if needs.token_weights {
            self.token_weights()
        } else {
            Arc::default()
        };
        PreparedPool { len, space, token_weights, extractor, distance }
    }

    fn space(&mut self, extractor: ExtractorKind, distance: DistanceKind) -> Arc<FeatureSpace> {
        let key = (extractor, distance);
        if let Some((_, space)) = self.spaces.iter().find(|(k, _)| *k == key) {
            return Arc::clone(space);
        }
        let space = Arc::new(FeatureSpace::from_packed(&self.pool, extractor, distance));
        self.spaces.push((key, Arc::clone(&space)));
        space
    }

    fn token_weights(&mut self) -> Arc<[f64]> {
        let pool = &self.pool;
        Arc::clone(
            self.token_weights
                .get_or_insert_with(|| pool.token_weights().into()),
        )
    }

    fn question_pieces(
        &mut self,
        extractor: ExtractorKind,
        distance: DistanceKind,
    ) -> &mut QuestionPieces {
        let key = (extractor, distance);
        let at = match self.question_pieces.iter().position(|(k, _)| *k == key) {
            Some(at) => at,
            None => {
                let space = FeatureSpace::from_packed(&self.questions, extractor, distance);
                self.question_pieces.push((key, QuestionPieces::new(space)));
                self.question_pieces.len() - 1
            }
        };
        &mut self.question_pieces[at].1
    }
}

thread_local! {
    /// One slot: a pool that differs from the last one replaces it whole,
    /// a question set that differs replaces its half (see `PoolMemo::for_plan`).
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
/// Each split is planned once, not once per design cell: each thread
/// remembers the last pool and the last question set it planned, keyed by
/// their pairs in order (equal pairs, labels aside), with what the cells
/// planned on them so far built:
///
/// * of the pool, its packed text (`features::PackedPairs`: every value
///   normalized once, every pair serialized once, each half when a cell
///   first reads it); per (extractor, distance), its feature space; and
///   its token weights;
/// * of the questions, their packed text, and per (extractor, distance),
///   their feature space;
///   each clustering, keyed by (algorithm, batch size, seed); each
///   covering phase 1, keyed by (percentile, seed) and held as the
///   threshold, the demonstration set and each question's covering
///   members of that set; and every question's `k` nearest pool demos,
///   which both top-k strategies fold.
///
/// A design-space sweep — every cell of a dataset on one split, the next
/// dataset after — therefore pays for each of these once per split. The
/// memo keeps the last pool's and question set's records and pieces alive
/// until the thread plans against a different pool or question set, or
/// exits. A cell that reads no pool piece (fixed selection) neither reads
/// nor replaces the pool's, and a cell that reads no question feature
/// (random batches with fixed demonstrations) touches nothing. Callers
/// that already hold their pool for good — the serving layer, via
/// [`plan_with_prepared_pool`] — bypass the memo: their question sets
/// never repeat, and it would cost them a pool comparison per plan and a
/// second reference for nothing.
pub fn plan_question_batches(
    questions: &[&EntityPair],
    pool: &[&LabeledPair],
    config: &BatchPlanConfig,
) -> QuestionBatchPlan {
    let needs = Needs::of(config);
    if questions.is_empty() || !needs.question_features {
        // Nothing to plan, or standard prompting: random batches and
        // fixed demonstrations read no feature of either side.
        let bare = PreparedPool {
            len: pool.len(),
            space: None,
            token_weights: Arc::default(),
            extractor: config.extractor,
            distance: config.distance,
        };
        return plan_with_pieces(questions.len(), &bare, None, config);
    }
    LAST_POOL.with_borrow_mut(|slot| {
        let memo = PoolMemo::for_plan(slot, pool, questions, needs);
        let prepared = memo.prepared(pool.len(), config.extractor, config.distance, needs);
        let pieces = memo.question_pieces(config.extractor, config.distance);
        plan_with_pieces(questions.len(), &prepared, Some(pieces), config)
    })
}

/// Like [`plan_question_batches`], but against a pool featurized once
/// via [`PreparedPool::prepare`]. The prepared pool's extractor and
/// distance govern question featurization.
pub fn plan_with_prepared_pool(
    questions: &[&EntityPair],
    pool: &PreparedPool,
    config: &BatchPlanConfig,
) -> QuestionBatchPlan {
    let mut pieces = (!questions.is_empty() && Needs::of(config).question_features).then(|| {
        let space = FeatureSpace::extract(questions.iter().copied(), pool.extractor, pool.distance);
        QuestionPieces::new(space)
    });
    plan_with_pieces(questions.len(), pool, pieces.as_mut(), config)
}

/// The plan of `n` questions, from the pool's pieces and the question
/// set's (`None` exactly when the cell reads no question feature).
fn plan_with_pieces(
    n: usize,
    pool: &PreparedPool,
    mut pieces: Option<&mut QuestionPieces>,
    config: &BatchPlanConfig,
) -> QuestionBatchPlan {
    if n == 0 {
        return QuestionBatchPlan {
            batches: Vec::new(),
            demos_per_batch: Vec::new(),
            labeled: Vec::new(),
            threshold: None,
        };
    }
    const MISSING: &str = "question pieces are built for every strategy that reads them";
    let clusters = (config.batching != BatchingStrategy::Random).then(|| {
        let pieces = pieces.as_deref_mut().expect(MISSING);
        pieces.clustering(config.clustering, config.batch_size, config.seed)
    });
    let batches = batches_for_clustering(
        n,
        clusters.as_deref(),
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
    assert!(params.k > 0, "k must be positive");
    let SelectionPlan { per_batch, labeled, threshold } = match config.selection {
        SelectionStrategy::Fixed => fixed(pool.len(), batches.len(), params),
        SelectionStrategy::TopKBatch => {
            let nearest = pieces.expect(MISSING).nearest(pool.space(), params.k);
            topk_batch(&nearest, &batches, params.k)
        }
        SelectionStrategy::TopKQuestion => {
            let nearest = pieces.expect(MISSING).nearest(pool.space(), params.k);
            topk_question(&nearest, &batches, params.k)
        }
        SelectionStrategy::Covering => {
            let pieces = pieces.expect(MISSING);
            let set = pieces.cover(pool.space(), params);
            cover_batches(&pieces.space, pool.space(), &batches, &set, |d| {
                pool.token_weights[d]
            })
        }
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
        // prompting on one split — one pool, one question set — back to
        // back, so each cell plans with what the cells before it left in
        // the memo, in both orders, and again under cosine (a memo keyed
        // without the distance hands it a Euclidean space), another seed
        // and another percentile (a piece keyed without either is found
        // missing under its full key below, even where this small a
        // question set makes the value seed-free).
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
                // What the plan read is what `prepare` and the selection
                // functions build from scratch.
                let fresh = PreparedPool::prepare(&p, config.extractor, config.distance);
                let used = remembered(&q, &p, config);
                if let Some(space) = &used.space {
                    assert_eq!(space.distance_kind(), config.distance, "{config:?}");
                    assert_eq!(bits(space), bits(fresh.space()), "{config:?}");
                }
                if Needs::of(config).token_weights {
                    assert_eq!(used.token_weights, fresh.token_weights, "{config:?}");
                }
                if !Needs::of(config).question_features {
                    continue;
                }
                let held = held(&q, &p, config);
                let space =
                    FeatureSpace::extract(q.iter().copied(), config.extractor, config.distance);
                assert_eq!(held.space.distance_kind(), config.distance, "{config:?}");
                assert_eq!(bits(&held.space), bits(&space), "{config:?}");
                if let Some(clustering) = &held.clustering {
                    let want = cluster_questions(
                        &space,
                        config.clustering,
                        config.batch_size,
                        config.seed,
                    );
                    assert_eq!(**clustering, want, "{config:?}");
                }
                let params = SelectionParams {
                    k: config.k,
                    cover_percentile: config.cover_percentile,
                    seed: config.seed,
                };
                if let Some(cover) = &held.cover {
                    assert_eq!(
                        **cover,
                        CoverSet::build(&space, fresh.space(), params),
                        "{config:?}"
                    );
                }
                if let Some(nearest) = &held.nearest {
                    assert!(nearest.k() >= config.k.min(p.len()), "{config:?}");
                    let want = NearestDemos::of(&space, fresh.space(), nearest.k());
                    assert_eq!(**nearest, want, "{config:?}");
                }
            }
        }
    }

    /// The pool pieces a plan of `config` on (`questions`, `pool`) gets,
    /// as [`plan_question_batches`] gets them.
    fn remembered(
        questions: &[&EntityPair],
        pool: &[&LabeledPair],
        config: &BatchPlanConfig,
    ) -> PreparedPool {
        let needs = Needs::of(config);
        LAST_POOL.with_borrow_mut(|slot| {
            PoolMemo::for_plan(slot, pool, questions, needs).prepared(
                pool.len(),
                config.extractor,
                config.distance,
                needs,
            )
        })
    }

    fn space_of(prepared: &PreparedPool) -> &Arc<FeatureSpace> {
        prepared
            .space
            .as_ref()
            .expect("a cell that reads pool features")
    }

    /// What the memo holds for the questions of a plan of `config` on
    /// (`questions`, `pool`), right after that plan: the feature space,
    /// and the clustering, covering phase 1 and nearest lists when the
    /// cell reads them.
    struct Held {
        space: Arc<FeatureSpace>,
        clustering: Option<Arc<Clustering>>,
        cover: Option<Arc<CoverSet>>,
        nearest: Option<Arc<NearestDemos>>,
    }

    fn held(questions: &[&EntityPair], pool: &[&LabeledPair], config: &BatchPlanConfig) -> Held {
        let needs = Needs::of(config);
        assert!(
            needs.question_features,
            "{config:?} reads no question piece"
        );
        LAST_POOL.with_borrow_mut(|slot| {
            let memo = PoolMemo::for_plan(slot, pool, questions, needs);
            let pieces = memo.question_pieces(config.extractor, config.distance);
            let clustering_key = (config.clustering, config.batch_size, config.seed);
            let cover_key = (config.cover_percentile.to_bits(), config.seed);
            Held {
                space: Arc::clone(&pieces.space),
                clustering: (config.batching != BatchingStrategy::Random).then(|| {
                    let found = pieces
                        .clusterings
                        .iter()
                        .find(|(k, _)| *k == clustering_key);
                    Arc::clone(&found.expect("the plan clustered").1)
                }),
                cover: (config.selection == SelectionStrategy::Covering && !pool.is_empty()).then(
                    || {
                        let found = pieces.covers.iter().find(|(k, _)| *k == cover_key);
                        Arc::clone(&found.expect("the plan covered").1)
                    },
                ),
                nearest: matches!(
                    config.selection,
                    SelectionStrategy::TopKBatch | SelectionStrategy::TopKQuestion
                )
                .then(|| {
                    pieces
                        .nearest
                        .clone()
                        .expect("the plan folded nearest lists")
                }),
            }
        })
    }

    /// Two LR covering cells on one split read one feature space and one
    /// weight vector, though a Jaccard cell ran between them; the cells of
    /// one split share its question pieces: the space, the clustering of
    /// similarity and diversity batches, the covering phase 1 and the
    /// nearest lists both top-k strategies fold.
    #[test]
    fn cells_on_one_pool_share_its_pieces() {
        let (pool, questions) = fixtures();
        let q: Vec<&EntityPair> = questions.iter().map(|p| &p.pair).collect();
        let p: Vec<&LabeledPair> = pool.iter().collect();
        let best = BatchPlanConfig::default();
        assert_eq!(best.extractor, ExtractorKind::LevenshteinRatio);
        plan_question_batches(&q, &p, &best);
        let first = remembered(&q, &p, &best);
        let best_held = held(&q, &p, &best);

        let jaccard = BatchPlanConfig { extractor: ExtractorKind::Jaccard, ..best };
        plan_question_batches(&q, &p, &jaccard);
        assert!(!Arc::ptr_eq(
            space_of(&remembered(&q, &p, &jaccard)),
            space_of(&first)
        ));
        assert!(!Arc::ptr_eq(
            &held(&q, &p, &jaccard).space,
            &best_held.space
        ));

        let random = BatchPlanConfig { batching: BatchingStrategy::Random, ..best };
        plan_question_batches(&q, &p, &random);
        let second = remembered(&q, &p, &random);
        assert!(Arc::ptr_eq(space_of(&first), space_of(&second)));
        assert!(Arc::ptr_eq(&first.token_weights, &second.token_weights));
        assert_eq!(first.token_weights.len(), p.len());
        let random_held = held(&q, &p, &random);
        assert!(Arc::ptr_eq(&random_held.space, &best_held.space));
        let cover = |h: &Held| Arc::clone(h.cover.as_ref().expect("a covering cell"));
        assert!(Arc::ptr_eq(&cover(&random_held), &cover(&best_held)));

        let similar = BatchPlanConfig { batching: BatchingStrategy::Similarity, ..best };
        plan_question_batches(&q, &p, &similar);
        let clustering = |h: &Held| Arc::clone(h.clustering.as_ref().expect("a clustered cell"));
        assert!(Arc::ptr_eq(
            &clustering(&held(&q, &p, &similar)),
            &clustering(&best_held)
        ));

        let topk_batch = BatchPlanConfig { selection: SelectionStrategy::TopKBatch, ..best };
        let topk_question =
            BatchPlanConfig { selection: SelectionStrategy::TopKQuestion, ..random };
        plan_question_batches(&q, &p, &topk_batch);
        plan_question_batches(&q, &p, &topk_question);
        let nearest = |h: &Held| Arc::clone(h.nearest.as_ref().expect("a top-k cell"));
        assert!(Arc::ptr_eq(
            &nearest(&held(&q, &p, &topk_batch)),
            &nearest(&held(&q, &p, &topk_question))
        ));
        // Other keys are other pieces.
        let seeded = BatchPlanConfig { seed: 7, ..best };
        plan_question_batches(&q, &p, &seeded);
        let seeded_held = held(&q, &p, &seeded);
        assert!(Arc::ptr_eq(&seeded_held.space, &best_held.space));
        assert!(!Arc::ptr_eq(
            &clustering(&seeded_held),
            &clustering(&best_held)
        ));
        assert!(!Arc::ptr_eq(&cover(&seeded_held), &cover(&best_held)));
    }

    /// A different pool — one pair replaced, or the pool before last — is
    /// a miss and plans as a fresh pool does; the same pairs in new
    /// allocations are a hit; a fixed-selection cell leaves the pool's
    /// pieces be. The same for the question set: one question replaced,
    /// or A → B → A, rebuilds the question pieces every time, and deep
    /// copies hit.
    #[test]
    fn the_memo_misses_on_any_other_pool() {
        let (pool, questions) = fixtures();
        let q: Vec<&EntityPair> = questions.iter().map(|p| &p.pair).collect();
        let a: Vec<&LabeledPair> = pool.iter().collect();
        let mut replaced = a.clone();
        replaced[17] = &questions[0];
        let b: Vec<&LabeledPair> = questions.iter().collect();
        let config = BatchPlanConfig::default();
        let plan_on = |q: &[&EntityPair], pool: &[&LabeledPair]| {
            let fresh = PreparedPool::prepare(pool, config.extractor, config.distance);
            let plan = plan_question_batches(q, pool, &config);
            assert_eq!(plan, plan_with_prepared_pool(q, &fresh, &config));
            plan
        };
        let plan = |pool: &[&LabeledPair]| plan_on(&q, pool);

        plan(&a);
        let a_first = remembered(&q, &a, &config);
        plan(&replaced);
        let after_replaced = remembered(&q, &replaced, &config);
        assert!(!Arc::ptr_eq(space_of(&a_first), space_of(&after_replaced)));

        // A → B → A: each step rebuilds.
        plan(&a);
        let a_again = remembered(&q, &a, &config);
        plan(&b);
        let b_pieces = remembered(&q, &b, &config);
        plan(&a);
        let a_third = remembered(&q, &a, &config);
        let spaces = [&a_first, &after_replaced, &a_again, &b_pieces, &a_third].map(space_of);
        for (i, x) in spaces.iter().enumerate() {
            for y in &spaces[i + 1..] {
                assert!(!Arc::ptr_eq(x, y));
            }
        }

        // Deep-copied records compare equal: a hit, and the same plan.
        let deep_copy = |lp: &LabeledPair| {
            let (x, y) = (Arc::new(lp.pair.a().clone()), Arc::new(lp.pair.b().clone()));
            LabeledPair::new(EntityPair::new(lp.pair.id(), x, y).unwrap(), lp.label)
        };
        let copies: Vec<LabeledPair> = pool.iter().map(deep_copy).collect();
        let copied: Vec<&LabeledPair> = copies.iter().collect();
        assert!(!std::ptr::eq(copied[0].pair.a(), a[0].pair.a()));
        assert_eq!(plan(&copied), plan(&a));
        assert!(Arc::ptr_eq(
            space_of(&remembered(&q, &copied, &config)),
            space_of(&a_third)
        ));

        // A fixed-selection cell on another pool reads and replaces none
        // of the pool's pieces.
        let fixed = BatchPlanConfig { selection: SelectionStrategy::Fixed, ..config };
        plan_question_batches(&q, &b, &fixed);
        assert!(Arc::ptr_eq(
            space_of(&remembered(&q, &a, &config)),
            space_of(&a_third)
        ));

        // The question set: one question replaced is a miss for every
        // question piece and keeps the pool's.
        let q_first = held(&q, &a, &config);
        let mut q_replaced = q.clone();
        q_replaced[5] = &pool[0].pair;
        plan_on(&q_replaced, &a);
        let after = held(&q_replaced, &a, &config);
        assert!(!Arc::ptr_eq(&after.space, &q_first.space));
        assert!(!Arc::ptr_eq(
            after.clustering.as_ref().unwrap(),
            q_first.clustering.as_ref().unwrap()
        ));
        assert!(!Arc::ptr_eq(
            after.cover.as_ref().unwrap(),
            q_first.cover.as_ref().unwrap()
        ));
        assert!(Arc::ptr_eq(
            space_of(&remembered(&q_replaced, &a, &config)),
            space_of(&a_third)
        ));

        // Questions A → B → A: each step rebuilds, and plans as fresh.
        let q_b: Vec<&EntityPair> = q.iter().rev().copied().collect();
        let mut sets = Vec::new();
        for set in [&q, &q_b, &q] {
            plan_on(set, &a);
            sets.push(held(set, &a, &config).space);
        }
        for (i, x) in sets.iter().enumerate() {
            for y in &sets[i + 1..] {
                assert!(!Arc::ptr_eq(x, y));
            }
        }

        // Deep-copied questions: a hit.
        let q_copies: Vec<LabeledPair> = questions.iter().map(deep_copy).collect();
        let q_copied: Vec<&EntityPair> = q_copies.iter().map(|p| &p.pair).collect();
        assert_eq!(plan_on(&q_copied, &a), plan_on(&q, &a));
        assert!(Arc::ptr_eq(&held(&q_copied, &a, &config).space, &sets[2]));
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
            let weights = PackedPairs::new(pool.iter().map(|p| &p.pair).collect()).token_weights();
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
