//! Demonstration selection (§IV): fixed, top-k-batch, top-k-question and
//! covering-based strategies.
//!
//! The relevance-driven strategies are distance sweeps over
//! question × pool, and run on the feature-matrix kernels: one-to-many
//! ranking distances (squared Euclidean — no `sqrt` in any hot loop) and
//! `select_nth_unstable` top-k instead of full sorts. Each batch's
//! result is a pure function of the two spaces.

use embed::matrix::scan_rows_within;
use embed::PivotIndex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cover::{greedy_unit_cover, greedy_weighted_cover, CoverTable, Rows};
use crate::features::{DistanceKind, FeatureSpace};

/// The four selection strategies of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectionStrategy {
    /// `k` random demonstrations shared by every batch (§IV-A).
    Fixed,
    /// `k` nearest demonstrations per batch under
    /// `dist*(B, d) = min_{q∈B} dist(q, d)` (Eq. 6, §IV-B).
    TopKBatch,
    /// Nearest demonstrations per *question*, unioned per batch (§IV-C).
    TopKQuestion,
    /// The paper's covering-based strategy (§IV-D, §V).
    Covering,
}

impl SelectionStrategy {
    /// All strategies in Table IV column order.
    pub const ALL: [SelectionStrategy; 4] = [
        SelectionStrategy::Fixed,
        SelectionStrategy::TopKBatch,
        SelectionStrategy::TopKQuestion,
        SelectionStrategy::Covering,
    ];

    /// Display name used in the tables.
    pub fn name(self) -> &'static str {
        match self {
            SelectionStrategy::Fixed => "Fix",
            SelectionStrategy::TopKBatch => "Topk-batch",
            SelectionStrategy::TopKQuestion => "Topk-question",
            SelectionStrategy::Covering => "Cover",
        }
    }
}

/// The output of demonstration selection.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionPlan {
    /// Pool indices to include in each batch's prompt, in prompt order.
    pub per_batch: Vec<Vec<usize>>,
    /// Unique pool indices that must be human-labeled (drives labeling
    /// cost). For covering this is the full generated demonstration set,
    /// which phase 2 then allocates per batch.
    pub labeled: Vec<usize>,
    /// The covering threshold `t` actually used (None for non-covering
    /// strategies) — surfaced for diagnostics and the ablation bench.
    pub threshold: Option<f64>,
}

/// Parameters shared by all selection strategies.
#[derive(Debug, Clone, Copy)]
pub struct SelectionParams {
    /// Demonstrations per batch for fixed / top-k-batch; for
    /// top-k-question, `max(1, k / batch_size)` per question.
    pub k: usize,
    /// Percentile (0–100) of pairwise question distances defining the
    /// covering threshold `t` (§VI-A uses the 8th percentile).
    pub cover_percentile: f64,
    /// Determinism seed.
    pub seed: u64,
}

impl Default for SelectionParams {
    fn default() -> Self {
        Self { k: 8, cover_percentile: 8.0, seed: 42 }
    }
}

/// Selects demonstrations for every batch.
///
/// * `questions` / `pool` — feature spaces over the question set and the
///   unlabeled demonstration pool (same extractor).
/// * `batches` — question indices per batch, from
///   [`crate::batching::make_batches`].
/// * `demo_tokens(d)` — token count of pool demo `d`, the weight used by
///   batch covering.
pub fn select_demonstrations<W>(
    strategy: SelectionStrategy,
    questions: &FeatureSpace,
    pool: &FeatureSpace,
    batches: &[Vec<usize>],
    params: SelectionParams,
    demo_tokens: W,
) -> SelectionPlan
where
    W: Fn(usize) -> f64,
{
    select_demonstrations_pinned(
        strategy,
        questions,
        pool,
        batches,
        params,
        None,
        demo_tokens,
    )
}

/// Like [`select_demonstrations`], but with an optional pinned covering
/// threshold `t` (`threshold_override`) instead of deriving it from the
/// question-distance percentile. Only the covering strategy consults the
/// override; callers that freeze `t` across incremental re-plans pass the
/// recorded value so the plan stays equivalent to the one that froze it.
pub fn select_demonstrations_pinned<W>(
    strategy: SelectionStrategy,
    questions: &FeatureSpace,
    pool: &FeatureSpace,
    batches: &[Vec<usize>],
    params: SelectionParams,
    threshold_override: Option<f64>,
    demo_tokens: W,
) -> SelectionPlan
where
    W: Fn(usize) -> f64,
{
    assert!(params.k > 0, "k must be positive");
    match strategy {
        SelectionStrategy::Fixed => fixed(pool.len(), batches.len(), params),
        SelectionStrategy::TopKBatch => topk_batch(questions, pool, batches, params),
        SelectionStrategy::TopKQuestion => topk_question(questions, pool, batches, params),
        SelectionStrategy::Covering => {
            let t = threshold_override.unwrap_or_else(|| covering_threshold(questions, params));
            let coverage = compute_coverage(questions, pool, t);
            covering_with_coverage(questions, pool, batches, &coverage, t, demo_tokens)
        }
    }
}

/// The covering threshold `t`: the configured percentile of pairwise
/// question distances (§VI-A: 8th percentile), floored away from zero.
pub fn covering_threshold(questions: &FeatureSpace, params: SelectionParams) -> f64 {
    questions
        .distance_percentile(params.cover_percentile, 200_000, params.seed)
        .max(1e-9)
}

/// The fixed strategy reads no feature of either side — only how many
/// demonstrations the pool holds and how many batches there are — so the
/// planner calls it directly when it has featurized neither.
pub(crate) fn fixed(pool_len: usize, n_batches: usize, params: SelectionParams) -> SelectionPlan {
    assert!(params.k > 0, "k must be positive");
    let mut rng = StdRng::seed_from_u64(params.seed);
    let k = params.k.min(pool_len);
    let mut indices: Vec<usize> = (0..pool_len).collect();
    // Partial Fisher-Yates: the first k slots become the sample.
    for i in 0..k {
        let j = rng.gen_range(i..indices.len());
        indices.swap(i, j);
    }
    let demos: Vec<usize> = indices[..k].to_vec();
    SelectionPlan { per_batch: vec![demos.clone(); n_batches], labeled: demos, threshold: None }
}

/// Row count from which a metric index ([`embed::index`]) over those rows
/// pays for its build and its per-query pivot arithmetic: the top-k
/// strategies index a *pool* of at least this many rows, the coverage
/// sweep a *question set* of at least this many. Below it one dense sweep
/// over the rows is already cache-resident. Both routes are bit-identical
/// (the index is exact), so the gate is a pure performance decision, read
/// from the input.
const INDEX_MIN_ROWS: usize = 512;

/// The `k` pool indices with the smallest ranking distances, ordered by
/// `(distance, index)` — the same order a full sort of `scored` would
/// put first, found via `select_nth_unstable` on the tail-partition
/// instead.
fn top_k_indices(scored: &mut [(f64, usize)], k: usize) -> Vec<usize> {
    let cmp = |a: &(f64, usize), b: &(f64, usize)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
    if k < scored.len() {
        scored.select_nth_unstable_by(k, cmp);
    }
    let head = &mut scored[..k];
    head.sort_unstable_by(cmp);
    head.iter().map(|&(_, d)| d).collect()
}

fn topk_batch(
    questions: &FeatureSpace,
    pool: &FeatureSpace,
    batches: &[Vec<usize>],
    params: SelectionParams,
) -> SelectionPlan {
    let k = params.k.min(pool.len());
    if k == 0 {
        return SelectionPlan {
            per_batch: vec![Vec::new(); batches.len()],
            labeled: Vec::new(),
            threshold: None,
        };
    }
    let euclidean = matches!(
        questions.distance_kind(),
        crate::features::DistanceKind::Euclidean
    );
    let index =
        (euclidean && pool.len() >= INDEX_MIN_ROWS).then(|| PivotIndex::build(pool.matrix()));
    let demos_for = |batch: &Vec<usize>| {
        if let Some(index) = index.as_ref().filter(|_| !batch.is_empty()) {
            // dist*(B, d) = min_q dist(q, d) (Eq. 6). The batch's top-k
            // under the min-fold is contained in the union of the
            // per-question top-k sets: if d's fold minimum is achieved
            // at question q but d is outside q's top-k, every member of
            // q's top-k folds to a value preceding d under `(value,
            // id)`, so d is outside the batch top-k too. Folding only
            // the observed (question, candidate) values therefore
            // reproduces every batch-top-k value exactly; unobserved
            // values can only overestimate a non-member, which cannot
            // promote it.
            let mut knn: Vec<(f64, u32)> = Vec::new();
            let mut pairs: Vec<(u32, f64)> = Vec::new();
            for &q in batch {
                index.nearest_into(questions.matrix().row(q), k, &mut knn);
                pairs.extend(knn.iter().map(|&(v, id)| (id, v)));
            }
            pairs.sort_unstable_by_key(|&(id, _)| id);
            let mut scored: Vec<(f64, usize)> = Vec::new();
            let mut i = 0;
            while i < pairs.len() {
                let id = pairs[i].0;
                // `f64::min` starting from +∞ skips NaNs exactly like
                // the dense fold below, and is order-free past that.
                let mut best = f64::INFINITY;
                while i < pairs.len() && pairs[i].0 == id {
                    best = best.min(pairs[i].1);
                    i += 1;
                }
                scored.push((best, id as usize));
            }
            top_k_indices(&mut scored, k)
        } else {
            // dist*(B, d) = min over questions in the batch (Eq. 6), as
            // an elementwise min of one-to-many ranking sweeps (min is
            // exact, so accumulation order cannot change the value).
            let mut best = vec![f64::INFINITY; pool.len()];
            let mut buf = vec![0.0f64; pool.len()];
            for &q in batch {
                questions.ranking_cross_dists(q, pool, &mut buf);
                for (slot, &v) in best.iter_mut().zip(&buf) {
                    *slot = slot.min(v);
                }
            }
            let mut scored: Vec<(f64, usize)> =
                best.into_iter().enumerate().map(|(d, v)| (v, d)).collect();
            top_k_indices(&mut scored, k)
        }
    };
    let per_batch: Vec<Vec<usize>> = batches.iter().map(demos_for).collect();
    let mut labeled: Vec<usize> = per_batch.iter().flatten().copied().collect();
    labeled.sort_unstable();
    labeled.dedup();
    SelectionPlan { per_batch, labeled, threshold: None }
}

fn topk_question(
    questions: &FeatureSpace,
    pool: &FeatureSpace,
    batches: &[Vec<usize>],
    params: SelectionParams,
) -> SelectionPlan {
    if pool.is_empty() {
        return SelectionPlan {
            per_batch: vec![Vec::new(); batches.len()],
            labeled: Vec::new(),
            threshold: None,
        };
    }
    let euclidean = matches!(
        questions.distance_kind(),
        crate::features::DistanceKind::Euclidean
    );
    let index =
        (euclidean && pool.len() >= INDEX_MIN_ROWS).then(|| PivotIndex::build(pool.matrix()));
    let demos_for = |batch: &Vec<usize>| {
        // k per question so the per-batch total stays comparable to the
        // other strategies (Fig. 5 uses k = 1 at batch size 8).
        let k_q = (params.k / batch.len().max(1)).max(1).min(pool.len());
        let mut demos: Vec<usize> = Vec::new();
        if let Some(index) = &index {
            // The index's nearest list is ordered by `(value, id)` —
            // exactly the head the dense sweep's partial sort produces,
            // so the first-seen dedup below keeps the same demos in the
            // same order.
            let mut knn: Vec<(f64, u32)> = Vec::new();
            for &q in batch {
                index.nearest_into(questions.matrix().row(q), k_q, &mut knn);
                for &(_, d) in &knn {
                    let d = d as usize;
                    if !demos.contains(&d) {
                        demos.push(d);
                    }
                }
            }
        } else {
            let mut buf = vec![0.0f64; pool.len()];
            for &q in batch {
                questions.ranking_cross_dists(q, pool, &mut buf);
                let mut scored: Vec<(f64, usize)> = buf
                    .iter()
                    .copied()
                    .enumerate()
                    .map(|(d, v)| (v, d))
                    .collect();
                for d in top_k_indices(&mut scored, k_q) {
                    if !demos.contains(&d) {
                        demos.push(d);
                    }
                }
            }
        }
        demos
    };
    let per_batch: Vec<Vec<usize>> = batches.iter().map(demos_for).collect();
    let mut labeled: Vec<usize> = per_batch.iter().flatten().copied().collect();
    labeled.sort_unstable();
    labeled.dedup();
    SelectionPlan { per_batch, labeled, threshold: None }
}

/// Phase-1 coverage: which questions each pool demo covers (distance
/// strictly below `t`), as a [`CoverTable`] whose candidates are pool
/// demos and whose elements are questions — both directions built here,
/// once, for every reader downstream.
///
/// A question set of [`INDEX_MIN_ROWS`] rows or more is indexed and asked
/// one radius query per pool demo (the covering threshold is a *low*
/// percentile, so triangle-bound pruning is deep at that size). Below the
/// gate — every served flush, every design-space cell — each question
/// sweeps the pool's flat buffer densely instead: with a handful of
/// questions the threshold is of the order of their own spread, a large
/// share of the pool lies inside it, and an index query per pool demo pays
/// pivot distances, a result vector and a sort to verify rows it could
/// have scanned. Both routes run [`scan_rows_within`], whose `(a − b)²`
/// does not depend on which side is the query, so the verdict for a
/// (demo, question) pair — and every plan — is the same on either.
pub fn compute_coverage(questions: &FeatureSpace, pool: &FeatureSpace, t: f64) -> CoverTable {
    let n_q = questions.len();
    // Nothing covers or nothing to cover: no rows on one side, empty rows
    // on the other. The sweeps below assume rows on both sides (the
    // matrices' dimensions must line up).
    if pool.is_empty() {
        return CoverTable::from_candidate_rows(Rows::new(), n_q);
    }
    if n_q == 0 {
        return CoverTable::from_element_rows(Rows::new(), pool.len());
    }
    let dim = questions.matrix().dim();
    let euclidean = matches!(questions.distance_kind(), DistanceKind::Euclidean);
    let mut hits: Vec<u32> = Vec::new();
    // Zero-width rows have no buffer for the kernel to stream; the index
    // answers them by rule.
    if euclidean && (n_q >= INDEX_MIN_ROWS || dim == 0) {
        let index = PivotIndex::build(questions.matrix());
        let mut by_demo = Rows::new();
        for d in 0..pool.len() {
            index.within_into(pool.matrix().row(d), t, true, &mut hits);
            by_demo.push_row(hits.iter().copied());
        }
        return CoverTable::from_candidate_rows(by_demo, n_q);
    }
    let t_rank = questions.ranking_threshold(t);
    let mut by_question = Rows::new();
    if euclidean {
        let pool_rows = pool.matrix().flat();
        for q in 0..n_q {
            hits.clear();
            scan_rows_within::<true>(dim, questions.vector(q), pool_rows, t_rank, |d| {
                hits.push(d as u32);
            });
            by_question.push_row(hits.iter().copied());
        }
    } else {
        let mut dists = vec![0.0f64; pool.len()];
        for q in 0..n_q {
            questions.ranking_cross_dists(q, pool, &mut dists);
            let covering = dists.iter().enumerate().filter(|&(_, &v)| v < t_rank);
            by_question.push_row(covering.map(|(d, _)| d as u32));
        }
    }
    CoverTable::from_element_rows(by_question, pool.len())
}

/// The covering strategy downstream of coverage computation: phase-1
/// greedy demonstration-set generation, the phase-2 per-batch weighted
/// cover, and the nearest-demo fallback for uncoverable batches.
/// `coverage` must satisfy the [`compute_coverage`] contract for the same
/// `questions`/`pool`/`t` (computed fresh or maintained incrementally) —
/// the output is a pure function of it, whatever the order inside a row.
pub fn covering_with_coverage<W>(
    questions: &FeatureSpace,
    pool: &FeatureSpace,
    batches: &[Vec<usize>],
    coverage: &CoverTable,
    t: f64,
    demo_tokens: W,
) -> SelectionPlan
where
    W: Fn(usize) -> f64,
{
    // Phase 1 cover: one demonstration set covering all questions.
    let demo_set = greedy_unit_cover(coverage);

    // Each selected demo's position in `demo_set`; phase 2 reads a
    // question's covering demos off the table and keeps the selected.
    let mut set_index = vec![u32::MAX; coverage.n_candidates()];
    for (di, &d) in demo_set.iter().enumerate() {
        set_index[d] = di as u32;
    }

    // Phase 2: per batch, the cheapest (token-weighted) covering subset.
    let demos_for = |batch: &Vec<usize>| {
        let mut by_question = Rows::new();
        for &q in batch {
            let covering = coverage.candidates_of(q).iter();
            by_question.push_row(
                covering
                    .map(|&d| set_index[d as usize])
                    .filter(|&di| di != u32::MAX),
            );
        }
        let batch_cov = CoverTable::from_element_rows(by_question, demo_set.len());
        let picked = greedy_weighted_cover(&batch_cov, |i| demo_tokens(demo_set[i]));
        let mut demos: Vec<usize> = picked.iter().map(|&i| demo_set[i]).collect();
        if demos.is_empty() && !demo_set.is_empty() {
            // Uncoverable batch (all its questions beyond t from every
            // demo): fall back to the nearest labeled demo so the prompt
            // still carries one worked example.
            let mut mins = vec![f64::INFINITY; demo_set.len()];
            let mut buf = vec![0.0f64; pool.len()];
            for &q in batch {
                questions.ranking_cross_dists(q, pool, &mut buf);
                for (slot, &d) in mins.iter_mut().zip(&demo_set) {
                    *slot = slot.min(buf[d]);
                }
            }
            // First minimum wins, like the scalar `min_by` scan did.
            let mut nearest = 0usize;
            for (i, &v) in mins.iter().enumerate() {
                if v < mins[nearest] {
                    nearest = i;
                }
            }
            demos.push(demo_set[nearest]);
        }
        demos
    };
    let per_batch: Vec<Vec<usize>> = batches.iter().map(demos_for).collect();
    SelectionPlan { per_batch, labeled: demo_set, threshold: Some(t) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Questions at 0..6 on a line; pool demos at 0.2, 1.1, 3.9, 5.2, 40.
    fn spaces() -> (FeatureSpace, FeatureSpace) {
        let questions = FeatureSpace::from_vectors(
            (0..6).map(|q| vec![q as f64]).collect(),
            DistanceKind::Euclidean,
        );
        let pool = FeatureSpace::from_vectors(
            vec![vec![0.2], vec![1.1], vec![3.9], vec![5.2], vec![40.0]],
            DistanceKind::Euclidean,
        );
        (questions, pool)
    }

    fn batches() -> Vec<Vec<usize>> {
        vec![vec![0, 1, 2], vec![3, 4, 5]]
    }

    const PARAMS: SelectionParams = SelectionParams { k: 2, cover_percentile: 30.0, seed: 7 };

    #[test]
    fn fixed_uses_same_demos_everywhere() {
        let (q, p) = spaces();
        let plan =
            select_demonstrations(SelectionStrategy::Fixed, &q, &p, &batches(), PARAMS, |_| {
                1.0
            });
        assert_eq!(plan.per_batch.len(), 2);
        assert_eq!(plan.per_batch[0], plan.per_batch[1]);
        assert_eq!(plan.labeled.len(), 2);
        assert!(plan.threshold.is_none());
    }

    #[test]
    fn topk_batch_picks_nearest_by_min_distance() {
        let (q, p) = spaces();
        let plan = select_demonstrations(
            SelectionStrategy::TopKBatch,
            &q,
            &p,
            &batches(),
            PARAMS,
            |_| 1.0,
        );
        // Batch {0,1,2}: nearest demos under dist* are 0 (0.2 from q0) and
        // 1 (0.1 from q1); selection order follows increasing distance.
        let sorted = |v: &[usize]| {
            let mut v = v.to_vec();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(&plan.per_batch[0]), vec![0, 1]);
        // Batch {3,4,5}: nearest are 2 (3.9) and 3 (5.2).
        assert_eq!(sorted(&plan.per_batch[1]), vec![2, 3]);
        // The far demo (40.0) is never labeled.
        assert!(!plan.labeled.contains(&4));
    }

    #[test]
    fn topk_question_covers_each_question() {
        let (q, p) = spaces();
        let plan = select_demonstrations(
            SelectionStrategy::TopKQuestion,
            &q,
            &p,
            &batches(),
            SelectionParams { k: 3, ..PARAMS },
            |_| 1.0,
        );
        // k_q = max(1, 3/3) = 1: each question contributes its nearest demo.
        // Questions 0,1 -> demo 0 or 1; question 2 -> demo 2 (|2-1.1|=0.9
        // vs |2-3.9|=1.9 -> actually demo 1). Just assert structure:
        for (batch, demos) in batches().iter().zip(&plan.per_batch) {
            assert!(!demos.is_empty());
            assert!(demos.len() <= batch.len());
            // No duplicates within a batch's demo list.
            let mut d = demos.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), demos.len());
        }
    }

    #[test]
    fn covering_labels_fewer_than_topk_question() {
        let (q, p) = spaces();
        let topk = select_demonstrations(
            SelectionStrategy::TopKQuestion,
            &q,
            &p,
            &batches(),
            SelectionParams { k: 6, ..PARAMS },
            |_| 1.0,
        );
        let cover = select_demonstrations(
            SelectionStrategy::Covering,
            &q,
            &p,
            &batches(),
            SelectionParams { cover_percentile: 40.0, ..PARAMS },
            |_| 1.0,
        );
        assert!(
            cover.labeled.len() <= topk.labeled.len(),
            "cover labeled {} > topk {}",
            cover.labeled.len(),
            topk.labeled.len()
        );
        assert!(cover.threshold.is_some());
    }

    #[test]
    fn covering_prefers_cheap_demos_in_batches() {
        // Phase 1 must keep both demos (each uniquely covers an outer
        // question); phase 2 must then allocate the cheaper one for the
        // middle question both demos cover.
        let questions = FeatureSpace::from_vectors(
            vec![vec![0.0], vec![1.0], vec![2.0]],
            DistanceKind::Euclidean,
        );
        let pool = FeatureSpace::from_vectors(vec![vec![0.5], vec![1.5]], DistanceKind::Euclidean);
        // Question pairwise distances [1,1,2]; the 30th percentile is 1.0,
        // so "covers" means distance < 1.0: demo 0 ↔ {q0, q1}, demo 1 ↔
        // {q1, q2}.
        let plan = select_demonstrations(
            SelectionStrategy::Covering,
            &questions,
            &pool,
            &[vec![1]],
            SelectionParams { cover_percentile: 30.0, ..PARAMS },
            |d| if d == 0 { 100.0 } else { 10.0 },
        );
        assert_eq!(plan.labeled.len(), 2, "phase 1 should need both demos");
        // Phase 2 allocates the cheaper covering demo for the batch {q1}.
        assert_eq!(plan.per_batch[0], vec![1]);
    }

    #[test]
    fn covering_falls_back_for_uncoverable_batches() {
        // Question 5 sits far from every demo at a tiny threshold; its
        // batch still gets the nearest labeled demo.
        let questions =
            FeatureSpace::from_vectors(vec![vec![0.0], vec![100.0]], DistanceKind::Euclidean);
        let pool =
            FeatureSpace::from_vectors(vec![vec![0.001], vec![50.0]], DistanceKind::Euclidean);
        let plan = select_demonstrations(
            SelectionStrategy::Covering,
            &questions,
            &pool,
            &[vec![0], vec![1]],
            SelectionParams { cover_percentile: 5.0, ..PARAMS },
            |_| 1.0,
        );
        assert!(
            !plan.per_batch[1].is_empty(),
            "uncoverable batch left without demonstrations"
        );
    }

    #[test]
    fn k_clamped_to_pool_size() {
        let (q, p) = spaces();
        let plan = select_demonstrations(
            SelectionStrategy::Fixed,
            &q,
            &p,
            &batches(),
            SelectionParams { k: 999, ..PARAMS },
            |_| 1.0,
        );
        assert_eq!(plan.labeled.len(), p.len());
    }

    #[test]
    fn deterministic_in_seed() {
        let (q, p) = spaces();
        for strategy in SelectionStrategy::ALL {
            let a = select_demonstrations(strategy, &q, &p, &batches(), PARAMS, |_| 1.0);
            let b = select_demonstrations(strategy, &q, &p, &batches(), PARAMS, |_| 1.0);
            assert_eq!(a, b, "{strategy:?} not deterministic");
        }
    }

    /// Deterministic clustered vectors, the shape where pruning bites.
    fn scattered(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| {
                let blob = (i % 5) as f64 * 2.0;
                (0..dim).map(|_| blob + next() * 0.7).collect()
            })
            .collect()
    }

    #[test]
    fn index_routed_selection_matches_dense_sweep() {
        // Pool large enough to clear INDEX_MIN_ROWS, so the relevance
        // strategies actually take the index path; the expectations
        // below re-run the dense arithmetic by hand.
        let questions =
            FeatureSpace::from_vectors(scattered(40, 6, 0xA11CE), DistanceKind::Euclidean);
        let pool = FeatureSpace::from_vectors(
            scattered(INDEX_MIN_ROWS + 90, 6, 0xB0B),
            DistanceKind::Euclidean,
        );
        let batches: Vec<Vec<usize>> = (0..8).map(|b| (b * 5..(b + 1) * 5).collect()).collect();
        let params = SelectionParams { k: 7, cover_percentile: 12.0, seed: 3 };

        // Top-k-batch against the dense min-fold reference.
        let plan = select_demonstrations(
            SelectionStrategy::TopKBatch,
            &questions,
            &pool,
            &batches,
            params,
            |_| 1.0,
        );
        for (bi, batch) in batches.iter().enumerate() {
            let mut best = vec![f64::INFINITY; pool.len()];
            let mut buf = vec![0.0f64; pool.len()];
            for &q in batch {
                questions.ranking_cross_dists(q, &pool, &mut buf);
                for (slot, &v) in best.iter_mut().zip(&buf) {
                    *slot = slot.min(v);
                }
            }
            let mut scored: Vec<(f64, usize)> =
                best.into_iter().enumerate().map(|(d, v)| (v, d)).collect();
            let expect = top_k_indices(&mut scored, params.k);
            assert_eq!(plan.per_batch[bi], expect, "batch {bi} top-k diverged");
        }

        // Top-k-question against the dense per-question partial sort.
        let plan = select_demonstrations(
            SelectionStrategy::TopKQuestion,
            &questions,
            &pool,
            &batches,
            params,
            |_| 1.0,
        );
        for (bi, batch) in batches.iter().enumerate() {
            let k_q = (params.k / batch.len().max(1)).max(1).min(pool.len());
            let mut expect: Vec<usize> = Vec::new();
            let mut buf = vec![0.0f64; pool.len()];
            for &q in batch {
                questions.ranking_cross_dists(q, &pool, &mut buf);
                let mut scored: Vec<(f64, usize)> = buf
                    .iter()
                    .copied()
                    .enumerate()
                    .map(|(d, v)| (v, d))
                    .collect();
                for d in top_k_indices(&mut scored, k_q) {
                    if !expect.contains(&d) {
                        expect.push(d);
                    }
                }
            }
            assert_eq!(
                plan.per_batch[bi], expect,
                "batch {bi} per-question diverged"
            );
        }

        // Coverage lists against the dense strict-threshold filter.
        let t = covering_threshold(&questions, params);
        let coverage = compute_coverage(&questions, &pool, t);
        let t_rank = questions.ranking_threshold(t);
        for d in 0..pool.len() {
            let mut dists = vec![0.0f64; questions.len()];
            pool.ranking_cross_dists(d, &questions, &mut dists);
            let expect: Vec<u32> = dists
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v < t_rank)
                .map(|(q, _)| q as u32)
                .collect();
            assert_eq!(
                coverage.elements_of(d),
                expect.as_slice(),
                "demo {d} coverage diverged"
            );
        }
    }

    /// Rows on a coarse grid (exact ties and repeats), every seventh row a
    /// copy of an earlier one, every eleventh carrying a NaN or an
    /// infinity.
    fn hostile_rows(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state >> 11
        };
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
        for i in 0..n {
            let mut row: Vec<f64> = (0..dim)
                .map(|_| (next() % 17) as f64 * 0.25 - 2.0)
                .collect();
            if i % 7 == 6 {
                row = rows[next() as usize % i].clone();
            } else if i % 11 == 10 {
                row[next() as usize % dim] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][i % 3];
            }
            rows.push(row);
        }
        rows
    }

    /// `(demo, question)` pairs under `t` by a double loop over the kernel
    /// each metric's sweep runs, the pool row on the query side.
    fn brute_coverage(questions: &FeatureSpace, pool: &FeatureSpace, t: f64) -> Vec<Vec<u32>> {
        let dim = questions.matrix().dim();
        let mut dists = vec![0.0f64; questions.len()];
        (0..pool.len())
            .map(|d| {
                let mut covered = Vec::new();
                match questions.distance_kind() {
                    DistanceKind::Euclidean => {
                        for q in 0..questions.len() {
                            let (demo, question) = (pool.vector(d), questions.vector(q));
                            scan_rows_within::<true>(dim, demo, question, t * t, |_| {
                                covered.push(q as u32);
                            });
                        }
                    }
                    DistanceKind::Cosine => {
                        pool.ranking_cross_dists(d, questions, &mut dists);
                        covered
                            .extend((0..questions.len() as u32).filter(|&q| dists[q as usize] < t));
                    }
                }
                covered
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The coverage table against brute force, no tolerance: both
        /// routes of the gate and both metrics, `t` placed exactly on a
        /// stored distance (strict `<` excludes that pair) and off it, and
        /// the two directions of the table telling one story.
        #[test]
        fn coverage_table_matches_brute_force(
            seed in any::<u64>(),
            dim in 1usize..14,
            n_pool in 1usize..48,
            pick in any::<u32>(),
        ) {
            // Every fixed-width kernel, the generic one, and the served
            // embedding's width.
            let dim = if dim == 13 { 64 } else { dim };
            let gate = INDEX_MIN_ROWS;
            for n_q in [1, 2, 7, gate - 1, gate, gate + 1] {
                for kind in [DistanceKind::Euclidean, DistanceKind::Cosine] {
                    let questions = FeatureSpace::from_vectors(hostile_rows(n_q, dim, seed), kind);
                    let pool =
                        FeatureSpace::from_vectors(hostile_rows(n_pool, dim, !seed), kind);
                    let (d, q) = (pick as usize % n_pool, (pick >> 8) as usize % n_q);
                    let stored = kind.distance(pool.vector(d), questions.vector(q));
                    for t in [stored, 0.9] {
                        if t.is_nan() || t <= 0.0 {
                            continue; // a NaN/inf pair or a repeat: no threshold to place
                        }
                        let table = compute_coverage(&questions, &pool, t);
                        prop_assert_eq!((table.n_candidates(), table.n_elements()), (n_pool, n_q));
                        let expect = brute_coverage(&questions, &pool, t);
                        let mut inverse: Vec<Vec<u32>> = vec![Vec::new(); n_q];
                        for (d, covered) in expect.iter().enumerate() {
                            prop_assert_eq!(
                                table.elements_of(d), covered.as_slice(),
                                "{:?} n_q={} dim={} t={} demo {}", kind, n_q, dim, t, d
                            );
                            for &q in covered {
                                inverse[q as usize].push(d as u32);
                            }
                        }
                        for (q, covering) in inverse.iter().enumerate() {
                            prop_assert_eq!(
                                table.candidates_of(q), covering.as_slice(),
                                "{:?} n_q={} dim={} t={} question {}", kind, n_q, dim, t, q
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn coverage_of_an_empty_side_is_an_empty_table() {
        for kind in [DistanceKind::Euclidean, DistanceKind::Cosine] {
            let none = FeatureSpace::from_vectors(vec![], kind);
            let some = FeatureSpace::from_vectors(vec![vec![0.5, 1.0], vec![1.5, 0.0]], kind);
            let no_questions = compute_coverage(&none, &some, 1.0);
            assert_eq!(
                (no_questions.n_candidates(), no_questions.n_elements()),
                (2, 0)
            );
            assert!((0..2).all(|d| no_questions.elements_of(d).is_empty()));
            let no_pool = compute_coverage(&some, &none, 1.0);
            assert_eq!((no_pool.n_candidates(), no_pool.n_elements()), (0, 2));
            assert!((0..2).all(|q| no_pool.candidates_of(q).is_empty()));
        }
    }

    #[test]
    fn empty_question_space_yields_empty_plans() {
        // Regression: the covering pivot window must not be built over an
        // empty question matrix (its dimension is 0, mismatching pool
        // rows). Every strategy returns an empty-but-valid plan.
        let questions = FeatureSpace::from_vectors(vec![], DistanceKind::Euclidean);
        let pool = FeatureSpace::from_vectors(vec![vec![0.5], vec![1.5]], DistanceKind::Euclidean);
        for strategy in SelectionStrategy::ALL {
            let plan = select_demonstrations(strategy, &questions, &pool, &[], PARAMS, |_| 1.0);
            assert!(plan.per_batch.is_empty(), "{strategy:?} invented batches");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_k_panics() {
        let (q, p) = spaces();
        let _ = select_demonstrations(
            SelectionStrategy::Fixed,
            &q,
            &p,
            &batches(),
            SelectionParams { k: 0, ..PARAMS },
            |_| 1.0,
        );
    }
}
