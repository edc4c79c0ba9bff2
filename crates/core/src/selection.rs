//! Demonstration selection (§IV): fixed, top-k-batch, top-k-question and
//! covering-based strategies.
//!
//! The relevance-driven strategies are distance sweeps over
//! question × pool, and run on the feature-matrix kernels: one-to-many
//! ranking distances (squared Euclidean — no `sqrt` in any hot loop) and
//! `select_nth_unstable` top-k instead of full sorts. Each batch's
//! result is a pure function of the two spaces.

use embed::matrix::{pairs_within, scan_rows_within};
use embed::PivotIndex;
use er_core::Rng;

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
///
/// The relevance strategies run the pieces the planner's memo shares
/// between design cells ([`crate::plan::plan_question_batches`]), built
/// here for one call: both top-k strategies fold every question's nearest
/// pool demos, covering reads its phase-1 demonstration set.
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
    assert!(params.k > 0, "k must be positive");
    match strategy {
        SelectionStrategy::Fixed => fixed(pool.len(), batches.len(), params),
        SelectionStrategy::TopKBatch => topk_batch(
            &NearestDemos::of(questions, pool, params.k),
            batches,
            params.k,
        ),
        SelectionStrategy::TopKQuestion => topk_question(
            &NearestDemos::of(questions, pool, params.k),
            batches,
            params.k,
        ),
        SelectionStrategy::Covering => {
            let set = CoverSet::build(questions, pool, params);
            cover_batches(questions, pool, batches, &set, demo_tokens)
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
    let mut rng = Rng::from_seed(params.seed);
    let k = params.k.min(pool_len);
    let mut indices: Vec<usize> = (0..pool_len).collect();
    // Partial Fisher-Yates: the first k slots become the sample.
    for i in 0..k {
        let j = rng.range(i..indices.len());
        indices.swap(i, j);
    }
    let demos: Vec<usize> = indices[..k].to_vec();
    SelectionPlan { per_batch: vec![demos.clone(); n_batches], labeled: demos, threshold: None }
}

/// Row count from which a metric index ([`embed::index`]) over those rows
/// pays for its build and its per-query pivot arithmetic: the nearest
/// lists index a *pool* of at least this many rows, the coverage sweep a
/// *question set* of at least this many. Below it one dense sweep over the
/// rows is already cache-resident. Both routes are bit-identical (the
/// index is exact), so the gate is a pure performance decision, read from
/// the input.
const INDEX_MIN_ROWS: usize = 512;

/// Row width from which the coverage sweep never indexes the questions:
/// at Table VII's DBLP-Scholar split (5,741 questions against 17,225
/// demos, 64-dim semantic rows) `pairs_within` took 352 ms on its
/// dot-product tile and 1,635 ms on the lane sweep without it, against
/// the one-pivot question index's 2,927 ms (the committed
/// `BENCH_planning.json`, `kernel_64` block), while at 4-dim rows the
/// sweep and the index were within 20% of each other.
const SWEEP_MIN_DIM: usize = 16;

/// The order every nearest list and every top-k fold ranks by: ranking
/// distance ascending, ties by pool index, and a NaN ranking distance —
/// which only a NaN or infinite coordinate produces — ranks as `+∞`, the
/// value `f64::min` folding from `+∞` gives a demo it never saw a number
/// for.
fn rank_order(a: &(f64, u32), b: &(f64, u32)) -> std::cmp::Ordering {
    let key = |v: f64| if v.is_nan() { f64::INFINITY } else { v };
    key(a.0).total_cmp(&key(b.0)).then(a.1.cmp(&b.1))
}

/// The first `k` of `scored` under [`rank_order`], in that order, found
/// via `select_nth_unstable` on the tail-partition instead of a full sort.
fn nearest_head(scored: &mut [(f64, u32)], k: usize) -> &[(f64, u32)] {
    if k < scored.len() {
        scored.select_nth_unstable_by(k, rank_order);
    }
    let head = &mut scored[..k];
    head.sort_unstable_by(rank_order);
    head
}

/// Every question's `k` nearest pool demos as `(ranking distance, pool
/// index)` in [`rank_order`], `k` clamped to the pool: what both top-k
/// strategies fold, whatever their `k` up to this one, so one table serves
/// every top-k design cell of a split.
///
/// A Euclidean pool of [`INDEX_MIN_ROWS`] rows or more is indexed and
/// asked one nearest query per question (the index's dot-trick values
/// never come out NaN, and it orders by `(value, id)`); otherwise each
/// question sweeps the pool densely and keeps the head of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NearestDemos {
    k: usize,
    /// Row-major, `k` entries per question.
    flat: Vec<(f64, u32)>,
}

impl NearestDemos {
    /// Builds the lists for every question of `questions`.
    pub(crate) fn of(questions: &FeatureSpace, pool: &FeatureSpace, k: usize) -> Self {
        let k = k.min(pool.len());
        let mut flat = Vec::with_capacity(questions.len() * k);
        let euclidean = matches!(questions.distance_kind(), DistanceKind::Euclidean);
        if k == 0 {
            // No pool: every list is empty.
        } else if euclidean && pool.len() >= INDEX_MIN_ROWS {
            let index = PivotIndex::build(pool.matrix());
            let mut knn: Vec<(f64, u32)> = Vec::with_capacity(k);
            for q in 0..questions.len() {
                index.nearest_into(questions.vector(q), k, &mut knn);
                flat.extend_from_slice(&knn);
            }
        } else {
            let mut dists = vec![0.0f64; pool.len()];
            let mut scored: Vec<(f64, u32)> = Vec::with_capacity(pool.len());
            for q in 0..questions.len() {
                questions.ranking_cross_dists(q, pool, &mut dists);
                scored.clear();
                scored.extend(dists.iter().enumerate().map(|(d, &v)| (v, d as u32)));
                flat.extend_from_slice(nearest_head(&mut scored, k));
            }
        }
        Self { k, flat }
    }

    /// Length of every list: the `k` asked for, clamped to the pool.
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// The first `k` of question `q`'s list.
    fn head(&self, q: usize, k: usize) -> &[(f64, u32)] {
        debug_assert!(k <= self.k);
        &self.flat[q * self.k..q * self.k + k]
    }
}

/// Every batch's labeled union, sorted and deduplicated.
fn plan_of(per_batch: Vec<Vec<usize>>) -> SelectionPlan {
    let mut labeled: Vec<usize> = per_batch.iter().flatten().copied().collect();
    labeled.sort_unstable();
    labeled.dedup();
    SelectionPlan { per_batch, labeled, threshold: None }
}

/// Top-k-batch (Eq. 6): per batch, the `k` demos with the smallest
/// `dist*(B, d) = min_{q∈B} dist(q, d)`, folded from the questions'
/// nearest lists.
///
/// The batch's top-k under the min-fold is contained in the union of the
/// per-question top-k lists: if `d`'s fold minimum is reached at question
/// `q` but `d` is outside `q`'s top-k, every member of `q`'s top-k folds
/// to a value preceding `d` under [`rank_order`], so `d` is outside the
/// batch top-k too. Folding only the listed (question, demo) values
/// therefore reproduces every batch-top-k value exactly; an unlisted value
/// can only overestimate a non-member, which cannot promote it. The fold
/// equals the dense one — every question's full sweep, min-folded per
/// demo — demo for demo and in the same order.
///
/// `nearest` must hold at least `k` (clamped to the pool) per question.
pub(crate) fn topk_batch(
    nearest: &NearestDemos,
    batches: &[Vec<usize>],
    k: usize,
) -> SelectionPlan {
    let k = k.min(nearest.k());
    let mut pairs: Vec<(u32, f64)> = Vec::new();
    let mut scored: Vec<(f64, u32)> = Vec::new();
    let demos_for = |batch: &Vec<usize>| -> Vec<usize> {
        if batch.is_empty() {
            // No question: every demo folds to +∞ and the lowest indices
            // win the ties, as the dense fold has it.
            return (0..k).collect();
        }
        pairs.clear();
        for &q in batch {
            pairs.extend(nearest.head(q, k).iter().map(|&(v, id)| (id, v)));
        }
        pairs.sort_unstable_by_key(|&(id, _)| id);
        scored.clear();
        for run in pairs.chunk_by(|a, b| a.0 == b.0) {
            // No listed value is NaN (see `rank_order`), so `min` is
            // exact and order-free.
            let best = run.iter().fold(f64::INFINITY, |best, &(_, v)| best.min(v));
            scored.push((best, run[0].0));
        }
        nearest_head(&mut scored, k)
            .iter()
            .map(|&(_, d)| d as usize)
            .collect()
    };
    plan_of(batches.iter().map(demos_for).collect())
}

/// Top-k-question (§IV-C): per batch, each question's nearest
/// `max(1, k / |B|)` demos — a prefix of its nearest list — unioned in
/// first-seen order.
///
/// `nearest` must hold at least `k` (clamped to the pool) per question.
pub(crate) fn topk_question(
    nearest: &NearestDemos,
    batches: &[Vec<usize>],
    k: usize,
) -> SelectionPlan {
    let demos_for = |batch: &Vec<usize>| -> Vec<usize> {
        // k per question so the per-batch total stays comparable to the
        // other strategies (Fig. 5 uses k = 1 at batch size 8).
        let k_q = (k / batch.len().max(1)).max(1).min(nearest.k());
        let mut demos: Vec<usize> = Vec::new();
        for &q in batch {
            for &(_, d) in nearest.head(q, k_q) {
                let d = d as usize;
                if !demos.contains(&d) {
                    demos.push(d);
                }
            }
        }
        demos
    };
    plan_of(batches.iter().map(demos_for).collect())
}

/// Phase-1 coverage: which questions each pool demo covers (distance
/// strictly below `t`), as a [`CoverTable`] whose candidates are pool
/// demos and whose elements are questions — both directions built here,
/// once, for every reader downstream.
///
/// A question set of [`INDEX_MIN_ROWS`] rows or more with rows narrower
/// than [`SWEEP_MIN_DIM`] is indexed and asked one radius query per pool
/// demo (the covering threshold is a *low* percentile, so triangle-bound
/// pruning is deep at that size). Otherwise — every served flush, every
/// design-space cell, and the semantic extractor's 64-dim rows at any size
/// — every (question, demo) pair is compared by
/// [`embed::matrix::pairs_within`], a cache block of pool rows at a time:
/// with a handful of questions the threshold is of the order of their own
/// spread, a large share of the pool lies inside it, and an index query
/// per pool demo pays pivot distances, a result vector and a sort to
/// verify rows it could have scanned; with wide rows the pivot bounds
/// prune too little to pay for themselves, and a dot-product tile decides
/// most pairs at a fraction of a distance's cost. Every verdict on either
/// route is [`scan_rows_within`]'s, whose `(a − b)²` does not depend on
/// which side is the query, so the verdict for a (demo, question) pair —
/// and every plan — is the same on either.
///
/// Covering's phase 1 reaches this sweep only when no pool row covers
/// every question (`CoverSet::build`): a served flush of two questions
/// almost never does.
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
    // Zero-width rows have no buffer for the kernel to stream; the index
    // answers them by rule.
    if euclidean && (dim == 0 || (n_q >= INDEX_MIN_ROWS && dim < SWEEP_MIN_DIM)) {
        let index = PivotIndex::build(questions.matrix());
        let mut by_demo = Rows::new();
        let mut hits: Vec<u32> = Vec::new();
        for d in 0..pool.len() {
            index.within_into(pool.matrix().row(d), t, true, &mut hits);
            by_demo.push_row(hits.iter().copied());
        }
        return CoverTable::from_candidate_rows(by_demo, n_q);
    }
    let t_rank = questions.ranking_threshold(t);
    let mut by_question = Rows::new();
    if euclidean {
        let mut covering: Vec<Vec<u32>> = vec![Vec::new(); n_q];
        pairs_within(questions.matrix(), pool.matrix(), t_rank, |q, d| {
            covering[q].push(d as u32);
        });
        for hits in covering {
            by_question.push_row(hits);
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

/// The highest-index pool row covering every question under `t`, with the
/// verdict [`compute_coverage`] reaches for each (demo, question) pair, or
/// `None` when no row does or there is no question to cover.
///
/// Rows are walked from the top down ([`top_down`]), left at their first
/// uncovered question: at a low-percentile threshold most rows miss the
/// first one, so a walk that finds nothing costs a little more than one
/// distance per pool row (189 four-row kernel calls for 600 rows on the
/// planning bench's 8-question flushes). Euclidean pairs run
/// [`scan_rows_within`] with the question as the query, as the dense sweep
/// does; zero-width rows, which the sweep leaves to the index, are left to
/// the table. Cosine pairs read the sweep's own per-question distance
/// rows, each computed when the walk first asks its question. The order
/// questions are asked in changes what the walk costs, never which row it
/// returns.
fn full_cover(questions: &FeatureSpace, pool: &FeatureSpace, t: f64) -> Option<usize> {
    let n_q = questions.len();
    let dim = questions.matrix().dim();
    let t_rank = questions.ranking_threshold(t);
    if n_q == 0 {
        return None;
    }
    match questions.distance_kind() {
        DistanceKind::Euclidean if dim == 0 => None,
        DistanceKind::Euclidean => top_down(pool.len(), n_q, |rows, q, hit| {
            let block = &pool.matrix().flat()[rows.start * dim..rows.end * dim];
            scan_rows_within::<true>(dim, questions.vector(q), block, t_rank, |k| hit[k] = true);
        }),
        DistanceKind::Cosine => {
            let mut dists: Vec<Vec<f64>> = vec![Vec::new(); n_q];
            top_down(pool.len(), n_q, |rows, q, hit| {
                if dists[q].is_empty() {
                    dists[q] = vec![0.0f64; pool.len()];
                    questions.ranking_cross_dists(q, pool, &mut dists[q]);
                }
                for (slot, &v) in hit.iter_mut().zip(&dists[q][rows]) {
                    *slot = v < t_rank;
                }
            })
        }
    }
}

/// Pool rows the walk asks about one question at a time: one tile of the
/// wide kernel, whose four rows accumulate side by side where one row
/// alone would wait on its own add chain.
const WALK_ROWS: usize = 4;

/// The highest `d < n_pool` that every `q < n_q` covers. Blocks of
/// [`WALK_ROWS`] rows go from the top down; `hits(rows, q, hit)` marks
/// `hit[k]` for each row `rows.start + k` that `q` covers, and a block
/// asks its questions until none of its rows is left.
fn top_down(
    n_pool: usize,
    n_q: usize,
    mut hits: impl FnMut(std::ops::Range<usize>, usize, &mut [bool]),
) -> Option<usize> {
    // The question that emptied the last block is asked first in the
    // next: the one a row most often fails.
    let mut order: Vec<usize> = (0..n_q).collect();
    let mut end = n_pool;
    while end > 0 {
        let start = end.saturating_sub(WALK_ROWS);
        let mut alive = [true; WALK_ROWS];
        let alive = &mut alive[..end - start];
        for i in 0..n_q {
            let mut hit = [false; WALK_ROWS];
            hits(start..end, order[i], &mut hit);
            for (a, h) in alive.iter_mut().zip(hit) {
                *a &= h;
            }
            if !alive.contains(&true) {
                order[..=i].rotate_right(1);
                break;
            }
        }
        if let Some(k) = alive.iter().rposition(|&a| a) {
            return Some(start + k);
        }
        end = start;
    }
    None
}

/// The covering strategy downstream of coverage computation: phase-1
/// greedy demonstration-set generation, the phase-2 per-batch weighted
/// cover, and the nearest-demo fallback for uncoverable batches.
/// `coverage` must satisfy the [`compute_coverage`] contract for the same
/// `questions`/`pool`/`t` — the output is a pure function of it, whatever
/// the order inside a row.
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
    let set = CoverSet::from_coverage(coverage, t);
    cover_batches(questions, pool, batches, &set, demo_tokens)
}

/// Covering's phase 1 as phase 2 reads it: the threshold, the
/// demonstration set covering every question, and each question's
/// covering members of that set — not the whole [`CoverTable`], which
/// phase 2 never reads past the set, so a memo holding this holds a few
/// hundred indices per split, not the table.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CoverSet {
    threshold: f64,
    /// Pool indices, in the order phase 1 picked them.
    demos: Vec<usize>,
    /// Row `q`: positions in `demos` of the demos covering question `q`.
    members: Rows,
}

impl CoverSet {
    /// Phase 1 from the questions' threshold: the greedy's sole pick when
    /// one pool row covers every question, else the greedy over the
    /// coverage sweep.
    ///
    /// [`greedy_unit_cover`] picks first the highest-index candidate of
    /// the largest gain. A row covering every question has the largest
    /// gain there is, and once it is picked nothing else adds coverage, so
    /// the set is that one row: [`full_cover`] finds it without the table.
    /// A served flush of two questions, whose threshold is their own
    /// distance, almost always ends there; a set that needs more rows costs
    /// the walk about one distance per pool row on top of the sweep.
    pub(crate) fn build(
        questions: &FeatureSpace,
        pool: &FeatureSpace,
        params: SelectionParams,
    ) -> Self {
        Self::with_threshold(questions, pool, covering_threshold(questions, params))
    }

    /// [`CoverSet::build`] at threshold `t`.
    fn with_threshold(questions: &FeatureSpace, pool: &FeatureSpace, t: f64) -> Self {
        if let Some(d) = full_cover(questions, pool, t) {
            let mut members = Rows::new();
            for _ in 0..questions.len() {
                members.push_row([0]);
            }
            return Self { threshold: t, demos: vec![d], members };
        }
        Self::from_coverage(&compute_coverage(questions, pool, t), t)
    }

    fn from_coverage(coverage: &CoverTable, t: f64) -> Self {
        // Phase 1 cover: one demonstration set covering all questions.
        let demos = greedy_unit_cover(coverage);
        let mut set_index = vec![u32::MAX; coverage.n_candidates()];
        for (di, &d) in demos.iter().enumerate() {
            set_index[d] = di as u32;
        }
        let mut members = Rows::new();
        for q in 0..coverage.n_elements() {
            let covering = coverage.candidates_of(q).iter();
            members.push_row(
                covering
                    .map(|&d| set_index[d as usize])
                    .filter(|&di| di != u32::MAX),
            );
        }
        Self { threshold: t, demos, members }
    }
}

/// Covering's phase 2 over a phase-1 [`CoverSet`]: per batch, the
/// cheapest (token-weighted) covering subset of the set, and the nearest
/// set member for a batch nothing covers.
pub(crate) fn cover_batches<W>(
    questions: &FeatureSpace,
    pool: &FeatureSpace,
    batches: &[Vec<usize>],
    set: &CoverSet,
    demo_tokens: W,
) -> SelectionPlan
where
    W: Fn(usize) -> f64,
{
    let demo_set = &set.demos;
    let demos_for = |batch: &Vec<usize>| {
        let mut by_question = Rows::new();
        for &q in batch {
            by_question.push_row(set.members.row(q).iter().copied());
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
                for (slot, &d) in mins.iter_mut().zip(demo_set) {
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
    SelectionPlan { per_batch, labeled: demo_set.clone(), threshold: Some(set.threshold) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embed::matrix::SWEEP_BLOCK_BYTES;
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
        let mut rng = Rng::from_seed(seed);
        (0..n)
            .map(|i| {
                let blob = (i % 5) as f64 * 2.0;
                (0..dim).map(|_| blob + rng.f64() * 0.7).collect()
            })
            .collect()
    }

    /// The `k` indices first under `(total_cmp, index)` of `scored`, by a
    /// full sort.
    fn top_k_indices(scored: &mut [(f64, usize)], k: usize) -> Vec<usize> {
        scored.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        scored.iter().take(k).map(|&(_, d)| d).collect()
    }

    /// Top-k-batch as the dense fold ran it before the nearest lists: per
    /// batch, every question's full sweep min-folded per demo from `+∞`,
    /// then the first `k` by `(value, index)`. Kept as the reference.
    fn dense_topk_batch(
        questions: &FeatureSpace,
        pool: &FeatureSpace,
        batches: &[Vec<usize>],
        k: usize,
    ) -> Vec<Vec<usize>> {
        let k = k.min(pool.len());
        batches
            .iter()
            .map(|batch| {
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
            })
            .collect()
    }

    /// Top-k-question as the dense sweep ran it: per question, its full
    /// sweep's first `max(1, k / |B|)` by `(value, index)`, unioned in
    /// first-seen order — a NaN value ranking as `+∞`, as `rank_order`
    /// has it.
    fn dense_topk_question(
        questions: &FeatureSpace,
        pool: &FeatureSpace,
        batches: &[Vec<usize>],
        k: usize,
    ) -> Vec<Vec<usize>> {
        batches
            .iter()
            .map(|batch| {
                let k_q = (k / batch.len().max(1)).max(1).min(pool.len());
                let mut demos: Vec<usize> = Vec::new();
                let mut buf = vec![0.0f64; pool.len()];
                for &q in batch {
                    questions.ranking_cross_dists(q, pool, &mut buf);
                    let nan_last = |v: f64| if v.is_nan() { f64::INFINITY } else { v };
                    let mut scored: Vec<(f64, usize)> = buf
                        .iter()
                        .enumerate()
                        .map(|(d, &v)| (nan_last(v), d))
                        .collect();
                    for d in top_k_indices(&mut scored, k_q) {
                        if !demos.contains(&d) {
                            demos.push(d);
                        }
                    }
                }
                demos
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

        let plan = select_demonstrations(
            SelectionStrategy::TopKBatch,
            &questions,
            &pool,
            &batches,
            params,
            |_| 1.0,
        );
        assert_eq!(
            plan.per_batch,
            dense_topk_batch(&questions, &pool, &batches, params.k)
        );
        let plan = select_demonstrations(
            SelectionStrategy::TopKQuestion,
            &questions,
            &pool,
            &batches,
            params,
            |_| 1.0,
        );
        assert_eq!(
            plan.per_batch,
            dense_topk_question(&questions, &pool, &batches, params.k)
        );

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
        let mut rng = Rng::from_seed(seed);
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
        for i in 0..n {
            let mut row: Vec<f64> = (0..dim)
                .map(|_| rng.range(0..17) as f64 * 0.25 - 2.0)
                .collect();
            if i % 7 == 6 {
                row = rows[rng.range(0..i)].clone();
            } else if i % 11 == 10 {
                row[rng.range(0..dim)] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][i % 3];
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// The nearest-list folds against the dense folds they replaced,
        /// no tolerance, on hostile rows (ties, repeats, NaN and ±∞ — which
        /// the cosine sweep turns into NaN distances): both metrics, pools
        /// on both sides of the index gate, `k` below, at and beyond the
        /// pool, uneven batches and an empty one — and one table of the
        /// largest `k` serving every smaller `k` by prefix, as the
        /// planner's memo serves it.
        #[test]
        fn nearest_folds_match_the_dense_folds(
            seed in any::<u64>(),
            dim in 1usize..9,
            n_pool in 1usize..40,
            ks in any::<u32>(),
        ) {
            let gate = INDEX_MIN_ROWS;
            for n_pool in [n_pool, gate - 1, gate + 3] {
                for kind in [DistanceKind::Euclidean, DistanceKind::Cosine] {
                    let questions = FeatureSpace::from_vectors(hostile_rows(23, dim, seed), kind);
                    let pool = FeatureSpace::from_vectors(hostile_rows(n_pool, dim, !seed), kind);
                    let mut order: Vec<usize> = (0..questions.len()).collect();
                    Rng::from_seed(seed).shuffle(&mut order);
                    let mut batches: Vec<Vec<usize>> =
                        [1, 8, 3, 8, 3].iter().scan(0, |at, &len| {
                            *at += len;
                            Some(order[*at - len..*at].to_vec())
                        }).collect();
                    batches.push(Vec::new());
                    let k_max = 1 + (ks as usize % 12);
                    let table = NearestDemos::of(&questions, &pool, k_max);
                    for k in [k_max, 1 + (ks as usize >> 8) % k_max] {
                        let what = format!("{kind:?} dim {dim} pool {n_pool} k {k} of {k_max}");
                        prop_assert_eq!(
                            topk_batch(&table, &batches, k).per_batch,
                            dense_topk_batch(&questions, &pool, &batches, k),
                            "top-k-batch, {}", what
                        );
                        prop_assert_eq!(
                            topk_question(&table, &batches, k).per_batch,
                            dense_topk_question(&questions, &pool, &batches, k),
                            "top-k-question, {}", what
                        );
                    }
                }
            }
        }
    }

    /// Covering's phase 1 as [`CoverSet::build`] runs it — stopping at a
    /// pool row that covers every question — against the greedy over the
    /// whole coverage table, compared on the whole plan with no tolerance:
    /// hostile rows, 1–8 questions, 1–48 pool rows, zero-width rows, every
    /// fixed-width kernel, the generic one and the 64-dim AVX one, both
    /// metrics, and `t` on a stored distance, off it, above every finite
    /// distance and at the questions' own percentile. Both routes must
    /// occur, or the comparison proved nothing about one of them.
    #[test]
    fn covering_stop_plans_what_the_table_plans() {
        let mut rng = proptest::TestRng::deterministic("selection::covering_stop");
        let (mut stopped, mut swept) = (0usize, 0usize);
        for case in 0..48 {
            let seed = any::<u64>().generate(&mut rng);
            let dim = match (0usize..15).generate(&mut rng) {
                14 => 64,
                dim => dim,
            };
            let n_q = (1usize..9).generate(&mut rng);
            let n_pool = (1usize..49).generate(&mut rng);
            let pick = any::<u32>().generate(&mut rng);
            let batches = vec![(0..n_q / 2).collect(), (n_q / 2..n_q).collect(), Vec::new()];
            let tokens = |d: usize| 1.0 + (d % 3) as f64;
            // `hostile_rows` plants its non-finite values in a column.
            let rows = |n: usize, seed: u64| match dim {
                0 => vec![Vec::new(); n],
                _ => hostile_rows(n, dim, seed),
            };
            for kind in [DistanceKind::Euclidean, DistanceKind::Cosine] {
                let questions = FeatureSpace::from_vectors(rows(n_q, seed), kind);
                let pool = FeatureSpace::from_vectors(rows(n_pool, !seed), kind);
                let pairs = (0..n_pool).flat_map(|d| (0..n_q).map(move |q| (d, q)));
                let finite: Vec<f64> = pairs
                    .map(|(d, q)| kind.distance(pool.vector(d), questions.vector(q)))
                    .filter(|v| v.is_finite())
                    .collect();
                let (d, q) = (pick as usize % n_pool, (pick >> 8) as usize % n_q);
                let stored = kind.distance(pool.vector(d), questions.vector(q));
                let above = finite.iter().fold(0.0f64, |m, &v| m.max(v)) + 1.0;
                let own = covering_threshold(&questions, SelectionParams::default());
                for t in [stored, 0.9, above, own] {
                    if t.is_nan() || t <= 0.0 {
                        continue; // a NaN/inf pair or a repeat: no threshold to place
                    }
                    let set = if t == own {
                        CoverSet::build(&questions, &pool, SelectionParams::default())
                    } else {
                        CoverSet::with_threshold(&questions, &pool, t)
                    };
                    let plan = cover_batches(&questions, &pool, &batches, &set, tokens);
                    let table = compute_coverage(&questions, &pool, t);
                    let want =
                        covering_with_coverage(&questions, &pool, &batches, &table, t, tokens);
                    assert_eq!(
                        plan, want,
                        "case {case}: {kind:?} n_q={n_q} pool={n_pool} dim={dim} t={t}"
                    );
                    match full_cover(&questions, &pool, t) {
                        Some(_) => stopped += 1,
                        None => swept += 1,
                    }
                }
            }
        }
        assert!(
            stopped > 0 && swept > 0,
            "only one route ran: {stopped} stopped at a full cover, {swept} swept the table"
        );
    }

    /// A pool several cache blocks long: the all-pairs route's hits keep
    /// their pool indices across block boundaries, in order — on the
    /// dot-product tile, where the CPU has it, hostile rows included.
    #[test]
    fn coverage_sweep_spans_cache_blocks() {
        for dim in [SWEEP_MIN_DIM + 1, 64] {
            let block_rows = SWEEP_BLOCK_BYTES / (dim * std::mem::size_of::<f64>());
            let n_pool = 2 * block_rows + 37;
            let questions =
                FeatureSpace::from_vectors(hostile_rows(9, dim, 5), DistanceKind::Euclidean);
            let pool =
                FeatureSpace::from_vectors(hostile_rows(n_pool, dim, 6), DistanceKind::Euclidean);
            // The median finite distance from the first question: some of
            // every block inside, some outside.
            let mut dists: Vec<f64> = (0..n_pool)
                .map(|d| DistanceKind::Euclidean.distance(questions.vector(0), pool.vector(d)))
                .filter(|v| v.is_finite())
                .collect();
            let mid = dists.len() / 2;
            let t = *dists.select_nth_unstable_by(mid, f64::total_cmp).1;
            let table = compute_coverage(&questions, &pool, t);
            let expect = brute_coverage(&questions, &pool, t);
            let hit =
                |block: std::ops::Range<usize>| block.filter(|&d| !expect[d].is_empty()).count();
            let (second, last) = (hit(block_rows..2 * block_rows), hit(2 * block_rows..n_pool));
            assert!(second > 0 && second < block_rows, "dim {dim}: {second}");
            assert!(last > 0 && last < 37, "dim {dim}: {last}");
            for (d, covered) in expect.iter().enumerate() {
                assert_eq!(
                    table.elements_of(d),
                    covered.as_slice(),
                    "dim {dim} demo {d}"
                );
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
