//! Question batching (§III): random, similarity-based and diversity-based
//! strategies over clustered questions.

use cluster::{dbscan_matrix, kmeans_matrix, Clustering, KMeansParams};
use er_core::Rng;

use crate::features::FeatureSpace;

/// The three batching strategies of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatchingStrategy {
    /// Uniform random batches (the middle ground, §III-A).
    Random,
    /// Batches drawn from within one cluster at a time.
    Similarity,
    /// Batches spanning `b` different clusters — the paper's winner.
    Diversity,
}

impl BatchingStrategy {
    /// All strategies in Table IV column order.
    pub const ALL: [BatchingStrategy; 3] = [
        BatchingStrategy::Random,
        BatchingStrategy::Similarity,
        BatchingStrategy::Diversity,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BatchingStrategy::Random => "Random",
            BatchingStrategy::Similarity => "Similarity",
            BatchingStrategy::Diversity => "Diversity",
        }
    }
}

/// Clustering algorithm for the batching stage. The paper uses DBSCAN
/// ("the algorithm achieves the best performance", §III); K-Means is the
/// ablation alternative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusteringKind {
    /// DBSCAN with ε at the [`DBSCAN_EPS_PERCENTILE`]th percentile of
    /// pairwise distances and `min_pts` = [`DBSCAN_MIN_PTS`] (3). The
    /// paper does not publish its ε; the 15th percentile recovers compact
    /// per-pattern clusters on all eight benchmarks.
    Dbscan,
    /// K-Means with `k = ceil(n / batch_size)`.
    KMeans,
}

/// `min_pts` of the DBSCAN batching stage, the `cluster` crate's
/// [`cluster::MIN_PTS`]: a question with two others within ε is a core
/// point.
pub const DBSCAN_MIN_PTS: usize = cluster::MIN_PTS;

/// Percentile of pairwise question distances defining the DBSCAN ε.
pub const DBSCAN_EPS_PERCENTILE: f64 = 15.0;

/// Groups the question set into batches of (at most) `batch_size`.
///
/// Every question lands in exactly one batch, and every batch except
/// possibly stragglers has exactly `batch_size` members — the union of all
/// batches must equal the question set (§II-C).
pub fn make_batches(
    space: &FeatureSpace,
    strategy: BatchingStrategy,
    clustering: ClusteringKind,
    batch_size: usize,
    seed: u64,
) -> Vec<Vec<usize>> {
    // Checked again in batches_for_clustering, but asserted here first so
    // a zero batch size fails by name before any clustering work runs.
    assert!(batch_size > 0, "batch size must be positive");
    let clusters = (strategy != BatchingStrategy::Random)
        .then(|| cluster_questions(space, clustering, batch_size, seed));
    batches_for_clustering(space.len(), clusters.as_ref(), strategy, batch_size, seed)
}

/// The batch-assembly half of [`make_batches`]: groups `0..n` questions
/// into batches given an already-computed clustering (`None` is accepted
/// for — and only for — the random strategy, which ignores clusters).
///
/// Split out so the planner can skip clustering for random batching, and
/// so a caller can time clustering and assembly apart.
pub fn batches_for_clustering(
    n: usize,
    clusters: Option<&Clustering>,
    strategy: BatchingStrategy,
    batch_size: usize,
    seed: u64,
) -> Vec<Vec<usize>> {
    assert!(batch_size > 0, "batch size must be positive");
    if n == 0 {
        return Vec::new();
    }
    let mut rng = Rng::from_seed(seed);
    match strategy {
        BatchingStrategy::Random => {
            let mut order: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut order);
            order.chunks(batch_size).map(<[usize]>::to_vec).collect()
        }
        BatchingStrategy::Similarity => {
            let clusters = clusters.expect("similarity batching requires a clustering");
            assert_eq!(clusters.assignment.len(), n, "clustering size mismatch");
            similarity_batches(clusters, batch_size, &mut rng)
        }
        BatchingStrategy::Diversity => {
            let clusters = clusters.expect("diversity batching requires a clustering");
            assert_eq!(clusters.assignment.len(), n, "clustering size mismatch");
            diversity_batches(clusters, batch_size)
        }
    }
}

/// Runs the configured clustering algorithm over question features.
pub fn cluster_questions(
    space: &FeatureSpace,
    clustering: ClusteringKind,
    batch_size: usize,
    seed: u64,
) -> Clustering {
    match clustering {
        ClusteringKind::Dbscan => {
            let eps = space
                .distance_percentile(DBSCAN_EPS_PERCENTILE, 200_000, seed)
                .max(1e-9);
            // Clustering always runs Euclidean over the contiguous matrix
            // (pivot-pruned region queries); only ε derives from the
            // space's configured distance.
            dbscan_matrix(space.matrix(), eps)
        }
        ClusteringKind::KMeans => {
            let k = space.len().div_ceil(batch_size).max(1);
            kmeans_matrix(space.matrix(), KMeansParams { k, max_iters: 30, seed })
        }
    }
}

/// Similarity-based batching (§III-A): fill batches from one cluster at a
/// time, largest first. End-game per the paper: take the largest remaining
/// cluster `Cmax`, look for a cluster of size exactly `b − |Cmax|` to
/// complete the batch; otherwise random-fill from the next largest.
fn similarity_batches(clusters: &Clustering, b: usize, rng: &mut Rng) -> Vec<Vec<usize>> {
    // Work queue of clusters as index lists, kept sorted by size (desc).
    let mut remaining: Vec<Vec<usize>> = clusters
        .groups()
        .into_iter()
        .filter(|g| !g.is_empty())
        .collect();
    let mut batches = Vec::new();

    loop {
        remaining.sort_by_key(|c| std::cmp::Reverse(c.len()));
        remaining.retain(|c| !c.is_empty());
        let Some(largest) = remaining.first_mut() else {
            break;
        };

        if largest.len() >= b {
            // Whole batch from one cluster.
            let batch: Vec<usize> = largest.drain(..b).collect();
            batches.push(batch);
            continue;
        }
        // End game: largest cluster is smaller than b.
        let mut batch = std::mem::take(largest);
        remaining.remove(0);
        let need = b - batch.len();
        // Prefer a cluster of exactly the complementary size.
        if let Some(pos) = remaining.iter().position(|c| c.len() == need) {
            batch.extend(remaining.remove(pos));
        } else if let Some(next) = remaining.first_mut() {
            // Otherwise random-fill from the next largest cluster.
            for _ in 0..need.min(next.len()) {
                let pick = rng.range(0..next.len());
                batch.push(next.swap_remove(pick));
            }
        }
        batches.push(batch);
    }
    batches
}

/// Diversity-based batching (§III-A): one question from each of `b`
/// distinct clusters per batch; when fewer than `b` clusters remain,
/// round-robin over what is left (Example 4's final-batch semantics).
fn diversity_batches(clusters: &Clustering, b: usize) -> Vec<Vec<usize>> {
    let mut remaining: Vec<Vec<usize>> = clusters
        .groups()
        .into_iter()
        .filter(|g| !g.is_empty())
        .collect();
    let mut batches = Vec::new();
    while remaining.iter().any(|c| !c.is_empty()) {
        // Largest-first keeps cluster sizes balanced as batches drain them.
        remaining.sort_by_key(|c| std::cmp::Reverse(c.len()));
        let mut batch = Vec::with_capacity(b);
        if remaining.len() >= b {
            for cluster in remaining.iter_mut().take(b) {
                if let Some(q) = cluster.pop() {
                    batch.push(q);
                }
            }
        } else {
            // Round-robin over the remaining clusters until the batch
            // fills or everything drains.
            let mut ci = 0usize;
            while batch.len() < b && remaining.iter().any(|c| !c.is_empty()) {
                let idx = ci % remaining.len();
                if let Some(q) = remaining[idx].pop() {
                    batch.push(q);
                }
                ci += 1;
            }
        }
        remaining.retain(|c| !c.is_empty());
        if !batch.is_empty() {
            batches.push(batch);
        }
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::DistanceKind;

    /// Feature space with three obvious clusters of sizes 2 / 3 / 4
    /// (mirrors Example 4 of the paper).
    fn example4_space() -> FeatureSpace {
        let mut v = Vec::new();
        for i in 0..2 {
            v.push(vec![0.0 + i as f64 * 0.001, 0.0]);
        }
        for i in 0..3 {
            v.push(vec![5.0 + i as f64 * 0.001, 5.0]);
        }
        for i in 0..4 {
            v.push(vec![10.0 + i as f64 * 0.001, 0.0]);
        }
        FeatureSpace::from_vectors(v, DistanceKind::Euclidean)
    }

    fn assert_partition(batches: &[Vec<usize>], n: usize) {
        let mut seen: Vec<usize> = batches.iter().flatten().copied().collect();
        seen.sort_unstable();
        let expect: Vec<usize> = (0..n).collect();
        assert_eq!(seen, expect, "batches do not partition the question set");
    }

    #[test]
    fn random_batches_partition() {
        let space = example4_space();
        let batches = make_batches(
            &space,
            BatchingStrategy::Random,
            ClusteringKind::Dbscan,
            4,
            1,
        );
        assert_partition(&batches, 9);
        assert_eq!(batches[0].len(), 4);
        assert_eq!(batches.last().unwrap().len(), 1);
    }

    /// The clustering of Example 4: Ca = {0,1}, Cb = {2,3,4},
    /// Cc = {5,6,7,8}.
    fn example4_clusters() -> Clustering {
        Clustering { assignment: vec![0, 0, 1, 1, 1, 2, 2, 2, 2], n_clusters: 3 }
    }

    fn cluster_of(q: usize) -> usize {
        match q {
            0 | 1 => 0,
            2..=4 => 1,
            _ => 2,
        }
    }

    #[test]
    fn similarity_batches_follow_example4() {
        // Strategy semantics are tested against the paper's hand clustering
        // so the assertion does not depend on DBSCAN's discovery behavior.
        let mut rng = Rng::from_seed(1);
        let batches = similarity_batches(&example4_clusters(), 3, &mut rng);
        assert_partition(&batches, 9);
        // Example 4(1): Cb and the first 3 of Cc each form intra-cluster
        // batches; the final batch merges Ca with the Cc leftover.
        let intra = batches
            .iter()
            .filter(|b| {
                let c0 = cluster_of(b[0]);
                b.iter().all(|&q| cluster_of(q) == c0)
            })
            .count();
        assert!(intra >= 2, "expected ≥2 intra-cluster batches: {batches:?}");
        // The end-game batch combines the size-2 cluster Ca with exactly
        // one leftover element (2 + 1 = b).
        let mixed: Vec<&Vec<usize>> = batches
            .iter()
            .filter(|b| {
                let c0 = cluster_of(b[0]);
                !b.iter().all(|&q| cluster_of(q) == c0)
            })
            .collect();
        assert_eq!(
            mixed.len(),
            1,
            "exactly one end-game batch expected: {batches:?}"
        );
    }

    #[test]
    fn diversity_batches_follow_example4() {
        let batches = diversity_batches(&example4_clusters(), 3);
        assert_partition(&batches, 9);
        // Example 4(2): the first two batches take one question from each
        // of the three clusters.
        for batch in batches.iter().take(2) {
            let mut hit: Vec<usize> = batch.iter().map(|&q| cluster_of(q)).collect();
            hit.sort_unstable();
            hit.dedup();
            assert_eq!(hit.len(), 3, "batch not fully diverse: {batch:?}");
        }
    }

    #[test]
    fn make_batches_with_dbscan_partitions_regardless_of_clusters() {
        let space = example4_space();
        for strategy in [BatchingStrategy::Similarity, BatchingStrategy::Diversity] {
            let batches = make_batches(&space, strategy, ClusteringKind::Dbscan, 3, 1);
            assert_partition(&batches, 9);
        }
    }

    #[test]
    fn kmeans_clustering_also_works() {
        let space = example4_space();
        let batches = make_batches(
            &space,
            BatchingStrategy::Diversity,
            ClusteringKind::KMeans,
            3,
            7,
        );
        assert_partition(&batches, 9);
    }

    #[test]
    fn empty_question_set() {
        let space = FeatureSpace::from_vectors(vec![], DistanceKind::Euclidean);
        assert!(make_batches(
            &space,
            BatchingStrategy::Random,
            ClusteringKind::Dbscan,
            8,
            1
        )
        .is_empty());
    }

    #[test]
    fn batch_size_one_degenerates_to_singletons() {
        let space = example4_space();
        let batches = make_batches(
            &space,
            BatchingStrategy::Diversity,
            ClusteringKind::Dbscan,
            1,
            1,
        );
        assert_eq!(batches.len(), 9);
        assert!(batches.iter().all(|b| b.len() == 1));
    }

    #[test]
    fn deterministic_in_seed() {
        let space = example4_space();
        for strategy in BatchingStrategy::ALL {
            let a = make_batches(&space, strategy, ClusteringKind::Dbscan, 4, 3);
            let b = make_batches(&space, strategy, ClusteringKind::Dbscan, 4, 3);
            assert_eq!(a, b, "{strategy:?} not deterministic");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_batch_size_panics() {
        let space = example4_space();
        let _ = make_batches(
            &space,
            BatchingStrategy::Random,
            ClusteringKind::Dbscan,
            0,
            1,
        );
    }

    #[test]
    fn no_batch_exceeds_size() {
        let space = example4_space();
        for strategy in BatchingStrategy::ALL {
            for b in [2usize, 3, 5, 8] {
                let batches = make_batches(&space, strategy, ClusteringKind::Dbscan, b, 11);
                assert!(
                    batches.iter().all(|batch| batch.len() <= b),
                    "{strategy:?} b={b} produced oversized batch"
                );
                assert_partition(&batches, 9);
            }
        }
    }
}
