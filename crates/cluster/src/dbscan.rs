//! DBSCAN (Ester et al., KDD 1996) — the paper's default question
//! clustering algorithm.
//!
//! One semantics, two entry points:
//!
//! * [`dbscan`] — the reference implementation over `&[Vec<f64>]` with a
//!   pluggable distance function, any `min_pts` and brute-force O(n)
//!   region queries; the tests compare the production path against it.
//! * [`dbscan_matrix`] — the production path over a contiguous
//!   [`FeatureMatrix`] (Euclidean metric) at [`MIN_PTS`]: one
//!   **union-find** pass over the symmetric pair sweep of the exact
//!   metric index ([`embed::index`]) — a one-pivot key window in front
//!   of the same threshold-scan kernel, so every ε-verdict is the one a
//!   brute-force scan would reach.
//!
//! Both produce identical clusterings at [`MIN_PTS`], which the tests
//! pin.

use embed::index::PivotIndex;
use embed::matrix::FeatureMatrix;

use crate::Clustering;

/// `min_pts` of the production path: a point with two others within ε
/// is a core point. A point that is not core then has at most one
/// neighbour, which is what lets [`dbscan_matrix`] run in one pass.
pub const MIN_PTS: usize = 3;

/// DBSCAN parameters of the reference [`dbscan`].
#[derive(Debug, Clone, Copy)]
pub struct DbscanParams {
    /// Neighborhood radius ε.
    pub eps: f64,
    /// Minimum neighborhood size (including the point itself) for a core
    /// point.
    pub min_pts: usize,
}

/// Runs DBSCAN over `points` with distance function `dist` (brute-force
/// region queries; the [`dbscan_matrix`] kernel path is preferred for
/// Euclidean workloads).
///
/// Noise points are **not** discarded: each becomes its own singleton
/// cluster, appended after the density clusters. The batching stage must
/// place every question in some batch, so a total assignment is part of
/// this function's contract.
pub fn dbscan<D>(points: &[Vec<f64>], params: DbscanParams, dist: D) -> Clustering
where
    D: Fn(&[f64], &[f64]) -> f64,
{
    let n = points.len();
    assert!(n < u32::MAX as usize, "point count exceeds index width");
    expand_clusters(n, params.min_pts, |i| {
        (0..n as u32)
            .filter(|&j| dist(&points[i], &points[j as usize]) <= params.eps)
            .collect()
    })
}

/// DBSCAN at [`MIN_PTS`] over a contiguous feature matrix under the
/// Euclidean metric, in one union-find pass over the metric index's
/// symmetric pair sweep. Produces the same clustering as
/// `dbscan(points, DbscanParams { eps, min_pts: MIN_PTS }, euclidean)`,
/// pairs exactly at ε included.
///
/// Every close pair adds to both degrees and is unioned. At
/// `MIN_PTS = 3` a point that is not core has at most one neighbour, so
/// it never links two points: the core points of a component are
/// ε-connected through core points alone, and each non-core member
/// hangs off the one core point it neighbours, so it is a border point
/// of that cluster and of no other. A non-core point whose one neighbour
/// is not core either forms a component of two without a core. Hence:
///
/// * a component holding a core point is one cluster, numbered in
///   founding order — the order of its smallest core id, since a BFS
///   expansion founds each cluster from its minimum-id core point;
/// * every point of a component without a core point is noise, a
///   singleton numbered after the clusters in id order.
pub fn dbscan_matrix(matrix: &FeatureMatrix, eps: f64) -> Clustering {
    const _: () = assert!(MIN_PTS <= 3, "the one-pass rule needs non-core degree ≤ 1");
    let index = PivotIndex::build(matrix);
    let n = index.len();
    let mut degrees = vec![0u32; n];
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            // Path halving.
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    index.for_close_pairs(eps, |a, b| {
        degrees[a as usize] += 1;
        degrees[b as usize] += 1;
        // Smaller root id wins — any deterministic rule works, the
        // component is what matters.
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        parent[ra.max(rb) as usize] = ra.min(rb);
    });

    // Clusters in founding order, then singletons in id order.
    const UNSET: usize = usize::MAX;
    let mut cluster_of_root = vec![UNSET; n];
    let mut next_cluster = 0usize;
    for (i, &degree) in degrees.iter().enumerate() {
        if degree as usize + 1 >= MIN_PTS {
            let root = find(&mut parent, i as u32) as usize;
            if cluster_of_root[root] == UNSET {
                cluster_of_root[root] = next_cluster;
                next_cluster += 1;
            }
        }
    }
    let mut assignment = Vec::with_capacity(n);
    for i in 0..n {
        let root = find(&mut parent, i as u32) as usize;
        assignment.push(match cluster_of_root[root] {
            UNSET => {
                next_cluster += 1;
                next_cluster - 1
            }
            cluster => cluster,
        });
    }
    Clustering { assignment, n_clusters: next_cluster }
}

/// The expansion behind [`dbscan`]: BFS from each unvisited core point,
/// border points join the first cluster that reaches them, leftovers
/// become singleton clusters.
///
/// The queue admits only still-unlabeled points (a point already in some
/// cluster can never be relabeled, so enqueueing it was always dead
/// work); with percentile-derived ε the neighbor volume is Θ(n²·density)
/// while the queue now stays O(n) per cluster.
fn expand_clusters<N>(n: usize, min_pts: usize, mut neighbors: N) -> Clustering
where
    N: FnMut(usize) -> Vec<u32>,
{
    const UNVISITED: usize = usize::MAX;
    const NOISE: usize = usize::MAX - 1;

    let mut labels = vec![UNVISITED; n];
    let mut next_cluster = 0usize;
    let mut queue: Vec<u32> = Vec::new();

    for i in 0..n {
        if labels[i] != UNVISITED {
            continue;
        }
        let seeds = neighbors(i);
        if seeds.len() < min_pts {
            labels[i] = NOISE;
            continue;
        }
        // i is a core point: start a new cluster and expand.
        let cid = next_cluster;
        next_cluster += 1;
        labels[i] = cid;
        queue.clear();
        queue.extend(
            seeds
                .iter()
                .filter(|&&p| matches!(labels[p as usize], UNVISITED | NOISE)),
        );
        let mut qi = 0;
        while qi < queue.len() {
            let p = queue[qi] as usize;
            qi += 1;
            if labels[p] == NOISE {
                // Border point reachable from a core point.
                labels[p] = cid;
            }
            if labels[p] != UNVISITED {
                continue;
            }
            labels[p] = cid;
            let p_neighbors = neighbors(p);
            if p_neighbors.len() >= min_pts {
                queue.extend(
                    p_neighbors
                        .iter()
                        .filter(|&&q| matches!(labels[q as usize], UNVISITED | NOISE)),
                );
            }
        }
    }

    // Promote remaining noise points to singleton clusters.
    for label in labels.iter_mut() {
        if *label == NOISE || *label == UNVISITED {
            *label = next_cluster;
            next_cluster += 1;
        }
    }

    Clustering { assignment: labels, n_clusters: next_cluster }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euclidean;
    use proptest::prelude::*;

    /// Two tight blobs far apart plus one outlier.
    fn blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..5 {
            pts.push(vec![0.0 + i as f64 * 0.01, 0.0]);
        }
        for i in 0..5 {
            pts.push(vec![10.0 + i as f64 * 0.01, 10.0]);
        }
        pts.push(vec![100.0, -100.0]); // outlier
        pts
    }

    #[test]
    fn separates_blobs_and_isolates_outlier() {
        let c = dbscan(&blobs(), DbscanParams { eps: 0.5, min_pts: 3 }, euclidean);
        assert!(c.is_consistent());
        assert_eq!(c.n_clusters, 3);
        // First five together, next five together, outlier alone.
        assert!(c.assignment[..5].iter().all(|&x| x == c.assignment[0]));
        assert!(c.assignment[5..10].iter().all(|&x| x == c.assignment[5]));
        assert_ne!(c.assignment[0], c.assignment[5]);
        assert_ne!(c.assignment[10], c.assignment[0]);
        assert_ne!(c.assignment[10], c.assignment[5]);
    }

    #[test]
    fn everything_noise_when_eps_tiny() {
        let c = dbscan(&blobs(), DbscanParams { eps: 1e-9, min_pts: 2 }, euclidean);
        assert!(c.is_consistent());
        assert_eq!(c.n_clusters, blobs().len());
    }

    #[test]
    fn one_cluster_when_eps_huge() {
        let c = dbscan(&blobs(), DbscanParams { eps: 1e6, min_pts: 2 }, euclidean);
        assert!(c.is_consistent());
        assert_eq!(c.n_clusters, 1);
    }

    #[test]
    fn empty_input() {
        let params = DbscanParams { eps: 0.5, min_pts: MIN_PTS };
        let c = dbscan(&[], params, euclidean);
        assert_eq!(c.n_clusters, 0);
        assert!(c.assignment.is_empty());
        let m = dbscan_matrix(&FeatureMatrix::from_rows(vec![]), 0.5);
        assert_eq!(m.n_clusters, 0);
    }

    #[test]
    fn single_point_is_singleton() {
        let c = dbscan(
            &[vec![1.0, 2.0]],
            DbscanParams { eps: 0.5, min_pts: 3 },
            euclidean,
        );
        assert_eq!(c.n_clusters, 1);
        assert_eq!(c.assignment, vec![0]);
    }

    #[test]
    fn border_points_join_cluster() {
        // A line of points each 0.4 apart: with eps=0.5, min_pts=3, interior
        // points are core; the chain should form one cluster.
        let pts: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 0.4]).collect();
        let c = dbscan(&pts, DbscanParams { eps: 0.5, min_pts: 3 }, euclidean);
        assert!(c.is_consistent());
        assert_eq!(c.n_clusters, 1);
    }

    #[test]
    fn total_assignment_always() {
        // Every point receives a valid cluster id, whatever the params.
        for min_pts in [1usize, 2, 5, 20] {
            for eps in [0.01, 0.5, 3.0] {
                let c = dbscan(&blobs(), DbscanParams { eps, min_pts }, euclidean);
                assert!(c.is_consistent(), "eps={eps} min_pts={min_pts}");
                assert_eq!(c.assignment.len(), blobs().len());
            }
        }
    }

    /// Clusters `points` at ε = 0.5 and [`MIN_PTS`] on both paths and
    /// asserts each gives exactly `want`. A labeller that numbered every
    /// union component as a cluster fails each case below, by
    /// membership or by numbering: a component without a core point is
    /// noise, and its singletons come after every cluster.
    fn assert_one_pass(points: &[f64], want: &[usize]) {
        let rows: Vec<Vec<f64>> = points.iter().map(|&x| vec![x]).collect();
        let params = DbscanParams { eps: 0.5, min_pts: MIN_PTS };
        let reference = dbscan(&rows, params, euclidean);
        let matrix = dbscan_matrix(&FeatureMatrix::from_rows(rows), 0.5);
        assert_eq!(reference.assignment, want, "reference");
        assert_eq!(matrix, reference, "matrix path");
    }

    #[test]
    fn a_close_pair_without_a_core_is_two_singletons() {
        // 0 and 1 are each other's only neighbour (degree 1): noise. The
        // chain 2..=4 is a cluster, numbered first.
        assert_one_pass(&[0.0, 0.3, 10.0, 10.4, 10.8], &[1, 2, 0, 0, 0]);
    }

    #[test]
    fn a_degree_one_point_joins_its_core_neighbour() {
        // 0 is a loner; 1 and 3 have one neighbour each, the core point 2
        // (degree 2), whose cluster they join. The cluster is numbered
        // before the loner.
        assert_one_pass(&[-50.0, 0.0, 0.4, 0.8], &[1, 0, 0, 0]);
    }

    #[test]
    fn a_degree_two_bridge_is_core_and_merges_two_blobs() {
        // 0 and 1 are a close pair without a core. The bridge 5 (at 0.65)
        // neighbours only 4 (at 0.2) and 6 (at 1.1): degree 2, so core,
        // and both blobs are one cluster.
        let points = [-40.0, -40.3, 0.0, 0.1, 0.2, 0.65, 1.1, 1.2, 1.3];
        assert_one_pass(&points, &[1, 2, 0, 0, 0, 0, 0, 0, 0]);
        // One more point to be core, and the bridge only borders a blob.
        let rows: Vec<Vec<f64>> = points.iter().map(|&x| vec![x]).collect();
        let c = dbscan(&rows, DbscanParams { eps: 0.5, min_pts: 4 }, euclidean);
        assert_ne!(c.assignment[2], c.assignment[8]);
    }

    /// Deterministic pseudo-random points: three latent blobs plus a
    /// scatter of loners, the shape where pivot pruning has to work.
    fn scattered(n: usize, dim: usize) -> Vec<Vec<f64>> {
        let mut rng = er_core::Rng::from_seed(0x9E37_79B9);
        (0..n)
            .map(|i| {
                let blob = (i % 4) as f64 * 2.5;
                (0..dim).map(|_| blob + rng.f64() * 0.8).collect()
            })
            .collect()
    }

    #[test]
    fn matrix_path_matches_brute_force() {
        for (n, dim) in [
            (1usize, 3usize),
            (7, 2),
            (60, 3),
            (150, 8),
            (300, 5),
            (200, 16),
            (200, 64),
        ] {
            let pts = scattered(n, dim);
            let matrix = FeatureMatrix::from_rows(pts.clone());
            for eps in [0.2, 0.7, 1.5, 4.0] {
                let brute = dbscan(&pts, DbscanParams { eps, min_pts: MIN_PTS }, euclidean);
                let fast = dbscan_matrix(&matrix, eps);
                assert_eq!(brute, fast, "n={n} dim={dim} eps={eps} diverged");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The matrix path — the union-find over the pair sweep — against
        /// the brute-force reference at [`MIN_PTS`], on the shapes a
        /// scattered fixture never hits: coordinates and ε are multiples
        /// of 0.5, so duplicate rows are common and many pairs sit
        /// **exactly** at ε with exactly representable distances (0.5
        /// apart on an axis, 3-4-5 triangles), and sparse grids leave
        /// close pairs and chains without a core point.
        #[test]
        fn matrix_path_matches_brute_force_on_grids(
            cells in prop::collection::vec(0u8..6, 1..120),
            dim in 1usize..4,
            eps_steps in 1u8..6,
        ) {
            let pts: Vec<Vec<f64>> = cells
                .chunks_exact(dim)
                .map(|c| c.iter().map(|&v| f64::from(v) * 0.5).collect())
                .collect();
            let eps = f64::from(eps_steps) * 0.5;
            let matrix = FeatureMatrix::from_rows(pts.clone());
            let brute = dbscan(&pts, DbscanParams { eps, min_pts: MIN_PTS }, euclidean);
            prop_assert_eq!(&dbscan_matrix(&matrix, eps), &brute);
        }
    }
}
