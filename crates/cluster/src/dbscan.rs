//! DBSCAN (Ester et al., KDD 1996) — the paper's default question
//! clustering algorithm.
//!
//! One semantics, two entry points:
//!
//! * [`dbscan`] — the reference implementation over `&[Vec<f64>]` with a
//!   pluggable distance function and brute-force O(n) region queries;
//!   the tests compare the production path against it.
//! * [`dbscan_matrix`] — the production path over a contiguous
//!   [`FeatureMatrix`] (Euclidean metric): an allocation-free
//!   **union-find** over the symmetric pair sweep of the exact metric
//!   index ([`embed::index`]) — a one-pivot key window in front of the
//!   same threshold-scan kernel, so every ε-verdict is the one a
//!   brute-force scan would reach.
//!
//! Both produce identical clusterings (the expansion's output is
//! order-free — see [`dbscan_matrix`] — which the tests pin).

use embed::index::PivotIndex;
use embed::matrix::FeatureMatrix;

use crate::Clustering;

/// DBSCAN parameters.
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

/// DBSCAN over a contiguous feature matrix under the Euclidean metric,
/// as union-find over the metric index's symmetric pair sweep. Produces
/// the same clustering as `dbscan(points, params, euclidean)`, pairs
/// exactly at ε included.
///
/// Equivalent to BFS expansion because the expansion's output is
/// order-free under the hood:
///
/// * core points cluster by ε-connectivity (a pure union-find problem);
/// * cluster ids follow founding order, and a cluster is always founded
///   by its minimum-id core point (any earlier core would have founded
///   it first), so ids are the rank of each component's min core id;
/// * a border point joins the **earliest-founded** cluster among its
///   core neighbors — clusters expand one at a time in founding order,
///   and whichever reaches the border first keeps it;
/// * leftovers become singleton clusters in id order.
///
/// Each unordered within-ε pair is visited twice (a counting pass to
/// decide core-ness, then a union/attach pass replayed from the recorded
/// verdict bits), which costs the distance work of one symmetric sweep
/// but touches no per-point allocation at all.
pub fn dbscan_matrix(matrix: &FeatureMatrix, params: DbscanParams) -> Clustering {
    let index = PivotIndex::build(matrix);
    let n = index.len();
    let min_pts = params.min_pts;

    // Pass 1: neighbor counts (self excluded here, included by `+ 1`),
    // recording the verdict stream for the replay pass.
    let mut counts = vec![0u32; n];
    let sweep = index.close_pairs(params.eps, &mut counts);
    let core: Vec<bool> = counts.iter().map(|&c| c as usize + 1 >= min_pts).collect();

    // Pass 2: union core pairs, record border→core adjacencies. A border
    // point has fewer than `min_pts` neighbors in total, so its core
    // list is tiny by definition.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            // Path halving.
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    let mut border: Vec<(u32, u32)> = Vec::new();
    index.replay_close_pairs(&sweep, &mut |a, b| {
        match (core[a as usize], core[b as usize]) {
            (true, true) => {
                let ra = find(&mut parent, a);
                let rb = find(&mut parent, b);
                if ra != rb {
                    // Smaller root id wins — any deterministic rule works,
                    // the component is what matters.
                    if ra < rb {
                        parent[rb as usize] = ra;
                    } else {
                        parent[ra as usize] = rb;
                    }
                }
            }
            (true, false) => border.push((b, a)),
            (false, true) => border.push((a, b)),
            (false, false) => {}
        }
    });

    // Labels: cores first (founding order = min-core-id order), then
    // borders (earliest-founded cluster among core neighbors), then
    // singletons in id order.
    const UNSET: usize = usize::MAX;
    let mut labels = vec![UNSET; n];
    let mut cluster_of_root = vec![UNSET; n];
    let mut next_cluster = 0usize;
    for i in 0..n {
        if core[i] {
            let root = find(&mut parent, i as u32) as usize;
            if cluster_of_root[root] == UNSET {
                cluster_of_root[root] = next_cluster;
                next_cluster += 1;
            }
            labels[i] = cluster_of_root[root];
        }
    }
    for &(b, c) in &border {
        let label = labels[c as usize];
        if labels[b as usize] == UNSET || label < labels[b as usize] {
            labels[b as usize] = label;
        }
    }
    for label in labels.iter_mut() {
        if *label == UNSET {
            *label = next_cluster;
            next_cluster += 1;
        }
    }
    Clustering { assignment: labels, n_clusters: next_cluster }
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
        let params = DbscanParams { eps: 0.5, min_pts: 3 };
        let c = dbscan(&[], params, euclidean);
        assert_eq!(c.n_clusters, 0);
        assert!(c.assignment.is_empty());
        let m = dbscan_matrix(&FeatureMatrix::from_rows(vec![]), params);
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
                for min_pts in [1usize, 3, 6] {
                    let params = DbscanParams { eps, min_pts };
                    let brute = dbscan(&pts, params, euclidean);
                    let fast = dbscan_matrix(&matrix, params);
                    assert_eq!(
                        brute, fast,
                        "n={n} dim={dim} eps={eps} min_pts={min_pts} diverged"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The matrix path — the union-find over the pair sweep — against
        /// the brute-force reference, on the shapes a scattered fixture
        /// never hits: coordinates and ε are multiples of 0.5, so
        /// duplicate rows are common and many pairs sit **exactly** at ε
        /// with exactly representable distances (0.5 apart on an axis,
        /// 3-4-5 triangles), and `min_pts` spans everything-is-core (1),
        /// pair-is-core (2), and nothing-is-core (n + 1).
        #[test]
        fn matrix_path_matches_brute_force_on_grids(
            cells in prop::collection::vec(0u8..6, 1..120),
            dim in 1usize..4,
            eps_steps in 1u8..6,
            min_pts_pick in 0usize..4,
        ) {
            let pts: Vec<Vec<f64>> = cells
                .chunks_exact(dim)
                .map(|c| c.iter().map(|&v| f64::from(v) * 0.5).collect())
                .collect();
            let n = pts.len();
            let min_pts = [1, 2, 3, n + 1][min_pts_pick];
            let params = DbscanParams { eps: f64::from(eps_steps) * 0.5, min_pts };
            let matrix = FeatureMatrix::from_rows(pts.clone());
            let brute = dbscan(&pts, params, euclidean);
            prop_assert_eq!(&dbscan_matrix(&matrix, params), &brute);
        }
    }
}
