//! K-Means with kmeans++ initialization (ablation alternative to DBSCAN).
//!
//! One implementation over a contiguous [`FeatureMatrix`]
//! ([`kmeans_matrix`]): the Lloyd assignment step — the O(n·k·dim) hot
//! loop — scores centroids with the dot trick
//! (`argmin ‖x − c‖² = argmin ‖c‖² − 2·x·c`, the `‖x‖²` term being
//! constant per point); the update step accumulates centroid sums in
//! input order.

use embed::matrix::FeatureMatrix;
use embed::vecmath::dot;
use er_core::Rng;

use crate::Clustering;

/// K-Means parameters.
#[derive(Debug, Clone, Copy)]
pub struct KMeansParams {
    /// Number of clusters `k` (clamped to the number of points).
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// RNG seed for kmeans++ initialization.
    pub seed: u64,
}

impl Default for KMeansParams {
    fn default() -> Self {
        Self { k: 8, max_iters: 50, seed: 42 }
    }
}

/// Runs K-Means (Lloyd's algorithm, kmeans++ seeding, Euclidean metric)
/// over a contiguous feature matrix.
///
/// Clusters that become empty during iteration are re-seeded with the
/// point farthest from its assigned centroid, so the output always has
/// exactly `min(k, n)` non-empty clusters.
pub fn kmeans_matrix(matrix: &FeatureMatrix, params: KMeansParams) -> Clustering {
    let n = matrix.len();
    if n == 0 {
        return Clustering { assignment: vec![], n_clusters: 0 };
    }
    let k = params.k.clamp(1, n);
    let dim = matrix.dim();
    let mut rng = Rng::from_seed(params.seed);

    // Centroids live in one flat k×dim buffer with cached ‖c‖².
    let mut centroids = init_plus_plus(matrix, k, &mut rng);
    let mut cent_sq = centroid_sq_norms(&centroids, k, dim);
    let mut assignment = vec![0usize; n];

    for _ in 0..params.max_iters {
        // Assignment step: each point's argmin is a pure function of
        // (row, centroids).
        let new_assignment: Vec<usize> = matrix
            .rows()
            .map(|row| nearest_centroid(row, &centroids, &cent_sq, dim))
            .collect();
        let mut changed = new_assignment != assignment;
        assignment = new_assignment;

        // Update step: centroid sums accumulate in input order
        // (floating-point addition is order-sensitive).
        let mut sums = vec![0.0f64; k * dim];
        let mut counts = vec![0usize; k];
        for (i, row) in matrix.rows().enumerate() {
            let c = assignment[i];
            counts[c] += 1;
            for (d, &x) in row.iter().enumerate() {
                sums[c * dim + d] += x;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Re-seed an empty cluster with the worst-fitted point
                // (last point among ties, matching `Iterator::max_by`).
                let mut far = 0usize;
                let mut far_d = f64::NEG_INFINITY;
                for (i, &a) in assignment.iter().enumerate() {
                    let d = sq_dist_to_centroid(matrix, i, &centroids, &cent_sq, a, dim);
                    if d >= far_d {
                        far_d = d;
                        far = i;
                    }
                }
                centroids[c * dim..(c + 1) * dim].copy_from_slice(matrix.row(far));
                assignment[far] = c;
                changed = true;
            } else {
                for d in 0..dim {
                    centroids[c * dim + d] = sums[c * dim + d] / counts[c] as f64;
                }
            }
            cent_sq[c] = dot(
                &centroids[c * dim..(c + 1) * dim],
                &centroids[c * dim..(c + 1) * dim],
            );
        }
        if !changed {
            break;
        }
    }

    compact(assignment, k)
}

/// kmeans++ seeding: each next centroid is sampled proportionally to the
/// squared distance from the nearest already-chosen centroid. The
/// nearest-centroid distances are maintained incrementally (one kernel
/// pass per new centroid) instead of rescanning all chosen centroids.
fn init_plus_plus(matrix: &FeatureMatrix, k: usize, rng: &mut Rng) -> Vec<f64> {
    let n = matrix.len();
    let dim = matrix.dim();
    let mut centroids: Vec<f64> = Vec::with_capacity(k * dim);
    let first = rng.range(0..n);
    centroids.extend_from_slice(matrix.row(first));
    let mut d2: Vec<f64> = (0..n).map(|i| matrix.sq_dist_rows(first, i)).collect();
    while centroids.len() < k * dim {
        let total: f64 = d2.iter().sum();
        let choice = if total <= 0.0 {
            // All points coincide with existing centroids; any index works.
            rng.range(0..n)
        } else {
            let mut target = rng.uniform(0.0..total);
            let mut idx = n - 1;
            for (i, &w) in d2.iter().enumerate() {
                if target < w {
                    idx = i;
                    break;
                }
                target -= w;
            }
            idx
        };
        centroids.extend_from_slice(matrix.row(choice));
        for (i, slot) in d2.iter_mut().enumerate() {
            *slot = slot.min(matrix.sq_dist_rows(choice, i));
        }
    }
    centroids
}

fn centroid_sq_norms(centroids: &[f64], k: usize, dim: usize) -> Vec<f64> {
    (0..k)
        .map(|c| {
            dot(
                &centroids[c * dim..(c + 1) * dim],
                &centroids[c * dim..(c + 1) * dim],
            )
        })
        .collect()
}

/// Argmin over centroids of `‖c‖² − 2·x·c` (first minimum wins, matching
/// the scalar reference's strict-`<` scan).
fn nearest_centroid(x: &[f64], centroids: &[f64], cent_sq: &[f64], dim: usize) -> usize {
    let mut best = 0;
    let mut best_score = f64::INFINITY;
    for (c, &c_sq) in cent_sq.iter().enumerate() {
        let score = c_sq - 2.0 * dot(x, &centroids[c * dim..(c + 1) * dim]);
        if score < best_score {
            best_score = score;
            best = c;
        }
    }
    best
}

fn sq_dist_to_centroid(
    matrix: &FeatureMatrix,
    i: usize,
    centroids: &[f64],
    cent_sq: &[f64],
    c: usize,
    dim: usize,
) -> f64 {
    (matrix.sq_norm(i) + cent_sq[c] - 2.0 * dot(matrix.row(i), &centroids[c * dim..(c + 1) * dim]))
        .max(0.0)
}

/// Renumbers cluster ids densely (some may be empty after convergence on
/// degenerate data).
fn compact(assignment: Vec<usize>, k: usize) -> Clustering {
    let mut remap = vec![usize::MAX; k];
    let mut next = 0usize;
    let mut out = Vec::with_capacity(assignment.len());
    for cid in assignment {
        if remap[cid] == usize::MAX {
            remap[cid] = next;
            next += 1;
        }
        out.push(remap[cid]);
    }
    Clustering { assignment: out, n_clusters: next }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> FeatureMatrix {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(vec![i as f64 * 0.1, 0.0]);
        }
        for i in 0..10 {
            pts.push(vec![50.0 + i as f64 * 0.1, 50.0]);
        }
        FeatureMatrix::from_rows(pts)
    }

    #[test]
    fn two_blobs_two_clusters() {
        let c = kmeans_matrix(&blobs(), KMeansParams { k: 2, max_iters: 100, seed: 1 });
        assert!(c.is_consistent());
        assert_eq!(c.n_clusters, 2);
        assert!(c.assignment[..10].iter().all(|&x| x == c.assignment[0]));
        assert!(c.assignment[10..].iter().all(|&x| x == c.assignment[10]));
        assert_ne!(c.assignment[0], c.assignment[10]);
    }

    #[test]
    fn k_clamped_to_n() {
        let pts = FeatureMatrix::from_rows(vec![vec![0.0], vec![1.0]]);
        let c = kmeans_matrix(&pts, KMeansParams { k: 10, max_iters: 10, seed: 3 });
        assert!(c.is_consistent());
        assert!(c.n_clusters <= 2);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = kmeans_matrix(&blobs(), KMeansParams { k: 4, max_iters: 50, seed: 9 });
        let b = kmeans_matrix(&blobs(), KMeansParams { k: 4, max_iters: 50, seed: 9 });
        assert_eq!(a, b);
    }

    #[test]
    fn empty_input() {
        let c = kmeans_matrix(&FeatureMatrix::from_rows(vec![]), KMeansParams::default());
        assert_eq!(c.n_clusters, 0);
    }

    #[test]
    fn identical_points_collapse() {
        let pts = FeatureMatrix::from_rows(vec![vec![5.0, 5.0]; 12]);
        let c = kmeans_matrix(&pts, KMeansParams { k: 3, max_iters: 20, seed: 7 });
        assert!(c.is_consistent());
        // All points identical: ids must be valid whatever the cluster count.
        assert_eq!(c.assignment.len(), 12);
    }

    #[test]
    fn k_one_groups_everything() {
        let c = kmeans_matrix(&blobs(), KMeansParams { k: 1, max_iters: 10, seed: 2 });
        assert_eq!(c.n_clusters, 1);
        assert!(c.assignment.iter().all(|&x| x == 0));
    }
}
