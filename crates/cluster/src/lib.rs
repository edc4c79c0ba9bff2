//! Unsupervised clustering over dense feature vectors.
//!
//! The BatchER question-batching framework (§III, Fig. 3) clusters question
//! feature vectors before grouping them into batches. The paper uses
//! DBSCAN (its footnote: "the algorithm achieves the best performance");
//! K-Means is provided for the ablation bench.
//!
//! Both algorithms accept either `&[Vec<f64>]` (reference slice front
//! ends) or a contiguous [`embed::FeatureMatrix`] ([`dbscan_matrix`],
//! [`kmeans_matrix`] — the production kernel paths: a pivot-pruned pair
//! sweep, dot-trick assignment), and return a
//! [`Clustering`]: a cluster id per point, where DBSCAN noise points each
//! form a singleton cluster (the batcher must still query every question,
//! so no point may be dropped).

pub mod dbscan;
pub mod kmeans;

pub use dbscan::{dbscan, dbscan_matrix, dbscan_union_find, DbscanParams};
pub use kmeans::{kmeans, kmeans_matrix, KMeansParams};

/// A clustering result: `assignment[i]` is the cluster id of point `i`;
/// ids are dense in `0..n_clusters`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    /// Cluster id per input point.
    pub assignment: Vec<usize>,
    /// Number of clusters.
    pub n_clusters: usize,
}

impl Clustering {
    /// Groups point indices by cluster id. The outer vec has length
    /// `n_clusters`; inner vecs list member point indices in input order.
    pub fn groups(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.n_clusters];
        for (point, &cid) in self.assignment.iter().enumerate() {
            groups[cid].push(point);
        }
        groups
    }

    /// Validates internal consistency (dense ids, all points assigned).
    /// Used by tests and debug assertions.
    pub fn is_consistent(&self) -> bool {
        if self.n_clusters == 0 {
            return self.assignment.is_empty();
        }
        let mut seen = vec![false; self.n_clusters];
        for &cid in &self.assignment {
            if cid >= self.n_clusters {
                return false;
            }
            seen[cid] = true;
        }
        seen.into_iter().all(|s| s)
    }
}

/// Euclidean distance, the default metric for question features
/// (the paper reports Euclidean works best, §III-B).
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_partition_points() {
        let c = Clustering { assignment: vec![0, 1, 0, 2, 1], n_clusters: 3 };
        assert!(c.is_consistent());
        let g = c.groups();
        assert_eq!(g, vec![vec![0, 2], vec![1, 4], vec![3]]);
    }

    #[test]
    fn consistency_detects_gaps() {
        // id 1 unused -> not dense.
        let c = Clustering { assignment: vec![0, 2, 2], n_clusters: 3 };
        assert!(!c.is_consistent());
        let c2 = Clustering { assignment: vec![0, 3], n_clusters: 2 };
        assert!(!c2.is_consistent());
    }

    #[test]
    fn empty_clustering() {
        let c = Clustering { assignment: vec![], n_clusters: 0 };
        assert!(c.is_consistent());
    }

    #[test]
    fn euclidean_metric() {
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }
}
