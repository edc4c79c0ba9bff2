//! Feature extractors (§III-B): structure-aware and semantics-based.
//!
//! A [`FeatureSpace`] stores its vectors in a contiguous row-major
//! [`FeatureMatrix`] (cached squared norms, batch kernels) rather than a
//! `Vec<Vec<f64>>`: every downstream consumer — DBSCAN region queries,
//! k-means assignment, the percentile threshold, top-k selection, the
//! covering sweep — streams over the same buffer.
//!
//! Hot-path comparisons use **ranking distances**
//! ([`FeatureSpace::ranking_cross_dists`]): squared Euclidean (no `sqrt`)
//! or plain cosine distance, both monotone in the true distance, so
//! thresholds are squared once ([`FeatureSpace::ranking_threshold`]) and
//! argmins/order statistics are unchanged.

use embed::matrix::FeatureMatrix;
use embed::{Embedder, EmbedderConfig};
use er_core::EntityPair;
use text_sim::{jaccard_normalized, levenshtein_ratio, normalize_into};

/// Which feature extractor to use (Table VII's three variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExtractorKind {
    /// Structure-aware with per-attribute Levenshtein ratio (Eq. 5) —
    /// BATCHER-LR, the paper's best.
    LevenshteinRatio,
    /// Structure-aware with per-attribute Jaccard (Eq. 4) — BATCHER-JAC.
    Jaccard,
    /// Semantics-based: embedding of the serialized pair — BATCHER-SEM.
    Semantic,
}

impl ExtractorKind {
    /// All extractors in Table VII order.
    pub const ALL: [ExtractorKind; 3] = [
        ExtractorKind::LevenshteinRatio,
        ExtractorKind::Jaccard,
        ExtractorKind::Semantic,
    ];

    /// Display name used in the tables.
    pub fn name(self) -> &'static str {
        match self {
            ExtractorKind::LevenshteinRatio => "BATCHER-LR",
            ExtractorKind::Jaccard => "BATCHER-JAC",
            ExtractorKind::Semantic => "BATCHER-SEM",
        }
    }
}

/// Distance function over feature vectors. The paper uses Euclidean
/// ("achieves the best performance among others", §III-B); cosine is
/// provided for the ablation bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistanceKind {
    /// Euclidean (L2) distance — the paper's default.
    Euclidean,
    /// Cosine distance `1 − cos`.
    Cosine,
}

impl DistanceKind {
    /// Distance between two equal-length vectors.
    pub fn distance(self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            DistanceKind::Euclidean => embed::euclidean_distance(a, b),
            DistanceKind::Cosine => embed::cosine_distance(a, b),
        }
    }
}

/// A materialized feature space: one vector per pair in a contiguous
/// matrix, plus the distance function to compare them.
#[derive(Debug, Clone)]
pub struct FeatureSpace {
    matrix: FeatureMatrix,
    distance: DistanceKind,
}

impl FeatureSpace {
    /// Extracts features for `pairs` with the given extractor.
    pub fn extract<'p, I>(pairs: I, extractor: ExtractorKind, distance: DistanceKind) -> Self
    where
        I: IntoIterator<Item = &'p EntityPair>,
    {
        // Rows go straight into the matrix's flat buffer, through one
        // kernel whose scratch strings serve the whole sweep.
        let mut pairs = pairs.into_iter();
        let mut kernel = RowKernel::new(extractor);
        let mut data: Vec<f64> = Vec::new();
        let (mut rows, mut dim) = (0usize, 0usize);
        if let Some(first) = pairs.next() {
            kernel.push_row(first, &mut data);
            (rows, dim) = (1, data.len());
            data.reserve(pairs.size_hint().0 * dim);
        }
        for pair in pairs {
            kernel.push_row(pair, &mut data);
            rows += 1;
            assert_eq!(data.len(), rows * dim, "ragged feature rows");
        }
        Self { matrix: FeatureMatrix::from_flat(data, rows, dim), distance }
    }

    /// Builds a feature space from precomputed vectors (used by tests and
    /// the ablation benches).
    pub fn from_vectors(vectors: Vec<Vec<f64>>, distance: DistanceKind) -> Self {
        Self { matrix: FeatureMatrix::from_rows(vectors), distance }
    }

    /// Number of vectors.
    pub fn len(&self) -> usize {
        self.matrix.len()
    }

    /// True when no vectors are present.
    pub fn is_empty(&self) -> bool {
        self.matrix.is_empty()
    }

    /// The feature vector of item `i`.
    pub fn vector(&self, i: usize) -> &[f64] {
        self.matrix.row(i)
    }

    /// The backing contiguous matrix (the kernel consumers' entry point).
    pub fn matrix(&self) -> &FeatureMatrix {
        &self.matrix
    }

    /// The configured distance function.
    pub fn distance_kind(&self) -> DistanceKind {
        self.distance
    }

    /// Distance between items `i` and `j` of this space.
    pub fn dist(&self, i: usize, j: usize) -> f64 {
        match self.distance {
            DistanceKind::Euclidean => self.matrix.sq_dist_rows(i, j).sqrt(),
            DistanceKind::Cosine => self.cosine_rows(i, &self.matrix, j),
        }
    }

    fn cosine_rows(&self, i: usize, other: &FeatureMatrix, j: usize) -> f64 {
        let na = self.matrix.sq_norm(i).sqrt();
        let nb = other.sq_norm(j).sqrt();
        if na == 0.0 || nb == 0.0 {
            1.0
        } else {
            1.0 - embed::dot(self.matrix.row(i), other.row(j)) / (na * nb)
        }
    }

    /// Fills `out[j]` with the **ranking distance** from item `i` of this
    /// space to item `j` of `other`: squared Euclidean or cosine
    /// distance. Ranking distances order exactly like true distances;
    /// compare them against [`FeatureSpace::ranking_threshold`], never
    /// against raw distances.
    pub fn ranking_cross_dists(&self, i: usize, other: &FeatureSpace, out: &mut [f64]) {
        match self.distance {
            DistanceKind::Euclidean => other.matrix.sq_dists_to_all(self.matrix.row(i), out),
            DistanceKind::Cosine => other.matrix.cosine_dists_to_all(self.matrix.row(i), out),
        }
    }

    /// Maps a true-distance threshold into ranking-distance units
    /// (squares it for Euclidean).
    pub fn ranking_threshold(&self, t: f64) -> f64 {
        match self.distance {
            DistanceKind::Euclidean => t * t,
            DistanceKind::Cosine => t,
        }
    }

    /// The `pct`-th percentile (0–100) of pairwise distances, estimated on
    /// at most `max_samples` deterministic index pairs. Used to derive the
    /// covering threshold `t` (§VI-A: the 8th percentile).
    ///
    /// Selection runs on ranking distances with `select_nth_unstable`
    /// (order statistics commute with the monotone `sqrt`), so no full
    /// sort and no per-sample `sqrt` ever happens.
    pub fn distance_percentile(&self, pct: f64, max_samples: usize, seed: u64) -> f64 {
        let n = self.matrix.len();
        if n < 2 {
            return 0.0;
        }
        let total = n * (n - 1) / 2;
        let mut samples: Vec<f64> = if total <= max_samples {
            // Exhaustive: row i contributes pairs (i, i+1..n).
            let mut out = Vec::with_capacity(total);
            for i in 0..n {
                out.extend((i + 1..n).map(|j| self.ranking_dist_rows(i, j)));
            }
            out
        } else {
            // Deterministic xorshift stream over index pairs.
            let mut state = seed | 1;
            let mut step = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            (0..max_samples)
                .map(|_| {
                    let i = (step() % n as u64) as usize;
                    // Redraw collisions so every off-diagonal pair stays
                    // equally likely (the old `(j + 1) % n` remap skewed
                    // mass onto successor pairs).
                    let j = loop {
                        let j = (step() % n as u64) as usize;
                        if j != i {
                            break j;
                        }
                    };
                    self.ranking_dist_rows(i, j)
                })
                .collect()
        };
        let rank =
            (((pct / 100.0) * (samples.len() - 1) as f64).round() as usize).min(samples.len() - 1);
        let (_, value, _) = samples.select_nth_unstable_by(rank, f64::total_cmp);
        match self.distance {
            DistanceKind::Euclidean => value.sqrt(),
            DistanceKind::Cosine => *value,
        }
    }

    /// Ranking distance between two rows of this space.
    fn ranking_dist_rows(&self, i: usize, j: usize) -> f64 {
        match self.distance {
            DistanceKind::Euclidean => self.matrix.sq_dist_rows(i, j),
            DistanceKind::Cosine => self.cosine_rows(i, &self.matrix, j),
        }
    }
}

/// Dimension of the semantic extractor's embedding — enough for lexical
/// clustering while keeping the pool×questions covering distance sweep
/// tractable on the largest benchmark (DBLP-Scholar).
const SEMANTIC_DIM: usize = 64;

/// The per-pair feature kernel and the scratch buffers it works in, so a
/// sweep over many pairs allocates per sweep, not per attribute: the
/// structure-aware extractors normalize the two sides of each attribute
/// into the two strings (and Jaccard splits them into the token spans);
/// the semantic extractor serializes the pair into one string and
/// normalizes that into the other.
struct RowKernel {
    extractor: ExtractorKind,
    embedder: Embedder,
    a: String,
    b: String,
    spans: Vec<(usize, usize)>,
}

impl RowKernel {
    fn new(extractor: ExtractorKind) -> Self {
        let embedder = Embedder::new(EmbedderConfig { dim: SEMANTIC_DIM });
        Self { extractor, embedder, a: String::new(), b: String::new(), spans: Vec::new() }
    }

    /// Appends the feature row of `pair` to `out`.
    fn push_row(&mut self, pair: &EntityPair, out: &mut Vec<f64>) {
        match self.extractor {
            ExtractorKind::LevenshteinRatio => {
                self.push_structure(pair, |a, b, _| levenshtein_ratio(a, b), out)
            }
            ExtractorKind::Jaccard => self.push_structure(pair, jaccard_normalized, out),
            ExtractorKind::Semantic => {
                pair.serialize_into(&mut self.a);
                let at = out.len();
                out.resize(at + SEMANTIC_DIM, 0.0);
                self.embedder
                    .embed_into(&self.a, &mut self.b, &mut out[at..]);
            }
        }
    }

    /// Structure-aware row: one similarity per aligned attribute
    /// (Example 5: `v1 = [1, 0.73, 0.42]`), each scored once on the two
    /// normalized values.
    fn push_structure<F>(&mut self, pair: &EntityPair, sim: F, out: &mut Vec<f64>)
    where
        F: Fn(&str, &str, &mut Vec<(usize, usize)>) -> f64,
    {
        for i in 0..pair.a().schema().arity() {
            normalize_into(pair.a().value(i).unwrap_or(""), &mut self.a);
            normalize_into(pair.b().value(i).unwrap_or(""), &mut self.b);
            out.push(if self.a.is_empty() && self.b.is_empty() {
                // Jointly missing: no evidence either way.
                0.5
            } else if self.a.is_empty() || self.b.is_empty() {
                0.0
            } else {
                sim(&self.a, &self.b, &mut self.spans)
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, DatasetKind};

    fn pairs() -> Vec<er_core::LabeledPair> {
        generate(DatasetKind::Beer, 5).pairs().to_vec()
    }

    #[test]
    fn structure_vectors_have_schema_arity() {
        let ps = pairs();
        let space = FeatureSpace::extract(
            ps.iter().map(|p| &p.pair),
            ExtractorKind::LevenshteinRatio,
            DistanceKind::Euclidean,
        );
        assert_eq!(space.len(), ps.len());
        assert_eq!(space.vector(0).len(), 4); // Beer has 4 attributes
        for v in space.matrix().rows() {
            for &x in v {
                assert!((0.0..=1.0).contains(&x));
            }
        }
    }

    #[test]
    fn semantic_vectors_are_embeddings() {
        let ps = pairs();
        let space = FeatureSpace::extract(
            ps.iter().take(10).map(|p| &p.pair),
            ExtractorKind::Semantic,
            DistanceKind::Cosine,
        );
        assert_eq!(space.vector(0).len(), 64);
    }

    #[test]
    fn matches_have_higher_structure_sims() {
        let ps = pairs();
        let space = FeatureSpace::extract(
            ps.iter().map(|p| &p.pair),
            ExtractorKind::LevenshteinRatio,
            DistanceKind::Euclidean,
        );
        let mean = |idx: Vec<usize>| -> f64 {
            let s: f64 = idx
                .iter()
                .map(|&i| space.vector(i).iter().sum::<f64>() / space.vector(i).len() as f64)
                .sum();
            s / idx.len() as f64
        };
        let match_idx: Vec<usize> = ps
            .iter()
            .enumerate()
            .filter(|(_, p)| p.label.is_match())
            .map(|(i, _)| i)
            .collect();
        let non_idx: Vec<usize> = ps
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.label.is_match())
            .map(|(i, _)| i)
            .collect();
        assert!(mean(match_idx) > mean(non_idx) + 0.1);
    }

    #[test]
    fn distance_kinds_differ() {
        let space = FeatureSpace::from_vectors(
            vec![vec![1.0, 0.0], vec![2.0, 0.0]],
            DistanceKind::Euclidean,
        );
        assert!((space.dist(0, 1) - 1.0).abs() < 1e-12);
        let cos =
            FeatureSpace::from_vectors(vec![vec![1.0, 0.0], vec![2.0, 0.0]], DistanceKind::Cosine);
        assert!(cos.dist(0, 1).abs() < 1e-12); // parallel vectors
    }

    #[test]
    fn ranking_distances_order_like_true_distances() {
        let space = FeatureSpace::from_vectors(
            vec![
                vec![0.0, 0.0],
                vec![1.0, 1.0],
                vec![3.0, 4.0],
                vec![0.1, 0.0],
            ],
            DistanceKind::Euclidean,
        );
        let other = FeatureSpace::from_vectors(
            vec![vec![0.0, 0.1], vec![2.0, 2.0], vec![5.0, 5.0]],
            DistanceKind::Euclidean,
        );
        let mut ranking = vec![0.0; other.len()];
        space.ranking_cross_dists(0, &other, &mut ranking);
        // Item 0 is the origin, so the true distance is the row's norm.
        let true_d = [0.1, 8.0f64.sqrt(), 50.0f64.sqrt()];
        for j in 0..other.len() {
            assert!((ranking[j] - true_d[j] * true_d[j]).abs() < 1e-12);
        }
        // The threshold maps consistently: d < t ⟺ ranking < ranking_threshold(t).
        let t = 2.9;
        for j in 0..other.len() {
            assert_eq!(
                true_d[j] < t,
                ranking[j] < space.ranking_threshold(t),
                "threshold inconsistency at {j}"
            );
        }
    }

    #[test]
    fn percentile_monotone_and_bounded() {
        let ps = pairs();
        let space = FeatureSpace::extract(
            ps.iter().map(|p| &p.pair),
            ExtractorKind::LevenshteinRatio,
            DistanceKind::Euclidean,
        );
        let p8 = space.distance_percentile(8.0, 50_000, 1);
        let p50 = space.distance_percentile(50.0, 50_000, 1);
        let p100 = space.distance_percentile(100.0, 50_000, 1);
        assert!(p8 <= p50 && p50 <= p100);
        assert!(p8 >= 0.0);
    }

    #[test]
    fn percentile_deterministic() {
        let ps = pairs();
        let space = FeatureSpace::extract(
            ps.iter().map(|p| &p.pair),
            ExtractorKind::Jaccard,
            DistanceKind::Euclidean,
        );
        assert_eq!(
            space.distance_percentile(8.0, 1000, 9),
            space.distance_percentile(8.0, 1000, 9)
        );
    }

    #[test]
    fn degenerate_spaces() {
        let empty = FeatureSpace::from_vectors(vec![], DistanceKind::Euclidean);
        assert!(empty.is_empty());
        let single = FeatureSpace::from_vectors(vec![vec![1.0]], DistanceKind::Euclidean);
        assert_eq!(single.distance_percentile(8.0, 100, 1), 0.0);
    }

    #[test]
    fn extractor_names() {
        assert_eq!(ExtractorKind::LevenshteinRatio.name(), "BATCHER-LR");
        assert_eq!(ExtractorKind::ALL.len(), 3);
    }
}
