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

use std::borrow::Borrow;
use std::cell::OnceCell;

use embed::matrix::FeatureMatrix;
use embed::{Embedder, EmbedderConfig};
use er_core::EntityPair;
use text_sim::{jaccard_normalized, levenshtein_ratio, push_normalized};

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
        // Nothing reads this text again, so it is packed a block of pairs
        // at a time: a block's text is still in cache when its rows read it.
        let mut pairs = pairs.into_iter();
        let (mut data, mut rows, mut dim) = (Vec::new(), 0, 0);
        loop {
            let block: Vec<&EntityPair> = pairs.by_ref().take(EXTRACT_BLOCK).collect();
            if block.is_empty() {
                break;
            }
            let text = PackedPairs::new(block);
            let (block_data, block_dim) = text.rows(extractor);
            assert!(rows == 0 || block_dim == dim, "ragged feature rows");
            (rows, dim) = (rows + text.len(), block_dim);
            data.extend_from_slice(&block_data);
        }
        Self { matrix: FeatureMatrix::from_flat(data, rows, dim), distance }
    }

    /// Extracts features for the pairs of `text`, reading the half of it
    /// the extractor needs (and packing that half if no row has yet).
    pub(crate) fn from_packed<P: Borrow<EntityPair>>(
        text: &PackedPairs<P>,
        extractor: ExtractorKind,
        distance: DistanceKind,
    ) -> Self {
        let (data, dim) = text.rows(extractor);
        Self { matrix: FeatureMatrix::from_flat(data, text.len(), dim), distance }
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

/// The structure rows of `pairs`, the baseline matchers' features, read
/// from the values half the planner's Levenshtein and Jaccard rows read:
/// per attribute `[lr, jaccard, missing-on-a, missing-on-b]`, then the
/// mean of `(lr + jaccard) / 2`, so `4·m + 1` for `m` attributes (rows of
/// different schemas differ in length). An attribute empty on either side
/// scores `(0, 0)`; the planner scores two empty values 0.5.
pub fn structure_rows<'p>(pairs: impl IntoIterator<Item = &'p EntityPair>) -> Vec<Vec<f64>> {
    let text = PackedPairs::new(pairs.into_iter().collect::<Vec<_>>());
    let PackedValues { values, pair_ends } = text.values();
    let mut spans = Vec::new();
    let mut start = 0;
    pair_ends
        .iter()
        .map(|&end| {
            let arity = (end - start) / 2;
            let mut row = Vec::with_capacity(4 * arity + 1);
            let mut agg = 0.0;
            for i in (start..end).step_by(2) {
                let (a, b) = (values.get(i), values.get(i + 1));
                let (lr, jac) = if a.is_empty() || b.is_empty() {
                    (0.0, 0.0)
                } else {
                    (
                        levenshtein_ratio(a, b),
                        jaccard_normalized(a, b, &mut spans),
                    )
                };
                row.extend([lr, jac, f64::from(a.is_empty()), f64::from(b.is_empty())]);
                agg += 0.5 * (lr + jac);
            }
            row.push(agg / arity.max(1) as f64);
            start = end;
            row
        })
        .collect()
}

/// Dimension of the semantic extractor's embedding — enough for lexical
/// clustering while keeping the pool×questions covering distance sweep
/// tractable on the largest benchmark (DBLP-Scholar).
const SEMANTIC_DIM: usize = 64;

/// Pairs a one-shot [`FeatureSpace::extract`] packs at a time: a few
/// hundred bytes of text a pair, so a block's text stays in L2.
const EXTRACT_BLOCK: usize = 256;

/// A pair set's text, packed: each half is read from the records once,
/// the first time a row asks for it, into one `String` with end offsets,
/// and every later extractor of the set reads that contiguous copy
/// instead of records scattered on the heap.
///
/// * The **values** half holds every attribute value normalized, in pair
///   order and, within a pair, attribute by attribute with the left
///   side's value before the right's. The structure-aware extractors
///   read it: Levenshtein and Jaccard rows share one normalization of
///   each value.
/// * The **serialized** half holds each pair's serialization (Eq. 1).
///   The semantic extractor embeds it, and the covering weights count
///   its tokens.
///
/// Rows are the per-pair kernels' rows to the bit: the same normalized
/// strings reach the same kernels in the same order, only from one
/// buffer. The pairs are owned (`P = EntityPair`) where the text outlives
/// the caller's pair set, as in the planner's memo, and borrowed
/// (`P = &EntityPair`) where one extraction reads it and drops it.
pub(crate) struct PackedPairs<P> {
    pairs: Vec<P>,
    values: OnceCell<PackedValues>,
    serialized: OnceCell<PackedStrings>,
}

impl<P: Borrow<EntityPair>> PackedPairs<P> {
    /// Packs nothing yet: each half is built when first read.
    pub(crate) fn new(pairs: Vec<P>) -> Self {
        Self { pairs, values: OnceCell::new(), serialized: OnceCell::new() }
    }

    /// The pairs, in order.
    pub(crate) fn pairs(&self) -> &[P] {
        &self.pairs
    }

    /// Number of pairs.
    pub(crate) fn len(&self) -> usize {
        self.pairs.len()
    }

    /// The rows of `extractor`, flat, and their width, from the half of
    /// the text it reads.
    fn rows(&self, extractor: ExtractorKind) -> (Vec<f64>, usize) {
        match extractor {
            ExtractorKind::LevenshteinRatio => {
                self.values().rows(|a, b, _| levenshtein_ratio(a, b))
            }
            ExtractorKind::Jaccard => self.values().rows(jaccard_normalized),
            ExtractorKind::Semantic => semantic_rows(self.serialized()),
        }
    }

    /// Prompt-token count of every pair's serialization, the weight a
    /// demonstration adds to a batch's prompt.
    pub(crate) fn token_weights(&self) -> Vec<f64> {
        let serialized = self.serialized();
        (0..serialized.len())
            .map(|i| llm::count_tokens(serialized.get(i)) as f64)
            .collect()
    }

    fn values(&self) -> &PackedValues {
        self.values.get_or_init(|| {
            let mut values = PackedStrings::default();
            let mut pair_ends = Vec::with_capacity(self.pairs.len());
            for pair in &self.pairs {
                let pair = pair.borrow();
                for (a, b) in pair.a().values().iter().zip(pair.b().values()) {
                    values.push_with(|text| push_normalized(a, text));
                    values.push_with(|text| push_normalized(b, text));
                }
                pair_ends.push(values.len());
            }
            PackedValues { values, pair_ends }
        })
    }

    fn serialized(&self) -> &PackedStrings {
        self.serialized.get_or_init(|| {
            let mut serialized = PackedStrings::default();
            for pair in &self.pairs {
                serialized.push_with(|text| pair.borrow().write_serialized(text));
            }
            serialized
        })
    }
}

/// Strings end to end in one buffer: string `i` ends at `ends[i]` and
/// starts where string `i - 1` ends.
#[derive(Default)]
struct PackedStrings {
    text: String,
    ends: Vec<usize>,
}

impl PackedStrings {
    /// Appends one string, the text `write` appends to the buffer.
    fn push_with(&mut self, write: impl FnOnce(&mut String)) {
        write(&mut self.text);
        self.ends.push(self.text.len());
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }
}

/// The values half of [`PackedPairs`]: pair `i`'s normalized values are
/// strings `pair_ends[i - 1]..pair_ends[i]`, two per attribute.
struct PackedValues {
    values: PackedStrings,
    pair_ends: Vec<usize>,
}

impl PackedValues {
    /// The structure-aware rows (Example 5: `v1 = [1, 0.73, 0.42]`), one
    /// similarity per aligned attribute, flat, and their width.
    fn rows<F>(&self, sim: F) -> (Vec<f64>, usize)
    where
        F: Fn(&str, &str, &mut Vec<(usize, usize)>) -> f64,
    {
        let dim = self.pair_ends.first().map_or(0, |&end| end / 2);
        let mut data = Vec::with_capacity(self.values.len() / 2);
        let mut spans = Vec::new();
        let mut start = 0;
        for &end in &self.pair_ends {
            assert_eq!((end - start) / 2, dim, "ragged feature rows");
            for i in (start..end).step_by(2) {
                let (a, b) = (self.values.get(i), self.values.get(i + 1));
                data.push(if a.is_empty() && b.is_empty() {
                    // Jointly missing: no evidence either way.
                    0.5
                } else if a.is_empty() || b.is_empty() {
                    0.0
                } else {
                    sim(a, b, &mut spans)
                });
            }
            start = end;
        }
        (data, dim)
    }
}

/// The semantic rows, flat: the embedding of each serialized pair, and
/// their width (`SEMANTIC_DIM`, or 0 for no pairs).
fn semantic_rows(serialized: &PackedStrings) -> (Vec<f64>, usize) {
    let n = serialized.len();
    let embedder = Embedder::new(EmbedderConfig { dim: SEMANTIC_DIM });
    let mut norm = String::new();
    let mut data = vec![0.0; n * SEMANTIC_DIM];
    for (i, row) in data.chunks_exact_mut(SEMANTIC_DIM).enumerate() {
        embedder.embed_into(serialized.get(i), &mut norm, row);
    }
    (data, if n == 0 { 0 } else { SEMANTIC_DIM })
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, DatasetKind};
    use std::sync::Arc;

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
        let rows = structure_rows(ps.iter().map(|p| &p.pair));
        assert!(rows.iter().all(|row| row.len() == 4 * 4 + 1));
        for v in space.matrix().rows().chain(rows.iter().map(Vec::as_slice)) {
            for &x in v {
                assert!((0.0..=1.0).contains(&x));
            }
        }
        // A record paired with itself agrees on every attribute it has.
        let a = ps[0].pair.a();
        let self_pair =
            EntityPair::new(er_core::PairId(0), Arc::new(a.clone()), Arc::new(a.clone())).unwrap();
        let row = &structure_rows([&self_pair])[0];
        assert!(row[row.len() - 1] > 0.95, "self-pair aggregate {row:?}");
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
        assert!(mean(match_idx.clone()) > mean(non_idx.clone()) + 0.1);
        // So do the structure rows' aggregates.
        let rows = structure_rows(ps.iter().map(|p| &p.pair));
        let aggregate = |idx: Vec<usize>| {
            idx.iter().map(|&i| rows[i][rows[i].len() - 1]).sum::<f64>() / idx.len() as f64
        };
        assert!(aggregate(match_idx) > aggregate(non_idx) + 0.1);
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

    /// The per-pair row logic the packed text replaced: each pair's values
    /// normalized into two scratch strings per attribute, or its
    /// serialization embedded, row by row.
    fn reference_rows(pairs: &[EntityPair], extractor: ExtractorKind) -> Vec<f64> {
        let embedder = Embedder::new(EmbedderConfig { dim: SEMANTIC_DIM });
        let (mut a, mut b, mut spans) = (String::new(), String::new(), Vec::new());
        let mut out = Vec::new();
        for pair in pairs {
            if extractor == ExtractorKind::Semantic {
                pair.serialize_into(&mut a);
                let at = out.len();
                out.resize(at + SEMANTIC_DIM, 0.0);
                embedder.embed_into(&a, &mut b, &mut out[at..]);
                continue;
            }
            for i in 0..pair.a().schema().arity() {
                text_sim::normalize_into(pair.a().value(i).unwrap_or(""), &mut a);
                text_sim::normalize_into(pair.b().value(i).unwrap_or(""), &mut b);
                out.push(if a.is_empty() && b.is_empty() {
                    0.5
                } else if a.is_empty() || b.is_empty() {
                    0.0
                } else if extractor == ExtractorKind::LevenshteinRatio {
                    levenshtein_ratio(&a, &b)
                } else {
                    jaccard_normalized(&a, &b, &mut spans)
                });
            }
        }
        out
    }

    /// Values that stress normalization, the empty-value rules and both
    /// Levenshtein paths.
    const HOSTILE: [&str; 16] = [
        "",
        "   \t\n ",
        "!!! ... ---",
        "Crème Brûlée, café",
        "日本語 テキスト 日本",
        "a\u{A0}b\u{A0}\u{A0}c",
        "x\u{85}y\u{0B}z",
        "\u{0B}\u{85}\u{A0}",
        "left [SEP] right",
        "[SEP]",
        "iPhone-13 (128GB)",
        "the quick brown fox jumps over the lazy dog again and again and again",
        "The Quick Brown Fox Jumps Over The Lazy Dog Again And Again And Again!",
        "ééééééééééééééééééééééééééééééééééééééééééééééééééééééééééééééééééé",
        "a",
        "A",
    ];

    /// `n` pairs of `arity` attributes, values drawn from [`HOSTILE`] and
    /// from concatenations of two of them, so equal, near-equal and
    /// disjoint values meet on every attribute.
    fn hostile_pairs(arity: usize, n: usize, seed: u64) -> Vec<EntityPair> {
        use er_core::{PairId, Record, RecordId, Schema};
        let schema = Arc::new(Schema::new((0..arity).map(|i| format!("attr{i}"))).unwrap());
        let mut rng = er_core::Rng::from_seed(seed);
        let mut value = || match rng.range(0..3) {
            0 => HOSTILE[rng.range(0..HOSTILE.len())].to_owned(),
            1 => format!(
                "{} {}",
                HOSTILE[rng.range(0..HOSTILE.len())],
                HOSTILE[rng.range(0..HOSTILE.len())]
            ),
            _ => HOSTILE[rng.range(0..HOSTILE.len())].to_uppercase(),
        };
        (0..n)
            .map(|i| {
                let mut record = |id| {
                    let values = (0..arity).map(|_| value()).collect();
                    Arc::new(Record::new(id, Arc::clone(&schema), values).unwrap())
                };
                let (a, b) = (record(RecordId::a(i as u32)), record(RecordId::b(i as u32)));
                EntityPair::new(PairId(i as u32), a, b).unwrap()
            })
            .collect()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn packed_rows_equal_per_pair_rows_to_the_bit() {
        let mut dp_path = 0;
        for (arity, seed) in [(1, 1), (1, 2), (3, 3), (8, 4), (8, 5)] {
            // Past one block, so `extract` crosses a block seam.
            let pairs = hostile_pairs(arity, EXTRACT_BLOCK + 45, seed);
            let long = |v: &str| text_sim::normalize(v).chars().count() > 64;
            dp_path += pairs
                .iter()
                .flat_map(|p| p.a().values().iter().zip(p.b().values()))
                .filter(|(a, b)| long(a) && long(b))
                .count();
            // One packing serves all three extractors and the weights, in
            // an order that builds the values half first; then a fresh
            // packing per extractor, of owned pairs and (through
            // `extract`) of borrowed ones.
            let shared = PackedPairs::new(pairs.clone());
            for extractor in ExtractorKind::ALL {
                let expected = bits(&reference_rows(&pairs, extractor));
                for text in [&shared, &PackedPairs::new(pairs.clone())] {
                    let space = FeatureSpace::from_packed(text, extractor, DistanceKind::Euclidean);
                    assert_eq!(space.len(), pairs.len());
                    assert_eq!(
                        bits(space.matrix().flat()),
                        expected,
                        "{extractor:?} rows, arity {arity}"
                    );
                }
                let extracted = FeatureSpace::extract(&pairs, extractor, DistanceKind::Euclidean);
                assert_eq!(bits(extracted.matrix().flat()), expected);
            }
            let weights: Vec<f64> = pairs
                .iter()
                .map(|p| llm::count_tokens(&p.serialize()) as f64)
                .collect();
            assert_eq!(bits(&shared.token_weights()), bits(&weights));
        }
        assert!(dp_path > 0, "no attribute took Levenshtein's DP path");
    }

    /// The baselines' featurizer before it read the values half: each
    /// value normalized on its own, and again inside `jaccard_tokens`.
    fn reference_structure_row(pair: &EntityPair) -> Vec<f64> {
        let m = pair.a().schema().arity();
        let mut out = Vec::with_capacity(4 * m + 1);
        let mut agg = 0.0;
        for i in 0..m {
            let va = text_sim::normalize(pair.a().value(i).unwrap_or(""));
            let vb = text_sim::normalize(pair.b().value(i).unwrap_or(""));
            let (lr, jac) = if va.is_empty() || vb.is_empty() {
                (0.0, 0.0)
            } else {
                (
                    levenshtein_ratio(&va, &vb),
                    text_sim::jaccard_tokens(&va, &vb),
                )
            };
            out.push(lr);
            out.push(jac);
            out.push(if va.is_empty() { 1.0 } else { 0.0 });
            out.push(if vb.is_empty() { 1.0 } else { 0.0 });
            agg += 0.5 * (lr + jac);
        }
        out.push(agg / m.max(1) as f64);
        out
    }

    #[test]
    fn structure_rows_equal_the_per_pair_featurizer_to_the_bit() {
        let same_rows = |pairs: &[EntityPair]| {
            let rows = structure_rows(pairs);
            assert_eq!(rows.len(), pairs.len());
            for (row, pair) in rows.iter().zip(pairs) {
                assert_eq!(bits(row), bits(&reference_structure_row(pair)));
            }
        };
        for (arity, seed) in [(1, 1), (3, 3), (8, 4)] {
            same_rows(&hostile_pairs(arity, 300, seed));
        }
        // Schemas interleaved pair by pair: each row has its own pair's
        // length.
        let sets = [
            hostile_pairs(1, 30, 6),
            hostile_pairs(8, 30, 7),
            hostile_pairs(3, 30, 8),
        ];
        let mixed: Vec<EntityPair> = (0..30)
            .flat_map(|i| sets.iter().map(move |set| set[i].clone()))
            .collect();
        same_rows(&mixed);
        let lens: Vec<usize> = structure_rows(&mixed[..3]).iter().map(Vec::len).collect();
        assert_eq!(lens, [5, 33, 13]);
    }

    #[test]
    fn packed_semantic_rows_take_mixed_arities() {
        let mut pairs = hostile_pairs(1, 30, 6);
        pairs.extend(hostile_pairs(8, 30, 7));
        let text = PackedPairs::new(pairs.clone());
        let space = FeatureSpace::from_packed(&text, ExtractorKind::Semantic, DistanceKind::Cosine);
        assert_eq!(
            bits(space.matrix().flat()),
            bits(&reference_rows(&pairs, ExtractorKind::Semantic))
        );
        let weights: Vec<f64> = pairs
            .iter()
            .map(|p| llm::count_tokens(&p.serialize()) as f64)
            .collect();
        assert_eq!(bits(&text.token_weights()), bits(&weights));
    }

    #[test]
    fn packed_empty_set_has_no_rows() {
        let text = PackedPairs::new(Vec::<EntityPair>::new());
        for extractor in ExtractorKind::ALL {
            let space = FeatureSpace::from_packed(&text, extractor, DistanceKind::Euclidean);
            assert!(space.is_empty());
            let extracted = FeatureSpace::extract([], extractor, DistanceKind::Euclidean);
            assert!(extracted.is_empty());
        }
        assert!(text.token_weights().is_empty());
        assert!(structure_rows([]).is_empty());
    }

    #[test]
    fn extractor_names() {
        assert_eq!(ExtractorKind::LevenshteinRatio.name(), "BATCHER-LR");
        assert_eq!(ExtractorKind::ALL.len(), 3);
    }
}
