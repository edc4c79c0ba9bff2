//! Semantics-based sentence embeddings — offline SBERT substitute.
//!
//! The BatchER paper's semantics-based feature extractor (§III-B) encodes
//! the serialized question `S(q)` with a pre-trained sentence encoder
//! (SBERT / RoBERTa) and measures relevance as Euclidean distance between
//! embeddings. No pre-trained model is available offline, so this crate
//! provides a deterministic **hashed n-gram embedding**: word tokens and
//! character trigrams are feature-hashed into a fixed-dimension vector with
//! signed hashing, then L2-normalized.
//!
//! The substitution is behaviour-preserving for the paper's purposes:
//! textually related strings land close together (embedding distance tracks
//! lexical-semantic overlap), while the vector carries no ER-task-specific
//! signal — exactly the weakness of semantics-based extraction the paper
//! reports in Table VII (structure-aware features win).

pub mod index;
pub mod matrix;
pub mod vecmath;

pub use index::{IndexStats, PivotIndex};
pub use matrix::FeatureMatrix;
pub use vecmath::{
    cosine_distance, cosine_similarity, dot, euclidean_distance, l2_normalize,
    sq_euclidean_distance,
};

use text_sim::{fnv1a64, normalize_into};

/// Character q-gram width.
const Q: usize = 3;

/// Feature-hash seed: every embedding lives in the space this seed spans.
const SEED: u64 = 0x5EED;

/// Configuration of the hashed n-gram embedder.
#[derive(Debug, Clone)]
pub struct EmbedderConfig {
    /// Embedding dimension (default 256).
    pub dim: usize,
}

impl Default for EmbedderConfig {
    fn default() -> Self {
        Self { dim: 256 }
    }
}

/// Deterministic hashed n-gram sentence embedder.
#[derive(Debug, Clone)]
pub struct Embedder {
    config: EmbedderConfig,
}

impl Embedder {
    /// Builds an embedder.
    ///
    /// # Panics
    /// Panics if `config.dim < 2` — an embedder that cannot separate any
    /// two strings is a construction bug.
    pub fn new(config: EmbedderConfig) -> Self {
        assert!(config.dim >= 2, "embedding dimension must be at least 2");
        Self { config }
    }

    /// The embedder configuration.
    pub fn config(&self) -> &EmbedderConfig {
        &self.config
    }

    /// Embeds a string into an L2-normalized `dim`-vector.
    ///
    /// The empty string embeds to the zero vector (the only non-unit
    /// output); cosine similarity against it is defined as 0.
    pub fn embed(&self, text: &str) -> Vec<f64> {
        let mut v = vec![0.0f64; self.config.dim];
        self.embed_into(text, &mut String::new(), &mut v);
        v
    }

    /// [`Embedder::embed`] into a caller-owned row: `out` (length `dim`)
    /// is overwritten, and `norm` is the scratch buffer the text is
    /// normalized into, so a sweep over many texts allocates nothing.
    ///
    /// The text is normalized once; word features are the space-separated
    /// slices of that buffer and q-gram features its 3-character windows
    /// (the whole string when it has at most 3 characters) —
    /// the same feature strings, in the same order, as
    /// [`text_sim::word_tokens`] and [`text_sim::qgrams`] produce, hashed
    /// in place instead of copied out one `String` each. An ASCII string
    /// longer than 3 characters has one byte per character, so its
    /// windows are its 3-byte windows, hashed in one indexed loop; other
    /// text walks its character boundaries.
    ///
    /// # Panics
    /// Panics unless `out.len() == dim`.
    pub fn embed_into(&self, text: &str, norm: &mut String, out: &mut [f64]) {
        assert_eq!(out.len(), self.config.dim, "output row is not dim-sized");
        out.fill(0.0);
        normalize_into(text, norm);
        // A normalized string's only whitespace is the ASCII space.
        for tok in norm.split_ascii_whitespace() {
            // Whole tokens are more discriminative than their constituent
            // grams, hence the double weight.
            scatter(out, fnv1a64(tok.as_bytes(), SEED), 2.0);
        }
        if norm.len() > Q && norm.is_ascii() {
            for window in norm.as_bytes().windows(Q) {
                scatter(out, fnv1a64(window, SEED), 1.0);
            }
        } else {
            // Window `i` runs from the start of character `i` to the start
            // of character `i + Q`; the end offsets are the starts shifted
            // by `Q` characters, then the end of the string. A string of at
            // most `Q` characters has no shifted start left, so its only
            // window is the whole string; the empty string has no start at
            // all.
            let starts = norm.char_indices().map(|(at, _)| at);
            let ends = starts.clone().skip(Q).chain(std::iter::once(norm.len()));
            for (start, end) in starts.zip(ends) {
                scatter(out, fnv1a64(&norm.as_bytes()[start..end], SEED), 1.0);
            }
        }
        l2_normalize(out);
    }
}

/// Adds the signed feature-hash contribution of one feature, given its
/// hash `h`.
fn scatter(v: &mut [f64], h: u64, weight: f64) {
    let dim = v.len() as u64;
    // A power-of-two `dim` (the planner's 64, the default 256) takes the
    // low bits, which is `h % dim` without a division.
    let idx = if dim.is_power_of_two() {
        h & (dim - 1)
    } else {
        h % dim
    } as usize;
    // An independent high bit decides the sign, keeping hashed features
    // approximately unbiased (standard signed feature hashing).
    let sign = if (h >> 63) & 1 == 1 { -1.0 } else { 1.0 };
    v[idx] += sign * weight;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use text_sim::{qgrams, word_tokens};

    fn emb() -> Embedder {
        Embedder::new(EmbedderConfig::default())
    }

    /// The definition `embed_into` replaced: one owned `String` per word
    /// token and per q-gram, scattered in that order.
    fn embed_reference(e: &Embedder, text: &str) -> Vec<f64> {
        let mut v = vec![0.0f64; e.config.dim];
        for tok in word_tokens(text) {
            scatter(&mut v, fnv1a64(tok.as_bytes(), SEED), 2.0);
        }
        for g in qgrams(text, Q) {
            scatter(&mut v, fnv1a64(g.as_bytes(), SEED), 1.0);
        }
        l2_normalize(&mut v);
        v
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every dimension the equivalence is claimed for: powers of two,
    /// which reduce a hash with a mask, and 63, which takes `%`.
    fn embedder_shapes() -> Vec<Embedder> {
        [2, 63, 64, 256]
            .into_iter()
            .map(|dim| Embedder::new(EmbedderConfig { dim }))
            .collect()
    }

    #[test]
    fn in_place_hashing_equals_owned_features_on_edge_strings() {
        // Empty, punctuation-only, fewer than / exactly / more than 3
        // characters, ASCII of exactly 3 and 4 characters (the shortest
        // strings the byte windows take), multibyte characters at window
        // edges and mixed with ASCII.
        let texts = [
            "",
            "?!. ,",
            "a",
            "ab",
            "abc",
            "abcd",
            "a b",
            "x y ",
            "A-1.",
            "abcde",
            "abcdef",
            "ab é",
            "é ab",
            "naïve café 42",
            "x中y",
            "iPhone™ 13",
            "é",
            "éß",
            "éßΩ",
            "éßΩ中",
            "中✓中✓中✓",
            "  Title: iPhone-13, Brand: APPLE [SEP] title: iphone 13  ",
        ];
        for e in embedder_shapes() {
            for text in texts {
                assert_eq!(
                    bits(&e.embed(text)),
                    bits(&embed_reference(&e, text)),
                    "{:?} on {text:?}",
                    e.config
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary Unicode, every shape: hashing slices of the one
        /// normalized buffer is bit-identical to hashing owned copies.
        #[test]
        fn in_place_hashing_equals_owned_features(
            text in "\\PC{0,48}",
            short in "[a-zA-Z0-9 .é中]{3,4}",
        ) {
            for e in embedder_shapes() {
                prop_assert_eq!(bits(&e.embed(&text)), bits(&embed_reference(&e, &text)));
                prop_assert_eq!(bits(&e.embed(&short)), bits(&embed_reference(&e, &short)));
            }
        }

        /// `embed_into` overwrites both the row and the scratch buffer.
        #[test]
        fn embed_into_overwrites(text in "\\PC{0,48}", dirt in "\\PC{0,48}") {
            let e = emb();
            let mut norm = dirt;
            let mut row = vec![7.5f64; e.config.dim];
            e.embed_into(&text, &mut norm, &mut row);
            prop_assert_eq!(bits(&row), bits(&e.embed(&text)));
        }
    }

    #[test]
    fn deterministic() {
        let e = emb();
        assert_eq!(e.embed("hello world"), e.embed("hello world"));
    }

    #[test]
    fn unit_norm_for_nonempty() {
        let v = emb().embed("title: iphone 13, brand: apple");
        let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_string_is_zero_vector() {
        let v = emb().embed("");
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn related_strings_closer_than_unrelated() {
        let e = emb();
        let a = e.embed("apple iphone 13 smartphone 128gb");
        let b = e.embed("apple iphone 13 smartphone 256gb");
        let c = e.embed("quantum chromodynamics lattice simulation");
        assert!(euclidean_distance(&a, &b) < euclidean_distance(&a, &c));
        assert!(cosine_similarity(&a, &b) > cosine_similarity(&a, &c));
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn rejects_degenerate_dim() {
        let _ = Embedder::new(EmbedderConfig { dim: 1 });
    }

    #[test]
    fn qgrams_make_order_matter() {
        let e = emb();
        assert_ne!(e.embed("alpha beta"), e.embed("beta alpha"));
    }
}
