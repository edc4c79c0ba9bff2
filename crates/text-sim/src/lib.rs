//! String similarity kernels for entity resolution.
//!
//! The BatchER paper's structure-aware feature extractor (§III-B) maps each
//! attribute pair to a similarity score using either the Levenshtein ratio
//! (Eq. 5) or Jaccard over token sets (Eq. 4). This crate implements those
//! two kernels, the normalizer and tokenizers they and the embedder share,
//! and the one seeded hash of the workspace.
//!
//! All similarity functions return values in `[0, 1]` where `1` means
//! identical, and are total (never panic) on arbitrary UTF-8 input.

pub mod jaccard;
pub mod levenshtein;
pub mod normalize;
pub mod tokenize;

pub use jaccard::jaccard_tokens;
pub use levenshtein::{levenshtein, levenshtein_ratio};
pub use normalize::{normalize, normalize_into};
pub use tokenize::{qgrams, word_tokens};

/// Seeded FNV-1a 64-bit hash: the seed is mixed into the offset basis
/// (`seed == 0` is plain FNV-1a). Embedding buckets, PLM pseudo-features,
/// per-call simulator RNG seeds and on-disk pair fingerprints all derive
/// from it, so its output is pinned by `tests/hash_golden.rs`.
pub fn fnv1a64(bytes: &[u8], seed: u64) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = OFFSET ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}
