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

pub use jaccard::{jaccard_normalized, jaccard_sorted, jaccard_tokens};
pub use levenshtein::{levenshtein, levenshtein_ratio};
pub use normalize::{normalize, normalize_into, push_normalized};
pub use tokenize::{qgrams, word_tokens};

/// Seeded FNV-1a 64-bit hash: the seed is mixed into the offset basis
/// (`seed == 0` is plain FNV-1a). Embedding buckets, PLM pseudo-features,
/// per-call simulator RNG seeds and on-disk pair fingerprints all derive
/// from it, so its output is pinned by `tests/hash_golden.rs`.
// `embed` calls this on every 3-byte window from another crate, and the
// workspace builds without LTO: only `#[inline]` lets those calls inline.
#[inline]
pub fn fnv1a64(bytes: &[u8], seed: u64) -> u64 {
    let mut h = Fnv1a64::new(seed);
    h.write(bytes);
    h.finish()
}

/// [`fnv1a64`] in pieces, for a caller that reads its text for something
/// else too and hashes it in the same loop: `new(seed)`, then `write` of
/// each piece, then `finish` equals `fnv1a64` of the pieces joined, in
/// order.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// A hash of no bytes yet under `seed`.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self(Self::OFFSET ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Hashes `bytes` after what was written before.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(Self::PRIME);
        }
    }

    /// The hash of every byte written so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}
