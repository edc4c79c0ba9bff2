//! String similarity kernels for entity resolution.
//!
//! The BatchER paper's structure-aware feature extractor (§III-B) maps each
//! attribute pair to a similarity score using either the Levenshtein ratio
//! (Eq. 5) or Jaccard over token sets (Eq. 4). This crate implements those
//! two kernels plus the wider toolbox an ER system needs: Jaro/Jaro-Winkler,
//! Monge-Elkan, TF-IDF cosine, q-gram profiles, overlap coefficient, and
//! the tokenizers/normalizers they share.
//!
//! All similarity functions return values in `[0, 1]` where `1` means
//! identical, and are total (never panic) on arbitrary UTF-8 input.

pub mod jaccard;
pub mod jaro;
pub mod levenshtein;
pub mod monge_elkan;
pub mod normalize;
pub mod qgram;
pub mod tfidf;
pub mod tokenize;

pub use jaccard::{jaccard_chars, jaccard_tokens, overlap_coefficient};
pub use jaro::{jaro, jaro_winkler};
pub use levenshtein::{levenshtein, levenshtein_ratio, normalized_levenshtein};
pub use monge_elkan::monge_elkan;
pub use normalize::{normalize, normalize_into};
pub use qgram::{qgram_cosine, qgram_profile};
pub use tfidf::TfIdfModel;
pub use tokenize::{qgrams, word_tokens};
