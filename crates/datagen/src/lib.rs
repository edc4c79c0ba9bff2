//! Synthetic Magellan-style ER benchmarks.
//!
//! The paper evaluates on eight Magellan datasets (Table II). The raw
//! benchmark files are not available offline, so this crate synthesizes
//! schema-faithful stand-ins: per-dataset generators reproduce the paper's
//! attribute schemas, pair counts, match counts and — through calibrated
//! corruption profiles — the relative difficulty ordering (AG hardest,
//! FZ easiest).
//!
//! Every generator is deterministic in an explicit `u64` seed.
//!
//! ```
//! use datagen::{generate, DatasetKind};
//!
//! let dataset = generate(DatasetKind::Beer, 42);
//! assert_eq!(dataset.stats().pairs, 450);
//! assert_eq!(dataset.stats().matches, 68);
//! ```

pub mod builder;
pub mod perturb;
pub mod profiles;
pub mod vocab;

pub use builder::generate;
pub use perturb::{CorruptionPattern, Intensity};
pub use profiles::{make_entity, DatasetKind, GeneratorProfile};
