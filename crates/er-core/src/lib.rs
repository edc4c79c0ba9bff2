//! Core data model for entity resolution (ER).
//!
//! This crate provides the vocabulary types shared by every other crate in
//! the workspace:
//!
//! * [`Record`] / [`Schema`] — relational tuples with named attributes
//!   (§II-A of the BatchER paper: a tuple `a = {attr_i, val_i}`).
//! * [`EntityPair`] / [`MatchLabel`] — candidate pairs and gold labels.
//! * [`serialize_record`] / [`serialize_pair`] — the serialization function
//!   `S(e) = attr1: val1 ... attrm: valm` with `[SEP]` between the two
//!   entities of a pair (Eq. 1).
//! * [`Dataset`] and [`split::ThreeWaySplit`] — labeled benchmarks with the
//!   paper's 3:1:1 train/valid/test split.
//! * [`metrics`] — precision / recall / F1 and run aggregation.
//! * [`cost`] — token counts, micro-dollar money arithmetic, API and
//!   labeling cost accounting.
//! * [`Rng`] — the seeded generator the workspace's stochastic steps draw
//!   from.

pub mod cost;
pub mod dataset;
pub mod error;
pub mod metrics;
pub mod pair;
pub mod record;
pub mod rng;
pub mod split;

pub use cost::{CostLedger, Money, SharedCostLedger, TokenCount, LABEL_COST_PER_PAIR};
pub use dataset::{Dataset, DatasetStats};
pub use error::ErError;
pub use metrics::{BinaryConfusion, F1Summary, PrfScores};
pub use pair::{serialize_pair, serialize_record, EntityPair, LabeledPair, MatchLabel, PairId};
pub use record::{Record, RecordId, Schema, SourceTable};
pub use rng::Rng;
pub use split::ThreeWaySplit;

/// The `[SEP]` marker used between the two serialized entities of a pair
/// (Eq. 1 in the paper).
pub const SEP: &str = "[SEP]";
