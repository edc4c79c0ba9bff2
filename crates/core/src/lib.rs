//! # BatchER — cost-effective batch prompting for entity resolution
//!
//! The paper's primary contribution (§II-§V): a framework that takes a
//! *question set* (unlabeled entity pairs to resolve) and an *unlabeled
//! demonstration pool*, and produces batch prompts for an LLM such that
//! matching accuracy stays high while API and labeling costs stay low.
//!
//! Pipeline (Fig. 2):
//!
//! 1. **Feature extraction** ([`features`]) — map each pair to a vector:
//!    structure-aware (per-attribute Levenshtein ratio or Jaccard) or
//!    semantics-based (sentence embedding of the serialized pair).
//! 2. **Question batching** ([`batching`]) — cluster questions (DBSCAN by
//!    default) and group them into batches: random, similarity-based, or
//!    diversity-based.
//! 3. **Demonstration selection** ([`selection`]) — per batch, choose
//!    demonstrations to label and include: fixed, top-k-batch,
//!    top-k-question, or the paper's covering-based strategy
//!    ([`cover`], Algorithm 1: greedy weighted set cover).
//! 4. **Prompt construction & execution** ([`prompt`], [`executor`]) —
//!    render the batch prompt, call the LLM through [`llm::ChatApi`],
//!    parse answers with retry/fallback handling.
//! 5. **Accounting** — F1 against gold labels plus API and labeling cost
//!    ledgers ([`er_core::CostLedger`]).
//!
//! [`runner`] wires the stages into one reproducible experiment run; the
//! design space of Table I is enumerable via [`RunConfig`].

pub mod batching;
pub mod cover;
pub mod estimate;
pub mod executor;
pub mod features;
pub mod incremental;
pub mod plan;
pub mod prompt;
pub mod runner;
pub mod selection;

pub use batching::{BatchingStrategy, ClusteringKind};
pub use cover::{greedy_unit_cover, greedy_weighted_cover, CoverTable, Rows};
pub use estimate::CostEstimate;
pub use executor::{ExecutionOutcome, Executor};
pub use features::{DistanceKind, ExtractorKind, FeatureSpace};
pub use incremental::{EpochPlan, PlanKind, PlanState, PlanStateStats};
pub use plan::{
    plan_question_batches, plan_with_prepared_pool, plan_with_prepared_pool_pinned,
    BatchPlanConfig, PlanThresholds, PreparedPool, QuestionBatchPlan,
};
pub use prompt::{build_batch_prompt, task_description};
pub use runner::{run, run_design_space_cell, run_on_split, RunConfig, RunResult};
pub use selection::SelectionStrategy;
