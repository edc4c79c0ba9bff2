//! Baseline matchers the paper compares BatchER against.
//!
//! * [`plm`] — simulated **PLM-based matchers** (Ditto, JointBERT, RobEM):
//!   trainable classifiers whose learning curves reproduce Figure 7's
//!   shape — they need hundreds to thousands of labeled pairs to approach
//!   BatchER's F1. See `DESIGN.md` §1 for why a
//!   logistic-regression-over-features emulation preserves the comparison.
//! * [`manual_prompt`] — the **ManualPrompt** baseline (Narayan et al.):
//!   standard one-question-per-call prompting with hand-designed
//!   demonstrations, evaluated for Table V.
//! * [`features`] / [`logistic`] — the PLM simulators' features (core's
//!   structure rows plus hashed context dimensions) and the SGD
//!   logistic-regression trainer underpinning them.

pub mod features;
pub mod logistic;
pub mod manual_prompt;
pub mod plm;

pub use manual_prompt::{ManualPrompt, ManualPromptOutcome};
pub use plm::{LearningCurves, PlmKind, PlmMatcher, TrainOutcome};
