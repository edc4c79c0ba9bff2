//! The experiment runner: one reproducible end-to-end BatchER run.
//!
//! Wires the pipeline of Fig. 2 — split, featurize, batch, select,
//! prompt, execute, score — and returns the three quantities every table
//! in the paper reports: F1, API cost and labeling cost.

use er_core::{BinaryConfusion, CostLedger, Dataset, LabeledPair, MatchLabel};
use llm::{ChatApi, ModelKind};

use crate::batching::{BatchingStrategy, ClusteringKind};
use crate::executor::{ExecutionOutcome, Executor};
use crate::features::{DistanceKind, ExtractorKind};
use crate::plan::{plan_question_batches, BatchPlanConfig};
use crate::prompt::task_description;
use crate::selection::SelectionStrategy;

/// Full configuration of one run — one cell of the paper's design space.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Question batching strategy (Table I).
    pub batching: BatchingStrategy,
    /// Demonstration selection strategy (Table I).
    pub selection: SelectionStrategy,
    /// Feature extractor (Table VII).
    pub extractor: ExtractorKind,
    /// Distance function (§III-B; Euclidean is the paper's choice).
    pub distance: DistanceKind,
    /// Clustering algorithm for batching (DBSCAN in the paper).
    pub clustering: ClusteringKind,
    /// Underlying LLM.
    pub model: ModelKind,
    /// Questions per batch (§VI-A uses 8).
    pub batch_size: usize,
    /// Demonstrations per batch for fixed / top-k strategies (§VI-A: 8).
    pub k: usize,
    /// Covering threshold percentile (§VI-A: 8th).
    pub cover_percentile: f64,
    /// Executor retries.
    pub max_retries: u32,
    /// Master seed: controls the split, batching, selection and the
    /// simulated model's sampling noise.
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            batching: BatchingStrategy::Diversity,
            selection: SelectionStrategy::Covering,
            extractor: ExtractorKind::LevenshteinRatio,
            distance: DistanceKind::Euclidean,
            clustering: ClusteringKind::Dbscan,
            model: ModelKind::Gpt35Turbo0301,
            batch_size: 8,
            k: 8,
            cover_percentile: 8.0,
            max_retries: 2,
            seed: 42,
        }
    }
}

impl RunConfig {
    /// The paper's best design choice (Finding 2): diversity batching +
    /// covering selection + structure-aware LR features.
    pub fn best_design() -> Self {
        Self::default()
    }

    /// Standard prompting (Fig. 1a): one question per call with `k` fixed
    /// random demonstrations — the Exp-1 baseline configuration.
    pub fn standard_prompting() -> Self {
        Self {
            batching: BatchingStrategy::Random,
            selection: SelectionStrategy::Fixed,
            batch_size: 1,
            ..Self::default()
        }
    }

    /// Batch prompting with the same fixed demonstrations as
    /// [`RunConfig::standard_prompting`] — Exp-1's treatment arm.
    pub fn batch_prompting_fixed() -> Self {
        Self {
            batching: BatchingStrategy::Random,
            selection: SelectionStrategy::Fixed,
            ..Self::default()
        }
    }
}

/// Result of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Test-set confusion counts.
    pub confusion: BinaryConfusion,
    /// API + labeling costs.
    pub ledger: CostLedger,
    /// Number of batches submitted.
    pub batches: usize,
    /// Unique demonstrations human-labeled.
    pub demos_labeled: usize,
    /// Questions with no parseable answer (counted as non-matching, the
    /// conservative production default).
    pub unanswered: usize,
    /// Executor retries.
    pub retries: u32,
    /// Wall time of the planning stage (featurize + batch + select),
    /// microseconds. A run planned right after another on the same pool
    /// reuses that run's pool features and token weights (see
    /// [`plan_question_batches`]), so one run's figure depends on what ran
    /// before it; the sum over a sweep's runs is what the sweep's
    /// planning cost.
    pub plan_us: u64,
    /// Wall time of the execution stage (every batch call), microseconds.
    pub exec_us: u64,
}

impl RunResult {
    /// F1 percentage.
    pub fn f1(&self) -> f64 {
        self.confusion.scores().f1
    }
}

/// Runs one configuration against a dataset over the given endpoint.
///
/// The dataset splits 3:1:1 (train = unlabeled demonstration pool,
/// test = question set) exactly as §VI-A prescribes.
pub fn run(dataset: &Dataset, api: &dyn ChatApi, config: RunConfig) -> RunResult {
    let split = dataset
        .split_3_1_1(config.seed)
        .expect("datasets are non-empty by construction");
    run_on_split(dataset, &split.train, &split.test, api, config)
}

/// Runs one configuration on explicit pool/question slices (used by the
/// benches to subsample and by Fig. 7 to align splits across systems).
pub fn run_on_split(
    dataset: &Dataset,
    pool: &[&LabeledPair],
    questions: &[&LabeledPair],
    api: &dyn ChatApi,
    config: RunConfig,
) -> RunResult {
    assert!(!pool.is_empty(), "demonstration pool must be non-empty");
    assert!(!questions.is_empty(), "question set must be non-empty");

    // 1-3. Featurize, batch and select demonstrations — shared with the
    // serving layer through the externally-usable planning step.
    let question_pairs: Vec<&er_core::EntityPair> = questions.iter().map(|p| &p.pair).collect();
    let plan_started = std::time::Instant::now();
    let plan = plan_question_batches(
        &question_pairs,
        pool,
        &BatchPlanConfig::from_run_config(&config),
    );
    let plan_us = u64::try_from(plan_started.elapsed().as_micros()).unwrap_or(u64::MAX);

    // 4. Execute every batch.
    let description = task_description(dataset.domain());
    let executor = Executor::new(api, config.model, config.max_retries);
    let exec_started = std::time::Instant::now();
    let mut outcome = ExecutionOutcome::default();
    let mut question_order: Vec<usize> = Vec::with_capacity(questions.len());
    for (bi, batch) in plan.batches.iter().enumerate() {
        let demos: Vec<&LabeledPair> = plan.demos_per_batch[bi].iter().map(|&d| pool[d]).collect();
        let serialized: Vec<String> = batch
            .iter()
            .map(|&q| questions[q].pair.serialize())
            .collect();
        executor.run_batch(
            &description,
            &demos,
            &serialized,
            config.seed ^ ((bi as u64) << 16),
            &mut outcome,
        );
        question_order.extend(batch.iter().copied());
    }
    debug_assert_eq!(question_order.len(), outcome.answers.len());
    let exec_us = u64::try_from(exec_started.elapsed().as_micros()).unwrap_or(u64::MAX);

    // 5. Labeling cost: every unique selected demonstration is annotated
    // once (§VI-A's AMT pricing).
    outcome.ledger.record_labeling(plan.labeled.len() as u64);

    // 6. Score. Unanswered questions default to non-matching.
    let mut confusion = BinaryConfusion::new();
    let mut unanswered = 0usize;
    for (&qi, answer) in question_order.iter().zip(&outcome.answers) {
        let predicted = answer.unwrap_or_else(|| {
            unanswered += 1;
            MatchLabel::NonMatching
        });
        confusion.observe(questions[qi].label, predicted);
    }

    RunResult {
        confusion,
        ledger: outcome.ledger,
        batches: plan.batches.len(),
        demos_labeled: plan.labeled.len(),
        unanswered,
        retries: outcome.retries,
        plan_us,
        exec_us,
    }
}

/// Convenience for Table IV: runs one `(batching, selection)` cell with
/// the default extractor/model on a dataset.
pub fn run_design_space_cell(
    dataset: &Dataset,
    api: &dyn ChatApi,
    batching: BatchingStrategy,
    selection: SelectionStrategy,
    seed: u64,
) -> RunResult {
    run(
        dataset,
        api,
        RunConfig { batching, selection, seed, ..RunConfig::default() },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, DatasetKind};
    use llm::SimLlm;

    fn beer() -> Dataset {
        generate(DatasetKind::Beer, 5)
    }

    #[test]
    fn best_design_runs_end_to_end() {
        let d = beer();
        let api = SimLlm::new();
        let result = run(&d, &api, RunConfig { seed: 1, ..RunConfig::best_design() });
        // Beer test split = 90 pairs.
        assert_eq!(result.confusion.total(), 90);
        assert!(result.f1() > 50.0, "implausible F1: {}", result.f1());
        assert!(result.batches >= 90 / 8);
        assert!(result.demos_labeled > 0);
        assert!(result.ledger.api > er_core::Money::ZERO);
        assert!(result.ledger.labeling > er_core::Money::ZERO);
    }

    #[test]
    fn batch_prompting_cheaper_than_standard() {
        let d = beer();
        let api = SimLlm::new();
        let standard = run(
            &d,
            &api,
            RunConfig { seed: 2, ..RunConfig::standard_prompting() },
        );
        let batch = run(
            &d,
            &api,
            RunConfig { seed: 2, ..RunConfig::batch_prompting_fixed() },
        );
        let saving = standard.ledger.api.ratio(batch.ledger.api);
        assert!(
            saving > 3.0,
            "API saving only {saving:.2}x (std {}, batch {})",
            standard.ledger.api,
            batch.ledger.api
        );
        // Same labeling cost: both use k fixed demos.
        assert_eq!(standard.demos_labeled, batch.demos_labeled);
    }

    #[test]
    fn covering_labels_far_fewer_than_topk_question() {
        let d = beer();
        let api = SimLlm::new();
        let cover = run_design_space_cell(
            &d,
            &api,
            BatchingStrategy::Diversity,
            SelectionStrategy::Covering,
            3,
        );
        let topk = run_design_space_cell(
            &d,
            &api,
            BatchingStrategy::Diversity,
            SelectionStrategy::TopKQuestion,
            3,
        );
        assert!(
            cover.demos_labeled * 2 <= topk.demos_labeled,
            "cover {} vs topk-question {}",
            cover.demos_labeled,
            topk.demos_labeled
        );
        assert!(cover.ledger.labeling < topk.ledger.labeling);
    }

    #[test]
    fn all_twelve_design_cells_complete() {
        let d = beer();
        let api = SimLlm::new();
        for batching in BatchingStrategy::ALL {
            for selection in SelectionStrategy::ALL {
                let r = run_design_space_cell(&d, &api, batching, selection, 4);
                assert_eq!(
                    r.confusion.total(),
                    90,
                    "{batching:?}/{selection:?} lost questions"
                );
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let d = beer();
        let api = SimLlm::new();
        let a = run(&d, &api, RunConfig { seed: 9, ..RunConfig::default() });
        let b = run(&d, &api, RunConfig { seed: 9, ..RunConfig::default() });
        assert_eq!(a.confusion, b.confusion);
        assert_eq!(a.ledger, b.ledger);
    }

    #[test]
    #[should_panic(expected = "question set")]
    fn empty_questions_panic() {
        let d = beer();
        let api = SimLlm::new();
        let pool: Vec<&LabeledPair> = d.pairs().iter().collect();
        let _ = run_on_split(&d, &pool, &[], &api, RunConfig::default());
    }
}
