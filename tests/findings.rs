//! Integration tests pinning the paper's six findings (§VI) as executable
//! assertions over the simulated stack. These are the regression guards
//! for the reproduction's *shape*: if a refactor breaks one of these, the
//! repository no longer reproduces the paper.

use std::sync::OnceLock;

use batcher::baselines::{ManualPrompt, PlmKind, PlmMatcher};
use batcher::core::{run, BatchingStrategy, ExtractorKind, RunConfig, SelectionStrategy};
use batcher::datagen::{generate, DatasetKind};
use batcher::er_core::Dataset;
use batcher::llm::{ModelKind, SimLlm};

/// Each dataset is generated once per test binary, by whichever test
/// asks first.
fn dataset(kind: DatasetKind) -> &'static Dataset {
    static GENERATED: [OnceLock<Dataset>; DatasetKind::ALL.len()] =
        [const { OnceLock::new() }; DatasetKind::ALL.len()];
    GENERATED[kind as usize].get_or_init(|| generate(kind, 77))
}

fn f1_mean(kind: DatasetKind, config: RunConfig, seeds: &[u64]) -> f64 {
    let d = dataset(kind);
    let api = SimLlm::new();
    let sum: f64 = seeds
        .iter()
        .map(|&seed| run(d, &api, RunConfig { seed, ..config }).f1())
        .sum();
    sum / seeds.len() as f64
}

const SEEDS: [u64; 3] = [1, 2, 3];

#[test]
fn finding1_batch_beats_standard_on_accuracy_and_cost() {
    // Finding 1: batch prompting brings 4x-7x API savings and higher,
    // more stable accuracy. Checked on two mid-size datasets.
    for kind in [DatasetKind::WalmartAmazon, DatasetKind::AbtBuy] {
        let d = dataset(kind);
        let api = SimLlm::new();
        let std = run(
            d,
            &api,
            RunConfig { seed: 1, ..RunConfig::standard_prompting() },
        );
        let batch = run(
            d,
            &api,
            RunConfig { seed: 1, ..RunConfig::batch_prompting_fixed() },
        );
        let saving = std.ledger.api.ratio(batch.ledger.api);
        assert!(
            (3.5..=8.0).contains(&saving),
            "{kind}: API saving {saving:.1}x outside the paper's 4x-7x band"
        );
        let std_f1 = f1_mean(kind, RunConfig::standard_prompting(), &SEEDS);
        let batch_f1 = f1_mean(kind, RunConfig::batch_prompting_fixed(), &SEEDS);
        assert!(
            batch_f1 > std_f1 - 1.0,
            "{kind}: batch F1 {batch_f1:.1} not ≥ standard {std_f1:.1}"
        );
    }
}

#[test]
fn finding2_cover_labels_an_order_of_magnitude_less() {
    // Finding 2 (cost half): covering-based selection slashes labeling
    // cost versus top-k-question at comparable accuracy.
    let d = dataset(DatasetKind::WalmartAmazon);
    let api = SimLlm::new();
    let base = RunConfig { seed: 1, ..RunConfig::best_design() };
    let cover = run(d, &api, base);
    let topk = run(
        d,
        &api,
        RunConfig { selection: SelectionStrategy::TopKQuestion, ..base },
    );
    assert!(
        cover.demos_labeled * 5 <= topk.demos_labeled,
        "cover labeled {} vs topk-question {}",
        cover.demos_labeled,
        topk.demos_labeled
    );
    assert!(
        cover.f1() > topk.f1() - 6.0,
        "cover F1 {:.1} collapsed vs topk-question {:.1}",
        cover.f1(),
        topk.f1()
    );
    // Cover also has the lowest API cost (fewer demo tokens per prompt).
    assert!(cover.ledger.api <= topk.ledger.api);
}

#[test]
fn finding2_diversity_not_worse_than_similarity_for_cover() {
    let d = dataset(DatasetKind::AmazonGoogle);
    let api = SimLlm::new();
    let mut div = 0.0;
    let mut sim = 0.0;
    for seed in SEEDS {
        let base = RunConfig { seed, ..RunConfig::best_design() };
        div += run(d, &api, base).f1();
        sim += run(
            d,
            &api,
            RunConfig { batching: BatchingStrategy::Similarity, ..base },
        )
        .f1();
    }
    assert!(
        div >= sim - 3.0,
        "diversity {div:.1} clearly worse than similarity {sim:.1} (x3 seeds)"
    );
}

#[test]
fn finding5_gpt4_most_accurate_but_10x_cost() {
    let d = dataset(DatasetKind::DblpScholar);
    let api = SimLlm::new();
    let base = RunConfig { seed: 1, ..RunConfig::best_design() };
    let g35 = run(d, &api, base);
    let g4 = run(d, &api, RunConfig { model: ModelKind::Gpt4, ..base });
    assert!(
        g4.f1() > g35.f1() - 1.0,
        "GPT-4 {:.1} should be at least GPT-3.5's level {:.1}",
        g4.f1(),
        g35.f1()
    );
    let ratio = g4.ledger.api.ratio(g35.ledger.api);
    assert!(
        ratio > 8.0,
        "GPT-4 API cost only {ratio:.1}x GPT-3.5's (pricing is 10x)"
    );
}

#[test]
fn finding5_gpt35_06_regresses_somewhere() {
    // Table VI: the 0613 snapshot loses to 0301 on several datasets.
    let d = dataset(DatasetKind::AbtBuy);
    let api = SimLlm::new();
    let base = RunConfig { seed: 1, ..RunConfig::best_design() };
    let v03 = run(d, &api, base);
    let v06 = run(
        d,
        &api,
        RunConfig { model: ModelKind::Gpt35Turbo0613, ..base },
    );
    assert!(
        v03.f1() > v06.f1(),
        "0301 {:.1} should beat 0613 {:.1} on AB",
        v03.f1(),
        v06.f1()
    );
}

#[test]
fn finding6_structure_aware_lr_beats_semantic() {
    // Table VII: BATCHER-LR ≥ BATCHER-SEM on ER relevance.
    let kind = DatasetKind::WalmartAmazon;
    let lr = f1_mean(kind, RunConfig::best_design(), &SEEDS);
    let sem = f1_mean(
        kind,
        RunConfig { extractor: ExtractorKind::Semantic, ..RunConfig::best_design() },
        &SEEDS,
    );
    assert!(
        lr >= sem - 1.0,
        "BATCHER-LR {lr:.1} lost to BATCHER-SEM {sem:.1}"
    );
}

#[test]
fn llama2_unusable_for_batch_prompting() {
    // §VI-F: Llama2 produces no usable output for multi-question prompts.
    let d = dataset(DatasetKind::Beer);
    let api = SimLlm::new();
    let result = run(
        d,
        &api,
        RunConfig {
            model: ModelKind::Llama2Chat70b,
            max_retries: 1,
            seed: 1,
            ..RunConfig::best_design()
        },
    );
    assert!(
        result.unanswered as u64 > result.confusion.total() / 2,
        "Llama2 answered batches it should fail on ({} unanswered of {})",
        result.unanswered,
        result.confusion.total()
    );
}

#[test]
fn finding3_plm_baselines_need_far_more_labels() {
    // Finding 3 (Exp-3, Fig. 7): the crossover. Given about as many labels
    // as BatchER's covering selection pays for, every fine-tuned PLM is
    // far below BatchER; the best of them catches up only with the whole
    // train split, many times BatchER's label bill.
    for kind in [DatasetKind::FodorsZagats, DatasetKind::ItunesAmazon] {
        let d = dataset(kind);
        let batcher = run(
            d,
            &SimLlm::new(),
            RunConfig { seed: 1, ..RunConfig::best_design() },
        );
        let split = d.split_3_1_1(1).expect("non-empty dataset");
        let best_plm_f1 = |samples: usize| {
            PlmKind::ALL
                .into_iter()
                .map(|plm| {
                    PlmMatcher::learning_curve_point(
                        plm,
                        &split.train,
                        &split.valid,
                        &split.test,
                        samples,
                    )
                    .confusion
                    .scores()
                    .f1
                })
                .fold(0.0, f64::max)
        };
        let (few, all) = (50, split.train.len());
        assert!(
            batcher.demos_labeled <= few && all >= 8 * batcher.demos_labeled,
            "{kind}: BatchER labeled {}, curve runs {few}..{all}",
            batcher.demos_labeled
        );
        let (at_few, at_all) = (best_plm_f1(few), best_plm_f1(all));
        assert!(
            at_few < batcher.f1() - 5.0,
            "{kind}: a PLM reaches {at_few:.1} on {few} labels, BatchER {:.1} on {}",
            batcher.f1(),
            batcher.demos_labeled
        );
        assert!(
            at_all >= batcher.f1() - 1.0,
            "{kind}: no crossover, best PLM {at_all:.1} on {all} labels vs BatchER {:.1}",
            batcher.f1()
        );
    }
}

#[test]
fn finding4_batcher_cheaper_than_manual_prompt_at_equal_f1() {
    // Finding 4 (Exp-4, Table V): hand-designed demonstrations with one
    // question per call cost several times BatchER's API bill and buy no
    // accuracy.
    for kind in [DatasetKind::FodorsZagats, DatasetKind::ItunesAmazon] {
        let d = dataset(kind);
        let api = SimLlm::new();
        let split = d.split_3_1_1(1).expect("non-empty dataset");
        let manual = ManualPrompt::default()
            .run(&api, &split.train, &split.test, 1)
            .expect("simulated endpoint does not fail terminally");
        let batch = run(d, &api, RunConfig { seed: 1, ..RunConfig::best_design() });
        let saving = manual.ledger.api.ratio(batch.ledger.api);
        assert!(
            saving > 2.5,
            "{kind}: ManualPrompt API cost only {saving:.1}x BatchER's"
        );
        let manual_f1 = manual.confusion.scores().f1;
        assert!(
            batch.f1() > manual_f1 - 1.0,
            "{kind}: BatchER F1 {:.1} not ≥ ManualPrompt {manual_f1:.1}",
            batch.f1()
        );
    }
}
