//! Reproduction of every table and figure in the paper's evaluation
//! (§VI). Each `tableN` / `figureN` function runs the experiment and
//! prints rows in the paper's layout; `repro_all [table…]` runs them.
//! Stdout is the only record of the measured results.

use baselines::{LearningCurves, ManualPrompt, PlmKind};
use batcher_core::{BatchingStrategy, ExtractorKind, RunConfig, SelectionStrategy};
use er_core::{Dataset, F1Summary, Money};
use llm::{ModelKind, SimLlm};

use crate::{print_header, usd};

/// Seeds for the repeated runs of Exp-1 (the paper reports mean ± std over
/// three runs).
pub const RUN_SEEDS: [u64; 3] = [11, 22, 33];

/// Table II — dataset statistics (sanity anchor for the generators).
pub fn table2(datasets: &[Dataset]) {
    print_header("Table II: Statistics of Datasets");
    println!(
        "{:<6} {:<12} {:>7} {:>8} {:>9}",
        "ds", "domain", "# attr", "# pairs", "# matches"
    );
    for d in datasets {
        let s = d.stats();
        println!(
            "{:<6} {:<12} {:>7} {:>8} {:>9}",
            s.name, s.domain, s.attributes, s.pairs, s.matches
        );
    }
}

/// One row of Table III: mean±std F1 and API cost for a config.
fn repeated_runs(dataset: &Dataset, base: RunConfig) -> (F1Summary, Money) {
    let api = SimLlm::new();
    let mut f1s = Vec::new();
    let mut api_cost = Money::ZERO;
    for seed in RUN_SEEDS {
        let result = batcher_core::run(dataset, &api, RunConfig { seed, ..base });
        f1s.push(result.f1());
        api_cost = result.ledger.api; // same prompt sizes per seed; report last
    }
    (
        F1Summary::from_runs(&f1s).expect("three runs always present"),
        api_cost,
    )
}

/// Table III — standard vs batch prompting on accuracy and API cost
/// (Exp-1). Both use the same 8 fixed random demonstrations.
pub fn table3(datasets: &[Dataset]) {
    print_header("Table III: Standard vs Batch Prompting (F1 mean±std over 3 runs, API $)");
    println!(
        "{:<6} {:>16} {:>10} {:>16} {:>10} {:>8}",
        "ds", "standard F1", "std API$", "batch F1", "batch API$", "saving"
    );
    for d in datasets {
        let (std_f1, std_api) = repeated_runs(d, RunConfig::standard_prompting());
        let (batch_f1, batch_api) = repeated_runs(d, RunConfig::batch_prompting_fixed());
        println!(
            "{:<6} {:>16} {:>10} {:>16} {:>10} {:>7.1}x",
            d.name(),
            std_f1.to_string(),
            usd(std_api),
            batch_f1.to_string(),
            usd(batch_api),
            std_api.ratio(batch_api),
        );
    }
}

/// Figure 6 — precision / recall / F1 of standard vs batch prompting on
/// the WA and AB datasets.
pub fn figure6(datasets: &[Dataset]) {
    print_header("Figure 6: Precision/Recall/F1, Standard vs Batch (WA, AB)");
    println!(
        "{:<6} {:<10} {:>10} {:>8} {:>8}",
        "ds", "method", "precision", "recall", "F1"
    );
    let api = SimLlm::new();
    for d in datasets
        .iter()
        .filter(|d| d.name() == "WA" || d.name() == "AB")
    {
        for (label, config) in [
            ("Standard", RunConfig::standard_prompting()),
            ("Batch", RunConfig::batch_prompting_fixed()),
        ] {
            let result = batcher_core::run(d, &api, RunConfig { seed: RUN_SEEDS[0], ..config });
            let s = result.confusion.scores();
            println!(
                "{:<6} {:<10} {:>10.2} {:>8.2} {:>8.2}",
                d.name(),
                label,
                s.precision,
                s.recall,
                s.f1
            );
        }
    }
}

/// Table IV — the 3×4 design space grid (Exp-2): F1, API $, Label $ per
/// (question batching, demonstration selection) cell.
pub fn table4(datasets: &[Dataset]) {
    print_header("Table IV: Design Space (batching x selection): F1 / API$ / Label$");
    let api = SimLlm::new();
    for d in datasets {
        println!("\n--- {} ---", d.name());
        println!(
            "{:<12} {:>14} {:>14} {:>14} {:>14}",
            "batching", "Fix", "Topk-batch", "Topk-question", "Cover"
        );
        for batching in BatchingStrategy::ALL {
            let mut cells: Vec<String> = Vec::new();
            for selection in SelectionStrategy::ALL {
                let result =
                    batcher_core::run_design_space_cell(d, &api, batching, selection, RUN_SEEDS[0]);
                cells.push(format!(
                    "{:.1}/{}/{}",
                    result.f1(),
                    usd(result.ledger.api),
                    usd(result.ledger.labeling)
                ));
            }
            println!(
                "{:<12} {:>14} {:>14} {:>14} {:>14}",
                batching.name(),
                cells[0],
                cells[1],
                cells[2],
                cells[3]
            );
        }
    }
}

/// Figure 7 — F1 vs number of training samples: the PLM baselines against
/// the BatchER horizontal line (Exp-3).
pub fn figure7(datasets: &[Dataset]) {
    print_header("Figure 7: F1 vs train samples (PLM baselines vs BatchER)");
    let api = SimLlm::new();
    for d in datasets {
        let split = d.split_3_1_1(RUN_SEEDS[0]).expect("non-empty dataset");
        let batcher = batcher_core::run(
            d,
            &api,
            RunConfig { seed: RUN_SEEDS[0], ..RunConfig::best_design() },
        );
        println!(
            "\n--- {} (BatchER: F1 {:.2} with {} labeled demos) ---",
            d.name(),
            batcher.f1(),
            batcher.demos_labeled
        );
        let max_train = split.train.len();
        let sizes: Vec<usize> = [50usize, 100, 200, 500, 1000, 2000, 4000]
            .into_iter()
            .filter(|&s| s <= max_train)
            .collect();
        print!("{:<10}", "samples");
        for s in &sizes {
            print!("{s:>9}");
        }
        println!();
        let curves = LearningCurves::new(&split.train, &split.valid, &split.test, &sizes);
        for kind in PlmKind::ALL {
            print!("{:<10}", kind.name());
            for outcome in curves.curve(kind) {
                print!("{:>9.2}", outcome.confusion.scores().f1);
            }
            println!();
        }
    }
}

/// Table V — ManualPrompt vs BatchER (Exp-4). The paper omits AB because
/// ManualPrompt was never evaluated there.
pub fn table5(datasets: &[Dataset]) {
    print_header("Table V: Manual Prompting vs Batch Prompting");
    println!(
        "{:<6} {:>12} {:>12} {:>12} {:>12}",
        "ds", "manual F1", "manual API$", "batch F1", "batch API$"
    );
    let api = SimLlm::new();
    for d in datasets.iter().filter(|d| d.name() != "AB") {
        let split = d.split_3_1_1(RUN_SEEDS[0]).expect("non-empty dataset");
        let manual = ManualPrompt::default()
            .run(&api, &split.train, &split.test, RUN_SEEDS[0])
            .expect("simulated endpoint does not fail terminally");
        let batch = batcher_core::run(
            d,
            &api,
            RunConfig { seed: RUN_SEEDS[0], ..RunConfig::best_design() },
        );
        println!(
            "{:<6} {:>12.2} {:>12} {:>12.2} {:>12}",
            d.name(),
            manual.confusion.scores().f1,
            usd(manual.ledger.api),
            batch.f1(),
            usd(batch.ledger.api)
        );
    }
}

/// Table VI — underlying LLMs (Exp-5): GPT-3.5-03 / GPT-3.5-06 / GPT-4,
/// plus the Llama2 batch-failure observation.
pub fn table6(datasets: &[Dataset]) {
    print_header("Table VI: Underlying LLMs (best design choice)");
    println!(
        "{:<6} {:>12} {:>9} {:>12} {:>9} {:>12} {:>9}",
        "ds", "3.5-03 F1", "API$", "3.5-06 F1", "API$", "GPT-4 F1", "API$"
    );
    let api = SimLlm::new();
    for d in datasets {
        let mut cells = Vec::new();
        for model in [
            ModelKind::Gpt35Turbo0301,
            ModelKind::Gpt35Turbo0613,
            ModelKind::Gpt4,
        ] {
            let result = batcher_core::run(
                d,
                &api,
                RunConfig { model, seed: RUN_SEEDS[0], ..RunConfig::best_design() },
            );
            cells.push((result.f1(), result.ledger.api));
        }
        println!(
            "{:<6} {:>12.2} {:>9} {:>12.2} {:>9} {:>12.2} {:>9}",
            d.name(),
            cells[0].0,
            usd(cells[0].1),
            cells[1].0,
            usd(cells[1].1),
            cells[2].0,
            usd(cells[2].1)
        );
    }

    // The Llama2 observation (§VI-F): batch prompts yield no usable output.
    let beer = datasets
        .iter()
        .find(|d| d.name() == "Beer")
        .expect("suite contains Beer");
    let llama = batcher_core::run(
        beer,
        &api,
        RunConfig {
            model: ModelKind::Llama2Chat70b,
            seed: RUN_SEEDS[0],
            ..RunConfig::best_design()
        },
    );
    println!(
        "\nLlama2-chat-70B on Beer: {}/{} questions unanswered under batch \
         prompting (the paper omits Llama2 for this reason).",
        llama.unanswered,
        llama.confusion.total()
    );
}

/// Table VII — feature extractors (Exp-6): BATCHER-LR / -JAC / -SEM.
pub fn table7(datasets: &[Dataset]) {
    print_header("Table VII: Feature Extractors (F1)");
    println!(
        "{:<6} {:>14} {:>14} {:>14}",
        "ds", "BATCHER-LR", "BATCHER-JAC", "BATCHER-SEM"
    );
    let api = SimLlm::new();
    for d in datasets {
        let mut cells = Vec::new();
        for extractor in ExtractorKind::ALL {
            let result = batcher_core::run(
                d,
                &api,
                RunConfig { extractor, seed: RUN_SEEDS[0], ..RunConfig::best_design() },
            );
            cells.push(result.f1());
        }
        println!(
            "{:<6} {:>14.2} {:>14.2} {:>14.2}",
            d.name(),
            cells[0],
            cells[1],
            cells[2]
        );
    }
}
