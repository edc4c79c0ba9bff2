//! Diagnostic: engine score separation and pipeline F1 per dataset.
//!
//! Not a paper artifact — this is the tuning loop used to calibrate the
//! simulator profiles and dataset difficulty against the paper's reported
//! ranges. Kept in-tree so the calibration is reproducible.

use batcher_core::{RunConfig, SelectionStrategy};
use bench::{all_datasets, print_header};
use llm::engine::PairFeatures;
use llm::parse::parse_pair_text;
use llm::SimLlm;

fn main() {
    let datasets = all_datasets();
    let api = SimLlm::new();

    print_header("Engine score separation (test split)");
    println!(
        "{:>6} {:>10} {:>10} {:>8}",
        "ds", "match", "nonmatch", "gap"
    );
    for d in &datasets {
        let split = d.split_3_1_1(1).unwrap();
        let (mut pos, mut npos, mut neg, mut nneg) = (0.0, 0usize, 0.0, 0usize);
        for p in &split.test {
            let serialized = p.pair.serialize();
            let score = PairFeatures::of(&parse_pair_text(&serialized)).score;
            if p.label.is_match() {
                pos += score;
                npos += 1;
            } else {
                neg += score;
                nneg += 1;
            }
        }
        let (mp, mn) = (pos / npos.max(1) as f64, neg / nneg.max(1) as f64);
        println!("{:>6} {:>10.3} {:>10.3} {:>8.3}", d.name(), mp, mn, mp - mn);
    }

    print_header("Pipeline F1 (best design vs standard, seed 1)");
    println!(
        "{:>6} {:>8} {:>8} {:>8} {:>8}",
        "ds", "best", "std", "batchfix", "labeled"
    );
    for d in &datasets {
        let best = batcher_core::run(d, &api, RunConfig { seed: 1, ..RunConfig::best_design() });
        let std = batcher_core::run(
            d,
            &api,
            RunConfig { seed: 1, ..RunConfig::standard_prompting() },
        );
        let bf = batcher_core::run(
            d,
            &api,
            RunConfig { seed: 1, ..RunConfig::batch_prompting_fixed() },
        );
        println!(
            "{:>6} {:>8.2} {:>8.2} {:>8.2} {:>8}",
            d.name(),
            best.f1(),
            std.f1(),
            bf.f1(),
            best.demos_labeled
        );
    }

    print_header("Cover vs TopK labeling (diversity batching, seed 1)");
    for d in &datasets {
        let cover = batcher_core::run(d, &api, RunConfig { seed: 1, ..RunConfig::default() });
        let topkq = batcher_core::run(
            d,
            &api,
            RunConfig {
                selection: SelectionStrategy::TopKQuestion,
                seed: 1,
                ..RunConfig::default()
            },
        );
        println!(
            "{:>6}  cover: {:>5} demos (F1 {:>6.2})   topk-q: {:>5} demos (F1 {:>6.2})",
            d.name(),
            cover.demos_labeled,
            cover.f1(),
            topkq.demos_labeled,
            topkq.f1()
        );
    }
}
