//! Quality ablations for the design choices DESIGN.md calls out: batch
//! size, covering threshold percentile, clustering algorithm and distance
//! function. A plain `main` that runs each configuration once and prints
//! its accuracy and cost; timing is `benchmark/`'s job.

use batcher_core::{run, ClusteringKind, DistanceKind, RunConfig};
use llm::SimLlm;

fn main() {
    let d = datagen::generate(datagen::DatasetKind::FodorsZagats, 1);
    let api = SimLlm::new();
    let base = RunConfig { seed: 1, ..RunConfig::best_design() };

    for b in [1usize, 2, 4, 8, 16] {
        let result = run(&d, &api, RunConfig { batch_size: b, ..base });
        println!(
            "[ablation] batch_size={b}: F1 {:.2}, API {}, prompt tokens/question {:.0}",
            result.f1(),
            result.ledger.api,
            result.ledger.prompt_tokens.get() as f64 / result.confusion.total() as f64
        );
    }

    for pct in [2.0f64, 8.0, 20.0, 40.0] {
        let result = run(&d, &api, RunConfig { cover_percentile: pct, ..base });
        println!(
            "[ablation] cover_percentile={pct}: F1 {:.2}, demos labeled {}, label cost {}",
            result.f1(),
            result.demos_labeled,
            result.ledger.labeling
        );
    }

    for (name, clustering) in [
        ("dbscan", ClusteringKind::Dbscan),
        ("kmeans", ClusteringKind::KMeans),
    ] {
        let result = run(&d, &api, RunConfig { clustering, ..base });
        println!("[ablation] clustering={name}: F1 {:.2}", result.f1());
    }

    for (name, distance) in [
        ("euclidean", DistanceKind::Euclidean),
        ("cosine", DistanceKind::Cosine),
    ] {
        let result = run(&d, &api, RunConfig { distance, ..base });
        println!("[ablation] distance={name}: F1 {:.2}", result.f1());
    }
}
