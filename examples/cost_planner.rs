//! Budgeting an ER workload before spending anything.
//!
//! ```text
//! cargo run --release --example cost_planner
//! ```
//!
//! Reproduces the paper's §I motivation scene: quote the cost of matching
//! a workload under standard prompting, batch prompting, and batch
//! prompting with GPT-4 — without a single API call — then run each plan
//! and print the quote next to the bill. The planner is deterministic, so
//! calls, prompt tokens and labelling are quoted exactly; the API quote
//! bounds every completion.

use batcher::core::{run, Bill, RunConfig};
use batcher::datagen::{generate, DatasetKind};
use batcher::llm::{ModelKind, SimLlm};

fn main() {
    let dataset = generate(DatasetKind::DblpScholar, 42);
    println!(
        "workload: {} — {} candidate pairs ({} to resolve in the test split)\n",
        dataset.name(),
        dataset.stats().pairs,
        dataset.stats().pairs / 5
    );

    let plans = [
        (
            "standard prompting, GPT-3.5",
            RunConfig::standard_prompting(),
        ),
        ("batch prompting,    GPT-3.5", RunConfig::best_design()),
        (
            "batch prompting,    GPT-4  ",
            RunConfig { model: ModelKind::Gpt4, ..RunConfig::best_design() },
        ),
    ];

    println!(
        "{:<28} {:>6} {:>10} {:>9} {:>9} {:>9} {:>5}",
        "plan", "calls", "prompt tok", "API quote", "API bill", "labeling", "F1"
    );
    for (name, config) in plans {
        let quote = Bill::quote(&dataset, &config);
        let result = run(&dataset, &SimLlm::new(), config);
        let ledger = result.ledger;
        let quoted = (quote.calls, quote.prompt_tokens, quote.labeling());
        assert_eq!(
            quoted,
            (ledger.api_calls, ledger.prompt_tokens, ledger.labeling),
            "{name}"
        );
        assert!(ledger.api <= quote.api_bound(), "{name}");
        println!(
            "{:<28} {:>6} {:>10} {:>9.2} {:>9.2} {:>9.2} {:>5.1}",
            name,
            quote.calls,
            quote.prompt_tokens.get(),
            quote.api_bound().dollars(),
            ledger.api.dollars(),
            quote.labeling().dollars(),
            result.f1()
        );
    }
}
