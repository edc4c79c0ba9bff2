//! The pre-run quote against the run it quotes, at the paper's scale:
//! the full 3:1:1 split of Beer and iTunes-Amazon, the twelve Table IV
//! cells, fixed-8 batch prompting and standard prompting on GPT-3.5-0301.
//! Calls, prompt tokens and labelling are equal; completion tokens and API
//! dollars stay within the bound. `--nocapture` prints the batches split
//! for the window and the median `api_bound / actual`.

use batcher_core::{run, BatchingStrategy, Bill, RunConfig, SelectionStrategy};
use datagen::{generate, DatasetKind};
use llm::{ModelKind, SimLlm};

#[test]
fn quote_equals_the_run_on_every_cell() {
    let api = SimLlm::new();
    let mut configs = vec![
        RunConfig::batch_prompting_fixed(),
        RunConfig::standard_prompting(),
    ];
    for batching in BatchingStrategy::ALL {
        for selection in SelectionStrategy::ALL {
            configs.push(RunConfig { batching, selection, ..RunConfig::default() });
        }
    }
    let (mut window_splits, mut ratios) = (0, Vec::new());
    for kind in [DatasetKind::Beer, DatasetKind::ItunesAmazon] {
        let dataset = generate(kind, 42);
        for config in &configs {
            let cell = format!("{kind:?} {:?}/{:?}", config.batching, config.selection);
            let quote = Bill::quote(&dataset, config);
            let actual = run(&dataset, &api, *config);
            let ledger = actual.ledger;
            assert_eq!(actual.retries, 0, "{cell}: a retry is outside the quote");
            let quoted = (quote.calls, quote.prompt_tokens, quote.labeling());
            assert_eq!(
                quoted,
                (ledger.api_calls, ledger.prompt_tokens, ledger.labeling),
                "{cell}"
            );
            assert!(ledger.completion_tokens <= quote.completion_bound, "{cell}");
            assert!(ledger.api <= quote.api_bound(), "{cell}");
            // GPT-4 prices the same plan at ten times the input rate.
            let gpt4 = Bill::quote(&dataset, &RunConfig { model: ModelKind::Gpt4, ..*config });
            assert_eq!(gpt4, Bill { model: ModelKind::Gpt4, ..quote }, "{cell}");
            assert!(gpt4.api_bound().ratio(quote.api_bound()) >= 10.0);
            window_splits += quote.calls - actual.batches as u64;
            ratios.push(quote.api_bound().ratio(ledger.api));
        }
    }
    ratios.sort_by(f64::total_cmp);
    println!(
        "{} cells: {window_splits} batches split for the window, median api_bound / actual {:.3}",
        ratios.len(),
        ratios[ratios.len() / 2]
    );
}
