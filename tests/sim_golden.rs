//! Golden digest of what the simulated model answers: the simulator's
//! analogue of `tests/service_golden.rs`.
//!
//! Every response the fixed request set below gets — its text, finish
//! reason and token usage — is folded into one FNV-1a digest. The
//! requests are the prompts the paper's 15 design cells send on two
//! small dataset slices (captured through a recording `ChatApi`) plus
//! hand-written prompts aimed at the corners of the simulator's reading:
//! repeated and missing attribute names, unstructured sides, unicode,
//! identifiers, variant markers, digit tokens and a model that cannot
//! answer batches. A change to `llm::parse` or `llm::engine` that claims
//! "same answers" must leave this file untouched.
//!
//! An answer is coarse — a verdict, an attribute name and a confidence
//! band — so a rule can change the model's reading without changing a
//! single answer. The probes below are built so that it does: breaking
//! any one of the rules they name in the engine moves a digest.

use std::sync::Mutex;

use batcher::core::{run_on_split, BatchingStrategy, ExtractorKind, RunConfig, SelectionStrategy};
use batcher::datagen::{generate, DatasetKind};
use batcher::er_core::LabeledPair;
use batcher::llm::{ChatApi, ChatRequest, ChatResponse, FinishReason, LlmError, ModelKind, SimLlm};

/// Answers like the simulator and keeps every request it was asked.
struct RecordingApi {
    llm: SimLlm,
    seen: Mutex<Vec<ChatRequest>>,
}

impl ChatApi for RecordingApi {
    fn complete(&self, request: &ChatRequest) -> Result<ChatResponse, LlmError> {
        self.seen.lock().unwrap().push(request.clone());
        self.llm.complete(request)
    }
}

/// The cells `offline_design_space` runs: Table IV's 12 batching x
/// selection cells, the best design under the Jaccard and Semantic
/// extractors, and standard prompting.
fn design_cells() -> Vec<RunConfig> {
    let mut cells = Vec::new();
    for batching in BatchingStrategy::ALL {
        for selection in SelectionStrategy::ALL {
            cells.push(RunConfig { batching, selection, ..RunConfig::default() });
        }
    }
    for extractor in [ExtractorKind::Jaccard, ExtractorKind::Semantic] {
        cells.push(RunConfig { extractor, ..RunConfig::best_design() });
    }
    cells.push(RunConfig::standard_prompting());
    cells
}

/// Every request the 15 cells send on a 240-pair pool and 48 questions
/// of each of two datasets.
fn design_space_requests() -> Vec<ChatRequest> {
    let api = RecordingApi { llm: SimLlm::new(), seen: Mutex::new(Vec::new()) };
    for kind in [DatasetKind::ItunesAmazon, DatasetKind::Beer] {
        let dataset = generate(kind, 42);
        let split = dataset
            .split_3_1_1(42)
            .expect("generated datasets are non-empty");
        let pool: Vec<&LabeledPair> = split.train.iter().take(240).copied().collect();
        let questions: Vec<&LabeledPair> = split.test.iter().take(48).copied().collect();
        for config in design_cells() {
            let result = run_on_split(&dataset, &pool, &questions, &api, config);
            assert_eq!(result.unanswered, 0, "{kind}: {config:?}");
        }
    }
    api.seen.into_inner().unwrap()
}

/// Prompts no planner writes, each aimed at one corner of the reading.
const EDGE_PROMPTS: &[(ModelKind, &str)] = &[
    // A name repeated on both sides: the first occurrence is the one
    // aligned, and the distance to the demo reads the first one too.
    (
        ModelKind::Gpt35Turbo0301,
        "D1: title: red fox, title: blue fox, id: 4 [SEP] title: red fox, id: 4, id: 5 => yes\n\
         Q1: title: red fox, title: grey fox, id: 4 [SEP] title: red fox, id: 9, id: 4\n\
         Q2: title: red wolf, id: 4, title: red fox [SEP] title: red fox, id: 4",
    ),
    // Sides without `name: ` structure align by position as `field{idx}`;
    // a side with no structure against a structured one; an empty side;
    // an empty question and a bare separator.
    (
        ModelKind::Gpt4,
        "D1: just some words [SEP] just some word => yes\n\
         D2: title: lamp, price: 10 [SEP] lamp 10 => no\n\
         Q1: just some words [SEP] more words here\n\
         Q2: title: lamp shade, price: 12 [SEP] lamp shade 12\n\
         Q3: lonely record without a partner\n\
         Q4: \n\
         Q5: [SEP]\n\
         Q6: title: , id: 7 [SEP] title: , id: 7",
    ),
    // Unicode whitespace, symbols and non-ASCII letters.
    (
        ModelKind::Gpt35Turbo0613,
        "Q1: title: Caf\u{e9}\u{a0}M\u{fc}nchen \u{2122}, city: \u{65e5}\u{672c} [SEP] title: CAF\u{c9} m\u{fc}nchen\u{2122}, city: \u{65e5}\u{6728}\n\
         Q2: title: na\u{ef}ve\u{2003}caf\u{e9} \u{2014} live, year: \u{2167} [SEP] title: naive cafe, year: 8\n\
         Q3: name: \u{3000}\u{3000}, tag: \u{1f37a} ipa [SEP] name: x, tag: \u{1f37a}\u{1f37a} IPA",
    ),
    // Repeated tokens: "0 0" is two tokens when deciding whether a value
    // is text, one when measuring overlap.
    (
        ModelKind::Gpt35Turbo0301,
        "Q1: price: 0 0 [SEP] price: 7\n\
         Q2: title: a a, price: 5 [SEP] title: a, price: 5\n\
         Q3: title: b b b c [SEP] title: c b",
    ),
    // Identifiers: the raw value decides what is one, the normalized
    // value whether two agree.
    (
        ModelKind::Gpt4,
        "D1: modelno: S1230 [SEP] modelno: S1231 => no\n\
         Q1: title: acme drill, modelno: AB-12 [SEP] title: acme drill, modelno: ab12\n\
         Q2: title: acme drill, modelno: X9 [SEP] title: acme drill, modelno: x9\n\
         Q3: title: acme drill, modelno: dx 9 [SEP] title: acme drill, modelno: DX9\n\
         Q4: modelno: 1234 [SEP] modelno: 1243",
    ),
    // Variant markers on one side, on both, and different ones.
    (
        ModelKind::Gpt35Turbo0301,
        "Q1: title: abbey road (live) [SEP] title: abbey road\n\
         Q2: title: abbey road live [SEP] title: Abbey Road - LIVE\n\
         Q3: title: abbey road live [SEP] title: abbey road remix\n\
         Q4: title: the godfather part ii [SEP] title: the godfather part iii\n\
         Q5: title: greatest hits vol 2 [SEP] title: greatest hits volume 2",
    ),
    // Digit-bearing tokens: disjoint, overlapping, one-sided.
    (
        ModelKind::Gpt4,
        "Q1: title: photoshop 2006 [SEP] title: photoshop 2007\n\
         Q2: title: a 1 2 [SEP] title: a 2 3\n\
         Q3: title: zen 4gb mp3 [SEP] title: zen mp3\n\
         Q4: title: 3 3 [SEP] title: 4 4",
    ),
    // Llama2 given a batch answers nothing; given one question, it answers.
    (
        ModelKind::Llama2Chat70b,
        "Q1: title: desk lamp [SEP] title: desk lamp\n\
         Q2: title: red car [SEP] title: blue boat",
    ),
    (
        ModelKind::Llama2Chat70b,
        "D1: title: desk lamp [SEP] title: desk lamp => Yes.\n\
         Q1: title: red car [SEP] title: red car",
    ),
    // Nothing to answer.
    (
        ModelKind::Gpt4,
        "Decide whether the entities match.\nD1: title: a [SEP] title: b => maybe",
    ),
];

/// Attribute pairs whose reading one rule of the simulator decides.
const PROBES: &[(&str, &str)] = &[
    // Repeated tokens count when deciding whether a value is text.
    ("price: 0 0", "price: 7"),
    // Identifiers are told by the raw value and compared normalized.
    ("modelno: AB-12", "modelno: ab12"),
    // Digit and letter tests are ASCII: Arabic-Indic digits are no
    // digits, and "\u{e9}" is no letter, neither for text nor for
    // identifiers.
    (
        "year: \u{662}\u{660}\u{660}\u{666}",
        "year: \u{662}\u{660}\u{660}\u{667}",
    ),
    ("name: \u{e9}", "name: \u{fc}"),
    ("sku: \u{e9}1", "sku: \u{fc}1"),
    // Different variant markers on the two sides.
    ("edition: abbey road live", "edition: abbey road remix"),
    // A repeated name is measured once, at its first occurrence.
    ("name: red fox, name: red fax", "name: red fox"),
];

/// One probe along a ladder of title agreement, so that whatever the probe
/// does to the score crosses a decision or confidence boundary on some
/// rung. The demonstration carries none of the probe's attributes, so the
/// distance to it reads each probe name against the neutral 0.5.
fn probe_prompt((left, right): (&str, &str)) -> String {
    const TITLE: &str = "acme steel hammer";
    const LADDER: [&str; 8] = [
        TITLE,
        "acme steel hammers",
        "acme steel hamer",
        "acme stel hammer",
        "acme steel claw hammer",
        "acme hammer",
        "steel hammer",
        "acme steel",
    ];
    let shared = "brand: acme, color: red, size: large";
    let mut prompt =
        format!("D1: title: {TITLE}, {shared} [SEP] title: {TITLE}, {shared} => yes\n");
    for (i, title) in LADDER.iter().enumerate() {
        prompt.push_str(&format!(
            "Q{}: title: {TITLE}, {shared}, {left} [SEP] title: {title}, {shared}, {right}\n",
            i + 1
        ));
    }
    prompt
}

/// FNV-1a over `(content, finish_reason, usage)` of every answer, in order.
fn digest(api: &SimLlm, requests: &[ChatRequest]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(&(requests.len() as u64).to_le_bytes());
    for request in requests {
        let response = api.complete(request).expect("no fault is injected");
        eat(&(response.content.len() as u64).to_le_bytes());
        eat(response.content.as_bytes());
        eat(&[match response.finish_reason {
            FinishReason::Stop => 0,
            FinishReason::Length => 1,
        }]);
        eat(&response.usage.prompt_tokens.get().to_le_bytes());
        eat(&response.usage.completion_tokens.get().to_le_bytes());
    }
    h
}

#[test]
fn design_space_answers_match_golden() {
    let requests = design_space_requests();
    assert_eq!(requests.len(), 300, "the cells sent another request count");
    let got = digest(&SimLlm::new(), &requests);
    assert_eq!(got, 0x7241_6975_7b5a_a82f, "answers moved: {got:#018x}");
}

#[test]
fn edge_prompt_answers_match_golden() {
    let requests: Vec<ChatRequest> = EDGE_PROMPTS
        .iter()
        .enumerate()
        .flat_map(|(i, &(model, prompt))| {
            // Two seeds each, one at a temperature that lets the noise act.
            [
                ChatRequest::new(model, prompt, i as u64),
                ChatRequest {
                    temperature: 0.7,
                    ..ChatRequest::new(model, prompt, 1000 + i as u64)
                },
            ]
        })
        .collect();
    let got = digest(&SimLlm::new(), &requests);
    assert_eq!(got, 0x0306_a212_6256_ec4e, "answers moved: {got:#018x}");
}

#[test]
fn probe_answers_match_golden() {
    let requests: Vec<ChatRequest> = PROBES
        .iter()
        .enumerate()
        .flat_map(|(i, &probe)| {
            let prompt = probe_prompt(probe);
            [
                ModelKind::Gpt35Turbo0301,
                ModelKind::Gpt35Turbo0613,
                ModelKind::Gpt4,
            ]
            .map(|model| ChatRequest::new(model, prompt.clone(), i as u64))
        })
        .collect();
    let got = digest(&SimLlm::new(), &requests);
    assert_eq!(got, 0x2e5d_f3c0_f60f_d92a, "answers moved: {got:#018x}");
}
