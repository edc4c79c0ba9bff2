//! Property-based tests for the LLM substrate: prompt parsing totality,
//! render/parse roundtrips, tokenizer consistency, simulator
//! determinism, and that the simulator's memo of pair readings changes no
//! response.

use llm::engine::PairFeatures;
use llm::parse::{parse_pair_text, parse_prompt};
use llm::{parse_answers, ChatApi, ChatRequest, ModelKind, SimLlm};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = String> {
    "[a-z0-9 .,()\\-]{0,18}"
}

/// One side of a pair: `(name, value)` attributes with names drawn from a
/// tiny alphabet, so sides share, repeat and miss names. An attribute
/// whose name is `_` is written without one (and the side then parses
/// as a single unnamed value).
fn arb_side() -> impl Strategy<Value = Vec<(String, String)>> {
    prop::collection::vec(("[xyz_]{1,1}", arb_value()), 0..4)
}

fn render_side(attrs: &[(String, String)]) -> String {
    attrs
        .iter()
        .map(|(n, v)| {
            if n == "_" {
                v.clone()
            } else {
                format!("{n}: {v}")
            }
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn render_pair(a: &[(String, String)], b: &[(String, String)]) -> String {
    format!("{} [SEP] {}", render_side(a), render_side(b))
}

/// One request of a generated stream: demonstrations and questions drawn
/// by index from a small set of pair texts, so texts repeat across
/// requests, roles and labels.
#[derive(Debug, Clone)]
struct StreamRequest {
    demos: Vec<(usize, bool)>,
    questions: Vec<usize>,
    model: usize,
    seed: u64,
}

fn arb_stream() -> impl Strategy<Value = (Vec<String>, Vec<StreamRequest>)> {
    let pairs = prop::collection::vec((arb_side(), arb_side()), 1..6).prop_map(|sides| {
        sides
            .iter()
            .map(|(a, b)| render_pair(a, b))
            .collect::<Vec<_>>()
    });
    let request = (
        prop::collection::vec((0..6usize, any::<bool>()), 0..4),
        prop::collection::vec(0..6usize, 0..5),
        0..4usize,
        0..4u64,
    )
        .prop_map(|(demos, questions, model, seed)| StreamRequest {
            demos,
            questions,
            model,
            seed,
        });
    (pairs, prop::collection::vec(request, 1..10))
}

fn render_request(pairs: &[String], r: &StreamRequest) -> ChatRequest {
    let mut prompt = String::from("Entity resolution task.\n");
    for (i, &(d, label)) in r.demos.iter().enumerate() {
        let verdict = if label { "yes" } else { "no" };
        prompt.push_str(&format!(
            "D{}: {} => {verdict}\n",
            i + 1,
            pairs[d % pairs.len()]
        ));
    }
    for (i, &q) in r.questions.iter().enumerate() {
        prompt.push_str(&format!("Q{}: {}\n", i + 1, pairs[q % pairs.len()]));
    }
    let models = [
        ModelKind::Gpt35Turbo0301,
        ModelKind::Gpt35Turbo0613,
        ModelKind::Gpt4,
        ModelKind::Llama2Chat70b,
    ];
    ChatRequest::new(models[r.model], prompt, r.seed)
}

proptest! {
    /// One simulator answering a stream, and then the same stream
    /// reversed, answers every request as a fresh simulator would: its
    /// memo of pair readings moves no content, finish reason, usage or
    /// cost, whatever it has read before.
    #[test]
    fn shared_simulator_answers_like_fresh_ones(generated in arb_stream()) {
        let (pairs, stream) = generated;
        let requests: Vec<ChatRequest> =
            stream.iter().map(|r| render_request(&pairs, r)).collect();
        let shared = SimLlm::new();
        for request in requests.iter().chain(requests.iter().rev()) {
            prop_assert_eq!(shared.complete(request), SimLlm::new().complete(request));
        }
    }

    /// The prompt parser never panics and never invents questions, on any
    /// input text.
    #[test]
    fn parse_prompt_total(text in "\\PC{0,300}") {
        let parsed = parse_prompt(&text);
        prop_assert!(parsed.questions.len() <= text.lines().count().max(1));
    }

    /// Serialized pairs built from arbitrary attribute values parse back
    /// with the right attribute count on the left side.
    #[test]
    fn pair_text_roundtrip(values in prop::collection::vec(arb_value(), 1..5)) {
        let names: Vec<String> = (0..values.len()).map(|i| format!("attr{i}")).collect();
        let left: Vec<String> = names
            .iter()
            .zip(&values)
            .map(|(n, v)| format!("{n}: {v}"))
            .collect();
        let text = format!("{} [SEP] {}", left.join(", "), left.join(", "));
        let parsed = parse_pair_text(&text);
        prop_assert_eq!(parsed.a.len(), values.len());
        for ((name, value), &(pname, pvalue)) in
            names.iter().zip(&values).zip(&parsed.a)
        {
            prop_assert_eq!(name.as_str(), pname);
            // Values are trimmed by the parser.
            prop_assert_eq!(value.trim(), pvalue);
        }
    }

    /// Engine feature scores stay in [0, 1] whatever the pair text.
    #[test]
    fn scores_bounded(a in arb_value(), b in arb_value(), c in arb_value(), d in arb_value()) {
        let text = format!("title: {a}, maker: {b} [SEP] title: {c}, maker: {d}");
        let features = PairFeatures::of(&parse_pair_text(&text));
        prop_assert!((0.0..=1.0).contains(&features.score));
        let dist = features.distance(&features);
        prop_assert!(dist.abs() < 1e-12);
    }

    /// The simulator is a pure function of (model, prompt, temperature,
    /// seed) — two identical requests always give identical responses.
    #[test]
    fn simulator_deterministic(
        a in arb_value(),
        b in arb_value(),
        seed in any::<u64>(),
    ) {
        let prompt = format!("Q1: title: {a} [SEP] title: {b}\nAnswer yes or no.");
        let llm = SimLlm::new();
        let req = ChatRequest::new(ModelKind::Gpt35Turbo0301, prompt, seed);
        let r1 = llm.complete(&req);
        let r2 = llm.complete(&req);
        prop_assert_eq!(r1, r2);
    }

    /// Whatever the simulator answers for n questions can be parsed back
    /// into exactly n labels.
    #[test]
    fn answers_always_parseable(
        values in prop::collection::vec((arb_value(), arb_value()), 1..6),
        seed in any::<u64>(),
    ) {
        let mut prompt = String::from("Entity resolution task.\n");
        for (i, (a, b)) in values.iter().enumerate() {
            prompt.push_str(&format!("Q{}: title: {a} [SEP] title: {b}\n", i + 1));
        }
        let llm = SimLlm::new();
        let resp = llm
            .complete(&ChatRequest::new(ModelKind::Gpt4, prompt, seed))
            .expect("no fault injection configured");
        let labels = parse_answers(&resp.content, values.len()).expect("parseable");
        prop_assert_eq!(labels.len(), values.len());
    }

    /// Token counting is monotone under concatenation and agrees with the
    /// materializing tokenizer.
    #[test]
    fn token_count_consistent(a in "\\PC{0,80}", b in "\\PC{0,80}") {
        let ca = llm::count_tokens(&a);
        let cb = llm::count_tokens(&b);
        let cab = llm::count_tokens(&format!("{a} {b}"));
        prop_assert!(cab <= ca + cb + 1);
        prop_assert!(cab + 1 >= ca.max(cb));
        prop_assert_eq!(ca, llm::tokenize(&a).len() as u64);
    }

    /// Usage accounting matches the content: completion tokens equal the
    /// tokenization of the returned text.
    #[test]
    fn usage_matches_content(a in arb_value(), seed in any::<u64>()) {
        let prompt = format!("Q1: title: {a} [SEP] title: {a}");
        let llm = SimLlm::new();
        let resp = llm
            .complete(&ChatRequest::new(ModelKind::Gpt35Turbo0301, prompt.clone(), seed))
            .unwrap();
        prop_assert_eq!(resp.usage.prompt_tokens.get(), llm::count_tokens(&prompt));
        prop_assert_eq!(resp.usage.completion_tokens.get(), llm::count_tokens(&resp.content));
    }

    /// Distance is symmetric to the bit.
    #[test]
    fn distance_symmetric(a in arb_side(), b in arb_side(), c in arb_side(), d in arb_side()) {
        let (p, q) = (render_pair(&a, &b), render_pair(&c, &d));
        let (fp, fq) = (
            PairFeatures::of(&parse_pair_text(&p)),
            PairFeatures::of(&parse_pair_text(&q)),
        );
        prop_assert_eq!(fp.distance(&fq).to_bits(), fq.distance(&fp).to_bits());
    }

    /// Distance aligns by name, not position: listing uniquely named
    /// attributes in another order, the same on both sides, moves no
    /// distance to any other pair.
    #[test]
    fn distance_ignores_attribute_order(
        attrs in prop::collection::vec((arb_value(), arb_value(), any::<u64>()), 1..6),
        c in arb_side(),
        d in arb_side(),
    ) {
        let named = |order: &[usize], side: fn(&(String, String, u64)) -> &String| {
            order
                .iter()
                .map(|&i| format!("attr{i}: {}", side(&attrs[i])))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let given: Vec<usize> = (0..attrs.len()).collect();
        let mut shuffled = given.clone();
        shuffled.sort_by_key(|&i| attrs[i].2);
        let pair = |order: &[usize]| {
            format!("{} [SEP] {}", named(order, |t| &t.0), named(order, |t| &t.1))
        };
        let (p, p_shuffled, q) = (pair(&given), pair(&shuffled), render_pair(&c, &d));
        let fq = PairFeatures::of(&parse_pair_text(&q));
        prop_assert_eq!(
            PairFeatures::of(&parse_pair_text(&p)).distance(&fq).to_bits(),
            PairFeatures::of(&parse_pair_text(&p_shuffled)).distance(&fq).to_bits()
        );
    }

    /// A repeated name reads as its first occurrence: appending another
    /// `x` attribute to the left side moves no distance.
    #[test]
    fn distance_reads_first_of_repeated_names(
        first in arb_value(),
        repeat in arb_value(),
        right in arb_value(),
        c in arb_side(),
        d in arb_side(),
    ) {
        let once = format!("x: {first} [SEP] x: {right}");
        let twice = format!("x: {first}, x: {repeat} [SEP] x: {right}");
        let q = render_pair(&c, &d);
        let fq = PairFeatures::of(&parse_pair_text(&q));
        let (f_once, f_twice) = (
            PairFeatures::of(&parse_pair_text(&once)),
            PairFeatures::of(&parse_pair_text(&twice)),
        );
        prop_assert_eq!(f_twice.per_attr().count(), 2);
        prop_assert_eq!(
            f_once.distance(&fq).to_bits(),
            f_twice.distance(&fq).to_bits()
        );
    }
}
