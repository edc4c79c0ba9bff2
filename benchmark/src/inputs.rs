//! Seeded inputs: everything the program under test receives is derived
//! here from `--seed`, and folded into a per-workload `input_digest` so a
//! later edit to `datagen` (or to this file) cannot silently change the
//! load the numbers were measured on.

use std::collections::HashSet;
use std::sync::Arc;

use datagen::{generate, DatasetKind};
use er_core::{Dataset, EntityPair, LabeledPair, PairId, Record, RecordId};
use er_service::{pair_fingerprint, PairFingerprint};

/// SplitMix64: the benchmark's own PRNG for schedules and noise, so the
/// request stream does not move when a crate's RNG does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at
    /// these ranges.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a over the serialized input stream, in order.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        // Field separator, so ("ab","c") and ("a","bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// One dataset's slice of an offline round: a prefix of the 3:1:1
/// split's train part as the demonstration pool and a prefix of its test
/// part as the question set.
pub struct OfflineSlice {
    pub kind: DatasetKind,
    pub dataset: Dataset,
    pub pool: Vec<LabeledPair>,
    pub questions: Vec<LabeledPair>,
}

impl OfflineSlice {
    pub fn pool_refs(&self) -> Vec<&LabeledPair> {
        self.pool.iter().collect()
    }

    pub fn question_refs(&self) -> Vec<&LabeledPair> {
        self.questions.iter().collect()
    }
}

/// The eight Table II datasets, split with `seed` and capped at
/// `max_pool` / `max_questions` pairs each.
pub fn offline_slices(seed: u64, max_pool: usize, max_questions: usize) -> Vec<OfflineSlice> {
    DatasetKind::ALL
        .into_iter()
        .map(|kind| {
            let dataset = generate(kind, seed);
            let split = dataset
                .split_3_1_1(seed)
                .expect("generated datasets are non-empty");
            let take = |part: &[&LabeledPair], n: usize| -> Vec<LabeledPair> {
                part.iter().take(n).map(|p| (*p).clone()).collect()
            };
            let pool = take(&split.train, max_pool);
            let questions = take(&split.test, max_questions);
            drop(split);
            OfflineSlice { kind, dataset, pool, questions }
        })
        .collect()
}

/// Digest of the offline inputs: every pool demonstration and question,
/// serialized with its gold label, in dataset order.
pub fn offline_digest(slices: &[OfflineSlice]) -> String {
    let mut digest = Digest::new();
    for slice in slices {
        digest.update(slice.kind.short_name().as_bytes());
        for refs in [slice.pool_refs(), slice.question_refs()] {
            digest.update(&(refs.len() as u64).to_le_bytes());
            for p in refs {
                digest.update(p.pair.serialize().as_bytes());
                digest.update(&[u8::from(p.label.is_match())]);
            }
        }
    }
    digest.hex()
}

/// How a request relates to the questions its client asked before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// A question nobody has asked yet.
    First,
    /// The same bytes as the first asking.
    Verbatim,
    /// Left and right records swapped.
    Mirrored,
    /// Case and punctuation noise that normalization removes.
    Noised,
}

/// One `POST /match` the generator will send.
pub struct PlannedRequest {
    /// Index into [`ServeInputs::questions`].
    pub question: usize,
    pub kind: RequestKind,
    /// The request body, rendered once at set-up so the timed loop only
    /// writes bytes.
    pub body: Vec<u8>,
}

/// Inputs of a served workload.
pub struct ServeInputs {
    pub dataset: Dataset,
    /// Labeled pairs handed to `ErService::start` (demonstration pool and
    /// fallback training data).
    pub bootstrap: Vec<LabeledPair>,
    /// Every distinct question the clients may ask, with its gold label.
    pub questions: Vec<LabeledPair>,
    /// One request stream per client, in send order.
    pub streams: Vec<Vec<PlannedRequest>>,
    pub digest: String,
}

/// The dataset behind both served workloads.
pub const SERVE_DATASET: DatasetKind = DatasetKind::DblpScholar;
/// Labeled pairs handed to the service at start.
pub const BOOTSTRAP_PAIRS: usize = 600;

/// Generates the served dataset and splits off the bootstrap pool — the
/// part of set-up that belongs to the system (timed as `setup_s`).
pub fn serve_dataset(seed: u64) -> (Dataset, Vec<LabeledPair>) {
    let dataset = generate(SERVE_DATASET, seed);
    let bootstrap = dataset.pairs()[..BOOTSTRAP_PAIRS].to_vec();
    (dataset, bootstrap)
}

/// Builds the request streams.
///
/// * `requests_per_client` — stream length (the timed loop stops at the
///   end of the stream or of the measuring time, whichever comes first).
/// * `repeats_per_first` — after each first-time question a client sends
///   this many repeats of questions *it* already had answered (closed
///   loop: a client's earlier requests are always complete), cycling
///   verbatim → mirrored → noised. `0` makes every request new.
pub fn serve_inputs(
    seed: u64,
    clients: usize,
    requests_per_client: usize,
    repeats_per_first: usize,
) -> ServeInputs {
    let (dataset, bootstrap) = serve_dataset(seed);
    let firsts_per_client = requests_per_client.div_ceil(repeats_per_first + 1);
    let needed = firsts_per_client * clients;

    // Questions are the pairs after the bootstrap prefix, in a seeded
    // shuffle so the stream does not inherit the generator's emission
    // order. A stream longer than one dataset draws on further datasets
    // of the same kind, generated from seeds derived from `seed`.
    // The generator emits some pairs twice (and some mirrored); a
    // "first-time" question must be new to the service's canonical
    // fingerprint, so later duplicates are skipped.
    let mut rng = Rng::new(seed);
    let mut seen: HashSet<PairFingerprint> = HashSet::with_capacity(needed);
    let mut questions: Vec<LabeledPair> = Vec::with_capacity(needed);
    let mut source: Vec<LabeledPair> = dataset.pairs()[BOOTSTRAP_PAIRS..].to_vec();
    let mut extra_datasets = 0u64;
    loop {
        for i in (1..source.len()).rev() {
            source.swap(i, rng.below(i + 1));
        }
        let before = questions.len();
        questions.extend(
            source
                .drain(..)
                .filter(|p| seen.insert(pair_fingerprint(&p.pair)))
                .take(needed - before),
        );
        if questions.len() == needed {
            break;
        }
        assert!(
            questions.len() > before,
            "a generated dataset added no distinct question"
        );
        extra_datasets += 1;
        let next_seed = seed.wrapping_add(extra_datasets.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        source = generate(SERVE_DATASET, next_seed).pairs().to_vec();
    }

    let mut digest = Digest::new();
    for p in &bootstrap {
        digest.update(p.pair.serialize().as_bytes());
        digest.update(&[u8::from(p.label.is_match())]);
    }

    let mut streams = Vec::with_capacity(clients);
    for client in 0..clients {
        let mut stream = Vec::with_capacity(requests_per_client);
        let mut asked: Vec<usize> = Vec::with_capacity(firsts_per_client);
        let mut next_first = client * firsts_per_client;
        let mut repeat_no = 0usize;
        for slot in 0..requests_per_client {
            let (question, kind) = if slot % (repeats_per_first + 1) == 0 {
                let q = next_first;
                next_first += 1;
                asked.push(q);
                (q, RequestKind::First)
            } else {
                let q = asked[rng.below(asked.len())];
                let kind = [
                    RequestKind::Verbatim,
                    RequestKind::Mirrored,
                    RequestKind::Noised,
                ][repeat_no % 3];
                repeat_no += 1;
                (q, kind)
            };
            let pair = &questions[question].pair;
            let body = match kind {
                RequestKind::First | RequestKind::Verbatim => render_body(
                    pair.a().schema().attributes(),
                    pair.a().values(),
                    pair.b().values(),
                ),
                RequestKind::Mirrored => render_body(
                    pair.a().schema().attributes(),
                    pair.b().values(),
                    pair.a().values(),
                ),
                RequestKind::Noised => {
                    let left: Vec<String> = pair
                        .a()
                        .values()
                        .iter()
                        .map(|v| noise(v, &mut rng))
                        .collect();
                    let right: Vec<String> = pair
                        .b()
                        .values()
                        .iter()
                        .map(|v| noise(v, &mut rng))
                        .collect();
                    // The instrument validates its own input: a noised
                    // repeat that the service would treat as a new
                    // question is a generator bug, not a service failure.
                    let noised = rebuild_pair(pair, left.clone(), right.clone());
                    assert_eq!(
                        pair_fingerprint(&noised),
                        pair_fingerprint(pair),
                        "noise changed the canonical question"
                    );
                    render_body(pair.a().schema().attributes(), &left, &right)
                }
            };
            digest.update(&body);
            stream.push(PlannedRequest { question, kind, body });
        }
        streams.push(stream);
    }

    ServeInputs { dataset, bootstrap, questions, streams, digest: digest.hex() }
}

fn rebuild_pair(original: &EntityPair, left: Vec<String>, right: Vec<String>) -> EntityPair {
    let schema = Arc::new(original.a().schema().clone());
    let a = Record::new(RecordId::a(0), Arc::clone(&schema), left).expect("arity preserved");
    let b = Record::new(RecordId::b(0), schema, right).expect("arity preserved");
    EntityPair::new(PairId(0), Arc::new(a), Arc::new(b)).expect("schemas agree")
}

/// Case and punctuation noise that `text_sim::normalize` removes: ASCII
/// letters change case, spaces gain punctuation, and the value gains a
/// trailing mark. Nothing is inserted inside a token.
fn noise(value: &str, rng: &mut Rng) -> String {
    let mut out = String::with_capacity(value.len() + 8);
    for ch in value.chars() {
        if ch.is_ascii_alphabetic() && rng.below(3) == 0 {
            out.push(if ch.is_ascii_lowercase() {
                ch.to_ascii_uppercase()
            } else {
                ch.to_ascii_lowercase()
            });
        } else if ch == ' ' && rng.below(4) == 0 {
            out.push_str([" - ", ", ", "  ", " / "][rng.below(4)]);
        } else {
            out.push(ch);
        }
    }
    out.push_str(["", ".", " !", ";"][rng.below(4)]);
    out
}

/// Renders a `POST /match` body.
pub fn render_body(schema: &[String], left: &[String], right: &[String]) -> Vec<u8> {
    let mut out = String::with_capacity(256);
    out.push_str("{\"schema\":");
    json_string_array(schema, &mut out);
    out.push_str(",\"left\":");
    json_string_array(left, &mut out);
    out.push_str(",\"right\":");
    json_string_array(right, &mut out);
    out.push('}');
    out.into_bytes()
}

fn json_string_array(values: &[String], out: &mut String) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_string(v, out);
    }
    out.push(']');
}

/// Appends `s` as a JSON string literal.
fn json_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}
