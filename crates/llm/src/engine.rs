//! The simulated model's decision engine.
//!
//! Given the parsed prompt and a [`CapabilityProfile`], the engine answers
//! each question with a yes/no decision plus the index of the attribute it
//! found most decisive (used to render a rationale). The engine never sees
//! gold labels: its judgement derives entirely from the text in the prompt,
//! the model profile, and seeded noise.
//!
//! Decision rule per question `q`:
//!
//! ```text
//! logit(q) = sharpness_eff · (score(q) − threshold)
//!          + demo_weight · tanh(Σ_d ±exp(−(dist(q,d)/bw)²))
//!          + ε,   ε ~ N(0, σ_eff²)
//! ```
//!
//! where `score(q)` is the engine's latent reading of the pair (a weighted
//! blend of per-attribute string similarities), `±` is the demonstration's
//! stated answer, `sharpness_eff` grows with in-batch diversity (contrast
//! effect) and `σ_eff` grows for single-question prompts (standard
//! prompting's instability).
//!
//! A reading depends on the pair text alone — not on the model, the seed,
//! the demonstration's label or the pair's place in the prompt — so
//! `decide` reads through a `ReadingMemo` keyed by the raw pair text:
//! a design-space pass asks the same questions in every cell and shows
//! the same demonstrations to many batches, and each distinct pair is read
//! once.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt::Write;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use er_core::Rng;
use text_sim::{fnv1a64, jaccard_sorted, levenshtein_ratio, normalize_into};

use crate::parse::{parse_pair_text, ParsedAttr, ParsedPair, ScannedPrompt};
use crate::profile::CapabilityProfile;

/// One answered question.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// `true` = the model says "matching".
    pub answer: bool,
    /// Confidence in `[0.5, 1)` — distance of the sigmoid output from 0.5.
    pub confidence: f64,
    /// Name of the attribute the model found most decisive (for the
    /// rationale), if any attribute was parseable.
    pub decisive_attr: Option<String>,
    /// Whether this answer was copied from the previous near-identical
    /// question in the batch (similarity-batching failure mode).
    pub copied: bool,
}

/// Answers every question in the scanned prompt.
///
/// `noise_scale` multiplies the profile's σ (driven by temperature), and
/// `rng` must be derived deterministically from the request seed so that
/// identical requests produce identical responses. Every pair is read
/// through `memo`; what it remembers changes no answer.
pub(crate) fn decide(
    parsed: &ScannedPrompt<'_>,
    profile: &CapabilityProfile,
    noise_scale: f64,
    rng: &mut Rng,
    memo: &ReadingMemo,
) -> Vec<Decision> {
    let pairs = parsed
        .questions
        .iter()
        .copied()
        .chain(parsed.demos.iter().map(|d| d.0));
    let readings = memo.read_all(pairs);
    let (features, demo_readings) = readings.split_at(parsed.questions.len());
    let scores: Vec<f64> = features.iter().map(|f| f.score).collect();

    // Contrast effect: mutually diverse batches let the model calibrate by
    // comparing questions, which sharpens its decisions. A single question
    // or a batch of near-duplicates earns no bonus.
    let spread = population_std(&scores);
    let diversity = (spread / 0.15).min(1.0);
    let sharpness_eff = if scores.len() > 1 {
        profile.sharpness + profile.batch_contrast_bonus * diversity
    } else {
        profile.sharpness
    };
    let sigma_eff = if scores.len() <= 1 {
        (profile.noise_sigma + profile.standard_extra_sigma) * noise_scale
    } else {
        // Near-duplicate batches confuse the model (§VI-C): the less
        // internal diversity, the noisier its judgements.
        profile.noise_sigma * (1.0 + profile.similar_batch_noise * (1.0 - diversity)) * noise_scale
    };

    let demo_features: Vec<(&PairFeatures, bool)> = demo_readings
        .iter()
        .zip(&parsed.demos)
        .map(|(reading, &(_, label))| (&**reading, label))
        .collect();

    let mut decisions: Vec<Decision> = Vec::with_capacity(features.len());
    for (i, feat) in features.iter().enumerate() {
        // Answer copying: when the previous question in the batch looks
        // nearly identical, lazy models repeat themselves instead of
        // re-deriving the answer (§VI-C's similarity-batching pathology).
        if i > 0 {
            let prev = &features[i - 1];
            let d = feat.distance(prev);
            if d < profile.copy_radius && rng.f64() < profile.copy_prob {
                let prev_decision = &decisions[i - 1];
                decisions.push(Decision {
                    answer: prev_decision.answer,
                    confidence: prev_decision.confidence * 0.9,
                    decisive_attr: feat.extreme_attr(prev_decision.answer),
                    copied: true,
                });
                continue;
            }
        }

        // Demonstrations act through two channels. (1) *Label vote*: the
        // nearest demo's answer pulls the decision toward itself,
        // proportionally to relevance. (2) *Calibration*: any relevant
        // worked example — matching label or not — shows the model how
        // this kind of pair is decided, sharpening its own judgement.
        // Channel (2) is label-free, which is why one well-covering demo
        // per question is nearly as good as the per-question nearest demo
        // (§VI-C: Cover ≈ Topk-question on accuracy).
        let mut best_k = 0.0f64;
        let mut rest_sum = 0.0f64;
        for &(df, label) in &demo_features {
            let d = feat.distance(df);
            let k = (-(d / profile.demo_bandwidth).powi(2)).exp();
            let signed = if label { k } else { -k };
            if signed.abs() > best_k.abs() {
                rest_sum += best_k * 0.25;
                best_k = signed;
            } else {
                rest_sum += signed * 0.25;
            }
        }
        let demo_term = (0.35 * best_k + 0.4 * rest_sum).tanh();
        let calibration = 7.0 * best_k.abs();

        let logit = (sharpness_eff + calibration) * (feat.score - profile.threshold)
            + profile.demo_weight * demo_term
            + gaussian(rng) * sigma_eff;
        let p = sigmoid(logit);
        let answer = p >= 0.5;
        decisions.push(Decision {
            answer,
            confidence: (p - 0.5).abs() + 0.5,
            decisive_attr: feat.extreme_attr(answer),
            copied: false,
        });
    }
    decisions
}

/// The engine's latent reading of one pair: per-attribute similarities and
/// an aggregate score. It owns its attribute names, packed into one
/// string, so it outlives the prompt it was read from and a memo entry is
/// a handful of allocations, not one per name.
#[derive(Debug, Clone, PartialEq)]
pub struct PairFeatures {
    /// Every aligned attribute's name, concatenated in attribute order.
    names: String,
    /// Per aligned attribute: where its name ends in `names`, and its
    /// similarity.
    attrs: Vec<(usize, f64)>,
    /// Weighted aggregate in `[0, 1]`.
    pub score: f64,
    /// `attrs` indices by ascending name, each name's first only.
    name_order: Vec<usize>,
}

impl PairFeatures {
    /// Reads a parsed pair into features. Attributes align by name when
    /// names parse on both sides, positionally otherwise.
    ///
    /// Beyond the per-attribute similarity blend, the reading applies a
    /// **conflict penalty**: a clearly disagreeing attribute where both
    /// sides carry a value is strong evidence of two different entities —
    /// the behaviour the paper observes GPT exhibiting on Walmart-Amazon's
    /// `modelno` (§VI-B). Identifier-like values (single tokens mixing
    /// letters and digits) disagree hard when unequal.
    pub fn of(pair: &ParsedPair<'_>) -> Self {
        Reader::default().pair(pair)
    }

    /// `(attribute name, similarity)` per aligned attribute, in order; an
    /// unnamed attribute reads `field{idx}`, an unparseable pair `text`.
    pub fn per_attr(&self) -> impl Iterator<Item = (&str, f64)> {
        (0..self.attrs.len()).map(|i| (self.name(i), self.attrs[i].1))
    }

    fn name(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.attrs[i - 1].0 };
        &self.names[start..self.attrs[i].0]
    }

    /// Arity-normalized Euclidean distance between two feature readings,
    /// aligned by attribute name (a name on one side only reads 0.5 on the
    /// other): one merge of the two name orders.
    pub fn distance(&self, other: &PairFeatures) -> f64 {
        let (mut x, mut y) = (self.by_name().peekable(), other.by_name().peekable());
        let (mut sum, mut names) = (0.0, 0usize);
        loop {
            let order = match (x.peek(), y.peek()) {
                (Some((a, _)), Some((b, _))) => a.cmp(b),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => break,
            };
            let a = x.next_if(|_| order.is_le()).map_or(0.5, |(_, s)| s);
            let b = y.next_if(|_| order.is_ge()).map_or(0.5, |(_, s)| s);
            sum += (a - b) * (a - b);
            names += 1;
        }
        (sum / names.max(1) as f64).sqrt()
    }

    /// `(name, similarity)` of each name's first occurrence, by name.
    fn by_name(&self) -> impl Iterator<Item = (&str, f64)> {
        self.name_order
            .iter()
            .map(|&i| (self.name(i), self.attrs[i].1))
    }

    /// Attribute the model cites in its rationale: the most similar one
    /// when answering yes, the least similar when answering no.
    pub fn extreme_attr(&self, answer: bool) -> Option<String> {
        let iter = self.per_attr();
        let chosen = if answer {
            iter.max_by(|a, b| a.1.total_cmp(&b.1))
        } else {
            iter.min_by(|a, b| a.1.total_cmp(&b.1))
        };
        chosen.map(|(n, _)| n.to_owned())
    }
}

/// The most a [`ReadingMemo`] holds, in bytes of key text plus reading.
/// One `offline_design_space` round reads 5,616 distinct pair texts
/// (1.2 MB of text, 2.5 MB with their readings); a full memo is emptied
/// rather than trimmed.
const MEMO_MAX_BYTES: usize = 4 << 20;

/// The most one entry may take: a longer pair text is read but not
/// remembered, so no single prompt empties or pins the memo.
const MEMO_MAX_ENTRY_BYTES: usize = MEMO_MAX_BYTES / 256;

/// Readings of the pair texts already read, keyed by the full raw pair
/// text — compared by equality, the hash only picks the bucket — and
/// bounded by [`MEMO_MAX_BYTES`]. Demonstrations and questions share it,
/// since a label is not part of a reading. One lock per call looks up,
/// another inserts what the call read; reading happens outside both.
#[derive(Default)]
pub(crate) struct ReadingMemo {
    table: Mutex<MemoTable>,
}

type Readings = HashMap<Box<str>, Arc<PairFeatures>>;

#[derive(Default)]
struct MemoTable {
    readings: Readings,
    /// [`footprint`] summed over `readings`.
    bytes: usize,
}

impl std::fmt::Debug for ReadingMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let table = self.lock();
        f.debug_struct("ReadingMemo")
            .field("entries", &table.readings.len())
            .field("bytes", &table.bytes)
            .finish()
    }
}

impl ReadingMemo {
    /// The table is consistent after every insert or clear, so a
    /// poisoned lock is safe to take.
    fn lock(&self) -> MutexGuard<'_, MemoTable> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The reading of each raw pair text, in order: remembered ones looked
    /// up, the rest parsed, read and then remembered.
    fn read_all<'p>(&self, pairs: impl Iterator<Item = &'p str>) -> Vec<Arc<PairFeatures>> {
        let pairs: Vec<&str> = pairs.collect();
        let found: Vec<Option<Arc<PairFeatures>>> = {
            let table = self.lock();
            pairs
                .iter()
                .map(|&raw| table.readings.get(raw).cloned())
                .collect()
        };
        let mut reader = Reader::default();
        let mut fresh: Vec<(&str, Arc<PairFeatures>)> = Vec::new();
        let readings = found
            .into_iter()
            .zip(&pairs)
            .map(|(hit, &raw)| {
                hit.unwrap_or_else(|| {
                    let reading = Arc::new(reader.pair(&parse_pair_text(raw)));
                    fresh.push((raw, Arc::clone(&reading)));
                    reading
                })
            })
            .collect();
        if !fresh.is_empty() {
            let mut table = self.lock();
            let evicted: Vec<_> = fresh
                .into_iter()
                .filter_map(|(raw, reading)| table.insert(raw, reading))
                .collect();
            drop(table);
            drop(evicted);
        }
        readings
    }
}

impl MemoTable {
    /// Remembers `reading` under `raw` unless the entry is over its limit
    /// or already there. When it would pass the cap, every entry goes
    /// first: returned, so the caller frees them after the lock.
    fn insert(&mut self, raw: &str, reading: Arc<PairFeatures>) -> Option<Readings> {
        let bytes = footprint(raw, &reading);
        if bytes > MEMO_MAX_ENTRY_BYTES || self.readings.contains_key(raw) {
            return None;
        }
        let evicted = (self.bytes + bytes > MEMO_MAX_BYTES).then(|| {
            self.bytes = 0;
            std::mem::take(&mut self.readings)
        });
        self.readings.insert(raw.into(), reading);
        self.bytes += bytes;
        evicted
    }
}

/// Bytes an entry holds: its key text, its reading's names and vectors,
/// and the fixed parts of the slot, the `Arc` and the reading.
fn footprint(raw: &str, reading: &PairFeatures) -> usize {
    use std::mem::size_of;
    let fixed = size_of::<(Box<str>, Arc<PairFeatures>)>()
        + 2 * size_of::<usize>()
        + size_of::<PairFeatures>();
    fixed
        + raw.len()
        + reading.names.capacity()
        + reading.attrs.capacity() * size_of::<(usize, f64)>()
        + reading.name_order.capacity() * size_of::<usize>()
}

/// The value named `name` (its first occurrence), else the one at `idx`.
fn lookup<'v>(attrs: &[ParsedAttr<'v>], name: &str, idx: usize) -> Option<&'v str> {
    let named = attrs.iter().find(|(n, _)| !name.is_empty() && *n == name);
    named.or(attrs.get(idx)).map(|&(_, v)| v)
}

/// True for identifier-like values: one token mixing letters and digits
/// (model numbers, SKUs). Exact disagreement on these is decisive.
fn is_identifier(v: &str) -> bool {
    let t = v.trim();
    !t.is_empty()
        && !t.contains(char::is_whitespace)
        && t.chars().any(|c| c.is_ascii_alphabetic())
        && t.chars().any(|c| c.is_ascii_digit())
}

/// Tokens that mark a different *version* of an otherwise identically
/// named entity — the distinctions an LLM reads as "not the same entity"
/// (live recordings, remixes, sequels, second locations).
const VARIANT_MARKERS: &[&str] = &[
    "live",
    "remix",
    "deluxe",
    "remastered",
    "acoustic",
    "double",
    "part",
    "vol",
    "volume",
    "downtown",
    "ii",
    "iii",
];

/// Reads pairs an aligned attribute at a time, each value once: normalized
/// into a buffer kept from the last attribute and split into one sorted
/// token set that every signal below shares.
#[derive(Debug, Default)]
struct Reader {
    a: Value,
    b: Value,
    /// The names of the pair being read, concatenated.
    names: String,
}

#[derive(Debug, Default)]
struct Value {
    norm: String,
    /// Byte ranges of `norm`'s distinct word tokens, in ascending order.
    spans: Vec<(usize, usize)>,
    /// Two or more word tokens ("0 0" counts) or any letter: not a number.
    texty: bool,
    /// Bit `i` set when the value contains `VARIANT_MARKERS[i]`.
    markers: u16,
}

impl Value {
    fn read(&mut self, raw: &str) {
        normalize_into(raw, &mut self.norm);
        let norm = self.norm.as_bytes();
        self.spans.clear();
        let mut start = 0;
        for token in norm.split(|&c| c == b' ') {
            if !token.is_empty() {
                self.spans.push((start, start + token.len()));
            }
            start += token.len() + 1;
        }
        self.texty = self.spans.len() >= 2 || norm.iter().any(u8::is_ascii_alphabetic);
        self.spans.sort_unstable_by_key(|&(s, e)| &norm[s..e]);
        self.spans.dedup_by_key(|&mut (s, e)| &norm[s..e]);
        self.markers = self
            .tokens()
            .filter_map(|token| VARIANT_MARKERS.iter().position(|m| *m == token))
            .fold(0, |mask, i| mask | 1 << i);
    }

    /// The distinct tokens, ascending.
    fn tokens(&self) -> impl Iterator<Item = &str> {
        self.spans.iter().map(|&(s, e)| &self.norm[s..e])
    }
}

impl Reader {
    /// [`PairFeatures::of`] through this reader's buffers.
    fn pair(&mut self, pair: &ParsedPair<'_>) -> PairFeatures {
        let mut names = std::mem::take(&mut self.names);
        names.clear();
        let mut sims: Vec<(usize, f64)> = Vec::with_capacity(pair.a.len().max(1));
        let mut conflict: f64 = 0.0;
        for (idx, &(name, va)) in pair.a.iter().enumerate() {
            let (sim, c) = lookup(&pair.b, name, idx).map_or((0.0, 0.0), |vb| self.attr(va, vb));
            conflict = conflict.max(c);
            match name {
                "" => {
                    let _ = write!(names, "field{idx}");
                }
                _ => names.push_str(name),
            }
            sims.push((names.len(), sim));
        }
        if sims.is_empty() {
            // Nothing parseable: fall back to whole-text similarity of the
            // raw halves (an LLM would still read the characters).
            let sim = pair
                .raw
                .split_once("[SEP]")
                .map_or(0.0, |(l, r)| self.attr(l, r).0);
            names.push_str("text");
            sims.push((names.len(), sim));
        }
        // The first attribute (title-like) carries double weight: in the
        // Magellan schemas it is by far the most discriminative.
        let num = sims.iter().fold(sims[0].1, |num, (_, s)| num + s);
        let base = num / (sims.len() + 1) as f64;
        let score = (base - 0.9 * conflict).clamp(0.0, 1.0);

        let mut features = PairFeatures {
            names: names.as_str().to_owned(),
            attrs: sims,
            score,
            name_order: Vec::new(),
        };
        self.names = names;
        // Ties broken by position, so the first of a repeated name leads
        // its run and survives the dedup.
        let mut name_order: Vec<usize> = (0..features.attrs.len()).collect();
        name_order
            .sort_unstable_by(|&i, &j| features.name(i).cmp(features.name(j)).then(i.cmp(&j)));
        name_order.dedup_by(|later, first| features.name(*later) == features.name(*first));
        features.name_order = name_order;
        features
    }

    /// Reads the raw values `va` and `vb` into `(similarity, conflict)`.
    /// The similarity blends edit and token similarity of the normalized
    /// forms; both missing reads 0.5 (weak evidence), one missing 0.0. The
    /// conflict, where both sides carry a value, is:
    ///
    /// * unequal identifier values ("S1230" vs "S1231") — decisive;
    /// * disjoint identifier/numeric *tokens* inside longer values
    ///   ("photoshop 2006" vs "photoshop 2007") — strong;
    /// * a variant marker on exactly one side ("… (live)") — strong;
    /// * plain dissimilarity of texty values — proportional. Purely numeric
    ///   single-token values (prices, years as standalone attributes) are
    ///   exempt: formatting drift on those is routine in matching records.
    fn attr(&mut self, va: &str, vb: &str) -> (f64, f64) {
        self.a.read(va);
        self.b.read(vb);
        let (a, b) = (&self.a, &self.b);
        if a.norm.is_empty() || b.norm.is_empty() {
            return (if a.norm == b.norm { 0.5 } else { 0.0 }, 0.0);
        }
        let sim = 0.5 * levenshtein_ratio(&a.norm, &b.norm)
            + 0.5 * jaccard_sorted(a.tokens(), b.tokens());
        if is_identifier(va) && is_identifier(vb) {
            return (sim, if a.norm == b.norm { 0.0 } else { 0.45 });
        }
        let mut conflict: f64 = 0.0;
        // Disjoint digit-bearing tokens on both sides: different versions,
        // model numbers or vintages embedded in otherwise similar text.
        let digit = |t: &&str| t.bytes().any(|c| c.is_ascii_digit());
        if a.tokens().any(|t| digit(&t))
            && b.tokens().any(|t| digit(&t))
            && !a.tokens().filter(digit).any(|t| b.tokens().any(|u| u == t))
        {
            conflict = conflict.max(0.35);
        }
        if a.markers != b.markers {
            conflict = conflict.max(0.30);
        }
        if a.texty || b.texty {
            conflict = conflict.max((0.55 - sim).max(0.0));
        }
        (sim, conflict)
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

fn population_std(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    (xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Standard normal sample via Box-Muller.
fn gaussian(rng: &mut Rng) -> f64 {
    let u1 = rng.uniform(f64::EPSILON..1.0);
    let u2 = rng.f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Derives the per-call RNG from the request seed and the prompt text, so
/// identical requests are reproducible while different prompts decorrelate.
pub fn call_rng(seed: u64, prompt: &str) -> Rng {
    call_rng_from_hash(fnv1a64(prompt.as_bytes(), seed))
}

/// [`call_rng`] from the prompt's hash under the request seed, already
/// taken (`fnv1a64(prompt, seed)`, as `tokenizer::count_tokens_and_hash`
/// returns it).
pub fn call_rng_from_hash(hash: u64) -> Rng {
    Rng::from_seed(hash)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_prompt, scan_prompt};
    use crate::profile::ModelKind;

    fn quiet_profile() -> CapabilityProfile {
        CapabilityProfile {
            noise_sigma: 0.0,
            standard_extra_sigma: 0.0,
            copy_prob: 0.0,
            ..ModelKind::Gpt4.profile()
        }
    }

    fn rng() -> Rng {
        call_rng(7, "test")
    }

    fn memo() -> ReadingMemo {
        ReadingMemo::default()
    }

    #[test]
    fn identical_pair_answers_yes() {
        let p = scan_prompt("Q1: title: iphone 13, id: 77 [SEP] title: iphone 13, id: 77");
        let d = decide(&p, &quiet_profile(), 1.0, &mut rng(), &memo());
        assert_eq!(d.len(), 1);
        assert!(d[0].answer);
        assert!(!d[0].copied);
    }

    #[test]
    fn disjoint_pair_answers_no() {
        let p = scan_prompt("Q1: title: lawn mower, id: 9 [SEP] title: quantum textbook, id: 4411");
        let d = decide(&p, &quiet_profile(), 1.0, &mut rng(), &memo());
        assert!(!d[0].answer);
        assert!(d[0].decisive_attr.is_some());
    }

    #[test]
    fn relevant_demo_flips_borderline_case() {
        // A borderline question: moderate similarity. Without demos, the
        // quiet model with threshold 0.5 sits near the boundary.
        let q = "Q1: title: acer aspire 5 laptop, id: a515 [SEP] title: acer aspire five, id: a515";
        let base = scan_prompt(q);
        let without = decide(&base, &quiet_profile(), 1.0, &mut rng(), &memo());

        // Add a nearby matching demonstration (same textual pattern, label
        // yes): the kernel term must push the logit up.
        let with_demo_prompt = format!(
            "D1: title: asus rog strix laptop, id: g713 [SEP] title: asus rog strix, id: g713 => yes\n{q}"
        );
        let with = decide(
            &scan_prompt(&with_demo_prompt),
            &quiet_profile(),
            1.0,
            &mut rng(),
            &memo(),
        );
        assert!(with[0].confidence >= without[0].confidence || with[0].answer);
    }

    #[test]
    fn demo_labels_control_direction() {
        let q = "Q1: title: widget alpha, id: 1 [SEP] title: widget alpha v2, id: 1x";
        let yes_prompt = format!(
            "D1: title: widget beta, id: 2 [SEP] title: widget beta v2, id: 2x => yes\n{q}"
        );
        let no_prompt =
            format!("D1: title: widget beta, id: 2 [SEP] title: widget beta v2, id: 2x => no\n{q}");
        let profile = quiet_profile();
        let yes = decide(
            &scan_prompt(&yes_prompt),
            &profile,
            1.0,
            &mut rng(),
            &memo(),
        );
        let no = decide(&scan_prompt(&no_prompt), &profile, 1.0, &mut rng(), &memo());
        // Identical question, opposite demo labels: the yes-demo run must
        // not be less match-inclined than the no-demo run.
        let incline = |d: &Decision| {
            if d.answer {
                d.confidence
            } else {
                -d.confidence
            }
        };
        assert!(incline(&yes[0]) > incline(&no[0]));
    }

    #[test]
    fn near_duplicate_questions_get_copied_answers() {
        let profile = CapabilityProfile {
            copy_prob: 1.0,
            copy_radius: 0.05,
            noise_sigma: 0.0,
            standard_extra_sigma: 0.0,
            ..ModelKind::Gpt35Turbo0301.profile()
        };
        let p = scan_prompt(
            "Q1: title: red chair, id: 5 [SEP] title: red chair, id: 5\n\
             Q2: title: red chair, id: 5 [SEP] title: red chair, id: 5",
        );
        let d = decide(&p, &profile, 1.0, &mut rng(), &memo());
        assert!(d[1].copied);
        assert_eq!(d[0].answer, d[1].answer);
    }

    #[test]
    fn noise_scale_zero_is_deterministic() {
        let p = scan_prompt("Q1: title: a b c, id: 1 [SEP] title: a b d, id: 2");
        let d1 = decide(&p, &quiet_profile(), 0.0, &mut call_rng(1, "x"), &memo());
        let d2 = decide(&p, &quiet_profile(), 0.0, &mut call_rng(2, "y"), &memo());
        assert_eq!(d1[0].answer, d2[0].answer);
    }

    #[test]
    fn single_question_noisier_than_batch() {
        // With the full profile (nonzero sigmas), repeated single-question
        // calls over many seeds should flip more often than batch calls on
        // a borderline question.
        let profile = ModelKind::Gpt35Turbo0301.profile();
        let borderline =
            "title: zen stone mp3 4gb, id: c31 [SEP] title: zen stone mp3 8gb, id: c32";
        let single = format!("Q1: {borderline}");
        // The batch embeds the same question among diverse companions.
        let batch = format!(
            "Q1: {borderline}\n\
             Q2: title: desk lamp, id: 1 [SEP] title: desk lamp, id: 1\n\
             Q3: title: red car, id: 2 [SEP] title: blue boat, id: 9"
        );
        let flips = |prompt: &str, qidx: usize| {
            let parsed = scan_prompt(prompt);
            let mut yes = 0;
            for seed in 0..60u64 {
                let d = decide(&parsed, &profile, 1.0, &mut call_rng(seed, prompt), &memo());
                if d[qidx].answer {
                    yes += 1;
                }
            }
            yes.min(60 - yes) // instability: distance from unanimity
        };
        let single_instability = flips(&single, 0);
        let batch_instability = flips(&batch, 0);
        assert!(
            single_instability >= batch_instability,
            "single {single_instability} < batch {batch_instability}"
        );
    }

    #[test]
    fn feature_distance_is_zero_on_self() {
        let p = parse_prompt("Q1: title: x, id: 1 [SEP] title: x, id: 1");
        let f = PairFeatures::of(&p.questions[0]);
        assert_eq!(f.distance(&f), 0.0);
    }

    #[test]
    fn both_missing_is_neutral() {
        let mut reader = Reader::default();
        assert_eq!(reader.attr("", ""), (0.5, 0.0));
        assert_eq!(reader.attr("x", ""), (0.0, 0.0));
    }

    /// Answers `prompt` as `decide` does inside a call: its own RNG, and
    /// pairs read through `memo`.
    fn answer(prompt: &str, memo: &ReadingMemo) -> Vec<Decision> {
        let profile = ModelKind::Gpt35Turbo0301.profile();
        decide(
            &scan_prompt(prompt),
            &profile,
            1.0,
            &mut call_rng(3, prompt),
            memo,
        )
    }

    /// `prompts` answered through one memo equal each answered through a
    /// fresh one.
    fn assert_shared_is_fresh(prompts: &[String], memo: &ReadingMemo) {
        for prompt in prompts {
            assert_eq!(
                answer(prompt, memo),
                answer(prompt, &ReadingMemo::default()),
                "{prompt}"
            );
            assert!(memo.lock().bytes <= MEMO_MAX_BYTES);
        }
    }

    fn entries(memo: &ReadingMemo) -> usize {
        memo.lock().readings.len()
    }

    #[test]
    fn demo_of_either_label_and_question_share_one_reading() {
        let x = "title: acme widget 5, id: a5 [SEP] title: acme widget five, id: a5";
        let y = "title: red lamp, id: 9 [SEP] title: red lamp, id: 9";
        let prompts = [
            format!("D1: {x} => yes\nQ1: {y}"),
            format!("D1: {x} => no\nQ1: {y}"),
            format!("Q1: {x}\nQ2: {y}"),
            format!("D1: {y} => no\nQ1: {x}"),
        ];
        let memo = memo();
        assert_shared_is_fresh(&prompts, &memo);
        assert_eq!(entries(&memo), 2);
        let table = memo.lock();
        assert!(table.readings.contains_key(x) && table.readings.contains_key(y));
    }

    #[test]
    fn pair_text_one_byte_apart_is_read_fresh() {
        let x = "title: zen stone mp3 4gb, id: c31 [SEP] title: zen stone mp3 8gb, id: c32";
        let mut bytes = x.as_bytes().to_vec();
        *bytes.last_mut().unwrap() = b'1';
        let x1 = String::from_utf8(bytes).unwrap();
        let memo = memo();
        assert_shared_is_fresh(&[format!("Q1: {x}"), format!("Q1: {x1}")], &memo);
        assert_eq!(entries(&memo), 2);
        let (a, b) = {
            let table = memo.lock();
            (
                Arc::clone(&table.readings[x]),
                Arc::clone(&table.readings[x1.as_str()]),
            )
        };
        assert_ne!(
            a.score, b.score,
            "the last byte is a conflicting identifier"
        );
    }

    /// A pair of `attrs` short attributes per side whose values carry `tag`.
    fn wide_pair(attrs: usize, tag: usize) -> String {
        let side = |s: usize| {
            (0..attrs)
                .map(|k| format!("a{k}: v{tag} {}", (k + s) % 7))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!("{} [SEP] {}", side(0), side(1))
    }

    #[test]
    fn memo_stays_exact_and_bounded_past_its_cap() {
        // About 20 kB an entry, so a few hundred fill the memo.
        let probe = wide_pair(200, 0);
        let one = footprint(&probe, &PairFeatures::of(&parse_pair_text(&probe)));
        assert!(one <= MEMO_MAX_ENTRY_BYTES, "{one} bytes");
        let to_fill = MEMO_MAX_BYTES / one + 1;
        let memo = memo();
        let mut peak = 0;
        let mut cleared = false;
        for i in 0..to_fill + 20 {
            let prompt = format!(
                "Q1: {}\nQ2: {}",
                wide_pair(200, 2 * i),
                wide_pair(200, 2 * i + 1)
            );
            assert_eq!(
                answer(&prompt, &memo),
                answer(&prompt, &ReadingMemo::default())
            );
            let n = entries(&memo);
            cleared |= n < peak;
            peak = peak.max(n);
            assert!(memo.lock().bytes <= MEMO_MAX_BYTES);
        }
        assert!(
            cleared,
            "{} distinct pairs never filled the memo",
            2 * (to_fill + 20)
        );
        // Early pairs were dropped with the rest; read again, they answer alike.
        assert_shared_is_fresh(&[format!("Q1: {}", wide_pair(200, 0))], &memo);
    }

    #[test]
    fn pair_over_the_entry_limit_is_answered_not_remembered() {
        let big = wide_pair(1_000, 1);
        let reading = PairFeatures::of(&parse_pair_text(&big));
        assert!(footprint(&big, &reading) > MEMO_MAX_ENTRY_BYTES);
        let small = "title: x, id: 1 [SEP] title: x, id: 1";
        let memo = memo();
        assert_shared_is_fresh(&[format!("D1: {small} => yes\nQ1: {big}")], &memo);
        let table = memo.lock();
        assert_eq!(table.readings.len(), 1);
        assert!(table.readings.contains_key(small) && !table.readings.contains_key(big.as_str()));
        assert_eq!(table.bytes, footprint(small, &table.readings[small]));
    }

    #[test]
    fn call_rng_depends_on_both_inputs() {
        let a = call_rng(1, "p").next_u64();
        let b = call_rng(2, "p").next_u64();
        let c = call_rng(1, "q").next_u64();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
