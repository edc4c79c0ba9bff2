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

use std::borrow::Cow;
use std::cmp::Ordering;

use er_core::Rng;
use text_sim::{fnv1a64, jaccard_sorted, levenshtein_ratio, normalize_into};

use crate::parse::{ParsedAttr, ParsedPair, ParsedPrompt};
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

/// Answers every question in the parsed prompt.
///
/// `noise_scale` multiplies the profile's σ (driven by temperature), and
/// `rng` must be derived deterministically from the request seed so that
/// identical requests produce identical responses.
pub fn decide(
    parsed: &ParsedPrompt<'_>,
    profile: &CapabilityProfile,
    noise_scale: f64,
    rng: &mut Rng,
) -> Vec<Decision> {
    let mut reader = Reader::default();
    let features: Vec<PairFeatures> = parsed.questions.iter().map(|q| reader.pair(q)).collect();
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

    let demo_features: Vec<(PairFeatures, bool)> = parsed
        .demos
        .iter()
        .map(|d| (reader.pair(&d.pair), d.label))
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
        for (df, label) in &demo_features {
            let d = feat.distance(df);
            let k = (-(d / profile.demo_bandwidth).powi(2)).exp();
            let signed = if *label { k } else { -k };
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
/// an aggregate score.
#[derive(Debug, Clone, PartialEq)]
pub struct PairFeatures<'p> {
    /// `(attribute name, similarity)` per aligned attribute; only an
    /// unnamed attribute's `field{idx}` is not borrowed from the prompt.
    pub per_attr: Vec<(Cow<'p, str>, f64)>,
    /// Weighted aggregate in `[0, 1]`.
    pub score: f64,
    /// `per_attr` indices by ascending name, each name's first only.
    name_order: Vec<usize>,
}

impl<'p> PairFeatures<'p> {
    /// Reads a parsed pair into features. Attributes align by name when
    /// names parse on both sides, positionally otherwise.
    ///
    /// Beyond the per-attribute similarity blend, the reading applies a
    /// **conflict penalty**: a clearly disagreeing attribute where both
    /// sides carry a value is strong evidence of two different entities —
    /// the behaviour the paper observes GPT exhibiting on Walmart-Amazon's
    /// `modelno` (§VI-B). Identifier-like values (single tokens mixing
    /// letters and digits) disagree hard when unequal.
    pub fn of(pair: &ParsedPair<'p>) -> Self {
        Reader::default().pair(pair)
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
            let a = x.next_if(|_| order.is_le()).map_or(0.5, |(_, s)| *s);
            let b = y.next_if(|_| order.is_ge()).map_or(0.5, |(_, s)| *s);
            sum += (a - b) * (a - b);
            names += 1;
        }
        (sum / names.max(1) as f64).sqrt()
    }

    /// `(name, similarity)` of each name's first occurrence, by name.
    fn by_name(&self) -> impl Iterator<Item = &(Cow<'p, str>, f64)> {
        self.name_order.iter().map(|&i| &self.per_attr[i])
    }

    /// Attribute the model cites in its rationale: the most similar one
    /// when answering yes, the least similar when answering no.
    pub fn extreme_attr(&self, answer: bool) -> Option<String> {
        let iter = self.per_attr.iter();
        let chosen = if answer {
            iter.max_by(|a, b| a.1.total_cmp(&b.1))
        } else {
            iter.min_by(|a, b| a.1.total_cmp(&b.1))
        };
        chosen.map(|(n, _)| n.to_string())
    }
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
    fn pair<'p>(&mut self, pair: &ParsedPair<'p>) -> PairFeatures<'p> {
        let mut per_attr: Vec<(Cow<'p, str>, f64)> = Vec::with_capacity(pair.a.len().max(1));
        let mut conflict: f64 = 0.0;
        for (idx, &(name, va)) in pair.a.iter().enumerate() {
            let (sim, c) = lookup(&pair.b, name, idx).map_or((0.0, 0.0), |vb| self.attr(va, vb));
            conflict = conflict.max(c);
            let name = match name {
                "" => Cow::Owned(format!("field{idx}")),
                _ => Cow::Borrowed(name),
            };
            per_attr.push((name, sim));
        }
        if per_attr.is_empty() {
            // Nothing parseable: fall back to whole-text similarity of the
            // raw halves (an LLM would still read the characters).
            let sim = pair
                .raw
                .split_once("[SEP]")
                .map_or(0.0, |(l, r)| self.attr(l, r).0);
            per_attr.push((Cow::Borrowed("text"), sim));
        }
        // The first attribute (title-like) carries double weight: in the
        // Magellan schemas it is by far the most discriminative.
        let num = per_attr.iter().fold(per_attr[0].1, |num, (_, s)| num + s);
        let base = num / (per_attr.len() + 1) as f64;
        let score = (base - 0.9 * conflict).clamp(0.0, 1.0);

        // Ties broken by position, so the first of a repeated name leads
        // its run and survives the dedup.
        let mut name_order: Vec<usize> = (0..per_attr.len()).collect();
        name_order.sort_unstable_by(|&i, &j| per_attr[i].0.cmp(&per_attr[j].0).then(i.cmp(&j)));
        name_order.dedup_by(|later, first| per_attr[*later].0 == per_attr[*first].0);
        PairFeatures { per_attr, score, name_order }
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
    Rng::from_seed(fnv1a64(prompt.as_bytes(), seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_prompt;
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

    #[test]
    fn identical_pair_answers_yes() {
        let p = parse_prompt("Q1: title: iphone 13, id: 77 [SEP] title: iphone 13, id: 77");
        let d = decide(&p, &quiet_profile(), 1.0, &mut rng());
        assert_eq!(d.len(), 1);
        assert!(d[0].answer);
        assert!(!d[0].copied);
    }

    #[test]
    fn disjoint_pair_answers_no() {
        let p =
            parse_prompt("Q1: title: lawn mower, id: 9 [SEP] title: quantum textbook, id: 4411");
        let d = decide(&p, &quiet_profile(), 1.0, &mut rng());
        assert!(!d[0].answer);
        assert!(d[0].decisive_attr.is_some());
    }

    #[test]
    fn relevant_demo_flips_borderline_case() {
        // A borderline question: moderate similarity. Without demos, the
        // quiet model with threshold 0.5 sits near the boundary.
        let q = "Q1: title: acer aspire 5 laptop, id: a515 [SEP] title: acer aspire five, id: a515";
        let base = parse_prompt(q);
        let without = decide(&base, &quiet_profile(), 1.0, &mut rng());

        // Add a nearby matching demonstration (same textual pattern, label
        // yes): the kernel term must push the logit up.
        let with_demo_prompt = format!(
            "D1: title: asus rog strix laptop, id: g713 [SEP] title: asus rog strix, id: g713 => yes\n{q}"
        );
        let with = decide(
            &parse_prompt(&with_demo_prompt),
            &quiet_profile(),
            1.0,
            &mut rng(),
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
        let yes = decide(&parse_prompt(&yes_prompt), &profile, 1.0, &mut rng());
        let no = decide(&parse_prompt(&no_prompt), &profile, 1.0, &mut rng());
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
        let p = parse_prompt(
            "Q1: title: red chair, id: 5 [SEP] title: red chair, id: 5\n\
             Q2: title: red chair, id: 5 [SEP] title: red chair, id: 5",
        );
        let d = decide(&p, &profile, 1.0, &mut rng());
        assert!(d[1].copied);
        assert_eq!(d[0].answer, d[1].answer);
    }

    #[test]
    fn noise_scale_zero_is_deterministic() {
        let p = parse_prompt("Q1: title: a b c, id: 1 [SEP] title: a b d, id: 2");
        let d1 = decide(&p, &quiet_profile(), 0.0, &mut call_rng(1, "x"));
        let d2 = decide(&p, &quiet_profile(), 0.0, &mut call_rng(2, "y"));
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
            let parsed = parse_prompt(prompt);
            let mut yes = 0;
            for seed in 0..60u64 {
                let d = decide(&parsed, &profile, 1.0, &mut call_rng(seed, prompt));
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

    #[test]
    fn call_rng_depends_on_both_inputs() {
        let a = call_rng(1, "p").next_u64();
        let b = call_rng(2, "p").next_u64();
        let c = call_rng(1, "q").next_u64();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
