//! Dataset assembly: matching pairs, easy negatives and hard negatives.

use std::sync::Arc;

use er_core::{
    Dataset, EntityPair, LabeledPair, MatchLabel, PairId, Record, RecordId, Rng, Schema,
};

use crate::perturb::{apply_pattern, CorruptionPattern, Intensity};
use crate::profiles::{make_entity, DatasetKind};

/// Generates one benchmark deterministically from `seed`.
///
/// The output matches Table II exactly in pair count, match count, schema
/// arity and domain. Pair composition:
///
/// * **Matches** — entity `(family, 0)` paired with a corrupted copy of
///   itself; the corruption pattern is drawn from the dataset profile.
/// * **Hard negatives** — entity `(family, 0)` paired with a *sibling*
///   `(family, 1)`: a different real-world entity sharing most surface
///   tokens (adjacent software versions, follow-up papers, live versions).
///   Siblings receive the same corruption patterns as matches, so "messy
///   but different" and "messy but same" pairs coexist and feature-space
///   clusters mix labels, as they do in the real benchmarks.
/// * **Easy negatives** — entities from two unrelated families, with only
///   light drift.
pub fn generate(kind: DatasetKind, seed: u64) -> Dataset {
    let profile = kind.profile();
    let mut rng = Rng::from_seed(seed ^ 0xDA7A_6E4E_u64);

    let schema = Arc::new(
        Schema::new(profile.schema.iter().copied()).expect("profiles carry valid schemas"),
    );

    let n_matches = profile.n_matches;
    let n_negatives = profile.n_pairs - n_matches;
    let n_hard = (n_negatives as f64 * profile.hard_negative_frac).round() as usize;
    let n_easy = n_negatives - n_hard;

    let mut raw_pairs: Vec<(Vec<String>, Vec<String>, MatchLabel)> =
        Vec::with_capacity(profile.n_pairs);

    // Matching pairs: one per family, B-side corrupted per the profile.
    for family in 0..n_matches as u32 {
        let a = make_entity(kind, family, 0);
        let pattern = profile.draw_pattern(&mut rng);
        let b = apply_pattern(&a, pattern, profile.intensity, profile.key_attrs, &mut rng);
        raw_pairs.push((a, b, MatchLabel::Matching));
    }

    // Hard negatives: canonical vs sibling from the same family. They
    // receive the *same* corruption patterns as matches (at reduced
    // intensity) so surface noise cannot be used as a match/non-match cue
    // and feature-space clusters mix both labels — as they do in the real
    // benchmarks, where similarly formatted pairs are not similarly
    // labeled.
    let reduced = Intensity {
        strength: profile.intensity.strength.max(1),
        second_attr_prob: profile.intensity.second_attr_prob * 0.5,
    };
    for i in 0..n_hard as u32 {
        let family = rng.range(0..n_matches.max(1) * 2) as u32;
        let a = make_entity(kind, family, 0);
        let sibling_variant = 1 + (i % 2);
        let b_base = make_entity(kind, family, sibling_variant);
        let b = apply_pattern(
            &b_base,
            profile.draw_pattern(&mut rng),
            reduced,
            profile.key_attrs,
            &mut rng,
        );
        raw_pairs.push((a, b, MatchLabel::NonMatching));
    }

    // Easy negatives keep only light drift: unrelated records rarely share
    // formatting accidents.
    let light = Intensity { strength: 1, second_attr_prob: 0.2 };

    // Easy negatives: two unrelated families.
    for _ in 0..n_easy {
        let fa = rng.range(0..(u32::MAX / 2) as usize) as u32;
        let fb = loop {
            let f = rng.range(0..(u32::MAX / 2) as usize) as u32;
            if f != fa {
                break f;
            }
        };
        let a = make_entity(kind, fa, 0);
        let b_base = make_entity(kind, fb, 0);
        let b = apply_pattern(
            &b_base,
            light_pattern(&mut rng),
            light,
            profile.key_attrs,
            &mut rng,
        );
        raw_pairs.push((a, b, MatchLabel::NonMatching));
    }

    // Shuffle so labels are not positionally encoded, then materialize.
    rng.shuffle(&mut raw_pairs);
    let pairs: Vec<LabeledPair> = raw_pairs
        .into_iter()
        .enumerate()
        .map(|(i, (va, vb, label))| {
            let a = Arc::new(
                Record::new(RecordId::a(i as u32), Arc::clone(&schema), va)
                    .expect("factory arity matches schema"),
            );
            let b = Arc::new(
                Record::new(RecordId::b(i as u32), Arc::clone(&schema), vb)
                    .expect("factory arity matches schema"),
            );
            LabeledPair::new(
                EntityPair::new(PairId(i as u32), a, b).expect("records share schema"),
                label,
            )
        })
        .collect();

    Dataset::new(kind.short_name(), profile.domain, schema, pairs)
        .expect("profiles produce non-empty datasets")
}

/// Light corruption for negatives: mostly verbatim with occasional drift.
fn light_pattern(rng: &mut Rng) -> CorruptionPattern {
    match rng.range(0..10) {
        0 => CorruptionPattern::Typos,
        1 => CorruptionPattern::NumberFormat,
        2 => CorruptionPattern::TokenDrop,
        _ => CorruptionPattern::Verbatim,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use text_sim::jaccard_tokens;

    #[test]
    fn all_datasets_match_table_ii() {
        for kind in DatasetKind::ALL {
            let d = generate(kind, 7);
            let p = kind.profile();
            let stats = d.stats();
            assert_eq!(stats.pairs, p.n_pairs, "{kind}");
            assert_eq!(stats.matches, p.n_matches, "{kind}");
            assert_eq!(stats.attributes, p.schema.len(), "{kind}");
            assert_eq!(stats.domain, p.domain, "{kind}");
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = generate(DatasetKind::Beer, 11);
        let b = generate(DatasetKind::Beer, 11);
        for (pa, pb) in a.pairs().iter().zip(b.pairs()) {
            assert_eq!(pa.pair.serialize(), pb.pair.serialize());
            assert_eq!(pa.label, pb.label);
        }
        let c = generate(DatasetKind::Beer, 12);
        let differs = a
            .pairs()
            .iter()
            .zip(c.pairs())
            .any(|(pa, pc)| pa.pair.serialize() != pc.pair.serialize());
        assert!(differs, "different seeds produced identical data");
    }

    #[test]
    fn labels_not_positionally_encoded() {
        let d = generate(DatasetKind::FodorsZagats, 3);
        let first_half_matches = d.pairs()[..d.len() / 2]
            .iter()
            .filter(|p| p.label.is_match())
            .count();
        let total_matches = d.stats().matches;
        // After shuffling, roughly half the matches are in each half.
        assert!(first_half_matches > total_matches / 5);
        assert!(first_half_matches < total_matches * 4 / 5);
    }

    #[test]
    fn matches_are_textually_closer_than_easy_negatives() {
        let d = generate(DatasetKind::DblpAcm, 5);
        let mut match_sim = 0.0;
        let mut match_n = 0usize;
        let mut non_sim = 0.0;
        let mut non_n = 0usize;
        for p in d.pairs().iter().take(2000) {
            let s = jaccard_tokens(
                p.pair.a().value(0).unwrap_or(""),
                p.pair.b().value(0).unwrap_or(""),
            );
            if p.label.is_match() {
                match_sim += s;
                match_n += 1;
            } else {
                non_sim += s;
                non_n += 1;
            }
        }
        let match_avg = match_sim / match_n.max(1) as f64;
        let non_avg = non_sim / non_n.max(1) as f64;
        assert!(
            match_avg > non_avg + 0.15,
            "matches ({match_avg:.3}) not separable from negatives ({non_avg:.3})"
        );
    }

    #[test]
    fn hard_negatives_exist() {
        // Some non-matching pairs must look similar (title Jaccard > 0.5):
        // those are the hard negatives that make the benchmark interesting.
        let d = generate(DatasetKind::AmazonGoogle, 5);
        let hard = d
            .pairs()
            .iter()
            .filter(|p| !p.label.is_match())
            .filter(|p| {
                jaccard_tokens(
                    p.pair.a().value(0).unwrap_or(""),
                    p.pair.b().value(0).unwrap_or(""),
                ) > 0.5
            })
            .count();
        assert!(hard > 100, "only {hard} hard negatives in AG");
    }

    #[test]
    fn key_attribute_never_blank_on_either_side() {
        for kind in [DatasetKind::WalmartAmazon, DatasetKind::Beer] {
            let d = generate(kind, 9);
            for p in d.pairs() {
                assert!(
                    !p.pair.a().is_missing(0),
                    "{kind}: blank key attr on A side"
                );
                assert!(
                    !p.pair.b().is_missing(0),
                    "{kind}: blank key attr on B side"
                );
            }
        }
    }

    #[test]
    fn split_sizes_follow_paper() {
        let d = generate(DatasetKind::ItunesAmazon, 2);
        let split = d.split_3_1_1(1).unwrap();
        // 532 pairs -> 106 valid, 106 test, 320 train.
        assert_eq!(split.valid.len(), 106);
        assert_eq!(split.test.len(), 106);
        assert_eq!(split.train.len(), 320);
    }
}
