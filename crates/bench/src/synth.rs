//! Synthetic workload of the planning bench (`benches/planning.rs`):
//! candidate pairs drawn from 32 latent corruption patterns — each
//! pattern fixes, per attribute, whether the two sides agree exactly, up
//! to a typo, or not at all — the structure DBSCAN is meant to recover
//! from the feature vectors.

use std::sync::Arc;

use er_core::{EntityPair, LabeledPair, MatchLabel, PairId, Record, RecordId, Rng, Schema};

const VOCAB: [&str; 24] = [
    "atlas", "breeze", "copper", "delta", "ember", "falcon", "granite", "harbor", "indigo",
    "juniper", "kestrel", "lumen", "meridian", "nimbus", "onyx", "prairie", "quartz", "ridge",
    "summit", "timber", "umber", "vertex", "willow", "zephyr",
];

fn value(rng: &mut Rng) -> String {
    format!(
        "{} {} {}",
        VOCAB[rng.range(0..VOCAB.len())],
        VOCAB[rng.range(0..VOCAB.len())],
        rng.range(0..1000)
    )
}

/// Perturbs one word of a value (a realistic typo-level edit).
fn perturb(v: &str, rng: &mut Rng) -> String {
    let mut words: Vec<String> = v.split(' ').map(str::to_owned).collect();
    let w = rng.range(0..words.len());
    words[w].push(char::from(b'a' + (rng.range(0..26) as u8)));
    words.join(" ")
}

/// Synthesizes `n` candidate pairs across the 32 corruption patterns.
pub fn synth_pairs(n: usize, seed: u64) -> Vec<LabeledPair> {
    let schema = Arc::new(Schema::new(["name", "brand", "city", "desc"]).expect("valid schema"));
    let mut rng = Rng::from_seed(seed);
    (0..n)
        .map(|i| {
            let pattern = i % 32;
            let left: Vec<String> = (0..4).map(|_| value(&mut rng)).collect();
            let right: Vec<String> = left
                .iter()
                .enumerate()
                .map(|(j, v)| match (pattern >> j) & 3 {
                    0 => v.clone(),
                    1 | 2 => perturb(v, &mut rng),
                    _ => value(&mut rng),
                })
                .collect();
            let a = Record::new(RecordId::a(i as u32), Arc::clone(&schema), left)
                .expect("schema-aligned record");
            let b = Record::new(RecordId::b(i as u32), Arc::clone(&schema), right)
                .expect("schema-aligned record");
            let pair = EntityPair::new(PairId(i as u32), Arc::new(a), Arc::new(b))
                .expect("records share a schema");
            let label = if pattern < 8 {
                MatchLabel::Matching
            } else {
                MatchLabel::NonMatching
            };
            LabeledPair::new(pair, label)
        })
        .collect()
}
