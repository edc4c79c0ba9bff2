//! Golden plan digests: `plan_question_batches` on the end-to-end
//! benchmark's 15 configurations must keep producing exactly these plans.
//!
//! Planning uses only `+ − × ÷ sqrt` (all correctly rounded under IEEE
//! 754), integer hashing and a seeded PRNG, so the digests are
//! platform-stable. Any change to a feature value, a distance, a
//! clustering or a selection shows up here as a different digest — a
//! kernel rewrite that claims to be bit-identical must leave this file
//! untouched.

use batcher_core::{
    plan_question_batches, BatchPlanConfig, BatchingStrategy, ExtractorKind, RunConfig,
    SelectionStrategy,
};
use datagen::{generate, DatasetKind};
use er_core::{EntityPair, LabeledPair};

const SEED: u64 = 42;

/// Table IV's 12 batching × selection cells, the best design under the
/// Jaccard and Semantic extractors (Table VII), and standard prompting
/// (Exp-1) — the `offline_design_space` workload's run list, in its order.
fn configurations() -> Vec<(String, RunConfig)> {
    let mut configs = Vec::new();
    for batching in BatchingStrategy::ALL {
        for selection in SelectionStrategy::ALL {
            configs.push((
                format!("{}/{}", batching.name(), selection.name()),
                RunConfig { batching, selection, ..RunConfig::default() },
            ));
        }
    }
    for extractor in [ExtractorKind::Jaccard, ExtractorKind::Semantic] {
        configs.push((
            format!("best/{}", extractor.name()),
            RunConfig { extractor, ..RunConfig::best_design() },
        ));
    }
    configs.push(("standard".to_owned(), RunConfig::standard_prompting()));
    configs
}

/// FNV-1a over a stream of `u64` words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn list(&mut self, xs: &[usize]) {
        self.word(xs.len() as u64);
        for &x in xs {
            self.word(x as u64);
        }
    }

    fn lists(&mut self, xss: &[Vec<usize>]) {
        self.word(xss.len() as u64);
        for xs in xss {
            self.list(xs);
        }
    }
}

/// Digests of the 15 plans over one dataset slice: the first `max_pool`
/// pairs of the 3:1:1 split's train part as the pool, the first
/// `max_questions` of its test part as the questions (the benchmark's
/// slicing).
fn plan_digests(kind: DatasetKind, max_pool: usize, max_questions: usize) -> Vec<(String, u64)> {
    let dataset = generate(kind, SEED);
    let split = dataset.split_3_1_1(SEED).expect("non-empty dataset");
    let pool: Vec<&LabeledPair> = split.train.iter().copied().take(max_pool).collect();
    let questions: Vec<&EntityPair> = split
        .test
        .iter()
        .take(max_questions)
        .map(|p| &p.pair)
        .collect();
    configurations()
        .into_iter()
        .map(|(name, config)| {
            let config = BatchPlanConfig::from_run_config(&RunConfig { seed: SEED, ..config });
            let plan = plan_question_batches(&questions, &pool, &config);
            let mut digest = Digest::new();
            digest.lists(&plan.batches);
            digest.lists(&plan.demos_per_batch);
            digest.list(&plan.labeled);
            match plan.threshold.map(f64::to_bits) {
                Some(bits) => {
                    digest.word(1);
                    digest.word(bits);
                }
                None => digest.word(0),
            }
            (name, digest.0)
        })
        .collect()
}

fn assert_golden(kind: DatasetKind, max_pool: usize, max_questions: usize, golden: &[u64; 15]) {
    let got = plan_digests(kind, max_pool, max_questions);
    let table: String = got
        .iter()
        .map(|(name, d)| format!("    {d:#018x}, // {name}\n"))
        .collect();
    for ((name, d), want) in got.iter().zip(golden) {
        assert_eq!(
            d,
            want,
            "{} {name}: plan digest moved; computed table:\n{table}",
            kind.short_name()
        );
    }
}

#[test]
fn beer_plans_match_golden() {
    assert_golden(DatasetKind::Beer, usize::MAX, usize::MAX, &BEER);
}

#[test]
fn fodors_zagats_plans_match_golden() {
    assert_golden(
        DatasetKind::FodorsZagats,
        usize::MAX,
        usize::MAX,
        &FODORS_ZAGATS,
    );
}

/// Pool of 3,600 ≥ `INDEX_MIN_ROWS`, so the top-k strategies route
/// through the metric index here (and densely on the two small sets).
#[test]
fn amazon_google_slice_plans_match_golden() {
    assert_golden(DatasetKind::AmazonGoogle, 3600, 300, &AMAZON_GOOGLE);
}

const BEER: [u64; 15] = [
    0x966a_b467_9b11_7946, // Random/Fix
    0xf5e5_7a57_929f_5ffe, // Random/Topk-batch
    0x2287_4728_ae2f_02f8, // Random/Topk-question
    0xd4ec_a19d_91db_c0c7, // Random/Cover
    0x73cb_b84b_1e6f_9124, // Similarity/Fix
    0x2643_f28d_d11d_6193, // Similarity/Topk-batch
    0x8e97_c9c8_dacb_806a, // Similarity/Topk-question
    0xe898_6477_1555_0290, // Similarity/Cover
    0x479d_0ec8_1098_3d46, // Diversity/Fix
    0x1c73_9c2a_4f14_c6e5, // Diversity/Topk-batch
    0x17c9_41e7_7283_b081, // Diversity/Topk-question
    0x8ae9_22cb_e1df_03dd, // Diversity/Cover
    0x6aa4_d9cc_5552_ebef, // best/BATCHER-JAC
    0x3d91_a8f4_351a_b0bd, // best/BATCHER-SEM
    0x1da9_f59f_b935_feac, // standard
];

const FODORS_ZAGATS: [u64; 15] = [
    0xbe2d_2105_d415_aa64, // Random/Fix
    0x2473_7c5f_ed4c_9262, // Random/Topk-batch
    0x7724_247b_3757_15b5, // Random/Topk-question
    0xdee4_e562_ad05_065b, // Random/Cover
    0x7d50_2fbe_9f58_e638, // Similarity/Fix
    0x93d3_08c1_c8e8_dfc8, // Similarity/Topk-batch
    0x7904_3ff6_852a_badc, // Similarity/Topk-question
    0xa997_156d_68be_7fa7, // Similarity/Cover
    0x48a9_83ef_6ca7_3304, // Diversity/Fix
    0x6f92_52e7_0d14_075d, // Diversity/Topk-batch
    0x22aa_bf37_a2ae_7e0b, // Diversity/Topk-question
    0xed34_bb2e_0c8d_1f9a, // Diversity/Cover
    0x539f_c4f8_63da_a702, // best/BATCHER-JAC
    0xa450_acf5_0bce_f4cf, // best/BATCHER-SEM
    0x5631_ca32_e4d2_8e78, // standard
];

const AMAZON_GOOGLE: [u64; 15] = [
    0x971d_3eac_fa3c_86b0, // Random/Fix
    0x0539_b478_e9f2_d468, // Random/Topk-batch
    0x80a6_9f37_b870_a479, // Random/Topk-question
    0x0cc9_1062_60f9_f8bf, // Random/Cover
    0x6b64_4903_4247_7b8d, // Similarity/Fix
    0xa28c_ebfb_91fc_7f1f, // Similarity/Topk-batch
    0xdfe0_8dfd_8d2c_36be, // Similarity/Topk-question
    0x20d5_af7b_6d0c_51db, // Similarity/Cover
    0xc137_a05e_0aa5_59ec, // Diversity/Fix
    0xde49_5647_3ee3_926b, // Diversity/Topk-batch
    0x0106_a91b_5541_83ba, // Diversity/Topk-question
    0x75fc_b475_4e1f_3133, // Diversity/Cover
    0xef5c_519f_4ed0_58cc, // best/BATCHER-JAC
    0xf830_086c_82a8_f42c, // best/BATCHER-SEM
    0xed6b_e278_afe8_34dc, // standard
];
