//! The one seeded FNV-1a (`text_sim::fnv1a64`) feeds four things whose
//! values outlive a process or a refactor: WAL pair fingerprints,
//! embedding buckets (hence every plan and F1), the PLM baselines'
//! pseudo-features, and the simulator's per-call RNG seed. The constants
//! below are what the four separate copies produced before they were
//! merged; a change here moves committed numbers and on-disk logs.

use std::sync::Arc;

use batcher::baselines::features::plm_features;
use batcher::embed::{Embedder, EmbedderConfig};
use batcher::er_core::{EntityPair, PairId, Record, RecordId, Schema};
use batcher::er_service::pair_fingerprint;
use batcher::llm::engine::call_rng;
use rand::Rng;

fn pair() -> EntityPair {
    let schema = Arc::new(Schema::new(["title", "brewery"].map(String::from)).unwrap());
    let rec = |id, vals: [&str; 2]| {
        Arc::new(Record::new(id, Arc::clone(&schema), vals.map(String::from).to_vec()).unwrap())
    };
    let a = rec(RecordId::a(0), ["Pliny the Elder", "Russian River Brewing"]);
    let b = rec(RecordId::b(0), ["pliny elder (IPA)", "Russian River"]);
    EntityPair::new(PairId(0), a, b).unwrap()
}

#[test]
fn hash_consumers_keep_their_parent_commit_values() {
    assert_eq!(pair_fingerprint(&pair()).0, 0xcee0_b41e_931f_2b5e);

    let row =
        Embedder::new(EmbedderConfig::default()).embed("Pliny the Elder, Russian River Brewing");
    let nonzero: Vec<(usize, u64)> = row
        .iter()
        .enumerate()
        .filter(|(_, v)| **v != 0.0)
        .map(|(i, v)| (i, v.to_bits()))
        .collect();
    assert_eq!((row.len(), nonzero.len()), (256, 36));
    assert_eq!(
        nonzero[..4],
        [
            (2, 0x3fc0_aa07_bd7b_7489),
            (4, 0x3fc0_aa07_bd7b_7489),
            (8, 0xbfc0_aa07_bd7b_7489),
            (9, 0x3fc0_aa07_bd7b_7489),
        ]
    );
    // Every bucket and sign of the row, folded.
    let digest = row.iter().fold(0u64, |h, v| {
        (h ^ v.to_bits())
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29)
    });
    assert_eq!(digest, 0x32e6_0a4b_ad9a_f0fa);

    let features = plm_features(&pair(), 4, 7);
    let tail: Vec<u64> = features[features.len() - 4..]
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(
        tail,
        [
            0x3fdc_d606_49b6_6fa0,
            0xbfd4_b6c8_1647_e9fb,
            0xbfa0_4ad7_a010_4add,
            0x3fa4_f22f_e07b_5899
        ]
    );

    assert_eq!(
        call_rng(42, "Do these records match?").gen::<u64>(),
        0x78d8_2b84_46b8_78e1
    );
}
