//! The plan-equivalence harness for the incremental planner.
//!
//! The contract under test: at every epoch, for every strategy
//! combination, a [`PlanState`] maintained through arbitrary
//! insert/retire sequences produces a plan **equal** to a from-scratch
//! [`plan_with_prepared_pool_pinned`] over the same active questions (in
//! canonical key order) with the state's frozen thresholds pinned — same
//! clusterings, same batch memberships, same selected demonstrations.

use batcher_core::incremental::{PlanKind, PlanState};
use batcher_core::{
    plan_with_prepared_pool_pinned, BatchPlanConfig, BatchingStrategy, ClusteringKind,
    PlanThresholds, PreparedPool, QuestionBatchPlan, SelectionStrategy,
};
use datagen::{generate, DatasetKind};
use er_core::{EntityPair, LabeledPair};
use proptest::prelude::*;

/// Deterministic corpus shared by all cases: a labeled pool plus a bank
/// of candidate questions to insert from.
fn corpus() -> (Vec<LabeledPair>, Vec<EntityPair>) {
    let d = generate(DatasetKind::Beer, 13);
    let pairs = d.pairs().to_vec();
    let pool = pairs[..30].to_vec();
    let questions: Vec<EntityPair> = pairs[30..130].iter().map(|p| p.pair.clone()).collect();
    (pool, questions)
}

const BATCHINGS: [BatchingStrategy; 3] = BatchingStrategy::ALL;
const SELECTIONS: [SelectionStrategy; 4] = SelectionStrategy::ALL;
const CLUSTERINGS: [ClusteringKind; 2] = [ClusteringKind::Dbscan, ClusteringKind::KMeans];

fn config(combo: usize) -> BatchPlanConfig {
    BatchPlanConfig {
        batching: BATCHINGS[combo % 3],
        selection: SELECTIONS[(combo / 3) % 4],
        clustering: CLUSTERINGS[(combo / 12) % 2],
        batch_size: 4,
        k: 3,
        cover_percentile: 20.0,
        ..BatchPlanConfig::default()
    }
}

/// From-scratch reference over `live` (sorted by key) with the state's
/// frozen thresholds pinned.
fn reference(
    pool: &PreparedPool,
    config: &BatchPlanConfig,
    live: &[(u64, EntityPair)],
    thresholds: PlanThresholds,
    seed: u64,
) -> QuestionBatchPlan {
    let mut sorted: Vec<&(u64, EntityPair)> = live.iter().collect();
    sorted.sort_by_key(|(k, _)| *k);
    let refs: Vec<&EntityPair> = sorted.iter().map(|(_, p)| p).collect();
    let config = BatchPlanConfig { seed, ..*config };
    plan_with_prepared_pool_pinned(&refs, pool, &config, thresholds)
}

/// Replays an op sequence against one strategy combination, checking
/// equivalence at every epoch.
///
/// Ops: each step inserts `ins` fresh questions and retires `ret` live
/// ones (chosen by `pick`), then plans. Returns how many epochs ran each
/// path so callers can assert both were exercised.
fn replay(combo: usize, steps: &[(u8, u8, u8)]) -> (u32, u32) {
    let (pool, bank) = corpus();
    replay_corpus(config(combo), combo, steps, &pool, &bank)
}

fn replay_config(config: BatchPlanConfig, combo: usize, steps: &[(u8, u8, u8)]) -> (u32, u32) {
    let (pool, bank) = corpus();
    replay_corpus(config, combo, steps, &pool, &bank)
}

fn replay_corpus(
    config: BatchPlanConfig,
    combo: usize,
    steps: &[(u8, u8, u8)],
    pool: &[LabeledPair],
    bank: &[EntityPair],
) -> (u32, u32) {
    let pool_refs: Vec<&LabeledPair> = pool.iter().collect();
    let prepared = PreparedPool::prepare(&pool_refs, config.extractor, config.distance);
    let mut state = PlanState::from_prepared(prepared.clone(), config);
    let mut live: Vec<(u64, EntityPair)> = Vec::new();
    let mut next = 0usize;
    let mut fulls = 0u32;
    let mut incrementals = 0u32;

    for (e, &(ins, ret, pick)) in steps.iter().enumerate() {
        for _ in 0..ins {
            if next >= bank.len() {
                break;
            }
            // Non-monotonic keys so canonical order differs from
            // insertion order.
            let key = (next as u64).wrapping_mul(0x9E37_79B9) % 1_000_003;
            if state.insert(key, &bank[next]) {
                live.push((key, bank[next].clone()));
            }
            next += 1;
        }
        for r in 0..ret {
            if live.is_empty() {
                break;
            }
            let at = (pick as usize + r as usize * 7) % live.len();
            let (key, _) = live.swap_remove(at);
            assert!(state.retire(key));
        }

        let seed = 11 + e as u64 * 31;
        let epoch = state.plan(seed);
        match epoch.kind {
            PlanKind::Full => fulls += 1,
            PlanKind::Incremental => incrementals += 1,
        }
        let frozen = {
            let s = state.stats();
            PlanThresholds { eps: s.eps, cover_t: s.cover_t }
        };
        let expect = reference(&prepared, &config, &live, frozen, seed);
        assert_eq!(
            epoch.plan, expect,
            "combo {combo} epoch {e} ({:?}) diverged from pinned from-scratch plan",
            epoch.kind
        );
        let mut keys: Vec<u64> = live.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        assert_eq!(epoch.keys, keys, "combo {combo} epoch {e} key order");
    }
    (fulls, incrementals)
}

/// Every strategy combination, one fixed mixed sequence that exercises
/// both the full and the incremental path.
#[test]
fn all_strategy_combinations_stay_equivalent() {
    // Epochs: big initial insert (full), small deltas (incremental),
    // then a large delta (full fallback), then small deltas again.
    let steps: [(u8, u8, u8); 6] = [
        (40, 0, 0),
        (2, 1, 3),
        (1, 2, 5),
        (30, 10, 1),
        (0, 2, 2),
        (2, 0, 0),
    ];
    for combo in 0..24 {
        let (fulls, incrementals) = replay(combo, &steps);
        assert!(fulls >= 2, "combo {combo}: full fallback never triggered");
        assert!(
            incrementals >= 3,
            "combo {combo}: incremental path never exercised"
        );
    }
}

/// Retiring everything and refilling keeps the state usable and
/// equivalent (empty epochs included).
#[test]
fn drain_and_refill_stays_equivalent() {
    let steps: [(u8, u8, u8); 4] = [(12, 0, 0), (0, 12, 0), (8, 0, 0), (1, 1, 4)];
    let (fulls, _) = replay(0, &steps);
    assert!(fulls >= 2);
}

/// The cosine-distance coverage path (insert's `cosine_dists_to_all`
/// scan vs `compute_coverage`'s non-Euclidean fallback sweep) must be
/// bit-for-bit interchangeable too — covering + diversity under
/// `DistanceKind::Cosine`, with incremental epochs exercised.
#[test]
fn cosine_distance_stays_equivalent() {
    let steps: [(u8, u8, u8); 4] = [(40, 0, 0), (2, 1, 3), (1, 2, 5), (2, 0, 1)];
    for clustering in CLUSTERINGS {
        let config = BatchPlanConfig {
            batching: BatchingStrategy::Diversity,
            selection: SelectionStrategy::Covering,
            distance: batcher_core::DistanceKind::Cosine,
            clustering,
            batch_size: 4,
            k: 3,
            cover_percentile: 20.0,
            ..BatchPlanConfig::default()
        };
        let (fulls, incrementals) = replay_config(config, 99, &steps);
        assert!(fulls >= 1);
        assert!(
            incrementals >= 3,
            "cosine incremental path never exercised ({clustering:?})"
        );
    }
}

/// The harness at planning scale: with ≥256 live slots and ≥512
/// demonstrations the from-scratch reference prunes its region queries,
/// coverage sweep and top-k through the metric index, while every insert
/// extends the cached ε and coverage graphs by a dense scan — the epochs
/// must stay bit-identical to the pinned reference for combos covering
/// every selection strategy and both clusterings.
#[test]
fn dense_inserts_stay_equivalent_at_scale() {
    let d = generate(DatasetKind::FodorsZagats, 7);
    let pairs = d.pairs().to_vec();
    let pool = pairs[..520].to_vec();
    let bank: Vec<EntityPair> = pairs[520..800].iter().map(|p| p.pair.clone()).collect();
    // Epoch 1: 250 inserts (full plan). Epochs 2-3: small deltas that
    // push the live set past 256 on the incremental path.
    let steps: [(u8, u8, u8); 3] = [(250, 0, 0), (10, 2, 3), (10, 3, 1)];
    for combo in [0usize, 4, 8, 21] {
        let (fulls, incrementals) = replay_corpus(config(combo), combo, &steps, &pool, &bank);
        assert!(fulls >= 1, "combo {combo}: no full plan at scale");
        assert!(
            incrementals >= 2,
            "combo {combo}: incremental path never exercised at scale"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random insert/retire sequences: the incremental `PlanState` output
    /// equals a from-scratch pinned plan at every epoch, for a sampled
    /// strategy combination per case.
    #[test]
    fn random_sequences_stay_equivalent(
        combo in 0usize..24,
        steps in prop::collection::vec((0u8..12, 0u8..6, any::<u8>()), 1..7),
    ) {
        replay(combo, &steps);
    }
}
