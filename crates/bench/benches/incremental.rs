//! Incremental-planner benchmark: replay an arrival/retire trace over a
//! large standing question pool and compare the cost of an incremental
//! epoch against a full re-plan.
//!
//! The workload mirrors the serving layer's configuration — semantic
//! features (64-dim), diversity batching, covering selection — where a
//! from-scratch plan pays feature extraction, two distance percentiles,
//! the DBSCAN region-query sweep and the pool-coverage sweep on every
//! pass. The incremental [`PlanState`] keeps all of that cached and
//! re-runs only the combinatorial passes, so a ≤1% delta re-plan should
//! be ≥5x faster than the from-scratch pass (asserted in full mode).
//!
//! Every measured epoch is also checked for **plan equivalence** against
//! a from-scratch plan with the frozen thresholds pinned (quick mode:
//! every epoch; full mode: first and last epoch — the randomized harness
//! in `batcher-core` covers the rest).
//!
//! Runs in quick mode (small pool, used by `cargo test` and CI smoke)
//! and full mode (10k questions) under `cargo bench`; both write a
//! `BENCH_incremental.json` snapshot (path override:
//! `BENCH_INCREMENTAL_OUT`).

use std::time::Instant;

use batcher_core::incremental::{PlanKind, PlanState};
use batcher_core::{
    plan_with_prepared_pool, plan_with_prepared_pool_pinned, BatchPlanConfig, BatchingStrategy,
    ClusteringKind, DistanceKind, ExtractorKind, PlanThresholds, PreparedPool, SelectionStrategy,
};
use bench::synth::{synth_pairs, Rng};
use er_core::{EntityPair, LabeledPair};

fn sorted_refs(live: &[(u64, EntityPair)]) -> Vec<&EntityPair> {
    let mut sorted: Vec<&(u64, EntityPair)> = live.iter().collect();
    sorted.sort_by_key(|(k, _)| *k);
    sorted.iter().map(|(_, p)| p).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick") || !args.iter().any(|a| a == "--bench");
    let (n_questions, n_pool, epochs) = if quick {
        (1_500, 300, 3)
    } else {
        (10_000, 2_000, 5)
    };
    // ≤1% delta per epoch: half arrivals, half retirements.
    let delta = (n_questions / 100).max(2);
    let spare = delta / 2 * epochs;
    let seed = 42u64;

    // The serving layer's planning configuration (er-service plans with
    // semantic features over arbitrary client schemas).
    let config = BatchPlanConfig {
        batching: BatchingStrategy::Diversity,
        selection: SelectionStrategy::Covering,
        extractor: ExtractorKind::Semantic,
        distance: DistanceKind::Euclidean,
        clustering: ClusteringKind::Dbscan,
        batch_size: 8,
        k: 8,
        cover_percentile: 8.0,
        seed,
    };

    let all = synth_pairs(n_questions + n_pool + spare, seed);
    let (pool_pairs, rest) = all.split_at(n_pool);
    let pool_refs: Vec<&LabeledPair> = pool_pairs.iter().collect();
    let prepared = PreparedPool::prepare(&pool_refs, config.extractor, config.distance);

    let mut state = PlanState::from_prepared(prepared.clone(), config);
    let mut live: Vec<(u64, EntityPair)> = Vec::new();
    for (i, p) in rest[..n_questions].iter().enumerate() {
        let key = i as u64;
        state.insert(key, &p.pair);
        live.push((key, p.pair.clone()));
    }
    let mut next_key = n_questions as u64;
    let mut spare_pairs: Vec<EntityPair> =
        rest[n_questions..].iter().map(|p| p.pair.clone()).collect();

    // Epoch 0: the full plan that freezes thresholds and builds caches.
    let started = Instant::now();
    let first = state.plan(seed);
    let initial_full_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(first.kind, PlanKind::Full);

    // From-scratch comparator: what a non-incremental service re-runs on
    // every flush (extraction + thresholds + sweeps + selection), best of
    // two passes.
    let refs = sorted_refs(&live);
    let mut from_scratch_ms = f64::INFINITY;
    for _ in 0..2 {
        let started = Instant::now();
        let plan = plan_with_prepared_pool(&refs, &prepared, &config);
        from_scratch_ms = from_scratch_ms.min(started.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            plan, first.plan,
            "full PlanState epoch != from-scratch plan"
        );
    }
    drop(refs);

    // The arrival/retire trace: per epoch retire delta/2 live questions,
    // insert delta/2 fresh ones, re-plan, measure.
    let mut rng = Rng(seed | 1);
    let mut incremental_ms_total = 0.0f64;
    let mut incremental_ms_worst = 0.0f64;
    let mut checked = 0usize;
    for e in 0..epochs {
        let check_epoch = quick || e == 0 || e == epochs - 1;
        // The timer covers the whole epoch the serving path would pay:
        // applying the delta (per-insert extraction + cache-extension
        // scans, retirements) *and* the re-plan — not just the plan call.
        let started = Instant::now();
        for _ in 0..delta / 2 {
            let at = rng.below(live.len());
            let (key, _) = live.swap_remove(at);
            assert!(state.retire(key));
        }
        for _ in 0..delta / 2 {
            let pair = spare_pairs.pop().expect("spare bank exhausted");
            assert!(state.insert(next_key, &pair));
            live.push((next_key, pair));
            next_key += 1;
        }

        let epoch_seed = seed ^ (0x9E37 + e as u64 * 131);
        let epoch = state.plan(epoch_seed);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        incremental_ms_total += ms;
        incremental_ms_worst = incremental_ms_worst.max(ms);
        assert_eq!(
            epoch.kind,
            PlanKind::Incremental,
            "a {delta}-question delta over {n_questions} must re-plan incrementally"
        );

        // Plan equivalence against the pinned from-scratch plan
        // (outside the timed section).
        if check_epoch {
            let stats = state.stats();
            let pinned = PlanThresholds { eps: stats.eps, cover_t: stats.cover_t };
            let refs = sorted_refs(&live);
            let epoch_config = BatchPlanConfig { seed: epoch_seed, ..config };
            let expect = plan_with_prepared_pool_pinned(&refs, &prepared, &epoch_config, pinned);
            assert_eq!(
                epoch.plan, expect,
                "epoch {e} diverged from pinned from-scratch"
            );
            checked += 1;
        }
    }
    let incremental_ms = incremental_ms_total / epochs as f64;
    let speedup = from_scratch_ms / incremental_ms;
    let worst_speedup = from_scratch_ms / incremental_ms_worst;
    if !quick {
        assert!(
            worst_speedup >= 5.0,
            "incremental re-plan speedup {worst_speedup:.1}x below the 5x floor \
             (incremental worst {incremental_ms_worst:.1} ms vs full {from_scratch_ms:.1} ms)"
        );
    }

    let stats = state.stats();
    let json = format!(
        "{{\n  \"bench\": \"incremental_replanning\",\n  \"mode\": \"{}\",\n  \"questions\": {},\n  \"pool\": {},\n  \"delta_per_epoch\": {},\n  \"epochs\": {},\n  \"from_scratch_ms\": {:.2},\n  \"initial_full_ms\": {:.2},\n  \"incremental_avg_ms\": {:.2},\n  \"incremental_worst_ms\": {:.2},\n  \"speedup_avg\": {:.2},\n  \"speedup_worst\": {:.2},\n  \"equivalence_checked_epochs\": {},\n  \"full_plans\": {},\n  \"incremental_plans\": {}\n}}\n",
        if quick { "quick" } else { "full" },
        n_questions,
        n_pool,
        delta,
        epochs,
        from_scratch_ms,
        initial_full_ms,
        incremental_ms,
        incremental_ms_worst,
        speedup,
        worst_speedup,
        checked,
        stats.full_plans,
        stats.incremental_plans,
    );
    let out_path = std::env::var("BENCH_INCREMENTAL_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_incremental.json").to_owned()
    });
    std::fs::write(&out_path, &json).expect("write BENCH_incremental.json");
    println!("{json}");
    println!(
        "incremental {}q/{}p delta {}: from-scratch {from_scratch_ms:.1} ms, incremental avg \
         {incremental_ms:.1} ms / worst {incremental_ms_worst:.1} ms ({speedup:.1}x avg, \
         {worst_speedup:.1}x worst) -> {out_path}",
        n_questions, n_pool, delta
    );
}
