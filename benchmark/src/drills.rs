//! Layer drills of the traced run: each calls one public function of one
//! crate over the workload's own inputs and reports a per-operation cost.
//! They run after the timed section, so they never compete with it.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use baselines::features::base_features;
use baselines::logistic::{LogisticModel, TrainConfig};
use batcher_core::incremental::{PlanKind, PlanState};
use batcher_core::{
    build_batch_prompt, plan_question_batches, plan_with_prepared_pool, task_description,
    BatchPlanConfig, DistanceKind, ExtractorKind, PreparedPool, RunConfig,
};
use embed::index::IndexStats;
use embed::{Embedder, EmbedderConfig};
use er_core::{
    CostLedger, EntityPair, LabeledPair, MatchLabel, Money, SharedCostLedger, TokenCount,
};
use er_service::http::{wire_to_pair, MatchRequestWire};
use er_service::{pair_fingerprint, AnswerCache, CostGovernor, PairFingerprint};
use wal::{SyncPolicy, Wal, WalOptions};

use crate::inputs::{render_body, OfflineSlice};
use crate::report::Metrics;
use crate::Options;

/// Pairs a drill touches at most — enough for a stable mean, small
/// enough that all drills together stay well under a second.
const DRILL_PAIRS: usize = 1000;
/// Questions in the incremental-planner drill (1% delta = 20 per epoch).
const PLANNER_QUESTIONS: usize = 2000;
const PLANNER_EPOCHS: usize = 3;

/// Mean nanoseconds per call of `f` over `n` calls.
fn mean_ns(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let started = Instant::now();
    for i in 0..n {
        f(i);
    }
    started.elapsed().as_nanos() as f64 / n.max(1) as f64
}

pub struct PromptDrill {
    pub prompt_us: f64,
    pub tokens_per_question: f64,
}

/// Renders the prompts of one configuration's own plan.
pub fn prompt_drill(slice: &OfflineSlice, config: RunConfig) -> PromptDrill {
    let pool = slice.pool_refs();
    let questions: Vec<&EntityPair> = slice.questions.iter().map(|p| &p.pair).collect();
    let plan = plan_question_batches(
        &questions,
        &pool,
        &BatchPlanConfig::from_run_config(&config),
    );
    let description = task_description(slice.dataset.domain());
    let mut tokens = 0u64;
    let mut elapsed = std::time::Duration::ZERO;
    for (batch, demos) in plan.batches.iter().zip(&plan.demos_per_batch) {
        let demos: Vec<&LabeledPair> = demos.iter().map(|&d| pool[d]).collect();
        let serialized: Vec<String> = batch.iter().map(|&q| questions[q].serialize()).collect();
        let started = Instant::now();
        let prompt = black_box(build_batch_prompt(&description, &demos, &serialized));
        elapsed += started.elapsed();
        tokens += llm::count_tokens(&prompt);
    }
    PromptDrill {
        prompt_us: elapsed.as_secs_f64() * 1e6 / plan.batches.len().max(1) as f64,
        tokens_per_question: tokens as f64 / questions.len().max(1) as f64,
    }
}

/// Process-wide metric-index counters over the timed section.
pub fn set_index_metrics(metrics: &mut Metrics, before: IndexStats, after: IndexStats) {
    let candidates = after.candidates - before.candidates;
    metrics.set("embed.index_builds", (after.builds - before.builds) as f64);
    metrics.set(
        "embed.index_queries",
        (after.queries - before.queries) as f64,
    );
    metrics.set(
        "embed.index_pruned_share",
        (after.pruned - before.pruned) as f64 / candidates.max(1) as f64,
    );
}

/// A scratch directory under the benchmark's own output directory,
/// removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(options: &Options, label: &str) -> Self {
        let dir = options
            .out_dir
            .join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory is creatable");
        Self(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The drills every workload runs, over its own pairs.
///
/// * `pairs` — the workload's questions.
/// * `pool` — labeled pairs for the logistic and pool-featurization drills.
/// * `planner_questions` — questions for the incremental-planner drill.
pub fn common(
    metrics: &mut Metrics,
    pairs: &[&EntityPair],
    pool: &[&LabeledPair],
    planner_questions: &[&EntityPair],
    options: &Options,
) {
    let pairs = &pairs[..pairs.len().min(DRILL_PAIRS)];
    let n = pairs.len();

    // text-sim: one call per attribute, as the LR / Jaccard extractors do.
    let attrs: Vec<(&str, &str)> = pairs
        .iter()
        .flat_map(|p| {
            p.a()
                .values()
                .iter()
                .zip(p.b().values())
                .map(|(a, b)| (a.as_str(), b.as_str()))
        })
        .collect();
    metrics.set(
        "text-sim.levenshtein_ratio_ns",
        mean_ns(attrs.len(), |i| {
            black_box(text_sim::levenshtein_ratio(attrs[i].0, attrs[i].1));
        }),
    );
    metrics.set(
        "text-sim.jaccard_ns",
        mean_ns(attrs.len(), |i| {
            black_box(text_sim::jaccard_tokens(attrs[i].0, attrs[i].1));
        }),
    );

    // embed: the Semantic extractor's per-pair cost.
    let serialized: Vec<String> = pairs.iter().map(|p| p.serialize()).collect();
    let embedder = Embedder::new(EmbedderConfig::default());
    metrics.set(
        "embed.embed_us",
        mean_ns(n, |i| {
            black_box(embedder.embed(&serialized[i]));
        }) / 1e3,
    );

    // er-service front end: body -> wire struct -> EntityPair.
    let bodies: Vec<Vec<u8>> = pairs
        .iter()
        .map(|p| render_body(p.a().schema().attributes(), p.a().values(), p.b().values()))
        .collect();
    metrics.set(
        "er-service.wire_decode_us",
        mean_ns(n, |i| {
            let wire: MatchRequestWire =
                serde_json::from_slice(&bodies[i]).expect("the benchmark renders valid JSON");
            black_box(wire_to_pair(&wire).expect("rendered pairs are well-formed"));
        }) / 1e3,
    );

    // er-service fingerprint and answer cache.
    let mut fingerprints: Vec<PairFingerprint> = Vec::with_capacity(n);
    metrics.set(
        "er-service.fingerprint_ns",
        mean_ns(n, |i| fingerprints.push(pair_fingerprint(pairs[i]))),
    );
    let cache = AnswerCache::new(true, 100_000);
    metrics.set(
        "er-service.cache_insert_ns",
        mean_ns(n, |i| {
            cache.insert(fingerprints[i], MatchLabel::from_bool(i % 5 == 0))
        }),
    );
    metrics.set(
        "er-service.cache_get_ns",
        mean_ns(n, |i| {
            black_box(cache.get(fingerprints[i]));
        }),
    );

    // er-service governor: one reserve + settle per batch.
    let governor = CostGovernor::new(SharedCostLedger::new(), Money::from_dollars(1e6));
    let mut actual = CostLedger::new();
    actual.record_api_call(TokenCount(900), TokenCount(60), Money::from_micros(1_500));
    metrics.set(
        "er-service.governor_reserve_settle_ns",
        mean_ns(n, |_| {
            let reservation = governor
                .try_reserve(Money::from_micros(2_000))
                .expect("the drill budget never binds");
            governor.settle(reservation, &actual);
        }),
    );

    // baselines: the fallback matcher er-service trains at start.
    let xs: Vec<Vec<f64>> = pool.iter().map(|p| base_features(&p.pair)).collect();
    let ys: Vec<bool> = pool.iter().map(|p| p.label.is_match()).collect();
    let started = Instant::now();
    black_box(LogisticModel::train(&xs, &ys, TrainConfig::default()));
    metrics.set(
        "baselines.logistic_train_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );

    wal_drills(metrics, options);
    planner_drill(metrics, pool, planner_questions, options.seed);
}

/// `wal::Wal` on its own: append under the service's default policy and
/// under `Always`, then replay what was written.
fn wal_drills(metrics: &mut Metrics, options: &Options) {
    let payload = [0x5au8; 48];
    for (name, sync, appends) in [
        (
            "wal.append_us_batched",
            SyncPolicy::Batched { every: 32 },
            2000usize,
        ),
        ("wal.append_us_always", SyncPolicy::Always, 100),
    ] {
        let dir = ScratchDir::new(options, "wal-drill");
        let options_wal = WalOptions { sync, ..WalOptions::default() };
        let (wal, _) = Wal::open(dir.path(), options_wal.clone(), |_| {}).expect("fresh WAL opens");
        let ns = mean_ns(appends, |_| {
            wal.append(&payload).expect("healthy WAL appends");
        });
        metrics.set(name, ns / 1e3);
        if matches!(sync, SyncPolicy::Batched { .. }) {
            drop(wal);
            let mut replayed = 0u64;
            let started = Instant::now();
            let reopened = Wal::open(dir.path(), options_wal, |_| replayed += 1)
                .expect("the drill's own log replays");
            let secs = started.elapsed().as_secs_f64();
            drop(reopened);
            metrics.set("wal.replay_records_per_s", replayed as f64 / secs);
        }
    }
}

/// The incremental planner against the from-scratch planner on the same
/// questions, configured as er-service plans (Semantic features).
fn planner_drill(
    metrics: &mut Metrics,
    pool: &[&LabeledPair],
    questions: &[&EntityPair],
    seed: u64,
) {
    let config =
        BatchPlanConfig { extractor: ExtractorKind::Semantic, seed, ..BatchPlanConfig::default() };
    let total = questions.len().min(PLANNER_QUESTIONS);
    let delta = (total / 100).max(2);
    let spare = delta / 2 * PLANNER_EPOCHS;
    if total <= spare * 2 {
        return;
    }
    let standing = total - spare;

    let started = Instant::now();
    let prepared = PreparedPool::prepare(pool, ExtractorKind::Semantic, DistanceKind::Euclidean);
    metrics.set(
        "core.features_pool_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );

    let started = Instant::now();
    black_box(plan_with_prepared_pool(
        &questions[..standing],
        &prepared,
        &config,
    ));
    metrics.set(
        "core.scratch_plan_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );

    let mut state = PlanState::from_prepared(prepared, config);
    for (key, pair) in questions[..standing].iter().enumerate() {
        state.insert(key as u64, pair);
    }
    let started = Instant::now();
    let first = state.plan(seed);
    metrics.set(
        "core.incremental_full_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );
    debug_assert_eq!(first.kind, PlanKind::Full);

    // A 1% delta per epoch: retire the oldest, insert fresh ones.
    let mut epoch_ms = Vec::with_capacity(PLANNER_EPOCHS);
    let mut next_retire = 0u64;
    let mut next_insert = standing;
    for _ in 0..PLANNER_EPOCHS {
        let started = Instant::now();
        for _ in 0..delta / 2 {
            state.retire(next_retire);
            next_retire += 1;
            state.insert(next_insert as u64, questions[next_insert]);
            next_insert += 1;
        }
        black_box(state.plan(seed));
        epoch_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    metrics.set(
        "core.incremental_epoch_ms",
        crate::report::median(&mut epoch_ms),
    );
}
