//! End-to-end planning benchmark of the kernel layer.
//!
//! Measures one full plan pass — feature extraction → percentile
//! threshold → DBSCAN → diversity batches → covering selection — on a
//! synthetic workload through `batcher_core::plan_question_batches`, the
//! production path (`kernel_ms`), plus a **per-stage breakdown**
//! (`stage_ms`): the same plan replayed stage by stage through the
//! crates' public functions (pool features, token weights, question
//! features, the covering threshold, clustering with its ε percentile,
//! batching, the coverage sweep, the two-phase cover), asserted equal to
//! the plan the production path makes and gated to sum to `kernel_ms`
//! within 10%.
//!
//! Runs in quick mode (small workload) under `cargo test` and in full
//! mode (10k questions) under `cargo bench`, three passes of both paths
//! in both, reporting the pass with the lowest `kernel_ms + Σ stage_ms`,
//! so the two numbers the gate compares come from one pass; both
//! write a `BENCH_planning.json` snapshot (path override:
//! `BENCH_PLANNING_OUT`).
//!
//! And a **`flush_plan`** block, the same in both modes: the plan a served
//! flush runs — `plan_with_prepared_pool` of 2, 3, 4 and 8 questions
//! against a 600-row semantic `PreparedPool`, the shape `er-service`'s
//! dispatcher plans on every flush — as µs per plan and as metric-index
//! builds and queries per plan. The counts repeat exactly and CI gates them
//! exactly: a per-pool-row query coming back reads 601, not 1. The µs are
//! not gated against the committed snapshot: from one run to the next on a
//! shared runner they move by more than any envelope that would still
//! catch a regression. CI gates their same-run ratio instead: a 2-question
//! plan, which covering's phase 1 settles with one pool row, must cost at
//! most a quarter of an 8-question one.
//!
//! And a **`design_space_round`** block, also the same in both modes:
//! `benchmark/`'s 15 design-space cells planned on two 3,600/300 splits
//! through `plan_question_batches`, grouped by split and interleaved
//! cell by cell. Grouped, each split is planned once: its pool featurized
//! once per extractor, and its question features, clusterings, covering
//! phase 1 and nearest lists built once and shared by the cells that read
//! them. Interleaved, every cell builds everything again. `shared_x`
//! (interleaved / grouped) is what that sharing buys; CI gates it.
//!
//! And a **`sim_round`** block, the same in both modes: the requests the
//! 15 cells send on one of those splits, rendered once and answered
//! through one `SimLlm` (*shared*: its memo reads each distinct pair text
//! once) and through a fresh `SimLlm` per request (*fresh*: every pair
//! read from scratch), alternating, responses asserted equal. `reuse_x`
//! (fresh / shared) is what the memo buys within one pass; CI gates it.
//!
//! And a **`kernel_64`** block: the coverage pairs of 64-dim semantic
//! rows at the offline workload's shape (300 questions x 3,600 demos) and,
//! in full mode, at Table VII's DBLP-Scholar shape (5,741 x 17,225),
//! timed in the same run on the planner's route (`pairs_within`: the
//! dot-product tile where the CPU has AVX-512F, with its count of pairs
//! verified on the lane kernel), on the lane sweep it replaced
//! (`pairs_within_sweep`, AVX where the CPU has it) and on the bench's own
//! scalar four-lane replica of that sweep, hits asserted equal; plus the
//! question-index route at the same shape. CI gates `tile_x` (lane sweep
//! / tile) on an AVX-512F host and `kernel_x` (scalar / lane sweep) on an
//! AVX host.

use std::sync::Mutex;
use std::time::Instant;

use embed::index::stats;
use embed::matrix::{pairs_within, pairs_within_sweep, SWEEP_BLOCK_BYTES};
use embed::PivotIndex;

use batcher_core::batching::{
    batches_for_clustering, cluster_questions, BatchingStrategy, ClusteringKind,
};
use batcher_core::plan::{
    plan_question_batches, plan_with_prepared_pool, BatchPlanConfig, PreparedPool,
    QuestionBatchPlan,
};
use batcher_core::selection::{
    compute_coverage, covering_threshold, covering_with_coverage, SelectionParams,
    SelectionStrategy,
};
use batcher_core::{run_on_split, DistanceKind, ExtractorKind, FeatureSpace, RunConfig};
use bench::synth::synth_pairs;
use datagen::DatasetKind;
use er_core::{Dataset, EntityPair, LabeledPair};
use llm::{ChatApi, ChatRequest, ChatResponse, LlmError, SimLlm};

// ---------------------------------------------------------------------
// Per-stage breakdown of the kernel path
// ---------------------------------------------------------------------

/// Stage names of the kernel path's breakdown, in pipeline order.
const STAGES: [&str; 8] = [
    "features_pool",
    "token_weights",
    "features_q",
    "threshold",
    "cluster",
    "batching",
    "coverage",
    "cover",
];

/// One plan pass of the best design (diversity + covering, DBSCAN),
/// replayed stage by stage through the crates' public functions. Returns
/// the plan and the wall time of each of [`STAGES`], milliseconds.
fn staged_plan(
    questions: &[&EntityPair],
    pool: &[&LabeledPair],
    config: &BatchPlanConfig,
) -> (QuestionBatchPlan, [f64; 8]) {
    fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let value = f();
        *slot = started.elapsed().as_secs_f64() * 1e3;
        value
    }
    let mut ms = [0.0f64; 8];
    let [features_pool, token_weights, features_q, threshold, cluster, batching, coverage, cover] =
        &mut ms;

    let pool_space = timed(features_pool, || {
        FeatureSpace::extract(
            pool.iter().map(|p| &p.pair),
            config.extractor,
            config.distance,
        )
    });
    let weights: Vec<f64> = timed(token_weights, || {
        let mut serialized = String::new();
        pool.iter()
            .map(|p| {
                p.pair.serialize_into(&mut serialized);
                llm::count_tokens(&serialized) as f64
            })
            .collect()
    });
    let q_space = timed(features_q, || {
        FeatureSpace::extract(questions.iter().copied(), config.extractor, config.distance)
    });
    let params = SelectionParams {
        k: config.k,
        cover_percentile: config.cover_percentile,
        seed: config.seed,
    };
    let t = timed(threshold, || covering_threshold(&q_space, params));
    let clusters = timed(cluster, || {
        cluster_questions(&q_space, config.clustering, config.batch_size, config.seed)
    });
    let batches = timed(batching, || {
        batches_for_clustering(
            q_space.len(),
            Some(&clusters),
            config.batching,
            config.batch_size,
            config.seed,
        )
    });
    let covered = timed(coverage, || compute_coverage(&q_space, &pool_space, t));
    let selection = timed(cover, || {
        covering_with_coverage(&q_space, &pool_space, &batches, &covered, t, |d| weights[d])
    });
    let plan = QuestionBatchPlan {
        batches,
        demos_per_batch: selection.per_batch,
        labeled: selection.labeled,
        threshold: selection.threshold,
    };
    (plan, ms)
}

// ---------------------------------------------------------------------
// The served flush's plan
// ---------------------------------------------------------------------

/// Pool rows a service is started with in `benchmark/`'s served workloads.
const FLUSH_POOL: usize = 600;
/// Distinct flushes planned per pass.
const FLUSH_PLANS: usize = 400;

/// One `flush_plan` entry: `FLUSH_PLANS` disjoint windows of `n` questions
/// planned one by one the way the dispatcher does (its configuration, a
/// seed per flush), best of fifteen passes for the time; the index counts
/// are the same in every pass.
fn flush_plan_point(n: usize, pool: &PreparedPool, questions: &[LabeledPair]) -> String {
    let template = BatchPlanConfig { extractor: ExtractorKind::Semantic, ..Default::default() };
    let windows: Vec<Vec<&EntityPair>> = questions
        .chunks_exact(n)
        .take(FLUSH_PLANS)
        .map(|w| w.iter().map(|p| &p.pair).collect())
        .collect();
    assert_eq!(windows.len(), FLUSH_PLANS, "dataset too small");

    let mut us_per_plan = f64::INFINITY;
    let mut counts = None;
    for _ in 0..15 {
        let before = stats();
        let started = Instant::now();
        for (i, window) in windows.iter().enumerate() {
            let config = BatchPlanConfig { seed: i as u64, ..template };
            let plan = plan_with_prepared_pool(window, pool, &config);
            assert_eq!(std::hint::black_box(plan).batches.len(), 1);
        }
        let elapsed_us = started.elapsed().as_secs_f64() * 1e6;
        us_per_plan = us_per_plan.min(elapsed_us / FLUSH_PLANS as f64);
        let delta = stats().delta_since(&before);
        let pass = (delta.builds, delta.queries);
        assert_eq!(
            *counts.get_or_insert(pass),
            pass,
            "index counts differ between passes"
        );
    }
    let (builds, queries) = counts.expect("fifteen passes ran");
    let per_plan = |total: u64| total as f64 / FLUSH_PLANS as f64;
    println!(
        "flush plan of {n}: {us_per_plan:.1} us, {} index builds, {} index queries per plan",
        per_plan(builds),
        per_plan(queries)
    );
    format!(
        "{{ \"questions\": {n}, \"pool\": {FLUSH_POOL}, \"plans\": {FLUSH_PLANS}, \
         \"us_per_plan\": {us_per_plan:.1}, \"index_builds_per_plan\": {:.3}, \
         \"index_queries_per_plan\": {:.3} }}",
        per_plan(builds),
        per_plan(queries)
    )
}

// ---------------------------------------------------------------------
// A design-space round: the paper's cells on one split after another
// ---------------------------------------------------------------------

/// Pool and question rows of each split, `benchmark/`'s full-size slice.
const ROUND_POOL: usize = 3_600;
const ROUND_QUESTIONS: usize = 300;
/// Timed passes per order; the best is reported.
const ROUND_PASSES: usize = 5;

/// `benchmark/`'s `offline_design_space` cells: Table IV's 12 batching ×
/// selection cells on LR features, the best design on Jaccard and on
/// semantic features (Table VII), and standard prompting (Exp-1).
fn design_space_cells() -> Vec<RunConfig> {
    let mut cells = Vec::new();
    for batching in BatchingStrategy::ALL {
        for selection in SelectionStrategy::ALL {
            cells.push(RunConfig { batching, selection, ..Default::default() });
        }
    }
    for extractor in [ExtractorKind::Jaccard, ExtractorKind::Semantic] {
        cells.push(RunConfig { extractor, ..Default::default() });
    }
    cells.push(RunConfig::standard_prompting());
    cells
}

/// `kind`'s dataset and its first `ROUND_POOL` training and
/// `ROUND_QUESTIONS` test pairs.
fn round_split(kind: DatasetKind, seed: u64) -> (Dataset, Vec<LabeledPair>, Vec<LabeledPair>) {
    let dataset = datagen::generate(kind, seed);
    let split = dataset
        .split_3_1_1(seed)
        .expect("generated datasets are non-empty");
    let take = |part: &[&LabeledPair], n: usize| -> Vec<LabeledPair> {
        part.iter().take(n).map(|p| (*p).clone()).collect()
    };
    let (pool, questions) = (
        take(&split.train, ROUND_POOL),
        take(&split.test, ROUND_QUESTIONS),
    );
    assert_eq!((pool.len(), questions.len()), (ROUND_POOL, ROUND_QUESTIONS));
    (dataset, pool, questions)
}

/// The `design_space_round` block: the cells on two splits through
/// `plan_question_batches`, in two orders. *Grouped* by split is the
/// order a design-space sweep runs, so each pool is featurized once per
/// extractor. *Interleaved* cell by cell, every call finds the other
/// split's pool in the planner's memo and featurizes its own again — the
/// work each call did before the memo, through the same function.
/// `shared_x` is interleaved / grouped, both the best of `ROUND_PASSES`
/// alternating passes in one process, so the box's drift cancels. Both
/// orders must plan alike.
fn design_space_round(seed: u64) -> String {
    let kinds = [DatasetKind::DblpScholar, DatasetKind::WalmartAmazon];
    let splits: Vec<_> = kinds.iter().map(|&kind| round_split(kind, seed)).collect();
    let inputs: Vec<(Vec<&LabeledPair>, Vec<&EntityPair>)> = splits
        .iter()
        .map(|(_, pool, questions)| {
            (
                pool.iter().collect(),
                questions.iter().map(|p| &p.pair).collect(),
            )
        })
        .collect();
    let cells: Vec<BatchPlanConfig> = design_space_cells()
        .iter()
        .map(BatchPlanConfig::from_run_config)
        .collect();
    let n_cells = cells.len();
    let grouped: Vec<(usize, usize)> = (0..inputs.len())
        .flat_map(|s| (0..n_cells).map(move |c| (s, c)))
        .collect();
    let interleaved: Vec<(usize, usize)> = (0..n_cells)
        .flat_map(|c| (0..inputs.len()).map(move |s| (s, c)))
        .collect();

    // Plans indexed split-major, whichever order made them.
    let pass = |order: &[(usize, usize)]| -> (f64, Vec<Option<QuestionBatchPlan>>) {
        let mut plans = vec![None; order.len()];
        let started = Instant::now();
        for &(s, c) in order {
            let (pool, questions) = &inputs[s];
            plans[s * n_cells + c] = Some(plan_question_batches(questions, pool, &cells[c]));
        }
        (started.elapsed().as_secs_f64() * 1e3, plans)
    };
    let (mut grouped_ms, mut interleaved_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUND_PASSES {
        let (ms, grouped_plans) = pass(&grouped);
        grouped_ms = grouped_ms.min(ms);
        let (ms, interleaved_plans) = pass(&interleaved);
        interleaved_ms = interleaved_ms.min(ms);
        assert!(
            grouped_plans == interleaved_plans,
            "design-space round: grouped and interleaved orders planned differently"
        );
    }
    let shared_x = interleaved_ms / grouped_ms;
    println!(
        "design-space round, {n_cells} cells x {} splits: grouped {grouped_ms:.1} ms, \
         interleaved {interleaved_ms:.1} ms, shared_x {shared_x:.2}",
        kinds.len()
    );
    let names: Vec<String> = kinds
        .iter()
        .map(|k| format!("\"{}\"", k.short_name()))
        .collect();
    format!(
        "{{ \"splits\": [{}], \"pool\": {ROUND_POOL}, \"questions\": {ROUND_QUESTIONS}, \
         \"cells\": {n_cells}, \"passes\": {ROUND_PASSES}, \"grouped_ms\": {grouped_ms:.1}, \
         \"interleaved_ms\": {interleaved_ms:.1}, \"shared_x\": {shared_x:.2} }}",
        names.join(", ")
    )
}

// ---------------------------------------------------------------------
// A design-space round's LLM calls: one simulator against one per call
// ---------------------------------------------------------------------

/// Answers like the simulator and keeps every request it was asked.
struct Recorder {
    llm: SimLlm,
    seen: Mutex<Vec<ChatRequest>>,
}

impl ChatApi for Recorder {
    fn complete(&self, request: &ChatRequest) -> Result<ChatResponse, LlmError> {
        self.seen.lock().unwrap().push(request.clone());
        self.llm.complete(request)
    }
}

/// The `sim_round` block: every request the design-space cells send on
/// DBLP-Scholar's split, answered by one `SimLlm` and by a fresh one per
/// request. `reuse_x` is fresh / shared, both the best of `ROUND_PASSES`
/// alternating passes in one process; both must answer alike.
fn sim_round(seed: u64) -> String {
    let kind = DatasetKind::DblpScholar;
    let (dataset, pool, questions) = round_split(kind, seed);
    let (pool, questions): (Vec<&LabeledPair>, Vec<&LabeledPair>) =
        (pool.iter().collect(), questions.iter().collect());
    let recorder = Recorder { llm: SimLlm::new(), seen: Mutex::new(Vec::new()) };
    let cells = design_space_cells();
    for config in &cells {
        run_on_split(
            &dataset,
            &pool,
            &questions,
            &recorder,
            RunConfig { seed, ..*config },
        );
    }
    let requests = recorder.seen.into_inner().unwrap();

    let pass = |answer: &dyn Fn(&ChatRequest) -> Result<ChatResponse, LlmError>| {
        let started = Instant::now();
        let responses: Vec<_> = requests.iter().map(answer).collect();
        (started.elapsed().as_secs_f64() * 1e3, responses)
    };
    let (mut shared_ms, mut fresh_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUND_PASSES {
        let shared = SimLlm::new();
        let (ms, shared_responses) = pass(&|r| shared.complete(r));
        shared_ms = shared_ms.min(ms);
        let (ms, fresh_responses) = pass(&|r| SimLlm::new().complete(r));
        fresh_ms = fresh_ms.min(ms);
        assert!(
            shared_responses == fresh_responses,
            "sim round: one simulator answered differently from one per request"
        );
    }
    let reuse_x = fresh_ms / shared_ms;
    println!(
        "sim round, {} requests of {} cells: shared {shared_ms:.1} ms, fresh {fresh_ms:.1} ms, \
         reuse_x {reuse_x:.2}",
        requests.len(),
        cells.len()
    );
    format!(
        "{{ \"split\": \"{}\", \"pool\": {ROUND_POOL}, \"questions\": {ROUND_QUESTIONS}, \
         \"cells\": {}, \"requests\": {}, \"passes\": {ROUND_PASSES}, \
         \"shared_ms\": {shared_ms:.1}, \"fresh_ms\": {fresh_ms:.1}, \"reuse_x\": {reuse_x:.2} }}",
        kind.short_name(),
        cells.len(),
        requests.len()
    )
}

// ---------------------------------------------------------------------
// The 64-dim coverage sweep: the dispatched kernel against the scalar one
// ---------------------------------------------------------------------

/// Width of the semantic extractor's rows (`features::SEMANTIC_DIM`).
const KERNEL_DIM: usize = 64;

/// `embed`'s four-lane squared distance as it reads without its AVX path:
/// the reference the dispatched kernel is timed and checked against.
fn sq_euclidean_four_lanes(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let lanes = a.len() / 4 * 4;
    let mut i = 0;
    while i < lanes {
        let d0 = a[i] - b[i];
        let d1 = a[i + 1] - b[i + 1];
        let d2 = a[i + 2] - b[i + 2];
        let d3 = a[i + 3] - b[i + 3];
        acc[0] += d0 * d0;
        acc[1] += d1 * d1;
        acc[2] += d2 * d2;
        acc[3] += d3 * d3;
        i += 4;
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    while i < a.len() {
        let d = a[i] - b[i];
        s += d * d;
        i += 1;
    }
    s
}

/// Hits of one sweep: their count and, per question, an order-sensitive
/// digest of its demos, so two sweeps compare without holding millions of
/// hits, whatever order they visit the questions in, and a sweep that
/// hands one question its demos out of pool order differs.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Hits {
    count: u64,
    digests: Vec<u64>,
}

impl Hits {
    fn new(n_q: usize) -> Self {
        Self { count: 0, digests: vec![0; n_q] }
    }

    fn push(&mut self, q: usize, d: usize) {
        self.count += 1;
        let digest = &mut self.digests[q];
        *digest = (*digest ^ d as u64)
            .wrapping_mul(0x0000_0100_0000_01B3)
            .rotate_left(17);
    }
}

/// One `kernel_64` entry: the coverage pairs of `n_q` questions against
/// `n_pool` demos of DBLP-Scholar's semantic features at the best design's
/// threshold, best of `passes` each, hits equal in every pass:
/// - *tile*: `pairs_within`, the planner's route (the dot-product tile on
///   a CPU with AVX-512F), with its count of pairs verified on the lane
///   kernel;
/// - *dispatched*: `pairs_within_sweep`, the lane sweep the planner ran
///   before the tile and still runs without AVX-512F (a cache block of
///   pool rows at a time, one `scan_rows_within` per question and block);
/// - *scalar*: the same blocked sweep on [`sq_euclidean_four_lanes`].
///
/// The entry also times the route the planner takes for narrow rows from
/// `INDEX_MIN_ROWS` questions up — the questions indexed, one radius
/// query per demo — which is what keeps 64-dim rows off the index at
/// every size.
fn kernel_point(questions: &FeatureSpace, pool: &FeatureSpace, passes: usize) -> String {
    let (n_q, n_pool) = (questions.len(), pool.len());
    let params = SelectionParams::default();
    let t = covering_threshold(questions, params);
    let t_sq = t * t;
    let (qm, pm) = (questions.matrix(), pool.matrix());
    let tile = || {
        let mut hits = Hits::new(n_q);
        let verified = pairs_within(qm, pm, t_sq, |q, d| hits.push(q, d));
        (hits, verified)
    };
    let dispatched = || {
        let mut hits = Hits::new(n_q);
        pairs_within_sweep(qm, pm, t_sq, |q, d| hits.push(q, d));
        (hits, 0)
    };
    let scalar = || {
        let block_rows = SWEEP_BLOCK_BYTES / (KERNEL_DIM * std::mem::size_of::<f64>());
        let mut hits = Hits::new(n_q);
        for (b, block) in pm.flat().chunks(block_rows * KERNEL_DIM).enumerate() {
            for q in 0..n_q {
                for (d, row) in block.chunks_exact(KERNEL_DIM).enumerate() {
                    if sq_euclidean_four_lanes(questions.vector(q), row) < t_sq {
                        hits.push(q, b * block_rows + d);
                    }
                }
            }
        }
        (hits, 0)
    };
    let timed = |sweep: &dyn Fn() -> (Hits, usize)| -> (f64, Hits, usize) {
        let started = Instant::now();
        let (hits, verified) = std::hint::black_box(sweep());
        (started.elapsed().as_secs_f64() * 1e3, hits, verified)
    };
    let (mut tile_ms, mut dispatched_ms, mut scalar_ms) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let mut hits: Option<Hits> = None;
    let mut verified = 0;
    for _ in 0..passes {
        let (ms, a, v) = timed(&tile);
        tile_ms = tile_ms.min(ms);
        verified = v;
        let (ms, b, _) = timed(&dispatched);
        dispatched_ms = dispatched_ms.min(ms);
        let (ms, c, _) = timed(&scalar);
        scalar_ms = scalar_ms.min(ms);
        assert!(
            a == b && b == c,
            "kernel_64 {n_q}x{n_pool}: the tile, dispatched and scalar sweeps hit differently"
        );
        let first = hits.get_or_insert_with(|| a.clone());
        assert_eq!(*first, a, "kernel_64: hits differ between passes");
    }
    let hits = hits.expect("at least one pass");

    // The index route: the question set indexed, one radius query per
    // pool demo.
    let started = Instant::now();
    let index = PivotIndex::build(questions.matrix());
    let mut within = Vec::new();
    let mut indexed = 0u64;
    for d in 0..n_pool {
        index.within_into(pool.vector(d), t, true, &mut within);
        indexed += within.len() as u64;
    }
    let index_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        indexed, hits.count,
        "kernel_64: the index route hits differently"
    );

    let kernel_x = scalar_ms / dispatched_ms;
    let tile_x = dispatched_ms / tile_ms;
    println!(
        "kernel_64 {n_q}q x {n_pool}p: tile {tile_ms:.1} ms ({verified} pairs verified), \
         dispatched {dispatched_ms:.1} ms ({tile_x:.2}x), scalar {scalar_ms:.1} ms \
         ({kernel_x:.2}x), question index {index_ms:.1} ms, {} hits",
        hits.count
    );
    format!(
        "{{ \"questions\": {n_q}, \"pool\": {n_pool}, \"dim\": {KERNEL_DIM}, \"passes\": {passes}, \
         \"tile_ms\": {tile_ms:.2}, \"verified\": {verified}, \
         \"dispatched_ms\": {dispatched_ms:.2}, \"tile_x\": {tile_x:.2}, \
         \"scalar_ms\": {scalar_ms:.2}, \"kernel_x\": {kernel_x:.2}, \
         \"index_route_ms\": {index_ms:.2}, \"hits\": {} }}",
        hits.count
    )
}

/// The `kernel_64` block: the offline workload's shape (300 questions
/// against 3,600 demos) in both modes and, in full mode, Table VII's
/// DBLP-Scholar split (5,741 against 17,225), whose semantic cell is most
/// of that table's time. `avx` and `avx512f` say whether this CPU has the
/// instructions the lane sweep and the tile need; without them the sweep
/// runs the scalar code and `kernel_x` reads about 1, and the planner's
/// route is the sweep, so `tile_x` reads about 1.
fn kernel_64(seed: u64, quick: bool) -> String {
    let dataset = datagen::generate(DatasetKind::DblpScholar, seed);
    let split = dataset
        .split_3_1_1(seed)
        .expect("generated datasets are non-empty");
    let space = |part: &[&LabeledPair], n: usize| {
        let pairs = part.iter().take(n).map(|p| &p.pair);
        FeatureSpace::extract(pairs, ExtractorKind::Semantic, DistanceKind::Euclidean)
    };
    let mut points = vec![kernel_point(
        &space(&split.test, ROUND_QUESTIONS),
        &space(&split.train, ROUND_POOL),
        5,
    )];
    if !quick {
        points.push(kernel_point(
            &space(&split.test, usize::MAX),
            &space(&split.train, usize::MAX),
            1,
        ));
    }
    #[cfg(target_arch = "x86_64")]
    let (avx, avx512f) = (
        std::arch::is_x86_feature_detected!("avx"),
        std::arch::is_x86_feature_detected!("avx512f"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx, avx512f) = (false, false);
    format!(
        "{{ \"avx\": {avx}, \"avx512f\": {avx512f}, \"points\": [\n      {}\n    ] }}",
        points.join(",\n      ")
    )
}

fn assert_partition(batches: &[Vec<usize>], n: usize) {
    let mut seen: Vec<usize> = batches.iter().flatten().copied().collect();
    seen.sort_unstable();
    assert_eq!(
        seen,
        (0..n).collect::<Vec<_>>(),
        "plan does not partition the question set"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick") || !args.iter().any(|a| a == "--bench");
    let (n_questions, n_pool) = if quick { (1500, 300) } else { (10_000, 2_000) };
    let batch_size = 8usize;
    let seed = 42u64;

    let all = synth_pairs(n_questions + n_pool, seed);
    let (pool_pairs, question_pairs) = all.split_at(n_pool);
    let questions: Vec<&EntityPair> = question_pairs.iter().map(|p| &p.pair).collect();
    let pool: Vec<&LabeledPair> = pool_pairs.iter().collect();
    let config = BatchPlanConfig {
        batching: BatchingStrategy::Diversity,
        selection: SelectionStrategy::Covering,
        extractor: ExtractorKind::LevenshteinRatio,
        distance: DistanceKind::Euclidean,
        clustering: ClusteringKind::Dbscan,
        batch_size,
        k: 8,
        cover_percentile: 8.0,
        seed,
    };

    // Kernel path (the production configuration) and its stage-by-stage
    // replay, three passes of both in both modes. Both numbers come from
    // one pass, the one with the lowest `kernel_ms + Σ stage_ms`: the gate
    // compares them, and minima taken from different passes drift apart
    // whenever one side of one pass hits a slow spell.
    let (mut kernel_ms, mut stage_ms) = (f64::INFINITY, [f64::INFINITY; 8]);
    let mut kernel_batches = 0usize;
    let mut kernel_labeled = 0usize;
    for _ in 0..3 {
        // A plan on another pool first: `plan_question_batches` remembers
        // the last pool's features, and every timed pass featurizes its
        // pool, as the stage replay does.
        plan_question_batches(&questions[..1], &pool[..1], &config);
        let start = Instant::now();
        let plan = plan_question_batches(&questions, &pool, &config);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert_partition(&plan.batches, questions.len());
        kernel_batches = plan.len();
        kernel_labeled = plan.labeled.len();

        let (staged, stages) = staged_plan(&questions, &pool, &config);
        assert_eq!(
            staged, plan,
            "staged replay differs from plan_question_batches"
        );
        let pass_ms = |kernel: f64, stages: &[f64; 8]| kernel + stages.iter().sum::<f64>();
        if pass_ms(ms, &stages) < pass_ms(kernel_ms, &stage_ms) {
            (kernel_ms, stage_ms) = (ms, stages);
        }
    }
    let stage_json: Vec<String> = STAGES
        .iter()
        .zip(stage_ms)
        .map(|(name, ms)| format!("\"{name}\": {ms:.2}"))
        .collect();
    let stage_json = stage_json.join(", ");

    let served = datagen::generate(datagen::DatasetKind::DblpScholar, seed);
    let (served_pool, served_questions) = served.pairs().split_at(FLUSH_POOL);
    let served_pool: Vec<&LabeledPair> = served_pool.iter().collect();
    let prepared = PreparedPool::prepare(
        &served_pool,
        ExtractorKind::Semantic,
        DistanceKind::Euclidean,
    );
    let flush_json = [2usize, 3, 4, 8]
        .map(|n| flush_plan_point(n, &prepared, served_questions))
        .join(",\n    ");
    let round_json = design_space_round(seed);
    let sim_json = sim_round(seed);
    let kernel_json = kernel_64(seed, quick);

    let json = format!(
        "{{\n  \"bench\": \"planning_end_to_end\",\n  \"mode\": \"{}\",\n  \"questions\": {},\n  \"pool\": {},\n  \"batch_size\": {},\n  \"kernel_ms\": {:.2},\n  \"stage_ms\": {{ {stage_json} }},\n  \"kernel_batches\": {},\n  \"kernel_labeled\": {},\n  \"flush_plan\": [\n    {flush_json}\n  ],\n  \"design_space_round\": {round_json},\n  \"sim_round\": {sim_json},\n  \"kernel_64\": {kernel_json}\n}}\n",
        if quick { "quick" } else { "full" },
        n_questions,
        n_pool,
        batch_size,
        kernel_ms,
        kernel_batches,
        kernel_labeled,
    );
    // Default to the workspace root regardless of the harness's CWD.
    let out_path = std::env::var("BENCH_PLANNING_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_planning.json").to_owned()
    });
    std::fs::write(&out_path, &json).expect("write BENCH_planning.json");
    println!("{json}");
    println!("planning {n_questions}q/{n_pool}p: kernel {kernel_ms:.1} ms -> {out_path}");
}
