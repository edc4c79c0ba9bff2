//! The two offline workloads: the paper's design-space experiment on an
//! in-process simulator, and the same pipeline with the LLM behind a
//! loopback socket. One thread drives both.
//!
//! A *round* runs a fixed list of configurations over a fixed slice of
//! each of the eight datasets. Rounds repeat until the measuring time is
//! up; throughput is the median round's, and the quality numbers (F1,
//! dollars) come from the first round — every later round must reproduce
//! them exactly, which is one of the output checks.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use batcher_core::batching::{batches_for_clustering, cluster_questions};
use batcher_core::selection::{select_demonstrations, SelectionParams};
use batcher_core::{
    plan_question_batches, run_on_split, task_description, BatchPlanConfig, BatchingStrategy,
    ExecutionOutcome, Executor, ExtractorKind, FeatureSpace, RunConfig, RunResult,
    SelectionStrategy,
};
use er_core::{BinaryConfusion, EntityPair, LabeledPair, MatchLabel};
use llm::{ChatApi, SimLlm};
use llm_service::{LlmServer, RunningServer};

use crate::drills;
use crate::inputs::{offline_digest, offline_slices, OfflineSlice};
use crate::report::{median, micros, millis, peak_rss_mb, quantile, Outcome};
use crate::trace::{set_hop_metrics, ChatCall, TimedChat, Tracer};
use crate::{Options, SETUP_REPS};

struct Spec {
    name: &'static str,
    /// LLM behind a loopback socket instead of in-process.
    socket: bool,
    max_pool: usize,
    max_questions: usize,
    configs: Vec<RunConfig>,
    /// Index of the best design (diversity + covering, LR features).
    best: usize,
    /// Index of standard prompting.
    standard: usize,
    /// Index of diversity + top-k-question, when the workload runs it.
    topk_question: Option<usize>,
}

/// `offline_design_space`: Table IV's 12 batching x selection cells, the
/// best design under the Jaccard and Semantic extractors (Table VII) and
/// the standard-prompting baseline of Exp-1 — 15 runs per dataset.
fn design_space_spec(quick: bool) -> Spec {
    let mut configs: Vec<RunConfig> = Vec::new();
    let mut best = 0;
    let mut topk_question = None;
    for batching in BatchingStrategy::ALL {
        for selection in SelectionStrategy::ALL {
            if batching == BatchingStrategy::Diversity {
                match selection {
                    SelectionStrategy::Covering => best = configs.len(),
                    SelectionStrategy::TopKQuestion => topk_question = Some(configs.len()),
                    _ => {}
                }
            }
            configs.push(RunConfig { batching, selection, ..RunConfig::default() });
        }
    }
    for extractor in [ExtractorKind::Jaccard, ExtractorKind::Semantic] {
        configs.push(RunConfig { extractor, ..RunConfig::best_design() });
    }
    let standard = configs.len();
    configs.push(RunConfig::standard_prompting());
    Spec {
        name: "offline_design_space",
        socket: false,
        max_pool: if quick { 360 } else { 3600 },
        max_questions: if quick { 48 } else { 300 },
        configs,
        best,
        standard,
        topk_question,
    }
}

/// `offline_llm_socket`: the three Exp-1 arms with every LLM call
/// crossing a loopback socket.
fn llm_socket_spec(quick: bool) -> Spec {
    Spec {
        name: "offline_llm_socket",
        socket: true,
        max_pool: if quick { 120 } else { 1200 },
        max_questions: if quick { 48 } else { 400 },
        configs: vec![
            RunConfig::standard_prompting(),
            RunConfig::batch_prompting_fixed(),
            RunConfig::best_design(),
        ],
        best: 2,
        standard: 0,
        topk_question: None,
    }
}

pub fn design_space(options: &Options) -> Outcome {
    run_workload(design_space_spec(options.quick), options)
}

pub fn llm_socket(options: &Options) -> Outcome {
    run_workload(llm_socket_spec(options.quick), options)
}

/// What set-up produces: the inputs and, for the socket workload, the
/// running LLM server.
struct Prepared {
    slices: Vec<OfflineSlice>,
    server: Option<RunningServer>,
    generate: Duration,
}

fn set_up(spec: &Spec, seed: u64) -> Prepared {
    let started = Instant::now();
    let slices = offline_slices(seed, spec.max_pool, spec.max_questions);
    let generate = started.elapsed();
    let server = spec
        .socket
        .then(|| LlmServer::new().start().expect("loopback LLM server binds"));
    Prepared { slices, server, generate }
}

/// One pass over every (dataset, configuration).
struct Round {
    /// Dataset-major, configuration-minor.
    results: Vec<RunResult>,
    elapsed: Duration,
    calls: Vec<ChatCall>,
}

impl Round {
    fn questions(&self) -> u64 {
        self.results.iter().map(|r| r.confusion.total()).sum()
    }

    fn questions_per_s(&self) -> f64 {
        self.questions() as f64 / self.elapsed.as_secs_f64()
    }
}

fn run_round(spec: &Spec, slices: &[OfflineSlice], chat: &TimedChat, seed: u64) -> Round {
    let started = Instant::now();
    let mut results = Vec::with_capacity(slices.len() * spec.configs.len());
    for slice in slices {
        let pool = slice.pool_refs();
        let questions = slice.question_refs();
        for config in &spec.configs {
            results.push(run_on_split(
                &slice.dataset,
                &pool,
                &questions,
                chat,
                RunConfig { seed, ..*config },
            ));
        }
    }
    Round { results, elapsed: started.elapsed(), calls: chat.take_calls().0 }
}

/// Stage totals of one traced round.
#[derive(Default)]
struct StageTotals {
    features_pool: Duration,
    features_q: Duration,
    cluster: Duration,
    batching: Duration,
    selection: Duration,
    execute: Duration,
    run_batch: Duration,
    clusters: u64,
    /// Runs whose staged plan was not the plan `plan_question_batches`
    /// makes (each a failed check).
    plan_mismatches: Vec<String>,
}

impl StageTotals {
    fn plan(&self) -> Duration {
        self.features_pool + self.features_q + self.cluster + self.batching + self.selection
    }

    /// Plan + execute: what `RunResult::plan_us + exec_us` covers.
    fn pipeline(&self) -> Duration {
        self.plan() + self.execute
    }
}

/// One (dataset, configuration) run replayed stage by stage through the
/// crates' public functions, a span around each. Returns the same
/// `RunResult` shape `run_on_split` does so the two can be compared.
fn staged_run(
    slice: &OfflineSlice,
    config: RunConfig,
    chat: &TimedChat,
    tracer: &Tracer,
    count_clusters: bool,
    totals: &mut StageTotals,
) -> RunResult {
    let pool = slice.pool_refs();
    let questions = slice.question_refs();
    let question_pairs: Vec<&EntityPair> = questions.iter().map(|p| &p.pair).collect();
    let plan_config = BatchPlanConfig::from_run_config(&config);

    // The run's root span id doubles as the request id of its spans.
    let root = tracer.next_id();
    let request = root;
    let root_start = Instant::now();

    // -- plan, stage by stage (mirrors `plan_with_prepared_pool_pinned`)
    let ((pool_space, token_weights), d) = tracer.time("core.features_pool", root, request, || {
        let space = FeatureSpace::extract(
            pool.iter().map(|p| &p.pair),
            plan_config.extractor,
            plan_config.distance,
        );
        let weights: Vec<f64> = pool
            .iter()
            .map(|p| llm::count_tokens(&p.pair.serialize()) as f64)
            .collect();
        (space, weights)
    });
    totals.features_pool += d;
    let (q_space, d) = tracer.time("core.features_q", root, request, || {
        FeatureSpace::extract(
            question_pairs.iter().copied(),
            plan_config.extractor,
            plan_config.distance,
        )
    });
    totals.features_q += d;
    let (clusters, d) = tracer.time("core.cluster", root, request, || {
        (plan_config.batching != BatchingStrategy::Random).then(|| {
            cluster_questions(
                &q_space,
                plan_config.clustering,
                plan_config.batch_size,
                plan_config.seed,
            )
        })
    });
    totals.cluster += d;
    if count_clusters {
        totals.clusters += clusters.as_ref().map_or(0, |c| c.n_clusters as u64);
    }
    let (batches, d) = tracer.time("core.batching", root, request, || {
        batches_for_clustering(
            q_space.len(),
            clusters.as_ref(),
            plan_config.batching,
            plan_config.batch_size,
            plan_config.seed,
        )
    });
    totals.batching += d;
    let (selection, d) = tracer.time("core.selection", root, request, || {
        select_demonstrations(
            plan_config.selection,
            &q_space,
            &pool_space,
            &batches,
            SelectionParams {
                k: plan_config.k,
                cover_percentile: plan_config.cover_percentile,
                seed: plan_config.seed,
            },
            |d| token_weights[d],
        )
    });
    totals.selection += d;
    let plan_end = Instant::now();

    // -- execute (mirrors `run_on_split`)
    let description = task_description(slice.dataset.domain());
    let executor = Executor::new(chat, config.model, config.max_retries);
    let mut outcome = ExecutionOutcome::default();
    let mut question_order: Vec<usize> = Vec::with_capacity(questions.len());
    let execute_id = tracer.next_id();
    let execute_start = Instant::now();
    for (bi, batch) in batches.iter().enumerate() {
        let demos: Vec<&LabeledPair> = selection.per_batch[bi].iter().map(|&d| pool[d]).collect();
        let serialized: Vec<String> = batch
            .iter()
            .map(|&q| questions[q].pair.serialize())
            .collect();
        let batch_id = tracer.next_id();
        chat.parent.store(batch_id, Ordering::Relaxed);
        let start = Instant::now();
        executor.run_batch(
            &description,
            &demos,
            &serialized,
            config.seed ^ ((bi as u64) << 16),
            &mut outcome,
        );
        let end = Instant::now();
        chat.parent.store(0, Ordering::Relaxed);
        tracer.push(crate::trace::Span {
            id: batch_id,
            parent: execute_id,
            request,
            name: "core.run_batch",
            start,
            end,
        });
        totals.run_batch += end - start;
        question_order.extend(batch.iter().copied());
    }
    let execute_end = Instant::now();
    tracer.push(crate::trace::Span {
        id: execute_id,
        parent: root,
        request,
        name: "core.execute",
        start: execute_start,
        end: execute_end,
    });
    totals.execute += execute_end - execute_start;
    tracer.push(crate::trace::Span {
        id: root,
        parent: 0,
        request,
        name: "core.run",
        start: root_start,
        end: execute_end,
    });

    // -- the staged plan must be the plan the pipeline itself makes
    let reference = plan_question_batches(&question_pairs, &pool, &plan_config);
    if reference.batches != batches
        || reference.demos_per_batch != selection.per_batch
        || reference.labeled != selection.labeled
    {
        totals.plan_mismatches.push(format!(
            "{}: staged plan differs from plan_question_batches ({:?}/{:?}/{:?})",
            slice.kind.short_name(),
            config.batching,
            config.selection,
            config.extractor
        ));
    }

    outcome
        .ledger
        .record_labeling(selection.labeled.len() as u64);
    let mut confusion = BinaryConfusion::new();
    let mut unanswered = 0usize;
    for (&qi, answer) in question_order.iter().zip(&outcome.answers) {
        let predicted = answer.unwrap_or_else(|| {
            unanswered += 1;
            MatchLabel::NonMatching
        });
        confusion.observe(questions[qi].label, predicted);
    }
    RunResult {
        confusion,
        ledger: outcome.ledger,
        batches: batches.len(),
        demos_labeled: selection.labeled.len(),
        unanswered,
        retries: outcome.retries,
        plan_us: u64::try_from((plan_end - root_start).as_micros()).unwrap_or(u64::MAX),
        exec_us: u64::try_from((execute_end - execute_start).as_micros()).unwrap_or(u64::MAX),
    }
}

/// Compares two rounds run by run; any difference is a failed check.
fn rounds_differ(a: &[RunResult], b: &[RunResult]) -> Option<usize> {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .position(|(x, y)| x.confusion != y.confusion || x.ledger != y.ledger)
}

fn run_workload(spec: Spec, options: &Options) -> Outcome {
    let seed = options.seed;
    let measure = Duration::from_secs_f64(options.seconds);

    // -- set-up, several times; the last one is used
    let mut setups: Vec<f64> = Vec::with_capacity(SETUP_REPS);
    let mut generate_ms: Vec<f64> = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        drop(prepared.take());
        let started = Instant::now();
        let p = set_up(&spec, seed);
        setups.push(started.elapsed().as_secs_f64());
        generate_ms.push(millis(p.generate));
        prepared = Some(p);
    }
    let Prepared { slices, server, .. } = prepared.expect("SETUP_REPS > 0");
    let mut outcome = Outcome::new(spec.name, options, offline_digest(&slices));
    let questions_per_config: u64 = slices.iter().map(|s| s.questions.len() as u64).sum();

    let tracer = options.trace.then(|| Arc::new(Tracer::new()));
    let api: Arc<dyn ChatApi> = match &server {
        Some(server) => Arc::new(server.client()),
        None => Arc::new(SimLlm::new()),
    };
    let span_name = if spec.socket {
        "llm-service.chat"
    } else {
        "llm.chat"
    };
    let plain = TimedChat::new(Arc::clone(&api), span_name);

    // -- timed section: whole rounds until the time is up. A traced run
    // spends the first part untraced (the reference for the overhead)
    // and the rest stage by stage — a few rounds of each kind, however
    // short the measuring time, so the overhead compares medians.
    let min_rounds = if options.trace { 3 } else { 1 };
    let untraced_budget = if options.trace {
        measure.mul_f64(0.4)
    } else {
        measure
    };
    let timed_start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < min_rounds || timed_start.elapsed() < untraced_budget {
        rounds.push(run_round(&spec, &slices, &plain, seed));
    }
    for (i, round) in rounds.iter().enumerate().skip(1) {
        if let Some(run) = rounds_differ(&rounds[0].results, &round.results) {
            outcome
                .check_failures
                .push(format!("round {i} run {run} differs from round 0"));
        }
    }
    let first = &rounds[0];

    // -- output checks: every question scored exactly once, and failed
    // operations (unanswered questions, failed LLM calls) over all rounds
    outcome.failed = rounds
        .iter()
        .map(|r| {
            r.results.iter().map(|x| x.unanswered as u64).sum::<u64>()
                + r.calls.iter().filter(|c| !c.ok).count() as u64
        })
        .sum();
    outcome.attempted = rounds.iter().map(Round::questions).sum();
    for (i, result) in first.results.iter().enumerate() {
        let slice = &slices[i / spec.configs.len()];
        if result.confusion.total() != slice.questions.len() as u64 {
            outcome.check_failures.push(format!(
                "{} config {}: {} of {} questions scored",
                slice.kind.short_name(),
                i % spec.configs.len(),
                result.confusion.total(),
                slice.questions.len()
            ));
        }
    }

    // Socket results must equal in-process results of the same config.
    if spec.socket {
        let local = TimedChat::new(Arc::new(SimLlm::new()), "llm.chat");
        let reference = run_round(&spec, &slices, &local, seed);
        if let Some(run) = rounds_differ(&first.results, &reference.results) {
            outcome
                .check_failures
                .push(format!("socket run {run} differs from the in-process run"));
        }
    }

    // -- end-to-end metrics
    let per_config = |index: usize| first.results.iter().skip(index).step_by(spec.configs.len());
    let best_api: f64 = per_config(spec.best).map(|r| r.ledger.api.dollars()).sum();
    let best_label: f64 = per_config(spec.best)
        .map(|r| r.ledger.labeling.dollars())
        .sum();
    let standard_api: f64 = per_config(spec.standard)
        .map(|r| r.ledger.api.dollars())
        .sum();
    let macro_f1 = per_config(spec.best).map(RunResult::f1).sum::<f64>() / slices.len() as f64;
    let mut round_rates: Vec<f64> = rounds.iter().map(Round::questions_per_s).collect();
    let untraced_rate = median(&mut round_rates);
    // Latency of one LLM round trip: each round's own percentile, then
    // the median round, so a slow spell of the box moves one round's
    // figure and not the run's.
    let round_quantile = |q: f64| -> f64 {
        let mut per_round: Vec<f64> = rounds
            .iter()
            .map(|r| {
                let mut us: Vec<f64> = r.calls.iter().map(|c| micros(c.wall)).collect();
                quantile(&mut us, q)
            })
            .collect();
        median(&mut per_round)
    };
    let calls_timed: usize = rounds.iter().map(|r| r.calls.len()).sum();
    outcome.metrics.set("setup_s", median(&mut setups));
    outcome.metrics.set("questions_per_s", untraced_rate);
    outcome.metrics.set("f1", macro_f1);
    outcome.metrics.set(
        "api_usd_per_1k_questions",
        best_api / questions_per_config as f64 * 1e3,
    );
    outcome.metrics.set(
        "label_usd_per_1k_questions",
        best_label / questions_per_config as f64 * 1e3,
    );
    outcome.metrics.set("api_saving_x", standard_api / best_api);
    outcome.metrics.set("request_p50_us", round_quantile(0.50));
    outcome.metrics.set("request_p95_us", round_quantile(0.95));
    outcome.notes.push(format!(
        "rounds {} ({} questions each, {} runs per dataset), llm calls timed {}",
        rounds.len(),
        first.questions(),
        spec.configs.len(),
        calls_timed
    ));
    outcome.notes.push(format!(
        "questions per second of each round {:?}",
        rounds
            .iter()
            .map(|r| r.questions_per_s().round() as u64)
            .collect::<Vec<_>>()
    ));

    let plan_us: u64 = rounds
        .iter()
        .flat_map(|r| &r.results)
        .map(|r| r.plan_us)
        .sum();
    let exec_us: u64 = rounds
        .iter()
        .flat_map(|r| &r.results)
        .map(|r| r.exec_us)
        .sum();
    let plan_share = plan_us as f64 / (plan_us + exec_us).max(1) as f64;
    outcome
        .notes
        .push(format!("core.plan_share {plan_share} ratio"));

    // -- traced part: the same rounds, stage by stage
    if let Some(tracer) = &tracer {
        let traced_chat = TimedChat::new(Arc::clone(&api), span_name).traced(Arc::clone(tracer));
        let mut staged_rates: Vec<f64> = Vec::new();
        let mut staged_totals: Vec<StageTotals> = Vec::new();
        let mut staged_calls: Vec<ChatCall> = Vec::new();
        let mut staged_requests = Vec::new();
        let mut staged_retries = 0u64;
        let mut staged_unanswered = 0u64;
        let mut worst_gap = 0.0f64;
        let index_before = embed::index::stats();
        while staged_rates.len() < min_rounds || timed_start.elapsed() < measure {
            let mut totals = StageTotals::default();
            let mut results: Vec<RunResult> = Vec::with_capacity(first.results.len());
            for slice in &slices {
                for (ci, config) in spec.configs.iter().enumerate() {
                    results.push(staged_run(
                        slice,
                        RunConfig { seed, ..*config },
                        &traced_chat,
                        tracer,
                        ci == spec.best,
                        &mut totals,
                    ));
                }
            }
            // The round's time is its runs' plan + execute; the plan
            // equality check between runs is the instrument's own work.
            let elapsed = totals.pipeline();
            outcome.check_failures.append(&mut totals.plan_mismatches);
            // Waterfall: the stage spans of a round against the plan_us +
            // exec_us its own `RunResult`s carry (root start to plan end,
            // execute start to end) — the parts must sum to the whole.
            let whole: f64 = results.iter().map(|r| (r.plan_us + r.exec_us) as f64).sum();
            worst_gap = worst_gap.max((micros(elapsed) - whole).abs() / whole);
            if let Some(run) = rounds_differ(&first.results, &results) {
                outcome
                    .check_failures
                    .push(format!("staged run {run} differs from run_on_split"));
            }
            staged_retries = results.iter().map(|r| u64::from(r.retries)).sum();
            staged_unanswered = results.iter().map(|r| r.unanswered as u64).sum();
            staged_rates.push(first.questions() as f64 / elapsed.as_secs_f64());
            staged_totals.push(totals);
            (staged_calls, staged_requests) = traced_chat.take_calls();
        }
        // Index counters of the staged rounds, before the drills add theirs.
        drills::set_index_metrics(&mut outcome.metrics, index_before, embed::index::stats());

        // How the staged rounds compare with what `run_on_split` reported
        // in the untraced rounds is the tracing overhead — two separate
        // executions, so it is reported, not asserted.
        let mut reported: Vec<f64> = rounds
            .iter()
            .map(|r| {
                r.results
                    .iter()
                    .map(|x| (x.plan_us + x.exec_us) as f64)
                    .sum()
            })
            .collect();
        let mut staged: Vec<f64> = staged_totals.iter().map(|t| micros(t.pipeline())).collect();
        outcome.notes.push(format!(
            "waterfall: stage spans vs the staged runs' own plan_us+exec_us, worst round gap {worst_gap:.6}; median staged round {:.0} us vs median run_on_split round {:.0} us",
            median(&mut staged),
            median(&mut reported)
        ));
        if worst_gap > 0.10 {
            outcome.check_failures.push(format!(
                "stage spans miss plan_us + exec_us of their own runs by {worst_gap:.3} (> 0.10)"
            ));
        }

        // Drills first: the staged totals below are this workload's own
        // numbers for the stages a drill also prices.
        let pairs: Vec<&EntityPair> = slices
            .iter()
            .flat_map(|s| s.questions.iter().map(|p| &p.pair))
            .collect();
        let pool: Vec<&LabeledPair> = slices[0].pool.iter().take(600).collect();
        let planner_questions: Vec<&EntityPair> =
            slices[0].questions.iter().map(|p| &p.pair).collect();
        drills::common(
            &mut outcome.metrics,
            &pairs,
            &pool,
            &planner_questions,
            options,
        );

        let med = |f: &dyn Fn(&StageTotals) -> Duration| {
            let mut v: Vec<f64> = staged_totals.iter().map(|t| millis(f(t))).collect();
            median(&mut v)
        };
        outcome.metrics.set(
            "trace_overhead_share",
            1.0 - median(&mut staged_rates) / untraced_rate,
        );
        outcome
            .metrics
            .set("datagen.generate_ms", median(&mut generate_ms));
        outcome
            .metrics
            .set("core.features_pool_ms", med(&|t| t.features_pool));
        outcome
            .metrics
            .set("core.features_q_ms", med(&|t| t.features_q));
        outcome.metrics.set("core.cluster_ms", med(&|t| t.cluster));
        outcome
            .metrics
            .set("core.batching_ms", med(&|t| t.batching));
        outcome
            .metrics
            .set("core.selection_ms", med(&|t| t.selection));
        outcome.metrics.set("core.plan_share", plan_share);
        outcome
            .metrics
            .set("cluster.clusters", staged_totals[0].clusters as f64);
        outcome.metrics.set(
            "core.batches",
            per_config(spec.best).map(|r| r.batches as f64).sum(),
        );
        let cover_labeled: f64 = per_config(spec.best).map(|r| r.demos_labeled as f64).sum();
        outcome.metrics.set("core.demos_labeled", cover_labeled);
        if let Some(topk) = spec.topk_question {
            let topk_labeled: f64 = per_config(topk).map(|r| r.demos_labeled as f64).sum();
            outcome
                .metrics
                .set("core.cover_vs_topkq_label_x", topk_labeled / cover_labeled);
        }

        let chat_wall: Duration = staged_calls.iter().map(|c| c.wall).sum();
        let last = staged_totals.last().expect("at least one staged round");
        outcome.metrics.set(
            "core.executor_self_ms",
            millis(last.run_batch.saturating_sub(chat_wall)),
        );
        outcome.metrics.set("llm.calls", staged_calls.len() as f64);
        outcome.metrics.set(
            "llm.prompt_tokens",
            staged_calls.iter().map(|c| c.prompt_tokens as f64).sum(),
        );
        outcome.metrics.set(
            "llm.completion_tokens",
            staged_calls
                .iter()
                .map(|c| c.completion_tokens as f64)
                .sum(),
        );
        outcome.metrics.set("llm.retries", staged_retries as f64);
        outcome
            .metrics
            .set("llm.unanswered", staged_unanswered as f64);
        if spec.socket {
            // The last staged round's requests, answered again in-process
            // now that nothing is being timed: HTTP − direct is the hop.
            set_hop_metrics(&mut outcome.metrics, &staged_calls, &staged_requests);
        } else {
            let mut direct: Vec<f64> = staged_calls.iter().map(|c| micros(c.wall)).collect();
            outcome
                .metrics
                .set("llm.chat_us_p50", quantile(&mut direct, 0.50));
        }

        // Prompt rendering, priced on the best design's own batches.
        let prompt =
            drills::prompt_drill(&slices[0], RunConfig { seed, ..spec.configs[spec.best] });
        outcome.metrics.set("core.prompt_us", prompt.prompt_us);
        outcome.metrics.set(
            "core.prompt_tokens_per_question",
            prompt.tokens_per_question,
        );
    }

    outcome.metrics.set("peak_rss_mb", peak_rss_mb());
    drop(server);
    if let Some(tracer) = &tracer {
        crate::write_trace(tracer, &outcome, options);
    }
    outcome
}
