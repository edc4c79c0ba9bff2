//! Serving-layer benchmark: coalescing-queue throughput under
//! concurrent clients and histogram-backed end-to-end latency
//! percentiles.
//!
//! A duplicate-heavy workload runs against a fresh service. p50/p99
//! answer latency comes from the service's own `er_answer_us` histograms
//! via `stats()`, not from an external timer: the bench exercises
//! exactly what `/metrics` exports, and the cost of recording it is
//! inside every number here.
//!
//! The same workload also runs against the durable tier in both fsync
//! modes (`Batched` and `Always`) so the write-ahead log's throughput
//! cost per policy sits next to the WAL-off number in the snapshot.
//!
//! The open-loop **traffic replay** section covers what the end-to-end
//! benchmark's two closed-loop clients cannot reach: arrivals follow a
//! precomputed schedule (a steady or a spike curve) that does not slow
//! down when the service does, so backpressure shows up as queue depth
//! and shed requests instead of a politely throttled client. The steady
//! curve must admit everything; the spike, against a deliberately tight
//! admission bound, must shed some arrivals and not all.
//!
//! Runs in quick mode (small workload, one iteration) under `cargo
//! test` and in full mode (best of 5) under `cargo bench`; both write a
//! `BENCH_serving.json` snapshot (path override: `BENCH_SERVING_OUT`).
//! Full mode asserts the batched-fsync WAL stays within 25% of the
//! WAL-off throughput, and the two shed conditions above.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use er_core::{EntityPair, LabeledPair, Money, PairId, Record, RecordId, Schema};
use er_service::{ErService, ServiceConfig, ServiceStats, SubmitOutcome, SyncPolicy, WalConfig};
use llm::SimLlm;

fn service_config() -> ServiceConfig {
    ServiceConfig {
        budget: Money::from_dollars(50.0),
        batch_size: 8,
        flush_deadline: Duration::from_millis(2),
        workers: 2,
        domain: "Beer".to_owned(),
        ..ServiceConfig::default()
    }
}

/// A fresh WAL directory for one run (each run must pay the journaling
/// cost from scratch, not replay its predecessor).
struct TempWal {
    dir: std::path::PathBuf,
}

impl TempWal {
    fn new(tag: &str, iter: usize) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "bench-serving-wal-{tag}-{iter}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Self { dir }
    }

    fn config(&self, sync: SyncPolicy) -> ServiceConfig {
        ServiceConfig {
            wal: Some(WalConfig { sync, ..WalConfig::at(&self.dir) }),
            ..service_config()
        }
    }
}

impl Drop for TempWal {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn fixtures(n_questions: usize) -> (Vec<LabeledPair>, Vec<EntityPair>) {
    let dataset = datagen::generate(datagen::DatasetKind::Beer, 42);
    let bootstrap = dataset.pairs()[..150].to_vec();
    let questions: Vec<EntityPair> = dataset.pairs()[150..]
        .iter()
        .cycle()
        .take(n_questions)
        .map(|p| p.pair.clone())
        .collect();
    (bootstrap, questions)
}

/// One full serving run: a fresh service, `clients` threads each
/// pushing its stripe of the bank `rounds` times (duplicates across
/// rounds exercise the cache + coalescing paths). Returns the
/// throughput in submits per second and the final stats snapshot.
fn run_workload(
    config: ServiceConfig,
    bootstrap: &[LabeledPair],
    bank: &[EntityPair],
    clients: usize,
    rounds: usize,
) -> (f64, ServiceStats) {
    let service = Arc::new(ErService::start(
        Arc::new(SimLlm::new()),
        bootstrap.to_vec(),
        config,
    ));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..clients {
            let service = Arc::clone(&service);
            scope.spawn(move || {
                for round in 0..rounds {
                    for q in bank
                        .iter()
                        .skip((client + round) % clients)
                        .step_by(clients)
                    {
                        std::hint::black_box(service.submit(q));
                    }
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    let stats = service.stats();
    (stats.submitted as f64 / secs, stats)
}

/// Offered-load shapes for the open-loop replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Curve {
    /// Constant arrival rate.
    Steady,
    /// Half the base rate, with an 8x burst through the middle tenth of
    /// the run — the shape the admission controller exists for.
    Spike,
}

impl Curve {
    /// Instantaneous rate multiplier at normalized run position `u`.
    fn rate(self, u: f64) -> f64 {
        match self {
            Curve::Steady => 1.0,
            Curve::Spike => {
                if (0.45..0.55).contains(&u) {
                    8.0
                } else {
                    0.5
                }
            }
        }
    }
}

/// Precomputed arrival offsets: `n` arrivals whose gaps follow the
/// curve's rate over a nominal duration of `n * base_gap`. The schedule
/// is fixed before the run starts — an overloaded service cannot slow
/// the offered load down, which is the whole point of open loop.
fn arrival_schedule(curve: Curve, n: usize, base_gap: Duration) -> Vec<Duration> {
    let nominal = base_gap.as_secs_f64() * n as f64;
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            let u = (t / nominal).min(0.999);
            let gap = base_gap.as_secs_f64() / curve.rate(u).max(1e-3);
            let out = Duration::from_secs_f64(t);
            t += gap;
            out
        })
        .collect()
}

/// A bank of `n` pairwise-distinct questions, so every arrival exercises
/// the queue and the planner (no cache fast path hiding contention).
fn replay_bank(n: usize) -> Vec<EntityPair> {
    let schema = Arc::new(Schema::new(["title", "brand", "price"]).unwrap());
    (0..n)
        .map(|i| {
            let left: Vec<String> = vec![
                format!("craft ale number {i}"),
                format!("brewery-{}", i % 13),
                format!("{}.49", 2 + i % 9),
            ];
            let right: Vec<String> = if i % 2 == 0 {
                left.clone()
            } else {
                vec![
                    format!("imported lager {i}"),
                    format!("importer-{}", i % 11),
                    "87.50".into(),
                ]
            };
            let a =
                Arc::new(Record::new(RecordId::a(i as u32), Arc::clone(&schema), left).unwrap());
            let b =
                Arc::new(Record::new(RecordId::b(i as u32), Arc::clone(&schema), right).unwrap());
            EntityPair::new(PairId(i as u32), a, b).unwrap()
        })
        .collect()
}

/// One open-loop replay run's result row.
struct ReplayOutcome {
    offered_qps: f64,
    achieved_qps: f64,
    answered: u64,
    shed: u64,
    answer_p50_us: u64,
    answer_p99_us: u64,
    queue_depth_peak: u64,
    /// `llm_answered / batches_flushed`: what the flush rule's wait buys.
    questions_per_batch: f64,
    /// API dollars per 1,000 answered questions: what a thinner batch costs.
    api_usd_per_1k: f64,
}

impl ReplayOutcome {
    fn shed_rate_pct(&self) -> f64 {
        let total = self.answered + self.shed;
        if total == 0 {
            0.0
        } else {
            100.0 * self.shed as f64 / total as f64
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"offered_qps\": {:.0}, \
             \"achieved_qps\": {:.0}, \"answered\": {}, \"shed\": {}, \
             \"shed_rate_pct\": {:.2}, \"answer_p50_us\": {}, \"answer_p99_us\": {}, \
             \"queue_depth_peak\": {}, \"questions_per_batch\": {:.2}, \"api_usd_per_1k\": {:.4}}}",
            self.offered_qps,
            self.achieved_qps,
            self.answered,
            self.shed,
            self.shed_rate_pct(),
            self.answer_p50_us,
            self.answer_p99_us,
            self.queue_depth_peak,
            self.questions_per_batch,
            self.api_usd_per_1k,
        )
    }
}

/// One offered load: the arrival count, the base inter-arrival gap the
/// curve modulates, and the client-lane concurrency bound.
#[derive(Clone, Copy)]
struct ReplayLoad {
    n_arrivals: usize,
    base_gap: Duration,
    threads: usize,
}

/// Replays one arrival schedule against a fresh service. `load.threads`
/// bounds in-flight concurrency (a blocked lane falls behind schedule
/// and fires late rather than dropping arrivals); each lane claims the
/// next arrival slot, sleeps until it is due, and `try_submit`s — sheds
/// count, they do not retry.
fn replay(
    curve: Curve,
    queue_capacity: usize,
    bootstrap: &[LabeledPair],
    bank: &[EntityPair],
    load: ReplayLoad,
) -> ReplayOutcome {
    let service = Arc::new(ErService::start(
        Arc::new(SimLlm::new()),
        bootstrap.to_vec(),
        ServiceConfig { queue_capacity, ..service_config() },
    ));
    let schedule = arrival_schedule(curve, load.n_arrivals, load.base_gap);
    let offered_qps = load.n_arrivals as f64
        / schedule
            .last()
            .copied()
            .unwrap_or(load.base_gap)
            .as_secs_f64()
            .max(1e-9);
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let (answered, shed) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..load.threads)
            .map(|_| {
                let service = Arc::clone(&service);
                let schedule = &schedule;
                let next = &next;
                scope.spawn(move || {
                    let (mut answered, mut shed) = (0u64, 0u64);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= schedule.len() {
                            break;
                        }
                        let due = schedule[i];
                        let now = start.elapsed();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        match service.try_submit(&bank[i % bank.len()]) {
                            SubmitOutcome::Decided(d) => {
                                std::hint::black_box(d);
                                answered += 1;
                            }
                            SubmitOutcome::Shed { .. } => shed += 1,
                        }
                    }
                    (answered, shed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0u64, 0u64), |(a, s), (da, ds)| (a + da, s + ds))
    });
    let secs = start.elapsed().as_secs_f64();
    let stats = service.stats();
    assert_eq!(
        stats.shed_total, shed,
        "service and bench disagree on sheds"
    );
    ReplayOutcome {
        offered_qps,
        achieved_qps: answered as f64 / secs.max(1e-9),
        answered,
        shed,
        answer_p50_us: stats.answer_p50_us,
        answer_p99_us: stats.answer_p99_us,
        queue_depth_peak: stats.queue_depth_peak,
        questions_per_batch: stats.llm_answered as f64 / stats.batches_flushed.max(1) as f64,
        api_usd_per_1k: stats.api_micros as f64 / 1e3 / answered.max(1) as f64,
    }
}

/// Runs the two replay passes — steady at the default admission bound,
/// spike against a deliberately tight one — and renders the snapshot's
/// `"replay"` section.
fn run_replay_section(quick: bool, bootstrap: &[LabeledPair]) -> String {
    // Full mode runs nearly the same offered load as quick, 4x longer —
    // on a small container, piling on client threads just adds scheduler
    // noise; more samples is what sharpens the percentiles.
    let load = if quick {
        ReplayLoad { n_arrivals: 360, base_gap: Duration::from_micros(500), threads: 16 }
    } else {
        ReplayLoad { n_arrivals: 1440, base_gap: Duration::from_micros(400), threads: 24 }
    };
    let bank = replay_bank(load.n_arrivals);
    // Tight enough that the spike overruns it, while steady load admits
    // cleanly at the default bound.
    let spike_capacity = 4;

    let steady = replay(
        Curve::Steady,
        ServiceConfig::default().queue_capacity,
        bootstrap,
        &bank,
        load,
    );
    let spike = replay(Curve::Spike, spike_capacity, bootstrap, &bank, load);
    println!(
        "replay steady: {:.0}/{:.0} q/s achieved/offered, answer p50/p99 {}/{} us, \
         depth peak {}, shed {}, {:.2} questions/batch, API ${:.4}/1k | spike (cap {spike_capacity}): shed {} ({:.1}%)",
        steady.achieved_qps,
        steady.offered_qps,
        steady.answer_p50_us,
        steady.answer_p99_us,
        steady.queue_depth_peak,
        steady.shed,
        steady.questions_per_batch,
        steady.api_usd_per_1k,
        spike.shed,
        spike.shed_rate_pct()
    );

    if !quick {
        assert_eq!(steady.shed, 0, "steady load shed");
        assert!(
            spike.shed > 0,
            "spike curve never overran the admission bound"
        );
        assert!(spike.answered > 0, "spike curve shed every request");
    }

    format!(
        "{{\n    \"arrivals\": {},\n    \"base_gap_us\": {},\n    \"client_threads\": {},\n    \"spike_queue_capacity\": {spike_capacity},\n    \"steady\": {},\n    \"spike\": {}\n  }}",
        load.n_arrivals,
        load.base_gap.as_micros(),
        load.threads,
        steady.json(),
        spike.json(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick") || !args.iter().any(|a| a == "--bench");
    let (n_questions, clients, rounds, iters) = if quick { (48, 4, 2, 1) } else { (256, 8, 6, 5) };
    let (bootstrap, bank) = fixtures(n_questions);

    // Interleave the configurations each iteration so machine noise hits
    // all of them equally; keep the best (highest q/s) of each.
    let mut qps = 0.0f64;
    let mut qps_wal_batched = 0.0f64;
    let mut qps_wal_always = 0.0f64;
    let mut best: Option<ServiceStats> = None;
    for iter in 0..iters {
        let (run_qps, stats) = run_workload(service_config(), &bootstrap, &bank, clients, rounds);
        if run_qps > qps {
            qps = run_qps;
            best = Some(stats);
        }

        let wal = TempWal::new("batched", iter);
        let (run_qps, wal_stats) = run_workload(
            wal.config(SyncPolicy::Batched { every: 32 }),
            &bootstrap,
            &bank,
            clients,
            rounds,
        );
        assert_eq!(wal_stats.wal_append_errors, 0, "{wal_stats:?}");
        assert!(wal_stats.wal_appends > 0, "WAL run journaled nothing");
        qps_wal_batched = qps_wal_batched.max(run_qps);

        let wal = TempWal::new("always", iter);
        let (run_qps, wal_stats) = run_workload(
            wal.config(SyncPolicy::Always),
            &bootstrap,
            &bank,
            clients,
            rounds,
        );
        assert_eq!(wal_stats.wal_append_errors, 0, "{wal_stats:?}");
        qps_wal_always = qps_wal_always.max(run_qps);
    }
    let stats = best.expect("at least one iteration");
    // WAL overhead is measured against the WAL-off run — the
    // configuration a durable deployment would otherwise use.
    let wal_batched_overhead_pct = 100.0 * (1.0 - qps_wal_batched / qps);
    let wal_always_overhead_pct = 100.0 * (1.0 - qps_wal_always / qps);

    // Cache-hit fast path, measured by the service's own histogram: a
    // warmed service where every submit resolves from the answer cache.
    let hot_service =
        ErService::start(Arc::new(SimLlm::new()), bootstrap.clone(), service_config());
    let hot: Vec<&EntityPair> = bank.iter().take(32).collect();
    for q in &hot {
        hot_service.submit(q); // warm the cache
    }
    let warmup = hot_service.stats();
    for i in 0..(if quick { 256 } else { 4096 }) {
        std::hint::black_box(hot_service.submit(hot[i % hot.len()]));
    }
    let hot_stats = hot_service.stats();
    assert!(
        hot_stats.cache_hits >= warmup.cache_hits + 256,
        "warmed service missed the cache: {hot_stats:?}"
    );
    let cache_hit_p50_us = hot_stats.answer_p50_us;

    if !quick {
        // The batched-fsync WAL is the durable default; its write path is
        // one buffered append per event group, so it must stay cheap.
        // Measured ~5% on quiet hardware; the envelope leaves room for
        // shared-runner noise while still catching a real regression
        // (e.g. an accidental fsync-per-record).
        assert!(
            wal_batched_overhead_pct <= 25.0,
            "batched WAL overhead {wal_batched_overhead_pct:.2}% exceeds the 25% envelope \
             ({qps_wal_batched:.0} q/s vs {qps:.0} q/s WAL-off)"
        );
        // `Always` pays an fsync per append group (~3 per batch);
        // measured ~55-60%, and inherently hardware-dependent.
        assert!(
            wal_always_overhead_pct <= 75.0,
            "always-fsync WAL overhead {wal_always_overhead_pct:.2}% exceeds the 75% envelope \
             ({qps_wal_always:.0} q/s vs {qps:.0} q/s WAL-off)"
        );
    }

    // The open-loop traffic replay, run after the closed-loop sections so
    // their envelopes stay comparable with earlier snapshots.
    let replay_json = run_replay_section(quick, &bootstrap);

    let json = format!(
        "{{\n  \"bench\": \"serving_end_to_end\",\n  \"mode\": \"{}\",\n  \"questions\": {},\n  \"clients\": {},\n  \"rounds\": {},\n  \"submits\": {},\n  \"qps\": {:.0},\n  \"wal_batched_qps\": {:.0},\n  \"wal_always_qps\": {:.0},\n  \"wal_batched_overhead_pct\": {:.2},\n  \"wal_always_overhead_pct\": {:.2},\n  \"answer_p50_us\": {},\n  \"answer_p99_us\": {},\n  \"plan_p50_us\": {},\n  \"plan_p99_us\": {},\n  \"cache_hit_p50_us\": {},\n  \"llm_answered\": {},\n  \"cache_hits\": {},\n  \"coalesced\": {},\n  \"replay\": {replay_json}\n}}\n",
        if quick { "quick" } else { "full" },
        n_questions,
        clients,
        rounds,
        stats.submitted,
        qps,
        qps_wal_batched,
        qps_wal_always,
        wal_batched_overhead_pct,
        wal_always_overhead_pct,
        stats.answer_p50_us,
        stats.answer_p99_us,
        stats.plan_p50_us,
        stats.plan_p99_us,
        cache_hit_p50_us,
        stats.llm_answered,
        stats.cache_hits,
        stats.coalesced_duplicates,
    );
    // Default to the workspace root regardless of the harness's CWD.
    let out_path = std::env::var("BENCH_SERVING_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json").to_owned()
    });
    std::fs::write(&out_path, &json).expect("write BENCH_serving.json");
    println!("{json}");
    println!(
        "serving {clients}x{rounds} over {n_questions}q: {qps:.0} q/s, \
         WAL batched {qps_wal_batched:.0} q/s ({wal_batched_overhead_pct:.1}%) / \
         always {qps_wal_always:.0} q/s ({wal_always_overhead_pct:.1}%), \
         answer p50 {} us / p99 {} us -> {out_path}",
        stats.answer_p50_us, stats.answer_p99_us
    );
}
