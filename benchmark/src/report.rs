//! Metric names, units and the result line. The tables here are the
//! single source the runner prints from; `check-names` compares them with
//! `BENCHMARK.json`.

use std::time::Duration;

/// A metric's name and unit as printed and as listed in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// The workloads `BENCHMARK.json` lists (the ones the driver runs and
/// gates), in `--workload all` order.
pub const WORKLOADS: [&str; 3] = ["offline_design_space", "serve_repeat", "serve_fresh"];

/// Runnable by name and part of `--workload all`, but not listed in
/// `BENCHMARK.json`: the driver's time limit buys three workloads of 38 s
/// or four of 25 s, and on this box the longer runs are what keeps the
/// timings steady.
pub const UNLISTED_WORKLOADS: [&str; 1] = ["offline_llm_socket"];

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("questions_per_s", "1/s"),
    m("f1", "points"),
    m("api_usd_per_1k_questions", "usd"),
    m("label_usd_per_1k_questions", "usd"),
    m("api_saving_x", "ratio"),
    m("request_p50_us", "us"),
    m("request_p95_us", "us"),
    m("peak_rss_mb", "MiB"),
];

/// Single-layer metrics of the traced run; layer = crate name. A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("trace_overhead_share", "ratio"),
    // set-up
    m("datagen.generate_ms", "ms"),
    m("baselines.logistic_train_ms", "ms"),
    m("core.features_pool_ms", "ms"),
    m("er-service.start_ms", "ms"),
    // offline planning stages
    m("core.features_q_ms", "ms"),
    m("core.cluster_ms", "ms"),
    m("core.batching_ms", "ms"),
    m("core.selection_ms", "ms"),
    m("core.plan_share", "ratio"),
    m("cluster.clusters", "count"),
    m("core.batches", "count"),
    m("core.demos_labeled", "count"),
    m("core.cover_vs_topkq_label_x", "ratio"),
    // similarity and embedding kernels
    m("text-sim.levenshtein_ratio_ns", "ns"),
    m("text-sim.jaccard_ns", "ns"),
    m("embed.embed_us", "us"),
    m("embed.index_builds", "count"),
    m("embed.index_queries", "count"),
    m("embed.index_pruned_share", "ratio"),
    // prompt, executor, LLM
    m("core.prompt_us", "us"),
    m("core.executor_self_ms", "ms"),
    m("core.prompt_tokens_per_question", "count"),
    m("llm.calls", "count"),
    m("llm.chat_us_p50", "us"),
    m("llm.prompt_tokens", "count"),
    m("llm.completion_tokens", "count"),
    m("llm.retries", "count"),
    m("llm.unanswered", "count"),
    // LLM socket hop
    m("llm-service.hop_us_p50", "us"),
    m("llm-service.hop_us_p95", "us"),
    m("llm-service.connects", "count"),
    m("llm-service.retries", "count"),
    // serving front end, cache, fingerprint
    m("er-service.connect_us_p50", "us"),
    m("er-service.write_us_p50", "us"),
    m("er-service.wait_us_p50", "us"),
    m("er-service.read_us_p50", "us"),
    m("er-service.wire_decode_us", "us"),
    m("er-service.fingerprint_ns", "ns"),
    m("er-service.cache_get_ns", "ns"),
    m("er-service.cache_insert_ns", "ns"),
    m("er-service.cache_hit_share", "ratio"),
    m("er-service.hit_p50_us", "us"),
    m("er-service.hit_p95_us", "us"),
    m("er-service.hit_p99_us", "us"),
    m("er-service.hit_samples", "count"),
    m("er-service.miss_p50_us", "us"),
    m("er-service.miss_p95_us", "us"),
    m("er-service.miss_p99_us", "us"),
    m("er-service.miss_samples", "count"),
    m("obs.metrics_scrape_us", "us"),
    m("obs.metrics_bytes", "count"),
    // coalescing queue and flush policy
    m("er-service.post_deadline_us_p50", "us"),
    m("er-service.questions_per_batch", "ratio"),
    m("er-service.batches", "count"),
    m("er-service.coalesced", "count"),
    // planner, governor, admission
    m("er-service.plan_p50_us", "us"),
    m("er-service.plans_full", "count"),
    m("er-service.plans_incremental", "count"),
    m("er-service.lock_hold_p50_us", "us"),
    m("er-service.queue_depth_peak", "count"),
    m("er-service.governor_reserve_settle_ns", "ns"),
    m("er-service.fallback_share", "ratio"),
    m("er-service.shed_share", "ratio"),
    m("er-service.budget_denials", "count"),
    // durability
    m("wal.appends", "count"),
    m("wal.bytes", "count"),
    m("wal.append_us_batched", "us"),
    m("wal.append_us_always", "us"),
    m("wal.replay_records_per_s", "1/s"),
    m("er-service.recovery_ms", "ms"),
    m("er-service.recovery_records", "count"),
    // incremental planner drill
    m("core.incremental_epoch_ms", "ms"),
    m("core.incremental_full_ms", "ms"),
    m("core.scratch_plan_ms", "ms"),
];

/// Metric values collected by one run.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name} is not in the tables"
        );
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// The outcome of one workload run.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub quick: bool,
    pub input_digest: String,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks, by description.
    pub check_failures: Vec<String>,
    pub metrics: Metrics,
    /// Free-form lines printed before the metrics (sample counts etc.).
    pub notes: Vec<String>,
}

impl Outcome {
    /// An outcome with nothing measured yet.
    pub fn new(workload: &'static str, options: &crate::Options, input_digest: String) -> Self {
        Self {
            workload,
            seed: options.seed,
            traced: options.trace,
            quick: options.quick,
            input_digest,
            attempted: 0,
            failed: 0,
            check_failures: Vec::new(),
            metrics: Metrics::default(),
            notes: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    fn defs(&self) -> &'static [MetricDef] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// `(name, value, unit)` for every metric this run must report.
    pub fn rows(&self) -> Vec<(&'static str, f64, &'static str)> {
        self.defs()
            .iter()
            .map(|d| {
                let value = match self.metrics.get(d.name) {
                    Some(v) => v,
                    // Every workload owes every end-to-end metric; a layer
                    // a workload does not exercise did zero work.
                    None if self.traced => 0.0,
                    None => panic!("{} did not report {}", self.workload, d.name),
                };
                (d.name, value, d.unit)
            })
            .collect()
    }

    /// Human-readable report: every metric by name with its unit.
    pub fn print(&self) {
        println!(
            "== {} seed={} mode={}{} ==",
            self.workload,
            self.seed,
            if self.traced {
                "traced (per-layer)"
            } else {
                "untraced (end-to-end)"
            },
            if self.quick {
                " QUICK: numbers are not comparable"
            } else {
                ""
            }
        );
        println!("input_digest {}", self.input_digest);
        for note in &self.notes {
            println!("{note}");
        }
        for (name, value, unit) in self.rows() {
            println!("metric {name:<40} {} {unit}", fmt_value(value));
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "attempted {} failed {} failed_share {share}",
            self.attempted, self.failed
        );
        for failure in &self.check_failures {
            println!("CHECK FAILED: {failure}");
        }
        println!(
            "checks {}",
            if self.correct() { "passed" } else { "FAILED" }
        );
    }

    /// The contract's result object (one line, exactly four keys).
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .rows()
            .into_iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    fmt_value(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// One JSON line for `--out` files (what `compare` reads).
    pub fn record_line(&self) -> String {
        let metrics: Vec<String> = self
            .rows()
            .into_iter()
            .map(|(name, value, unit)| {
                format!(
                    "{{\"name\":\"{name}\",\"value\":{},\"unit\":\"{unit}\"}}",
                    fmt_value(value)
                )
            })
            .collect();
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"traced\":{},\"quick\":{},\"input_digest\":\"{}\",\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":[{}]}}",
            self.workload,
            self.seed,
            self.traced,
            self.quick,
            self.input_digest,
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Every digit as measured; JSON has no NaN or infinity, and a metric
/// that came out non-finite is a bug worth a loud value.
fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_owned()
    }
}

/// The `q`-quantile (0..=1) by nearest rank; `values` need not be sorted.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let rank = ((values.len() as f64 * q).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().strip_suffix("kB"))
                .and_then(|kb| kb.trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
