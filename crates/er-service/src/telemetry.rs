//! The service's telemetry bundle: metric handles plus the lifecycle
//! trace log, wired once at startup and shared by every pipeline stage.
//!
//! Recording never takes the registry lock — handles are `Arc`'d atomics
//! (a histogram is one atomic bucket array) that `/metrics` copies when it
//! renders.
//! With `ServiceConfig::telemetry` off every handle is a dark no-op, so
//! the serving bench can price the instrumentation itself.

use std::sync::Arc;

use llm_service::ConnMetrics;
use obs::{Counter, Gauge, Histogram, Registry, Slo, SloStatus, TraceLog};

/// Latency objective: this fraction of answers must beat the latency
/// threshold ([`SLO_LATENCY_US`]).
pub const SLO_LATENCY_OBJECTIVE: f64 = 0.95;
/// Answer-latency SLO threshold: a submit is "good" for the latency
/// objective when it answers within this many microseconds.
pub const SLO_LATENCY_US: u64 = 250_000;
/// Availability objective: this fraction of answers must come from the
/// cache or the LLM, not the degraded logistic fallback.
pub const SLO_AVAILABILITY_OBJECTIVE: f64 = 0.99;
/// Budget objective: this fraction of batch reservations must be granted.
pub const SLO_BUDGET_OBJECTIVE: f64 = 0.90;

/// Why the dispatcher drained the coalescing queue: the `trigger` label
/// of `er_flushes_total`, in the order its four counters are registered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlushTrigger {
    /// `batch_size` questions were pending.
    Size,
    /// Arrivals had gone quiet before the oldest question's deadline.
    Quiet,
    /// The oldest question had waited out `flush_deadline`.
    Deadline,
    /// The service is stopping.
    Shutdown,
}

/// Every metric handle the service records into, plus the trace log.
///
/// Histogram families exposed at `/metrics` (all microseconds unless the
/// name says otherwise): queue wait, plan wall time, planner lock hold,
/// per-call LLM latency, governor reserve/settle, end-to-end answer
/// latency (`source` label), per-batch spend (micro-dollars) and prompt
/// tokens.
#[derive(Debug)]
pub struct Telemetry {
    pub(crate) registry: Registry,
    pub(crate) trace: TraceLog,

    // Counters.
    pub(crate) submitted: Arc<Counter>,
    pub(crate) coalesced: Arc<Counter>,
    pub(crate) llm_answered: Arc<Counter>,
    pub(crate) fallback_answered: Arc<Counter>,
    pub(crate) batches_flushed: Arc<Counter>,
    flushes: [Arc<Counter>; 4],
    pub(crate) retries: Arc<Counter>,
    pub(crate) plans: Arc<Counter>,
    pub(crate) shed: Arc<Counter>,
    pub(crate) cache_hits: Arc<Counter>,
    pub(crate) cache_misses: Arc<Counter>,
    pub(crate) cache_evictions: Arc<Counter>,
    pub(crate) budget_denials: Arc<Counter>,
    pub(crate) governor_refunds: Arc<Counter>,
    pub(crate) wal_appends: Arc<Counter>,
    pub(crate) wal_append_errors: Arc<Counter>,
    pub(crate) breaker_trips: Arc<Counter>,
    pub(crate) breaker_short_circuits: Arc<Counter>,
    pub(crate) index_builds: Arc<Counter>,
    pub(crate) index_queries: Arc<Counter>,
    pub(crate) index_candidates: Arc<Counter>,
    pub(crate) index_pruned: Arc<Counter>,

    // Gauges.
    pub(crate) queue_depth: Arc<Gauge>,
    pub(crate) cache_entries: Arc<Gauge>,
    pub(crate) governor_reserved_micros: Arc<Gauge>,
    pub(crate) plan_last_us: Arc<Gauge>,
    pub(crate) breaker_state: Arc<Gauge>,
    pub(crate) slo_burn_milli: [Arc<Gauge>; 6],
    pub(crate) slo_fast_burn: [Arc<Gauge>; 3],
    pub(crate) recovery_records: Arc<Gauge>,
    pub(crate) recovery_truncated_bytes: Arc<Gauge>,
    pub(crate) recovery_answers_restored: Arc<Gauge>,
    pub(crate) recovery_open_reservations: Arc<Gauge>,
    pub(crate) index_pruned_bp: Arc<Gauge>,

    // Histograms.
    pub(crate) queue_wait_us: Arc<Histogram>,
    pub(crate) plan_wall_us: Arc<Histogram>,
    pub(crate) planner_lock_hold_us: Arc<Histogram>,
    pub(crate) llm_call_us: Arc<Histogram>,
    pub(crate) governor_reserve_us: Arc<Histogram>,
    pub(crate) governor_settle_us: Arc<Histogram>,
    pub(crate) answer_cache_us: Arc<Histogram>,
    pub(crate) answer_llm_us: Arc<Histogram>,
    pub(crate) answer_fallback_us: Arc<Histogram>,
    pub(crate) batch_spend_micros: Arc<Histogram>,
    pub(crate) batch_prompt_tokens: Arc<Histogram>,

    // Connection counters of the HTTP front end (`http_*` families),
    // registered here so they render on this service's `/metrics`.
    pub(crate) http: ConnMetrics,

    // SLO burn-rate engines (multi-window: 5m and 1h). Recording is
    // gated on the telemetry switch like every other handle.
    pub(crate) slo_latency: Slo,
    pub(crate) slo_availability: Slo,
    pub(crate) slo_budget: Slo,
}

impl Telemetry {
    /// Builds the bundle. Disabled mode registers the same families on a
    /// dark registry: every handle exists but records nothing.
    pub fn new(enabled: bool, trace_capacity: usize) -> Self {
        let registry = if enabled {
            Registry::new()
        } else {
            Registry::disabled()
        };
        let trace = if enabled {
            TraceLog::new(trace_capacity)
        } else {
            TraceLog::disabled()
        };

        let submitted = registry.counter(
            "er_questions_submitted_total",
            "Questions submitted (including cache hits).",
            &[],
        );
        let coalesced = registry.counter(
            "er_coalesced_total",
            "Questions answered without their own LLM slot (duplicates, in-flight attaches, queue-time cache fills).",
            &[],
        );
        let llm_answered = registry.counter(
            "er_answered_total",
            "Questions answered, by decision source.",
            &[("source", "llm")],
        );
        let fallback_answered = registry.counter(
            "er_answered_total",
            "Questions answered, by decision source.",
            &[("source", "fallback")],
        );
        let batches_flushed = registry.counter(
            "er_batches_flushed_total",
            "Batches dispatched out of the coalescing queue.",
            &[],
        );
        let flushes = ["size", "quiet", "deadline", "shutdown"].map(|trigger| {
            registry.counter(
                "er_flushes_total",
                "Drains of the coalescing queue, by what triggered them: batch_size pending, arrivals gone quiet before the flush deadline, the flush deadline itself, or shutdown.",
                &[("trigger", trigger)],
            )
        });
        let retries = registry.counter(
            "er_retries_total",
            "Executor retries (rate limits and malformed output).",
            &[],
        );
        let plans = registry.counter(
            "er_plans_total",
            "Planning passes (one per flush that held a question).",
            &[],
        );
        let shed = registry.counter(
            "er_shed_total",
            "Questions refused by the admission bound (429s and blocking submits degraded to the fallback).",
            &[],
        );
        let cache_hits = registry.counter(
            "er_cache_lookups_total",
            "Answer-cache lookups, by result.",
            &[("result", "hit")],
        );
        let cache_misses = registry.counter(
            "er_cache_lookups_total",
            "Answer-cache lookups, by result.",
            &[("result", "miss")],
        );
        let cache_evictions = registry.counter(
            "er_cache_evictions_total",
            "Answer-cache entries evicted by the LRU bound.",
            &[],
        );
        let budget_denials = registry.counter(
            "er_budget_denials_total",
            "Batch reservations denied by the cost governor.",
            &[],
        );
        let governor_refunds = registry.counter(
            "er_governor_refunds_total",
            "Reservations refunded without spend (aborts and drop guards).",
            &[],
        );
        let wal_appends = registry.counter(
            "er_wal_appends_total",
            "Records appended to the durable write-ahead log.",
            &[],
        );
        let wal_append_errors = registry.counter(
            "er_wal_append_errors_total",
            "WAL appends that failed (service degrades but keeps serving).",
            &[],
        );
        let breaker_trips = registry.counter(
            "er_breaker_trips_total",
            "Times the LLM circuit breaker opened.",
            &[],
        );
        let breaker_short_circuits = registry.counter(
            "er_breaker_short_circuits_total",
            "Batches routed to the fallback by an open circuit breaker.",
            &[],
        );
        let index_builds = registry.counter(
            "er_index_builds_total",
            "Metric-index builds (ε-graph, coverage, and top-k accelerators).",
            &[],
        );
        let index_queries = registry.counter(
            "er_index_queries_total",
            "Metric-index queries answered (region, top-k, and pair sweeps).",
            &[],
        );
        let index_candidates = registry.counter(
            "er_index_candidates_total",
            "Candidate comparisons a brute-force pass would have fully evaluated for the metric-index queries answered.",
            &[],
        );
        let index_pruned = registry.counter(
            "er_index_candidates_pruned_total",
            "Of those candidates, eliminated via the triangle bound before any full distance computation.",
            &[],
        );

        let queue_depth = registry.gauge(
            "er_queue_depth",
            "Questions currently waiting in the coalescing queue.",
            &[],
        );
        let cache_entries = registry.gauge(
            "er_cache_entries",
            "Entries currently held by the answer cache.",
            &[],
        );
        let governor_reserved_micros = registry.gauge(
            "er_governor_reserved_micros",
            "Budget committed to in-flight reservations, micro-dollars.",
            &[],
        );
        let plan_last_us = registry.gauge(
            "er_plan_last_us",
            "Wall time of the most recent planning pass, microseconds.",
            &[],
        );
        let breaker_state = registry.gauge(
            "er_breaker_state",
            "LLM circuit breaker state: 0 closed, 1 open, 2 half-open.",
            &[],
        );
        let mut slo_burn_milli_vec = Vec::with_capacity(6);
        for slo_name in ["answer_latency", "availability", "budget"] {
            for window in ["5m", "1h"] {
                slo_burn_milli_vec.push(registry.gauge(
                    "er_slo_burn_rate_milli",
                    "SLO error-budget burn rate over the window, thousandths (1000 = burning exactly at budget).",
                    &[("slo", slo_name), ("window", window)],
                ));
            }
        }
        let slo_burn_milli: [Arc<Gauge>; 6] =
            slo_burn_milli_vec.try_into().expect("six burn gauges");
        let slo_fast_burn: [Arc<Gauge>; 3] =
            ["answer_latency", "availability", "budget"].map(|slo_name| {
                registry.gauge(
                    "er_slo_fast_burn",
                    "1 when both the 5m and 1h burn rates exceed the paging threshold.",
                    &[("slo", slo_name)],
                )
            });

        let recovery_records = registry.gauge(
            "er_recovery_records_replayed",
            "Durable records replayed at the last startup.",
            &[],
        );
        let recovery_truncated_bytes = registry.gauge(
            "er_recovery_truncated_bytes",
            "Torn-tail bytes truncated from the WAL at the last startup.",
            &[],
        );
        let recovery_answers_restored = registry.gauge(
            "er_recovery_answers_restored",
            "Distinct cached answers restored by recovery replay.",
            &[],
        );
        let recovery_open_reservations = registry.gauge(
            "er_recovery_open_reservations",
            "Reserves found without settle-or-refund at the last startup (crash evidence, treated as refunded).",
            &[],
        );
        let index_pruned_bp = registry.gauge(
            "er_index_candidates_pruned_bp",
            "Fraction of candidate comparisons the metric index eliminated via the triangle bound before any full distance computation, basis points (0-10000).",
            &[],
        );

        let queue_wait_us = registry.histogram(
            "er_queue_wait_us",
            "Time from submit to queue drain, microseconds.",
            &[],
        );
        let plan_wall_us = registry.histogram(
            "er_plan_wall_us",
            "Planning pass wall time, microseconds.",
            &[],
        );
        let planner_lock_hold_us = registry.histogram(
            "er_planner_lock_hold_us",
            "Time one flush spends merging drained questions into the held set, planning and dispatching, microseconds (the name predates the single-owner planner: there is no lock).",
            &[],
        );
        let llm_call_us = registry.histogram(
            "er_llm_call_us",
            "Latency of one LLM API call (failed calls included), microseconds.",
            &[],
        );
        let governor_reserve_us = registry.histogram(
            "er_governor_reserve_us",
            "Cost-governor reservation latency, microseconds.",
            &[],
        );
        let governor_settle_us = registry.histogram(
            "er_governor_settle_us",
            "Cost-governor settlement latency, microseconds.",
            &[],
        );
        // Exemplar-armed: the top buckets carry the trace id of the last
        // sample that landed there, so a latency spike on a dashboard
        // links straight to its `/trace?id=` span tree.
        let answer_cache_us = registry.histogram_with_exemplars(
            "er_answer_us",
            "End-to-end submit-to-answer latency, microseconds, by source.",
            &[("source", "cache")],
        );
        let answer_llm_us = registry.histogram_with_exemplars(
            "er_answer_us",
            "End-to-end submit-to-answer latency, microseconds, by source.",
            &[("source", "llm")],
        );
        let answer_fallback_us = registry.histogram_with_exemplars(
            "er_answer_us",
            "End-to-end submit-to-answer latency, microseconds, by source.",
            &[("source", "fallback")],
        );
        let batch_spend_micros = registry.histogram(
            "er_batch_spend_micros",
            "Settled spend per executed batch, micro-dollars.",
            &[],
        );
        let batch_prompt_tokens = registry.histogram(
            "er_batch_prompt_tokens",
            "Prompt tokens sent per executed batch.",
            &[],
        );
        let http = ConnMetrics::register(&registry);

        Self {
            registry,
            trace,
            submitted,
            coalesced,
            llm_answered,
            fallback_answered,
            batches_flushed,
            flushes,
            retries,
            plans,
            shed,
            cache_hits,
            cache_misses,
            cache_evictions,
            budget_denials,
            governor_refunds,
            wal_appends,
            wal_append_errors,
            breaker_trips,
            breaker_short_circuits,
            index_builds,
            index_queries,
            index_candidates,
            index_pruned,
            queue_depth,
            cache_entries,
            governor_reserved_micros,
            plan_last_us,
            breaker_state,
            slo_burn_milli,
            slo_fast_burn,
            recovery_records,
            recovery_truncated_bytes,
            recovery_answers_restored,
            recovery_open_reservations,
            index_pruned_bp,
            queue_wait_us,
            plan_wall_us,
            planner_lock_hold_us,
            llm_call_us,
            governor_reserve_us,
            governor_settle_us,
            answer_cache_us,
            answer_llm_us,
            answer_fallback_us,
            batch_spend_micros,
            batch_prompt_tokens,
            http,
            slo_latency: Slo::new("answer_latency", SLO_LATENCY_OBJECTIVE),
            slo_availability: Slo::new("availability", SLO_AVAILABILITY_OBJECTIVE),
            slo_budget: Slo::new("budget", SLO_BUDGET_OBJECTIVE),
        }
    }

    /// Counts one drain of the coalescing queue under its trigger.
    pub(crate) fn count_flush(&self, trigger: FlushTrigger) {
        self.flushes[trigger as usize].inc();
    }

    /// The three SLO engines paired with their names, in gauge order.
    fn slos(&self) -> [&Slo; 3] {
        [&self.slo_latency, &self.slo_availability, &self.slo_budget]
    }

    /// Evaluates every SLO and refreshes the burn-rate gauges. Called at
    /// render time so `/metrics` always scrapes current windows without a
    /// background thread.
    fn refresh_slo_gauges(&self) -> Vec<SloStatus> {
        let statuses: Vec<SloStatus> = self.slos().iter().map(|s| s.evaluate()).collect();
        for (i, status) in statuses.iter().enumerate() {
            self.slo_burn_milli[2 * i].set((status.short.burn_rate * 1000.0) as i64);
            self.slo_burn_milli[2 * i + 1].set((status.long.burn_rate * 1000.0) as i64);
            self.slo_fast_burn[i].set(i64::from(status.fast_burn));
        }
        statuses
    }

    /// Renders every metric family as Prometheus text, with the SLO
    /// gauges refreshed first.
    pub fn render_prometheus(&self) -> String {
        self.refresh_slo_gauges();
        self.registry.render_prometheus()
    }

    /// The `GET /slo` payload: every objective with both burn windows.
    pub fn slo_json(&self) -> String {
        let statuses = self.refresh_slo_gauges();
        let mut out = String::from("{\"slos\":[");
        for (i, (slo, status)) in self.slos().iter().zip(&statuses).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"objective\":{},\"short\":{},\"long\":{},\"fast_burn\":{}}}",
                slo.name(),
                status.objective,
                window_json(&status.short),
                window_json(&status.long),
                status.fast_burn
            ));
        }
        out.push_str("]}");
        out
    }

    /// True when any objective is in fast burn (both windows over the
    /// paging threshold) — the flight recorder's SLO trigger.
    pub fn any_fast_burn(&self) -> Option<&'static str> {
        const NAMES: [&str; 3] = ["answer_latency", "availability", "budget"];
        let statuses = self.refresh_slo_gauges();
        statuses.iter().position(|s| s.fast_burn).map(|i| NAMES[i])
    }

    /// The metric registry (render with
    /// [`Registry::render_prometheus`]).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The per-question lifecycle trace log.
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Whether recording is live (false = dark no-op mode).
    pub fn is_enabled(&self) -> bool {
        self.registry.is_enabled()
    }
}

fn window_json(w: &obs::WindowBurn) -> String {
    format!(
        "{{\"window_secs\":{},\"good\":{},\"bad\":{},\"burn_rate\":{:.3}}}",
        w.window_secs, w.good, w.bad, w.burn_rate
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_bundle_renders_all_families() {
        let t = Telemetry::new(true, 16);
        t.submitted.inc();
        t.queue_wait_us.record(120);
        t.answer_llm_us.record(4_000);
        t.plan_wall_us.record(90);
        t.index_builds.inc();
        t.index_pruned_bp.set(9_900);
        let text = t.registry().render_prometheus();
        for family in [
            "er_questions_submitted_total",
            "er_queue_wait_us",
            "er_answer_us",
            "er_plan_wall_us",
            "er_index_builds_total",
            "er_index_candidates_pruned_bp",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
        obs::lint(&text).expect("telemetry render is valid Prometheus text");
    }

    #[test]
    fn slo_gauges_and_json_render() {
        let t = Telemetry::new(true, 16);
        for _ in 0..20 {
            t.slo_latency.record(true);
            t.slo_availability.record(false); // 100% bad: fast burn
            t.slo_budget.record(true);
        }
        let text = t.render_prometheus();
        assert!(
            text.contains(r#"er_slo_burn_rate_milli{slo="answer_latency",window="5m"} 0"#),
            "{text}"
        );
        assert!(
            text.contains(r#"er_slo_fast_burn{slo="availability"} 1"#),
            "{text}"
        );
        obs::lint(&text).expect("slo gauges render as valid Prometheus text");

        let json = t.slo_json();
        assert!(json.contains(r#""name":"availability""#), "{json}");
        assert!(json.contains(r#""fast_burn":true"#), "{json}");
        assert_eq!(t.any_fast_burn(), Some("availability"));
    }

    #[test]
    fn answer_histograms_carry_exemplars() {
        let t = Telemetry::new(true, 16);
        t.answer_llm_us.record_with_exemplar(5_000, 91);
        let text = t.render_prometheus();
        assert!(text.contains(r#"# {trace_id="91"} 5000"#), "{text}");
        obs::lint(&text).expect("exemplar render is lint-clean");
    }

    #[test]
    fn disabled_bundle_is_dark() {
        let t = Telemetry::new(false, 16);
        t.submitted.inc();
        t.queue_wait_us.record(120);
        let id = t.trace().begin(1, "submitted");
        assert_eq!(id, 0);
        assert_eq!(t.submitted.get(), 0);
        assert!(!t.registry().is_enabled());
        // Families still render (zeroed) so scrapers need no mode branch.
        let text = t.registry().render_prometheus();
        assert!(text.contains("er_questions_submitted_total 0"), "{text}");
        assert_eq!(t.trace().opened(), 0);
    }
}
