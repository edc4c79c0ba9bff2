//! The service's observability snapshot (`GET /stats`).

use er_core::Money;
use serde::{Deserialize, Serialize};

/// Point-in-time service statistics. All counters are monotonic except
/// the budget gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Questions submitted (including cache hits).
    pub submitted: u64,
    /// Answer-cache hits.
    pub cache_hits: u64,
    /// Answer-cache misses.
    pub cache_misses: u64,
    /// Entries currently cached.
    pub cache_entries: u64,
    /// Questions answered without their own LLM slot: duplicates riding
    /// on an identical in-flight question, or filled from the cache while
    /// queued.
    pub coalesced_duplicates: u64,
    /// Questions answered by the LLM.
    pub llm_answered: u64,
    /// Questions answered by the logistic fallback (budget denials and
    /// unparseable LLM output).
    pub fallback_answered: u64,
    /// Batches flushed out of the coalescing queue.
    pub batches_flushed: u64,
    /// Planning passes run (one per flush that held a question). Every
    /// pass is a from-scratch plan over the held questions.
    pub plans: u64,
    /// Equal to [`ServiceStats::plans`]. Kept because `benchmark/` reads
    /// it; leaves together with `plan_incremental`.
    pub plan_full: u64,
    /// Always 0: the service no longer has an incremental planner. Kept
    /// because `benchmark/` reads it; leaves with the benchmark-only
    /// follow-up that drops that read (see ROADMAP item 2).
    pub plan_incremental: u64,
    /// Wall time of the most recent planning pass, microseconds — the
    /// kernel layer's speedup, observable online.
    pub plan_last_us: u64,
    /// Mean planning wall time across all passes, microseconds.
    ///
    /// Deprecated alias: kept for wire compatibility, now derived from
    /// the plan-wall-time histogram (a running mean hides the tail —
    /// prefer [`ServiceStats::plan_p50_us`] / [`ServiceStats::plan_p99_us`]).
    pub plan_avg_us: u64,
    /// Median planning wall time, microseconds (histogram-backed).
    #[serde(default)]
    pub plan_p50_us: u64,
    /// 99th-percentile planning wall time, microseconds.
    #[serde(default)]
    pub plan_p99_us: u64,
    /// Median end-to-end submit-to-answer latency, microseconds, across
    /// every decision source.
    #[serde(default)]
    pub answer_p50_us: u64,
    /// 99th-percentile end-to-end submit-to-answer latency, microseconds.
    #[serde(default)]
    pub answer_p99_us: u64,
    /// Executor retries (rate limits + malformed output).
    pub retries: u64,
    /// LLM API calls issued.
    pub api_calls: u64,
    /// Prompt tokens sent.
    pub prompt_tokens: u64,
    /// Completion tokens received.
    pub completion_tokens: u64,
    /// Unique demonstrations human-labeled (labeling is paid once each).
    pub demos_labeled: u64,
    /// API spend, micro-dollars.
    pub api_micros: i64,
    /// Labeling spend, micro-dollars.
    pub labeling_micros: i64,
    /// Total spend, micro-dollars.
    pub spent_micros: i64,
    /// Configured budget, micro-dollars.
    pub budget_micros: i64,
    /// Budget neither spent nor reserved, micro-dollars.
    pub remaining_micros: i64,
    /// Batches denied by the governor and served via fallback.
    pub budget_denials: u64,
    /// Whether the durable write-ahead log is wired.
    #[serde(default)]
    pub wal_enabled: bool,
    /// Durable records appended this run.
    #[serde(default)]
    pub wal_appends: u64,
    /// WAL appends that failed (the service keeps serving, degraded).
    #[serde(default)]
    pub wal_append_errors: u64,
    /// Durable records replayed at startup.
    #[serde(default)]
    pub recovery_records_replayed: u64,
    /// Torn-tail bytes truncated from the WAL at startup.
    #[serde(default)]
    pub recovery_truncated_bytes: u64,
    /// Distinct cached answers restored by recovery replay.
    #[serde(default)]
    pub recovery_answers_restored: u64,
    /// Reserves found without settle-or-refund at startup (crash
    /// evidence; their budget replays as refunded).
    #[serde(default)]
    pub recovery_open_reservations: u64,
    /// Reservations refunded without spend (aborts + drop guards).
    #[serde(default)]
    pub governor_refunds: u64,
    /// Times the LLM circuit breaker opened.
    #[serde(default)]
    pub breaker_trips: u64,
    /// Breaker state: 0 closed, 1 open, 2 half-open.
    #[serde(default)]
    pub breaker_state: u64,
    /// Metric-index builds (ε-graph, coverage, and top-k accelerators)
    /// during this service's flushes.
    #[serde(default)]
    pub index_builds: u64,
    /// Metric-index queries answered (region, top-k, and pair sweeps)
    /// during this service's flushes.
    #[serde(default)]
    pub index_queries: u64,
    /// Fraction of candidate comparisons the metric index eliminated
    /// before any full distance computation over this service's
    /// flushes, basis points (0-10000).
    #[serde(default)]
    pub index_pruned_bp: u64,
    /// Questions refused by the admission bound: `try_submit` sheds
    /// (429s) plus blocking submits degraded to the fallback.
    #[serde(default)]
    pub shed_total: u64,
    /// High-water pending-queue depth this run — the backpressure
    /// headline the traffic-replay bench tracks.
    #[serde(default)]
    pub queue_depth_peak: u64,
    /// Median time of one flush (merge into the held set, plan, dispatch),
    /// microseconds; the name predates the single-owner planner: no lock.
    #[serde(default)]
    pub planner_lock_hold_p50_us: u64,
    /// 99th percentile of that span (merge, plan, dispatch), microseconds.
    #[serde(default)]
    pub planner_lock_hold_p99_us: u64,
    /// Answer-cache entries evicted by the LRU bound.
    #[serde(default)]
    pub cache_evictions: u64,
}

/// The `GET /healthz` payload: readiness plus the durability and
/// breaker signals an operator pages on.
///
/// `status` is `"serving"` (healthy), `"degraded"` (a WAL append failed
/// — answers still flow, durability of new records is gone until
/// restart), or `"recovering"` (reserved for future asynchronous
/// recovery; today replay completes inside `ErService::start`, before
/// the HTTP front end can bind).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthReport {
    /// `"serving"`, `"degraded"` or `"recovering"`.
    pub status: String,
    /// Whether a WAL is wired at all.
    pub wal_enabled: bool,
    /// Milliseconds since the WAL last fsynced (`-1`: WAL off or never
    /// synced).
    pub wal_last_sync_age_ms: i64,
    /// Records written through to the kernel but not yet fsynced.
    pub wal_unsynced_appends: u64,
    /// Total valid WAL bytes on disk.
    pub wal_total_bytes: u64,
    /// `"closed"`, `"open"`, `"half_open"` or `"disabled"`.
    pub breaker: String,
    /// Durable records replayed at startup.
    pub recovery_records_replayed: u64,
    /// Torn-tail bytes truncated at startup.
    pub recovery_truncated_bytes: u64,
    /// Distinct cached answers restored at startup.
    pub recovery_answers_restored: u64,
    /// Crash-evidence reservations found at startup.
    pub recovery_open_reservations: u64,
    /// Questions refused by the admission bound (see
    /// [`ServiceStats::shed_total`]).
    #[serde(default)]
    pub shed_total: u64,
    /// True when the pending queue is at or past half its admission
    /// bound — the "near shedding" early-warning signal.
    #[serde(default)]
    pub backpressure: bool,
}

impl ServiceStats {
    /// Cache hit rate in `[0, 1]`; 0 when nothing was looked up.
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }

    /// Total spend as [`Money`].
    pub fn spend(&self) -> Money {
        Money::from_micros(self.spent_micros)
    }

    /// Configured budget as [`Money`].
    pub fn budget(&self) -> Money {
        Money::from_micros(self.budget_micros)
    }

    /// True while spend is within the configured budget.
    pub fn within_budget(&self) -> bool {
        self.spent_micros <= self.budget_micros
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServiceStats {
        ServiceStats {
            submitted: 10,
            cache_hits: 3,
            cache_misses: 7,
            cache_entries: 5,
            coalesced_duplicates: 2,
            llm_answered: 4,
            fallback_answered: 1,
            batches_flushed: 1,
            plans: 2,
            plan_full: 2,
            plan_incremental: 0,
            plan_last_us: 180,
            plan_avg_us: 210,
            plan_p50_us: 190,
            plan_p99_us: 240,
            answer_p50_us: 2_100,
            answer_p99_us: 9_800,
            retries: 0,
            api_calls: 1,
            prompt_tokens: 900,
            completion_tokens: 80,
            demos_labeled: 4,
            api_micros: 1_060,
            labeling_micros: 32_000,
            spent_micros: 33_060,
            budget_micros: 1_000_000,
            remaining_micros: 966_940,
            budget_denials: 0,
            wal_enabled: true,
            wal_appends: 12,
            wal_append_errors: 0,
            recovery_records_replayed: 6,
            recovery_truncated_bytes: 17,
            recovery_answers_restored: 4,
            recovery_open_reservations: 1,
            governor_refunds: 1,
            breaker_trips: 0,
            breaker_state: 0,
            index_builds: 3,
            index_queries: 210,
            index_pruned_bp: 9_870,
            shed_total: 2,
            queue_depth_peak: 11,
            planner_lock_hold_p50_us: 35,
            planner_lock_hold_p99_us: 140,
            cache_evictions: 9,
        }
    }

    #[test]
    fn hit_rate() {
        assert!((sample().cache_hit_rate() - 0.3).abs() < 1e-12);
        let empty = ServiceStats { cache_hits: 0, cache_misses: 0, ..sample() };
        assert_eq!(empty.cache_hit_rate(), 0.0);
    }

    #[test]
    fn budget_accessors() {
        let s = sample();
        assert!(s.within_budget());
        assert_eq!(s.spend(), Money::from_micros(33_060));
        assert_eq!(s.budget(), Money::from_dollars(1.0));
    }

    #[test]
    fn json_roundtrip() {
        let s = sample();
        let json = serde_json::to_vec(&s).unwrap();
        let back: ServiceStats = serde_json::from_slice(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn old_wire_payload_without_percentiles_still_parses() {
        // Pre-histogram scrapers serialized no percentile fields; the
        // `#[serde(default)]` markers keep their payloads readable.
        let mut json = String::from_utf8(serde_json::to_vec(&sample()).unwrap()).unwrap();
        for (field, value) in [
            ("plan_p50_us", 190),
            ("plan_p99_us", 240),
            ("answer_p50_us", 2_100),
            ("answer_p99_us", 9_800),
        ] {
            json = json.replace(&format!("\"{field}\":{value},"), "");
        }
        let back: ServiceStats = serde_json::from_slice(json.as_bytes()).unwrap();
        assert_eq!(back.plan_p50_us, 0);
        assert_eq!(back.answer_p99_us, 0);
        assert_eq!(back.submitted, sample().submitted);
    }

    #[test]
    fn pre_durability_wire_payload_still_parses() {
        // Scrapers from before the WAL tier sent none of the durability
        // fields; `#[serde(default)]` keeps their payloads readable.
        let mut json = String::from_utf8(serde_json::to_vec(&sample()).unwrap()).unwrap();
        for field in [
            "\"wal_enabled\":true,",
            "\"wal_appends\":12,",
            "\"wal_append_errors\":0,",
            "\"recovery_records_replayed\":6,",
            "\"recovery_truncated_bytes\":17,",
            "\"recovery_answers_restored\":4,",
            "\"recovery_open_reservations\":1,",
            "\"governor_refunds\":1,",
            "\"breaker_trips\":0,",
            ",\"breaker_state\":0", // last field: leading comma instead
        ] {
            json = json.replace(field, "");
        }
        let back: ServiceStats = serde_json::from_slice(json.as_bytes()).unwrap();
        assert!(!back.wal_enabled);
        assert_eq!(back.recovery_answers_restored, 0);
        assert_eq!(back.spent_micros, sample().spent_micros);
    }

    #[test]
    fn pre_index_wire_payload_still_parses() {
        // Scrapers from before the metric-index tier sent none of the
        // index fields; `#[serde(default)]` keeps their payloads
        // readable.
        let mut json = String::from_utf8(serde_json::to_vec(&sample()).unwrap()).unwrap();
        for field in [
            "\"index_builds\":3,",
            "\"index_queries\":210,",
            "\"index_pruned_bp\":9870,",
        ] {
            let stripped = json.replace(field, "");
            assert_ne!(stripped, json, "field pattern `{field}` did not match");
            json = stripped;
        }
        let back: ServiceStats = serde_json::from_slice(json.as_bytes()).unwrap();
        assert_eq!(back.index_builds, 0);
        assert_eq!(back.index_pruned_bp, 0);
        assert_eq!(back.submitted, sample().submitted);
    }

    #[test]
    fn pre_admission_wire_payload_still_parses() {
        // Scrapers from before admission control sent none of these
        // fields; `#[serde(default)]` keeps their payloads readable (the
        // "additive fields only" contract).
        let mut json = String::from_utf8(serde_json::to_vec(&sample()).unwrap()).unwrap();
        for field in [
            "\"shed_total\":2,",
            "\"queue_depth_peak\":11,",
            "\"planner_lock_hold_p50_us\":35,",
            "\"planner_lock_hold_p99_us\":140,",
            ",\"cache_evictions\":9", // last field: leading comma instead
        ] {
            let stripped = json.replace(field, "");
            assert_ne!(stripped, json, "field pattern `{field}` did not match");
            json = stripped;
        }
        let back: ServiceStats = serde_json::from_slice(json.as_bytes()).unwrap();
        assert_eq!(back.shed_total, 0);
        assert_eq!(back.cache_evictions, 0);
        assert_eq!(back.submitted, sample().submitted);
    }

    /// `/stats` and `/healthz` as the PR 16 build served them (4 shards,
    /// chunked leases, WAL on), captured verbatim: payloads a scraper or
    /// a dashboard stored back then still load, the fields that left
    /// with sharding, leases and the incremental planner (`shards`,
    /// `lease_refills`, `plan_last_inserted`, `plan_last_retired`) are
    /// ignored, as are `index_query_p50_us`/`_p99_us` (a per-query
    /// stopwatch that only ever read 0), and everything that stayed keeps
    /// its value.
    #[test]
    fn payloads_of_the_sharded_build_still_parse() {
        const STATS: &str = r#"{"submitted":120,"cache_hits":40,"cache_misses":80,"cache_entries":120,"coalesced_duplicates":0,"llm_answered":80,"fallback_answered":0,"batches_flushed":40,"plans":40,"plan_full":40,"plan_incremental":0,"plan_last_inserted":2,"plan_last_retired":1,"plan_last_us":731,"plan_avg_us":346,"plan_p50_us":319,"plan_p99_us":1120,"answer_p50_us":28671,"answer_p99_us":29368,"retries":0,"api_calls":80,"prompt_tokens":18823,"completion_tokens":1870,"demos_labeled":20,"api_micros":22563,"labeling_micros":160000,"spent_micros":182563,"budget_micros":100000000,"remaining_micros":99647572,"budget_denials":0,"wal_enabled":true,"wal_appends":161,"wal_append_errors":0,"recovery_records_replayed":121,"recovery_truncated_bytes":0,"recovery_answers_restored":40,"recovery_open_reservations":0,"governor_refunds":0,"breaker_trips":0,"breaker_state":0,"index_builds":98,"index_queries":29129,"index_pruned_bp":4028,"index_query_p50_us":0,"index_query_p99_us":0,"shards":4,"shed_total":0,"queue_depth_peak":4,"planner_lock_hold_p50_us":319,"planner_lock_hold_p99_us":1126,"cache_evictions":0,"lease_refills":7}"#;
        const HEALTH: &str = r#"{"status":"serving","wal_enabled":true,"wal_last_sync_age_ms":0,"wal_unsynced_appends":0,"wal_total_bytes":12594,"breaker":"closed","recovery_records_replayed":121,"recovery_truncated_bytes":0,"recovery_answers_restored":40,"recovery_open_reservations":0,"shards":4,"shed_total":0,"backpressure":false}"#;

        // What the parsed structs write back is the captured payload minus
        // the departed fields: same values, same order.
        let stats: ServiceStats = serde_json::from_str(STATS).unwrap();
        let kept = STATS
            .replace(r#""plan_last_inserted":2,"plan_last_retired":1,"#, "")
            .replace(r#""index_query_p50_us":0,"index_query_p99_us":0,"#, "")
            .replace(r#""shards":4,"#, "")
            .replace(r#","lease_refills":7"#, "");
        assert_eq!(serde_json::to_string(&stats).unwrap(), kept);
        let health: HealthReport = serde_json::from_str(HEALTH).unwrap();
        let kept = HEALTH.replace(r#""shards":4,"#, "");
        assert_eq!(serde_json::to_string(&health).unwrap(), kept);
    }

    #[test]
    fn health_report_roundtrips() {
        let health = HealthReport {
            status: "serving".to_owned(),
            wal_enabled: true,
            wal_last_sync_age_ms: 12,
            wal_unsynced_appends: 3,
            wal_total_bytes: 4_096,
            breaker: "closed".to_owned(),
            recovery_records_replayed: 9,
            recovery_truncated_bytes: 0,
            recovery_answers_restored: 5,
            recovery_open_reservations: 0,
            shed_total: 1,
            backpressure: false,
        };
        let json = serde_json::to_vec(&health).unwrap();
        let back: HealthReport = serde_json::from_slice(&json).unwrap();
        assert_eq!(back, health);

        // Health payloads from before admission control still parse.
        let stripped = String::from_utf8(serde_json::to_vec(&health).unwrap())
            .unwrap()
            .replace(",\"shed_total\":1", "")
            .replace(",\"backpressure\":false", "");
        let old: HealthReport = serde_json::from_slice(stripped.as_bytes()).unwrap();
        assert_eq!(old.shed_total, 0);
        assert!(!old.backpressure);
    }
}
