//! Zero-dependency telemetry for the batcher workspace.
//!
//! Three pillars, one crate, no external dependencies (in keeping with
//! the `vendor/` policy — see DESIGN.md):
//!
//! - [`hist`] — log-bucketed concurrent histograms: lock-free recording
//!   on one atomic bucket array, mergeable snapshots, p50/p90/p99/max
//!   with a bounded 12.5% relative error.
//! - [`registry`] — named counter/gauge/histogram families with labels,
//!   rendered as Prometheus text exposition (format 0.0.4, hand-rolled
//!   encoder). Recording never takes the registry lock, and every
//!   handle always records: there is no off switch.
//! - [`trace`] — per-request lifecycle spans: open at submit, stamp at
//!   each pipeline stage, finish exactly once at a terminal stage, kept
//!   in a bounded ring and rendered as JSON for `GET /trace`. Spans are
//!   queryable by trace id and by correlation key, which is how a
//!   downstream service's child spans assemble under a propagated trace.
//!
//! Two debugging layers ride on the pillars:
//!
//! - [`slo`] — multi-window (5m/1h) burn-rate evaluation over declared
//!   objectives, with injectable time for testability.
//! - [`event`] — a bounded, always-on ring of structured system events
//!   (breaker trips, degraded-mode entries, snapshots), the flight
//!   recorder's memory.
//!
//! [`lint`] validates exposition bodies (histogram family coherence and
//! OpenMetrics-style bucket exemplars included) and backs the `promlint`
//! binary CI runs against live scrapes.

pub mod event;
pub mod hist;
pub mod lint;
pub mod registry;
pub mod slo;
pub mod trace;

pub use event::{Event, EventLog};
pub use hist::{
    bucket_index, bucket_upper_bound, Exemplar, Histogram, HistogramSnapshot, HistogramTimer,
    N_BUCKETS,
};
pub use lint::{lint, LintIssue, LintReport};
pub use registry::{escape_label_value, Counter, Gauge, Registry};
pub use slo::{Slo, SloStatus, WindowBurn};
pub use trace::{json_escape, span_json, spans_json, Span, SpanEvent, TraceLog};
