//! The metrics registry: named counter/gauge/histogram families with
//! label sets, rendered as Prometheus text exposition.
//!
//! Handles returned by registration are `Arc`s over lock-free atomics —
//! recording never touches the registry lock, which is held only while
//! registering (startup) and while rendering a scrape. A scrape therefore
//! cannot stall any instrumented hot path, and an instrumented hot path
//! cannot stall a scrape.
//!
//! A registry constructed with [`Registry::disabled`] hands out dark
//! handles whose recording methods are single-branch no-ops — that is the
//! knob the serving bench uses to price the instrumentation itself.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::hist::{bucket_upper_bound, Histogram, N_BUCKETS};

/// A monotonic counter.
#[derive(Debug, Default)]
pub struct Counter {
    enabled: bool,
    v: AtomicU64,
}

impl Counter {
    /// A standalone counter not attached to any registry.
    pub fn detached() -> Arc<Self> {
        Arc::new(Self { enabled: true, v: AtomicU64::new(0) })
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if self.enabled {
            self.v.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge {
    enabled: bool,
    v: AtomicI64,
}

impl Gauge {
    /// A standalone gauge not attached to any registry.
    pub fn detached() -> Arc<Self> {
        Arc::new(Self { enabled: true, v: AtomicI64::new(0) })
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        if self.enabled {
            self.v.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `d` (negative to decrement).
    pub fn add(&self, d: i64) {
        if self.enabled {
            self.v.fetch_add(d, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Handle {
    fn kind(&self) -> &'static str {
        match self {
            Handle::Counter(_) => "counter",
            Handle::Gauge(_) => "gauge",
            Handle::Histogram(_) => "histogram",
        }
    }
}

struct Series {
    labels: Vec<(String, String)>,
    handle: Handle,
}

struct Family {
    name: String,
    help: String,
    series: Vec<Series>,
}

/// A named collection of metric families. Cheap to share (`Arc` it).
pub struct Registry {
    enabled: bool,
    families: Mutex<Vec<Family>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A live registry.
    pub fn new() -> Self {
        Self { enabled: true, families: Mutex::new(Vec::new()) }
    }

    /// A registry whose handles are recording no-ops. Rendering still
    /// works (all zeros) so callers need no mode branches.
    pub fn disabled() -> Self {
        Self { enabled: false, families: Mutex::new(Vec::new()) }
    }

    /// Whether handles from this registry record.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Registers (or extends) a counter family and returns the series
    /// handle. `labels` are `(name, value)` pairs identifying the series.
    ///
    /// # Panics
    /// Panics when `name` is already registered with a different metric
    /// kind, or when the exact series (name + labels) already exists —
    /// both are wiring bugs, not runtime conditions.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let handle = Arc::new(Counter { enabled: self.enabled, v: AtomicU64::new(0) });
        self.register(name, help, labels, Handle::Counter(Arc::clone(&handle)));
        handle
    }

    /// Registers (or extends) a gauge family. See [`Registry::counter`].
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let handle = Arc::new(Gauge { enabled: self.enabled, v: AtomicI64::new(0) });
        self.register(name, help, labels, Handle::Gauge(Arc::clone(&handle)));
        handle
    }

    /// Registers (or extends) a histogram family. See [`Registry::counter`].
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let handle = Arc::new(Histogram::with_enabled(self.enabled));
        self.register(name, help, labels, Handle::Histogram(Arc::clone(&handle)));
        handle
    }

    /// Registers a histogram family with per-bucket exemplar capture
    /// armed: observations recorded through
    /// [`Histogram::record_with_exemplar`] stamp their trace id onto the
    /// bucket they land in, and the scrape renders an OpenMetrics-style
    /// `# {trace_id="..."} value` suffix on that bucket's sample line.
    pub fn histogram_with_exemplars(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        let handle = Arc::new(Histogram::with_options(self.enabled, true));
        self.register(name, help, labels, Handle::Histogram(Arc::clone(&handle)));
        handle
    }

    fn register(&self, name: &str, help: &str, labels: &[(&str, &str)], handle: Handle) {
        assert!(valid_metric_name(name), "invalid metric name: {name:?}");
        for (k, _) in labels {
            assert!(valid_label_name(k), "invalid label name: {k:?}");
        }
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        let mut families = lock(&self.families);
        if let Some(family) = families.iter_mut().find(|f| f.name == name) {
            assert_eq!(
                family.series[0].handle.kind(),
                handle.kind(),
                "metric {name} re-registered with a different kind"
            );
            assert!(
                !family.series.iter().any(|s| s.labels == labels),
                "duplicate series for {name} {labels:?}"
            );
            family.series.push(Series { labels, handle });
        } else {
            families.push(Family {
                name: name.to_owned(),
                help: help.to_owned(),
                series: vec![Series { labels, handle }],
            });
        }
    }

    /// Renders every family in Prometheus text exposition format
    /// (version 0.0.4): `# HELP`/`# TYPE` headers, one sample line per
    /// series, histogram `_bucket`/`_sum`/`_count` expansions with
    /// cumulative `le` buckets. Empty histogram buckets are elided
    /// (cumulative encoding makes that lossless); the mandatory
    /// `le="+Inf"` bucket is always present.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        let families = lock(&self.families);
        for family in families.iter() {
            out.push_str("# HELP ");
            out.push_str(&family.name);
            out.push(' ');
            out.push_str(&escape_help(&family.help));
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(&family.name);
            out.push(' ');
            out.push_str(family.series[0].handle.kind());
            out.push('\n');
            for series in &family.series {
                match &series.handle {
                    Handle::Counter(c) => {
                        sample_line(&mut out, &family.name, "", &series.labels, None);
                        out.push_str(&format!(" {}\n", c.get()));
                    }
                    Handle::Gauge(g) => {
                        sample_line(&mut out, &family.name, "", &series.labels, None);
                        out.push_str(&format!(" {}\n", g.get()));
                    }
                    Handle::Histogram(h) => {
                        let s = h.snapshot();
                        let mut cum = 0u64;
                        for (i, &c) in s.counts.iter().enumerate() {
                            if c == 0 {
                                continue;
                            }
                            cum += c;
                            let le = bucket_upper_bound(i);
                            // The last bucket covers to u64::MAX; +Inf
                            // below is its canonical spelling.
                            if i == N_BUCKETS - 1 {
                                continue;
                            }
                            sample_line(
                                &mut out,
                                &family.name,
                                "_bucket",
                                &series.labels,
                                Some(&le.to_string()),
                            );
                            out.push_str(&format!(" {cum}"));
                            push_exemplar(&mut out, h, i);
                            out.push('\n');
                        }
                        sample_line(
                            &mut out,
                            &family.name,
                            "_bucket",
                            &series.labels,
                            Some("+Inf"),
                        );
                        out.push_str(&format!(" {}", s.count));
                        push_exemplar(&mut out, h, N_BUCKETS - 1);
                        out.push('\n');
                        sample_line(&mut out, &family.name, "_sum", &series.labels, None);
                        out.push_str(&format!(" {}\n", s.sum));
                        sample_line(&mut out, &family.name, "_count", &series.labels, None);
                        out.push_str(&format!(" {}\n", s.count));
                    }
                }
            }
        }
        out
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Appends an OpenMetrics-style exemplar suffix (` # {trace_id="N"} v`)
/// to a bucket sample line when the histogram captured one there.
fn push_exemplar(out: &mut String, h: &Histogram, bucket: usize) {
    if let Some(ex) = h.exemplar(bucket) {
        out.push_str(&format!(" # {{trace_id=\"{}\"}} {}", ex.trace_id, ex.value));
    }
}

fn sample_line(
    out: &mut String,
    name: &str,
    suffix: &str,
    labels: &[(String, String)],
    le: Option<&str>,
) {
    out.push_str(name);
    out.push_str(suffix);
    if !labels.is_empty() || le.is_some() {
        out.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label_value(v));
            out.push('"');
        }
        if let Some(le) = le {
            if !first {
                out.push(',');
            }
            out.push_str("le=\"");
            out.push_str(le);
            out.push('"');
        }
        out.push('}');
    }
}

/// Escapes a label value: backslash, double quote and newline.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes HELP text: backslash and newline.
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// `[a-zA-Z_:][a-zA-Z0-9_:]*`
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// `[a-zA-Z_][a-zA-Z0-9_]*`
pub fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render() {
        let r = Registry::new();
        let c = r.counter("requests_total", "Requests served.", &[]);
        let g = r.gauge("queue_depth", "Questions queued.", &[]);
        c.add(3);
        g.set(-2);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE requests_total counter\nrequests_total 3\n"));
        assert!(text.contains("# TYPE queue_depth gauge\nqueue_depth -2\n"));
    }

    #[test]
    fn labeled_family_groups_under_one_header() {
        let r = Registry::new();
        let full = r.counter("plans_total", "Planning passes.", &[("kind", "full")]);
        let incr = r.counter(
            "plans_total",
            "Planning passes.",
            &[("kind", "incremental")],
        );
        full.inc();
        incr.add(2);
        let text = r.render_prometheus();
        assert_eq!(text.matches("# TYPE plans_total counter").count(), 1);
        assert!(text.contains("plans_total{kind=\"full\"} 1\n"));
        assert!(text.contains("plans_total{kind=\"incremental\"} 2\n"));
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let r = Registry::new();
        let h = r.histogram("latency_us", "Latency.", &[]);
        h.record(1);
        h.record(1);
        h.record(100);
        let text = r.render_prometheus();
        assert!(text.contains("latency_us_bucket{le=\"1\"} 2\n"), "{text}");
        assert!(text.contains("latency_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("latency_us_sum 102\n"));
        assert!(text.contains("latency_us_count 3\n"));
    }

    #[test]
    fn exemplar_armed_histogram_renders_bucket_exemplars() {
        let r = Registry::new();
        let h = r.histogram_with_exemplars("lat_us", "Latency.", &[("source", "llm")]);
        h.record_with_exemplar(100, 41);
        h.record_with_exemplar(u64::MAX, 42);
        h.record(3); // untraced observation: plain bucket line
        let text = r.render_prometheus();
        assert!(
            text.contains("lat_us_bucket{source=\"llm\",le=\"111\"} 2 # {trace_id=\"41\"} 100\n"),
            "{text}"
        );
        assert!(
            text.contains(
                "lat_us_bucket{source=\"llm\",le=\"+Inf\"} 3 # {trace_id=\"42\"} 18446744073709551615\n"
            ),
            "{text}"
        );
        assert!(
            text.contains("lat_us_bucket{source=\"llm\",le=\"3\"} 1\n"),
            "{text}"
        );
    }

    #[test]
    fn label_values_escape() {
        let r = Registry::new();
        let c = r.counter("weird", "h", &[("v", "a\\b\"c\nd")]);
        c.inc();
        let text = r.render_prometheus();
        assert!(text.contains(r#"weird{v="a\\b\"c\nd"} 1"#), "{text}");
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_clash_panics() {
        let r = Registry::new();
        let _c = r.counter("x_total", "h", &[]);
        let _g = r.gauge("x_total", "h", &[]);
    }

    #[test]
    #[should_panic(expected = "duplicate series")]
    fn duplicate_series_panics() {
        let r = Registry::new();
        let _a = r.counter("x_total", "h", &[("a", "1")]);
        let _b = r.counter("x_total", "h", &[("a", "1")]);
    }

    #[test]
    fn disabled_registry_hands_out_dark_handles() {
        let r = Registry::disabled();
        let c = r.counter("c_total", "h", &[]);
        let h = r.histogram("h_us", "h", &[]);
        c.inc();
        h.record(5);
        assert_eq!(c.get(), 0);
        assert!(r.render_prometheus().contains("c_total 0\n"));
        assert!(r.render_prometheus().contains("h_us_count 0\n"));
    }
}
