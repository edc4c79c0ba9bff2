//! Per-request lifecycle tracing: bounded, cheap, queryable.
//!
//! A span opens when a request enters the system ([`TraceLog::begin`]),
//! is stamped with named stages as it moves through the pipeline
//! ([`TraceLog::stamp`]), and closes exactly once with a terminal stage
//! ([`TraceLog::finish`]), at which point it moves into a bounded ring of
//! completed spans. Stage timestamps are microseconds since the span
//! opened, so a span reads as a latency breakdown.
//!
//! The log hands out plain `u64` trace ids (0 = "not traced", every
//! operation on it is a no-op), so instrumented code threads one integer
//! around instead of a guard object — which is what lets a span hop
//! across queue handoffs, coalesced batches and worker threads without
//! lifetime gymnastics.
//!
//! Conservation is observable: [`TraceLog::opened`] and
//! [`TraceLog::finished`] count span lifecycle transitions, and a span
//! can never finish twice (the id leaves the active table on the first
//! finish). The stress tests pin `opened == finished` at quiesce.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One stamped stage within a span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Stage name (static by design — stages are code, not data).
    pub stage: &'static str,
    /// Optional free-form detail (epoch kind, batch index, source...).
    pub detail: Option<String>,
    /// Microseconds since the span opened.
    pub at_us: u64,
}

/// A completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The id handed out by [`TraceLog::begin`].
    pub trace_id: u64,
    /// Caller-provided correlation key (e.g. a question fingerprint).
    pub key: u64,
    /// Stages in stamp order; the last one is the terminal stage.
    pub events: Vec<SpanEvent>,
    /// Total span duration, microseconds.
    pub total_us: u64,
}

struct ActiveSpan {
    key: u64,
    opened: Instant,
    events: Vec<SpanEvent>,
}

struct Inner {
    active: HashMap<u64, ActiveSpan>,
    done: VecDeque<Span>,
}

/// The trace log. One per service; share by reference.
pub struct TraceLog {
    enabled: bool,
    capacity: usize,
    next_id: AtomicU64,
    opened: AtomicU64,
    finished: AtomicU64,
    /// Completed spans evicted from the ring.
    evicted: AtomicU64,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for TraceLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceLog")
            .field("enabled", &self.enabled)
            .field("opened", &self.opened())
            .field("finished", &self.finished())
            .finish_non_exhaustive()
    }
}

impl TraceLog {
    /// A log retaining the most recent `capacity` completed spans.
    pub fn new(capacity: usize) -> Self {
        Self::with_enabled(true, capacity)
    }

    /// A disabled log: `begin` returns 0 and everything else no-ops.
    pub fn disabled() -> Self {
        Self::with_enabled(false, 0)
    }

    fn with_enabled(enabled: bool, capacity: usize) -> Self {
        Self {
            enabled,
            capacity: capacity.max(1),
            next_id: AtomicU64::new(1),
            opened: AtomicU64::new(0),
            finished: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            inner: Mutex::new(Inner { active: HashMap::new(), done: VecDeque::new() }),
        }
    }

    /// Opens a span and stamps `stage` at t=0. Returns the trace id
    /// (0 when the log is disabled).
    pub fn begin(&self, key: u64, stage: &'static str) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.opened.fetch_add(1, Ordering::Relaxed);
        let span = ActiveSpan {
            key,
            opened: Instant::now(),
            events: vec![SpanEvent { stage, detail: None, at_us: 0 }],
        };
        lock(&self.inner).active.insert(id, span);
        id
    }

    /// Stamps `stage` on an active span. Unknown / zero ids no-op.
    pub fn stamp(&self, id: u64, stage: &'static str) {
        self.stamp_event(id, stage, None);
    }

    /// Stamps `stage` with a detail string.
    pub fn stamp_with(&self, id: u64, stage: &'static str, detail: String) {
        self.stamp_event(id, stage, Some(detail));
    }

    fn stamp_event(&self, id: u64, stage: &'static str, detail: Option<String>) {
        if !self.enabled || id == 0 {
            return;
        }
        let mut inner = lock(&self.inner);
        if let Some(span) = inner.active.get_mut(&id) {
            let at_us = elapsed_us(span.opened);
            span.events.push(SpanEvent { stage, detail, at_us });
        }
    }

    /// Stamps the terminal `stage` and retires the span into the
    /// completed ring. Unknown / zero / already-finished ids no-op, so a
    /// span reaches a terminal stage at most once.
    pub fn finish(&self, id: u64, stage: &'static str, detail: Option<String>) {
        if !self.enabled || id == 0 {
            return;
        }
        let mut inner = lock(&self.inner);
        let Some(mut span) = inner.active.remove(&id) else {
            return;
        };
        let at_us = elapsed_us(span.opened);
        span.events.push(SpanEvent { stage, detail, at_us });
        inner.done.push_back(Span {
            trace_id: id,
            key: span.key,
            events: span.events,
            total_us: at_us,
        });
        if inner.done.len() > self.capacity {
            inner.done.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        drop(inner);
        self.finished.fetch_add(1, Ordering::Relaxed);
    }

    /// Spans opened so far.
    pub fn opened(&self) -> u64 {
        self.opened.load(Ordering::Relaxed)
    }

    /// Spans finished so far.
    pub fn finished(&self) -> u64 {
        self.finished.load(Ordering::Relaxed)
    }

    /// Completed spans evicted from the bounded ring.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Spans currently open.
    pub fn active_len(&self) -> usize {
        lock(&self.inner).active.len()
    }

    /// The most recent `k` completed spans, newest first.
    pub fn recent(&self, k: usize) -> Vec<Span> {
        let inner = lock(&self.inner);
        inner.done.iter().rev().take(k).cloned().collect()
    }

    /// Looks up one span by its trace id: the completed ring first, then
    /// the active table (an in-flight span renders with the stages
    /// stamped so far and its elapsed time as `total_us`).
    pub fn find(&self, trace_id: u64) -> Option<Span> {
        if !self.enabled || trace_id == 0 {
            return None;
        }
        let inner = lock(&self.inner);
        if let Some(span) = inner.done.iter().rev().find(|s| s.trace_id == trace_id) {
            return Some(span.clone());
        }
        inner.active.get(&trace_id).map(|active| Span {
            trace_id,
            key: active.key,
            events: active.events.clone(),
            total_us: elapsed_us(active.opened),
        })
    }

    /// Every retained span whose correlation `key` matches, newest
    /// first — completed spans before still-active ones. This is how a
    /// downstream service's child spans are gathered: the callee keys
    /// its spans by the caller's propagated trace id.
    pub fn by_key(&self, key: u64) -> Vec<Span> {
        if !self.enabled {
            return Vec::new();
        }
        let inner = lock(&self.inner);
        let mut spans: Vec<Span> = inner
            .done
            .iter()
            .rev()
            .filter(|s| s.key == key)
            .cloned()
            .collect();
        for (id, active) in &inner.active {
            if active.key == key {
                spans.push(Span {
                    trace_id: *id,
                    key,
                    events: active.events.clone(),
                    total_us: elapsed_us(active.opened),
                });
            }
        }
        spans
    }

    /// [`TraceLog::by_key`] rendered as a JSON array.
    pub fn by_key_json(&self, key: u64) -> String {
        spans_json(&self.by_key(key))
    }

    /// The most recent `k` completed spans as a JSON array (newest
    /// first): `[{"trace_id":n,"key":"<hex>","total_us":n,"events":
    /// [{"stage":s,"at_us":n,"detail":s?},...]},...]`.
    pub fn recent_json(&self, k: usize) -> String {
        spans_json(&self.recent(k))
    }
}

/// Renders one span as a JSON object.
pub fn span_json(span: &Span) -> String {
    let mut out = String::with_capacity(160);
    out.push_str(&format!(
        "{{\"trace_id\":{},\"key\":\"{:016x}\",\"total_us\":{},\"events\":[",
        span.trace_id, span.key, span.total_us
    ));
    for (j, e) in span.events.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"stage\":\"{}\",\"at_us\":{}",
            json_escape(e.stage),
            e.at_us
        ));
        if let Some(detail) = &e.detail {
            out.push_str(&format!(",\"detail\":\"{}\"", json_escape(detail)));
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Renders a slice of spans as a JSON array.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 160 + 2);
    out.push('[');
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&span_json(span));
    }
    out.push(']');
    out
}

fn elapsed_us(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

fn lock(mutex: &Mutex<Inner>) -> std::sync::MutexGuard<'_, Inner> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Escapes `s` for the inside of a JSON string (the quotes are the caller's).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_lifecycle_and_conservation() {
        let log = TraceLog::new(16);
        let id = log.begin(0xabcd, "submitted");
        assert!(id > 0);
        log.stamp(id, "enqueued");
        log.stamp_with(id, "planned", "full".into());
        assert_eq!(log.active_len(), 1);
        log.finish(id, "answered", Some("llm".into()));
        assert_eq!((log.opened(), log.finished(), log.active_len()), (1, 1, 0));

        let spans = log.recent(10);
        assert_eq!(spans.len(), 1);
        let stages: Vec<&str> = spans[0].events.iter().map(|e| e.stage).collect();
        assert_eq!(stages, ["submitted", "enqueued", "planned", "answered"]);
        assert_eq!(spans[0].key, 0xabcd);

        // Double finish no-ops: the terminal stage lands exactly once.
        log.finish(id, "answered", None);
        assert_eq!(log.finished(), 1);
        assert_eq!(log.recent(10).len(), 1);
    }

    #[test]
    fn ring_is_bounded() {
        let log = TraceLog::new(4);
        for k in 0..10u64 {
            let id = log.begin(k, "submitted");
            log.finish(id, "answered", None);
        }
        let recent = log.recent(100);
        assert_eq!(recent.len(), 4);
        assert_eq!(log.evicted(), 6);
        // Newest first.
        assert_eq!(recent[0].key, 9);
        assert_eq!(recent[3].key, 6);
    }

    #[test]
    fn disabled_log_noops() {
        let log = TraceLog::disabled();
        let id = log.begin(1, "submitted");
        assert_eq!(id, 0);
        log.stamp(id, "x");
        log.finish(id, "answered", None);
        assert_eq!((log.opened(), log.finished()), (0, 0));
        assert_eq!(log.recent_json(5), "[]");
    }

    #[test]
    fn json_shape() {
        let log = TraceLog::new(4);
        let id = log.begin(0x1f, "submitted");
        log.finish(id, "answered", Some("cache \"hit\"\n".into()));
        let json = log.recent_json(5);
        assert!(json.starts_with("[{\"trace_id\":"), "{json}");
        assert!(json.contains("\"key\":\"000000000000001f\""), "{json}");
        assert!(json.contains("\"stage\":\"answered\""), "{json}");
        assert!(
            json.contains("\"detail\":\"cache \\\"hit\\\"\\n\""),
            "{json}"
        );
    }

    #[test]
    fn json_escape_covers_quotes_backslashes_and_control_characters() {
        assert_eq!(json_escape("plain ünïcode"), "plain ünïcode");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("\n\r\t"), "\\n\\r\\t");
        assert_eq!(json_escape("\u{0}\u{1}\u{1f} "), "\\u0000\\u0001\\u001f ");
    }

    #[test]
    fn find_covers_done_active_and_unknown() {
        let log = TraceLog::new(4);
        let done = log.begin(7, "submitted");
        log.finish(done, "answered", None);
        let live = log.begin(7, "submitted");
        log.stamp(live, "enqueued");

        let found = log.find(done).unwrap();
        assert_eq!(found.events.last().unwrap().stage, "answered");
        let active = log.find(live).unwrap();
        assert_eq!(active.events.last().unwrap().stage, "enqueued");
        assert!(log.find(0).is_none());
        assert!(log.find(done + live + 99).is_none());
    }

    #[test]
    fn by_key_gathers_every_span_for_a_correlation_key() {
        let log = TraceLog::new(8);
        let a = log.begin(42, "received");
        log.finish(a, "completed", None);
        let b = log.begin(42, "received");
        log.finish(b, "completed", None);
        let live = log.begin(42, "received");
        let _other = log.begin(43, "received");

        let spans = log.by_key(42);
        assert_eq!(spans.len(), 3);
        // Completed spans newest-first, then the active one.
        assert_eq!(spans[0].trace_id, b);
        assert_eq!(spans[1].trace_id, a);
        assert_eq!(spans[2].trace_id, live);
        assert!(log.by_key(99).is_empty());
        assert!(log.by_key_json(42).starts_with("[{\"trace_id\":"));
    }

    #[test]
    fn stamps_on_unknown_ids_are_ignored() {
        let log = TraceLog::new(4);
        log.stamp(999, "x");
        log.finish(999, "answered", None);
        assert_eq!(log.finished(), 0);
    }
}
