//! In-memory spans recorded by the benchmark around its own calls into
//! the crates' public functions. Nothing inside `crates/` is instrumented;
//! spans are kept in memory and written as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use llm::{ChatApi, ChatRequest, ChatResponse, LlmError, SimLlm};

use crate::report::{micros, quantile, Metrics};

/// One timed interval. `parent` is the span that caused it (0 = root);
/// spans of one request share `request`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

/// Collects spans. Tracing off = nobody holds a tracer.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id();
        self.push(Span { id, parent, request, name, start, end });
        id
    }

    fn spans(&self) -> MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("no span recorder panics while holding the lock")
    }

    pub fn push(&self, span: Span) {
        self.spans().push(span);
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, parent, request, start, end);
        (out, end - start)
    }

    pub fn len(&self) -> usize {
        self.spans().len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans().iter() {
            let parent = if s.parent == 0 {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id,
                s.request,
                s.name,
                (s.start - self.epoch).as_secs_f64() * 1e6,
                (s.end - self.epoch).as_secs_f64() * 1e6,
            )?;
        }
        out.flush()
    }
}

/// What one `ChatApi::complete` cost, as the caller saw it.
#[derive(Debug, Clone, Copy)]
pub struct ChatCall {
    pub wall: Duration,
    pub prompt_tokens: u64,
    pub completion_tokens: u64,
    pub ok: bool,
}

/// A `ChatApi` decorator in the benchmark's own code: times every call
/// (always — that is the measurement, two clock reads per LLM call), and
/// when given a tracer also records a span and keeps the request, so the
/// socket hop can be priced afterwards with [`direct_times`].
pub struct TimedChat {
    inner: Arc<dyn ChatApi>,
    tracer: Option<Arc<Tracer>>,
    span_name: &'static str,
    /// Parent span for calls made while the benchmark is inside a traced
    /// stage (single-threaded offline runs set it around `run_batch`).
    pub parent: AtomicU64,
    calls: Mutex<Vec<ChatCall>>,
    /// Requests kept in call order (traced runs only).
    requests: Mutex<Vec<ChatRequest>>,
}

impl TimedChat {
    pub fn new(inner: Arc<dyn ChatApi>, span_name: &'static str) -> Self {
        Self {
            inner,
            tracer: None,
            span_name,
            parent: AtomicU64::new(0),
            calls: Mutex::new(Vec::new()),
            requests: Mutex::new(Vec::new()),
        }
    }

    pub fn traced(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Drains the calls recorded so far, with their requests when traced
    /// (same order, same length).
    pub fn take_calls(&self) -> (Vec<ChatCall>, Vec<ChatRequest>) {
        // One lock order everywhere: calls, then requests.
        let mut calls = self
            .calls
            .lock()
            .expect("no chat recorder panics while holding the lock");
        let mut requests = self
            .requests
            .lock()
            .expect("no chat recorder panics while holding the lock");
        (std::mem::take(&mut *calls), std::mem::take(&mut *requests))
    }
}

impl ChatApi for TimedChat {
    fn complete(&self, request: &ChatRequest) -> Result<ChatResponse, LlmError> {
        let start = Instant::now();
        let result = self.inner.complete(request);
        let end = Instant::now();
        if let Some(tracer) = &self.tracer {
            tracer.record(
                self.span_name,
                self.parent.load(Ordering::Relaxed),
                0,
                start,
                end,
            );
        }
        let (prompt_tokens, completion_tokens) = match &result {
            Ok(r) => (r.usage.prompt_tokens.get(), r.usage.completion_tokens.get()),
            Err(_) => (0, 0),
        };
        let mut calls = self
            .calls
            .lock()
            .expect("no chat recorder panics while holding the lock");
        calls.push(ChatCall {
            wall: end - start,
            prompt_tokens,
            completion_tokens,
            ok: result.is_ok(),
        });
        if self.tracer.is_some() {
            self.requests
                .lock()
                .expect("no chat recorder panics while holding the lock")
                .push(request.clone());
        }
        drop(calls);
        result
    }

    fn trace_children(&self, trace_id: u64) -> Option<String> {
        self.inner.trace_children(trace_id)
    }
}

/// Answers each kept request on an in-process simulator and returns the
/// wall time of each — run after the timed section, so the reference
/// never competes with what it prices. `wall - direct` on the same
/// request is the socket hop.
fn direct_times(requests: &[ChatRequest]) -> Vec<Duration> {
    let sim = SimLlm::new();
    requests
        .iter()
        .map(|request| {
            let started = Instant::now();
            let _ = std::hint::black_box(sim.complete(request));
            started.elapsed()
        })
        .collect()
}

/// The socket-hop layer metrics of one set of traced calls: each kept
/// request's in-process time, and HTTP − direct on the same request.
pub fn set_hop_metrics(metrics: &mut Metrics, calls: &[ChatCall], requests: &[ChatRequest]) {
    let direct = direct_times(requests);
    let mut direct_us: Vec<f64> = direct.iter().map(|d| micros(*d)).collect();
    let mut hop_us: Vec<f64> = calls
        .iter()
        .zip(&direct)
        .map(|(call, d)| micros(call.wall) - micros(*d))
        .collect();
    metrics.set("llm.chat_us_p50", quantile(&mut direct_us, 0.50));
    metrics.set("llm-service.hop_us_p50", quantile(&mut hop_us, 0.50));
    metrics.set("llm-service.hop_us_p95", quantile(&mut hop_us, 0.95));
    // One connection per call: the client is built without a retry
    // policy, so a transport error surfaces as a failed call instead of a
    // second connect.
    metrics.set("llm-service.connects", calls.len() as f64);
    metrics.set(
        "llm-service.retries",
        calls.iter().filter(|c| !c.ok).count() as f64,
    );
}
