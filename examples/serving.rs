//! Online serving demo: concurrent clients resolving a workload over the
//! HTTP front end, with request coalescing, answer caching and a budget.
//!
//! ```sh
//! cargo run --release --example serving
//! ```
//!
//! Four clients POST individual `/match` questions (the workload contains
//! repeated and mirrored pairs, as real traffic does); the service
//! coalesces whatever is in flight into diversity batches, answers
//! repeats from the cache, and keeps total spend under the configured
//! budget. The closing report is read back from `GET /stats`, and the
//! telemetry endpoints are scraped on the way out: `GET /metrics`
//! (Prometheus text, lint-checked) and `GET /trace` (lifecycle spans).
//! Set `SERVING_METRICS_OUT` / `SERVING_TRACE_OUT` to write the scrapes
//! to files (CI uploads them as artifacts).

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use batcher::datagen::{generate, DatasetKind};
use batcher::er_core::Money;
use batcher::er_service::{ErService, MatchServer, ServiceConfig, ServiceStats};
use batcher::llm::SimLlm;
use batcher::llm_service::http::read_response;
use batcher::llm_service::ServeOptions;

const CLIENTS: usize = 4;
const QUESTIONS_PER_CLIENT: usize = 30;
const BUDGET: Money = Money::from_micros(200_000); // $0.20

fn main() {
    // Bootstrap: a labeled slice of the Beer benchmark provides both the
    // demonstration pool and the fallback matcher's training data.
    let dataset = generate(DatasetKind::Beer, 42);
    let bootstrap = dataset.pairs()[..150].to_vec();

    let service = Arc::new(ErService::start(
        Arc::new(SimLlm::new()),
        bootstrap,
        ServiceConfig {
            budget: BUDGET,
            batch_size: 8,
            flush_deadline: Duration::from_millis(10),
            workers: 2,
            domain: "Beer".to_owned(),
            ..ServiceConfig::default()
        },
    ));
    let server =
        MatchServer::start(Arc::clone(&service), ServeOptions::default()).expect("front end binds");
    let addr = server.addr();
    println!("er-service listening on http://{addr}");

    // Each client walks a window of test pairs; the windows overlap, so
    // different clients (and revisits within one client) repeat
    // questions — the cache's bread and butter.
    let questions: Vec<String> = dataset.pairs()[150..]
        .iter()
        .map(|p| {
            let schema: Vec<String> = p.pair.a().schema().attributes().to_vec();
            let json = |values: &[String]| {
                values
                    .iter()
                    .map(|v| format!("{v:?}"))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            format!(
                r#"{{"schema":[{}],"left":[{}],"right":[{}]}}"#,
                schema
                    .iter()
                    .map(|s| format!("{s:?}"))
                    .collect::<Vec<_>>()
                    .join(","),
                json(p.pair.a().values()),
                json(p.pair.b().values()),
            )
        })
        .collect();

    let started = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let questions = &questions;
            scope.spawn(move || {
                // Overlapping stride-1 windows: client c asks questions
                // c*10 .. c*10 + QUESTIONS_PER_CLIENT.
                for i in 0..QUESTIONS_PER_CLIENT {
                    let body = &questions[(client * 10 + i) % questions.len()];
                    let (status, answer) = post(addr, "/match", body);
                    assert_eq!(status, 200, "match failed: {answer}");
                }
            });
        }
    });
    let elapsed = started.elapsed();

    let (status, stats_json) = get(addr, "/stats");
    assert_eq!(status, 200);
    let stats: ServiceStats = serde_json::from_slice(stats_json.as_bytes()).expect("stats parse");

    println!("\n== workload ==");
    println!(
        "{CLIENTS} clients x {QUESTIONS_PER_CLIENT} questions in {:.2?} \
         ({:.0} questions/s)",
        elapsed,
        (CLIENTS * QUESTIONS_PER_CLIENT) as f64 / elapsed.as_secs_f64()
    );

    println!("\n== /stats ==\n{stats_json}");

    println!("\n== summary ==");
    println!("submitted            {}", stats.submitted);
    println!(
        "cache                {} hits / {} misses (hit rate {:.1}%)",
        stats.cache_hits,
        stats.cache_misses,
        100.0 * stats.cache_hit_rate()
    );
    println!("coalesced duplicates {}", stats.coalesced_duplicates);
    println!(
        "llm / fallback       {} / {}",
        stats.llm_answered, stats.fallback_answered
    );
    println!(
        "batches flushed      {} ({} API calls)",
        stats.batches_flushed, stats.api_calls
    );
    println!("demos labeled        {}", stats.demos_labeled);
    println!(
        "spend                {} of {} budget ({} remaining)",
        stats.spend(),
        stats.budget(),
        Money::from_micros(stats.remaining_micros)
    );

    println!(
        "answer latency       p50 {} us / p99 {} us (histogram-backed)",
        stats.answer_p50_us, stats.answer_p99_us
    );

    // Scrape the telemetry endpoints the way Prometheus would.
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let report = batcher::obs::lint(&metrics)
        .unwrap_or_else(|issues| panic!("/metrics fails promlint: {issues:?}"));
    println!(
        "\n== /metrics == {} families ({} histograms), {} samples, lint clean",
        report.families, report.histograms, report.samples
    );
    for line in metrics.lines().filter(|l| l.starts_with("# TYPE")) {
        println!("{line}");
    }

    let (status, trace) = get(addr, "/trace?n=4");
    assert_eq!(status, 200);
    println!("\n== /trace?n=4 (newest spans) ==\n{trace}");

    if let Ok(path) = std::env::var("SERVING_METRICS_OUT") {
        std::fs::write(&path, &metrics).expect("write metrics scrape");
        println!("metrics scrape -> {path}");
    }
    if let Ok(path) = std::env::var("SERVING_TRACE_OUT") {
        std::fs::write(&path, &trace).expect("write trace scrape");
        println!("trace scrape -> {path}");
    }

    assert!(
        stats.cache_hit_rate() > 0.0,
        "workload produced no cache hits"
    );
    assert!(stats.within_budget(), "spend exceeded the budget");
    assert!(report.histograms >= 6, "fewer than 6 histogram families");
    println!("\ncache hit rate > 0, spend <= budget, /metrics lint clean: OK");
}

fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let (status, bytes) = read_response(&mut stream).expect("response");
    (status, String::from_utf8_lossy(&bytes).into_owned())
}

fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {path} HTTP/1.1\r\n\r\n").expect("send");
    let (status, bytes) = read_response(&mut stream).expect("response");
    (status, String::from_utf8_lossy(&bytes).into_owned())
}
