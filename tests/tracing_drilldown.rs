//! The cross-service debugging walkthrough, end to end over real
//! sockets: scrape an exemplar trace id off `/metrics`, follow it to
//! `/trace?id=` for the assembled span tree — including the llm-service
//! child spans that the propagated traceparent produced — and verify
//! that killing the LLM endpoint trips the breaker and dumps a flight
//! recorder bundle to disk.

mod common;

use std::sync::Arc;
use std::time::Duration;

use batcher::datagen::{generate, DatasetKind};
use batcher::er_service::{ErService, MatchServer, ServiceConfig};
use batcher::llm_service::{LlmServer, ServeOptions};
use common::{bootstrap, get, post_match};

/// Scrape → exemplar → trace tree: the full latency-spike drill-down
/// from the README, against a real llm-service over loopback.
#[test]
fn metrics_exemplar_drills_down_to_cross_service_trace() {
    let llm = LlmServer::new().start().expect("bind llm loopback");
    let service = Arc::new(ErService::start(
        Arc::new(llm.client()),
        bootstrap(),
        ServiceConfig {
            flush_deadline: Duration::from_millis(5),
            batch_size: 4,
            workers: 2,
            ..ServiceConfig::default()
        },
    ));
    let front = MatchServer::start(Arc::clone(&service), ServeOptions::default()).unwrap();
    let addr = front.addr();

    // A fresh question, answered by the LLM through the HTTP client.
    let body = r#"{"schema":["title","brand"],"left":["pliny the elder","russian river"],"right":["heady topper","alchemist"]}"#;
    let (status, answer) = post_match(addr, body);
    assert_eq!(status, 200, "{answer}");
    assert!(answer.contains(r#""source":"llm""#), "{answer}");

    // Step 1 of the walkthrough: the answer-latency histogram carries an
    // exemplar naming a real trace id on the bucket the answer landed in.
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let exemplar_line = metrics
        .lines()
        .find(|l| l.starts_with("er_answer_us_bucket") && l.contains("# {trace_id=\""))
        .unwrap_or_else(|| panic!("no exemplar on er_answer_us: {metrics}"));
    let trace_id: u64 = exemplar_line
        .split("trace_id=\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .and_then(|digits| digits.parse().ok())
        .unwrap_or_else(|| panic!("unparsable exemplar: {exemplar_line}"));
    assert!(trace_id > 0, "{exemplar_line}");

    // Step 2: `/trace?id=` assembles the cross-service tree. The er-side
    // span is complete, and the children are the llm-service spans that
    // the propagated traceparent created — queue wait, attempt, outcome.
    let (status, tree) = get(addr, &format!("/trace?id={trace_id}"));
    assert_eq!(status, 200, "{tree}");
    assert!(tree.contains(r#""stage":"submitted""#), "{tree}");
    assert!(tree.contains(r#""stage":"answered""#), "{tree}");
    assert!(
        !tree.contains("\"children\":[]"),
        "no llm child spans: {tree}"
    );
    assert!(tree.contains(r#""stage":"received""#), "{tree}");
    assert!(tree.contains(r#""stage":"queue_wait""#), "{tree}");
    assert!(tree.contains(r#""stage":"completed""#), "{tree}");

    // The trace endpoints reject garbage instead of guessing.
    assert_eq!(get(addr, "/trace?id=bogus").0, 400);
    assert_eq!(get(addr, "/trace?n=many").0, 400);
    assert_eq!(get(addr, "/trace?id=999999999").0, 404);

    // Step 3: the SLO view renders every objective's burn windows.
    let (status, slo) = get(addr, "/slo");
    assert_eq!(status, 200);
    for name in ["answer_latency", "availability", "budget"] {
        assert!(slo.contains(&format!("\"name\":\"{name}\"")), "{slo}");
    }
    assert!(slo.contains("\"fast_burn\""), "{slo}");

    // Step 4: an on-demand bundle is a self-contained JSON document.
    let (status, bundle) = get(addr, "/debug/bundle");
    assert_eq!(status, 200);
    for key in [
        "\"reason\":\"on_demand\"",
        "\"stats\"",
        "\"slo\"",
        "\"recent_traces\"",
        "\"events\"",
        "\"snapshots\"",
    ] {
        assert!(bundle.contains(key), "missing {key}: {bundle}");
    }

    // The exposition with exemplars still passes the lint gate.
    batcher::obs::lint(&metrics).expect("exemplar-bearing /metrics is lint-clean");
}

/// Killing the LLM endpoint trips the breaker, and the trip dumps a
/// flight-recorder bundle to the configured directory.
#[test]
fn llm_outage_trips_breaker_and_dumps_flight_bundle() {
    let dir = std::env::temp_dir().join(format!("er-flight-drill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let llm = LlmServer::new().start().expect("bind llm loopback");
    let client = llm.client();
    let service = Arc::new(ErService::start(
        Arc::new(client),
        bootstrap(),
        ServiceConfig {
            flush_deadline: Duration::from_millis(5),
            batch_size: 4,
            workers: 2,
            flight_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        },
    ));

    // Warm traffic against the live endpoint.
    let dataset = generate(DatasetKind::Beer, 11);
    let questions: Vec<_> = dataset.pairs()[120..136]
        .iter()
        .map(|lp| lp.pair.clone())
        .collect();
    for q in &questions[..4] {
        service.submit(q);
    }
    assert!(
        service.stats().llm_answered > 0,
        "warmup never reached the LLM"
    );

    // Kill the endpoint: the handle's drop stops the listener. Dead
    // batches now count toward the breaker threshold: the twelve
    // questions left are asked one at a time, twelve dead batches.
    drop(llm);
    for q in &questions[4..] {
        service.submit(q);
    }
    let stats = service.stats();
    assert!(stats.breaker_trips >= 1, "breaker never opened: {stats:?}");

    // The trip produced an on-disk bundle naming the reason, carrying
    // the breaker event and enough context to debug offline.
    let bundles: Vec<_> = std::fs::read_dir(&dir)
        .expect("flight dir created")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains("breaker_open"))
        })
        .collect();
    assert!(
        !bundles.is_empty(),
        "no breaker_open bundle in {}",
        dir.display()
    );
    let body = std::fs::read_to_string(&bundles[0]).unwrap();
    assert!(body.contains("\"reason\":\"breaker_open\""), "{body}");
    assert!(body.contains("\"stats\""), "{body}");
    assert!(body.contains("\"events\""), "{body}");
    assert_eq!(service.flight().bundles_written(), bundles.len() as u64);

    let _ = std::fs::remove_dir_all(&dir);
}
