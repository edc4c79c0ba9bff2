//! Fixtures the serving suites share: the bootstrap pool, the question
//! bank, concurrent clients, the HTTP calls and the conservation laws
//! every quiesced service must satisfy.

// Each test crate compiles this module on its own and uses only some of
// it.
#![allow(dead_code)]

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use batcher::datagen::{generate, DatasetKind};
use batcher::er_core::{EntityPair, LabeledPair, PairId, Record, RecordId, Schema};
use batcher::er_service::{ErService, MatchDecision, ServiceStats};
use batcher::llm_service::http::read_response;

/// Bootstrap pool for fallback training and demonstrations.
pub fn bootstrap() -> Vec<LabeledPair> {
    generate(DatasetKind::Beer, 7).pairs()[..120].to_vec()
}

pub fn schema() -> Arc<Schema> {
    Arc::new(Schema::new(["title", "brand", "price"]).unwrap())
}

/// Question `id` over the shared schema: `left` against `right`.
pub fn pair(id: u32, left: [&str; 3], right: [&str; 3]) -> EntityPair {
    let record = |rid, values: [&str; 3]| {
        let values = values.iter().map(|v| v.to_string()).collect();
        Arc::new(Record::new(rid, schema(), values).unwrap())
    };
    EntityPair::new(
        PairId(id),
        record(RecordId::a(id), left),
        record(RecordId::b(id), right),
    )
    .unwrap()
}

/// `n` distinct unambiguous questions — identical records (clear
/// matches) and records with fully disjoint text (clear non-matches) — so
/// answers are stable whatever batch they land in.
pub fn questions(n: usize) -> Vec<EntityPair> {
    let products = [
        "hazy little thing ipa",
        "guinness extra stout",
        "pliny the elder",
        "sierra nevada torpedo",
        "blue moon belgian white",
        "dogfish head 60 minute",
        "stone delicious ipa",
        "lagunitas daytime ale",
        "founders breakfast stout",
        "bells two hearted ale",
    ];
    (0..n)
        .map(|i| {
            let (brand, price) = (format!("brand{}", i % 7), format!("{}.99", 2 + (i % 11)));
            let left = [products[i % products.len()], &brand, &price];
            if i % 2 == 0 {
                pair(i as u32, left, left)
            } else {
                let other = format!("other{}", i % 5);
                pair(
                    i as u32,
                    left,
                    [products[(i + 3) % products.len()], &other, "87.50"],
                )
            }
        })
        .collect()
}

/// Runs `clients` threads, each submitting every question of its stripe
/// `rounds` times (the stripe shifts by one each round), and returns all
/// decisions.
pub fn hammer(
    service: &Arc<ErService>,
    bank: &Arc<Vec<EntityPair>>,
    clients: usize,
    rounds: usize,
) -> Vec<MatchDecision> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let service = Arc::clone(service);
                let bank = Arc::clone(bank);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for round in 0..rounds {
                        for q in bank
                            .iter()
                            .skip((client + round) % clients)
                            .step_by(clients.max(1))
                        {
                            out.push(service.submit(q));
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    })
}

/// The conservation laws at quiesce. Answer accounting: every submission
/// is exactly one of a submit-time cache hit, a flush-time coalesce
/// (cache fill, in-flight attach, within-flush or held-question
/// duplicate), or a uniquely answered question (LLM or fallback). Budget:
/// every reservation settled or released, so remaining + spent = budget
/// exactly, within budget, and spend is API plus labeling.
pub fn assert_conserved(stats: &ServiceStats) {
    assert_eq!(
        stats.submitted,
        stats.cache_hits
            + stats.coalesced_duplicates
            + stats.llm_answered
            + stats.fallback_answered,
        "answer accounting leaked or double-counted: {stats:?}"
    );
    assert!(stats.within_budget(), "overspent: {stats:?}");
    assert_eq!(
        stats.remaining_micros + stats.spent_micros,
        stats.budget_micros,
        "unsettled reservations at quiesce: {stats:?}"
    );
    assert_eq!(
        stats.spent_micros,
        stats.api_micros + stats.labeling_micros,
        "{stats:?}"
    );
}

pub fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\n\r\n").unwrap();
    let (status, bytes) = read_response(&mut stream).unwrap();
    (status, String::from_utf8(bytes).unwrap())
}

pub fn post_match(addr: SocketAddr, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "POST /match HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .unwrap();
    let (status, bytes) = read_response(&mut stream).unwrap();
    (status, String::from_utf8(bytes).unwrap())
}
