//! # BatchER — cost-effective in-context learning for entity resolution
//!
//! Facade crate for the workspace reproducing *"Cost-Effective In-Context
//! Learning for Entity Resolution: A Design Space Exploration"* (ICDE 2024).
//!
//! Re-exports every sub-crate under a stable module path so downstream users
//! can depend on a single crate:
//!
//! ```
//! use batcher::core::{run, RunConfig};   // the BatchER framework
//! use batcher::datagen::{generate, DatasetKind};
//! use batcher::llm::SimLlm;              // the simulated LLM substrate
//!
//! let dataset = generate(DatasetKind::Beer, 42);
//! let api = SimLlm::new();
//! let result = run(&dataset, &api, RunConfig::best_design());
//! assert!(result.f1() > 50.0);
//! ```
//!
//! See `DESIGN.md` at the repository root for the system inventory, and
//! the `README.md` tables and `benchmark/README.md` for measured results.

/// ER data model: records, pairs, serialization, metrics, cost accounting.
pub use er_core;

/// String similarity kernels (Levenshtein ratio, Jaccard), normalizer, the one seeded hash.
pub use text_sim;

/// Hashed n-gram sentence embeddings (offline SBERT substitute).
pub use embed;

/// DBSCAN and K-Means clustering.
pub use cluster;

/// Simulated LLMs: tokenizer, pricing, capability profiles, chat API.
pub use llm;

/// OpenAI-style HTTP loopback service around the simulator.
pub use llm_service;

/// Synthetic Magellan-style benchmark generators.
pub use datagen;

/// PLM and manual-prompting baselines.
pub use baselines;

/// The BatchER framework itself (question batching + demonstration
/// selection + covering-based selection + execution).
pub use batcher_core as core;

/// The online entity-matching service: request coalescing, answer cache,
/// cost governor, worker pool and HTTP front end.
pub use er_service;

/// Zero-dependency observability: metric registry, mergeable histograms,
/// lifecycle tracing, Prometheus text rendering and linting.
pub use obs;

/// Embedded segmented write-ahead log (CRC-framed records, fsync policy,
/// torn-tail recovery, deterministic fault injection).
pub use wal;
