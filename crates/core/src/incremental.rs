//! Incremental plan maintenance across question insertions/retirements.
//!
//! The serving layer re-plans on every coalesced flush; most flushes
//! change only a handful of questions relative to the previous plan.
//! Re-running the full featurize → percentile → DBSCAN → batch → covering
//! pipeline from scratch puts the whole O(n²) distance workload back on
//! the critical path each time. A [`PlanState`] instead **persists the
//! geometry** between plans and re-runs only the cheap combinatorial
//! passes:
//!
//! * **feature rows** — extracted once per question, appended to a
//!   slot-major buffer, tombstoned on retirement;
//! * **thresholds** — DBSCAN ε and the covering threshold `t` are derived
//!   on a *full* plan and frozen until the next one, so incremental
//!   epochs skip both percentile estimations;
//! * **ε-neighbor graph** — symmetric adjacency lists under the frozen ε,
//!   extended by one dense region scan per insertion; labels are
//!   recomputed per epoch by an in-place union-find pass over the cached
//!   edges (no distance arithmetic, no allocation), reproducing
//!   [`cluster::dbscan_matrix`]'s output exactly;
//! * **coverage graph** — which pool demonstrations cover which questions
//!   under the frozen `t`, extended by one pool scan per insertion; the
//!   greedy covering selection re-runs over the cached lists.
//!
//! **Plan equivalence.** Every epoch's output equals a from-scratch
//! [`plan_with_prepared_pool_pinned`] over the same active questions (in
//! canonical key order) with the frozen thresholds pinned — same
//! clusterings, same batch memberships, same selected demonstrations.
//! The randomized harness in `tests/incremental_equivalence.rs` pins this
//! for every strategy combination at every epoch.
//!
//! **Fallback.** When the delta since the last plan exceeds a configured
//! fraction of the pool (or caches do not exist yet), the state runs a
//! full plan: thresholds re-derive from the current question set, caches
//! rebuild, and tombstoned slots compact away. Frozen thresholds thus
//! track distribution drift at the fallback cadence while small deltas
//! stay O(delta · scan) + O(cached graph).

use std::collections::HashMap;

use cluster::{dbscan_from_neighbor_lists, dbscan_neighbor_lists, Clustering};
use embed::matrix::{scan_rows_within, FeatureMatrix};
use er_core::{EntityPair, LabeledPair};

use crate::batching::{
    batches_for_clustering, cluster_questions_pinned, BatchingStrategy, ClusteringKind,
    DBSCAN_EPS_PERCENTILE, DBSCAN_MIN_PTS,
};
use crate::cover::{CoverTable, Rows};
use crate::features::{extract_row, DistanceKind, FeatureSpace};
use crate::plan::{BatchPlanConfig, PreparedPool, QuestionBatchPlan};
use crate::selection::{
    covering_threshold, covering_with_coverage, select_demonstrations_pinned, SelectionParams,
    SelectionPlan, SelectionStrategy,
};

/// How a [`PlanState`] epoch was planned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// Thresholds re-derived, caches rebuilt, tombstones compacted.
    Full,
    /// Cached geometry reused; only combinatorial passes re-ran.
    Incremental,
}

impl PlanKind {
    /// Stable lowercase name for logs and stats.
    pub fn name(self) -> &'static str {
        match self {
            PlanKind::Full => "full",
            PlanKind::Incremental => "incremental",
        }
    }
}

/// One epoch's output: the batch plan over the active questions in
/// canonical (ascending-key) order, plus the key at each question index.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochPlan {
    /// The plan; `plan.batches` indices refer to `keys`.
    pub plan: QuestionBatchPlan,
    /// `keys[i]` is the caller key of question index `i`.
    pub keys: Vec<u64>,
    /// Whether this epoch ran the full or the incremental path.
    pub kind: PlanKind,
    /// Questions inserted since the previous plan.
    pub inserted: usize,
    /// Questions retired since the previous plan.
    pub retired: usize,
}

/// Point-in-time [`PlanState`] accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlanStateStats {
    /// Plans run in total.
    pub epochs: u64,
    /// Plans that took the full path.
    pub full_plans: u64,
    /// Plans that took the incremental path.
    pub incremental_plans: u64,
    /// Delta sizes of the most recent plan.
    pub last_inserted: u64,
    /// Delta sizes of the most recent plan.
    pub last_retired: u64,
    /// Wall time of the most recent plan, microseconds (insert/retire
    /// delta application is timed by the caller; this covers `plan`).
    pub last_plan_us: u64,
    /// Currently active questions.
    pub active: u64,
    /// Allocated slots (active + tombstoned; compaction resets to active).
    pub slots: u64,
    /// The frozen DBSCAN ε, when the graph cache is live.
    pub eps: Option<f64>,
    /// The frozen covering threshold `t`, when the coverage cache is live.
    pub cover_t: Option<f64>,
}

/// Fraction of the previous plan's question count the delta may reach
/// before the planner falls back to a full re-plan.
pub const DEFAULT_MAX_DELTA_FRACTION: f64 = 0.2;

/// An incrementally maintained batch-planning state over a fixed
/// demonstration pool. See the module docs for the design.
#[derive(Debug, Clone)]
pub struct PlanState {
    config: BatchPlanConfig,
    max_delta_fraction: f64,
    pool: PreparedPool,

    // Frozen thresholds (set by full plans that need them).
    eps: Option<f64>,
    cover_t: Option<f64>,

    // Slot-major question storage. Slots are append-only between
    // compactions; a retired slot keeps its row so cached references to
    // it stay decodable (they are filtered through `active`).
    dim: Option<usize>,
    rows: Vec<f64>,
    keys: Vec<u64>,
    active: Vec<bool>,
    n_active: usize,
    key_to_slot: HashMap<u64, u32>,

    // ε-neighbor graph (valid while `eps` is Some): symmetric adjacency
    // by slot id, self excluded; tombstoned neighbors are filtered
    // through `active`/`rank` on read. `deg` counts *active* neighbors
    // (maintained on insert/retire) so the per-epoch labeling pass gets
    // core-ness without a counting sweep over the edges.
    adj: Vec<Vec<u32>>,
    deg: Vec<u32>,

    // Coverage graph (valid while `cover_t` is Some): per pool demo, the
    // slots it covers (retired slots filtered through `active` on read).
    demo_cov: Vec<Vec<u32>>,

    // Epoch accounting.
    inserted_since_plan: usize,
    retired_since_plan: usize,
    planned_len: Option<usize>,
    stats: PlanStateStats,
}

impl PlanState {
    /// A fresh state over `pool` (featurized internally with the config's
    /// extractor and distance).
    pub fn new(pool: &[&LabeledPair], config: BatchPlanConfig) -> Self {
        Self::from_prepared(
            PreparedPool::prepare(pool, config.extractor, config.distance),
            config,
        )
    }

    /// A fresh state over an already-prepared pool. The pool's extractor
    /// and distance govern question featurization, overriding the config
    /// (the same contract as [`crate::plan::plan_with_prepared_pool`]).
    pub fn from_prepared(pool: PreparedPool, config: BatchPlanConfig) -> Self {
        assert!(config.batch_size > 0, "batch size must be positive");
        Self {
            config,
            max_delta_fraction: DEFAULT_MAX_DELTA_FRACTION,
            pool,
            eps: None,
            cover_t: None,
            dim: None,
            rows: Vec::new(),
            keys: Vec::new(),
            active: Vec::new(),
            n_active: 0,
            key_to_slot: HashMap::new(),
            adj: Vec::new(),
            deg: Vec::new(),
            demo_cov: Vec::new(),
            inserted_since_plan: 0,
            retired_since_plan: 0,
            planned_len: None,
            stats: PlanStateStats::default(),
        }
    }

    /// Overrides the full-re-plan fallback fraction (see
    /// [`DEFAULT_MAX_DELTA_FRACTION`]).
    pub fn with_max_delta_fraction(mut self, fraction: f64) -> Self {
        assert!(fraction >= 0.0, "delta fraction must be non-negative");
        self.max_delta_fraction = fraction;
        self
    }

    /// Number of active questions.
    pub fn active_len(&self) -> usize {
        self.n_active
    }

    /// True when no questions are active.
    pub fn is_empty(&self) -> bool {
        self.n_active == 0
    }

    /// True when `key` is currently active.
    pub fn contains(&self, key: u64) -> bool {
        self.key_to_slot.contains_key(&key)
    }

    /// Current accounting snapshot.
    pub fn stats(&self) -> PlanStateStats {
        PlanStateStats {
            active: self.n_active as u64,
            slots: self.keys.len() as u64,
            eps: self.eps,
            cover_t: self.cover_t,
            ..self.stats
        }
    }

    /// Whether the configured strategies need the ε-neighbor graph.
    fn needs_graph(&self) -> bool {
        self.config.batching != BatchingStrategy::Random
            && self.config.clustering == ClusteringKind::Dbscan
    }

    /// Whether the configured strategies need the coverage graph.
    fn needs_cover(&self) -> bool {
        self.config.selection == SelectionStrategy::Covering && !self.pool.is_empty()
    }

    /// Inserts one question under a caller-stable `key`. Returns `false`
    /// (and changes nothing) when the key is already active.
    ///
    /// # Panics
    /// Panics when the pair's feature dimension disagrees with previously
    /// inserted questions — mixed schemas under a structure-aware
    /// extractor are a caller bug, exactly as in batch extraction.
    pub fn insert(&mut self, key: u64, pair: &EntityPair) -> bool {
        if self.key_to_slot.contains_key(&key) {
            return false;
        }
        let row = extract_row(pair, self.pool.extractor_kind());
        let dim = match self.dim {
            None => {
                assert!(!row.is_empty(), "zero-dimensional feature rows");
                self.dim = Some(row.len());
                row.len()
            }
            Some(d) => {
                assert_eq!(row.len(), d, "ragged feature rows across insertions");
                d
            }
        };
        let slot = u32::try_from(self.keys.len()).expect("slot count exceeds index width");

        // Once the accumulated delta (this insert included) already
        // guarantees the next plan takes the full path — which discards
        // and rebuilds every cache — extending the caches per insert is
        // pure waste. The delta counters are monotone until `plan`, so
        // the decision cannot flip back; the caches merely stop growing
        // and the full plan rebuilds them from scratch.
        let next_plan_is_full = match self.planned_len {
            None => true,
            Some(prev) => {
                (self.inserted_since_plan + self.retired_since_plan + 1) as f64
                    > self.max_delta_fraction * prev.max(1) as f64
            }
        };

        // Extend the ε graph: one region scan over all existing slots
        // (the same inclusive ≤ ε² predicate, and the same subtraction
        // arithmetic, as the full rebuild's region queries).
        if let (Some(eps), false) = (self.eps, next_plan_is_full) {
            let mut hits: Vec<u32> = Vec::new();
            let active = &self.active;
            scan_rows_within::<false>(dim, &row, &self.rows, eps * eps, |k| {
                if active[k] {
                    hits.push(k as u32);
                }
            });
            for &k in &hits {
                self.adj[k as usize].push(slot);
                self.deg[k as usize] += 1;
            }
            self.deg.push(hits.len() as u32);
            self.adj.push(hits);
        } else {
            // The caches stop tracking the slots once the next plan is
            // known to be full; the rebuild starts from compacted rows
            // anyway.
            self.adj.push(Vec::new());
            self.deg.push(0);
        }

        // Extend the coverage graph: one scan over the (static) pool
        // under the frozen `t` (strict <, matching `compute_coverage`).
        if let (Some(t), true, false) = (self.cover_t, self.needs_cover(), next_plan_is_full) {
            let pool_space = self.pool.space();
            let pool_matrix = pool_space.matrix();
            let mut covers: Vec<u32> = Vec::new();
            match pool_space.distance_kind() {
                DistanceKind::Euclidean => {
                    scan_rows_within::<true>(
                        pool_matrix.dim(),
                        &row,
                        pool_matrix.flat(),
                        t * t,
                        |d| covers.push(d as u32),
                    );
                }
                DistanceKind::Cosine => {
                    let mut buf = vec![0.0f64; pool_matrix.len()];
                    pool_matrix.cosine_dists_to_all(&row, &mut buf);
                    covers.extend(
                        buf.iter()
                            .enumerate()
                            .filter(|&(_, &v)| v < t)
                            .map(|(d, _)| d as u32),
                    );
                }
            }
            for d in covers {
                self.demo_cov[d as usize].push(slot);
            }
        }

        self.rows.extend_from_slice(&row);
        self.keys.push(key);
        self.active.push(true);
        self.n_active += 1;
        self.key_to_slot.insert(key, slot);
        self.inserted_since_plan += 1;
        true
    }

    /// Retires the question under `key`. Returns `false` when no such
    /// active question exists. The slot is tombstoned; its cached row and
    /// graph entries linger (filtered through the active mask) until the
    /// next full plan compacts them away.
    pub fn retire(&mut self, key: u64) -> bool {
        let Some(slot) = self.key_to_slot.remove(&key) else {
            return false;
        };
        let slot = slot as usize;
        self.active[slot] = false;
        self.n_active -= 1;
        if self.eps.is_some() {
            for i in 0..self.adj[slot].len() {
                let v = self.adj[slot][i] as usize;
                if self.active[v] {
                    self.deg[v] -= 1;
                }
            }
        }
        self.retired_since_plan += 1;
        true
    }

    /// Plans the current active question set, deciding between the
    /// incremental and the full path, and starts the next epoch.
    ///
    /// `seed` drives batching randomness and — on full plans — threshold
    /// derivation, exactly like `BatchPlanConfig::seed` does for
    /// [`crate::plan::plan_question_batches`]. Pass a pure function of
    /// the active set for arrival-order independence.
    pub fn plan(&mut self, seed: u64) -> EpochPlan {
        let plan_started = std::time::Instant::now();
        let inserted = std::mem::take(&mut self.inserted_since_plan);
        let retired = std::mem::take(&mut self.retired_since_plan);
        self.stats.epochs += 1;
        self.stats.last_inserted = inserted as u64;
        self.stats.last_retired = retired as u64;

        if self.n_active == 0 {
            self.planned_len = Some(0);
            self.stats.incremental_plans += 1;
            self.stats.last_plan_us =
                u64::try_from(plan_started.elapsed().as_micros()).unwrap_or(u64::MAX);
            return EpochPlan {
                plan: QuestionBatchPlan {
                    batches: Vec::new(),
                    demos_per_batch: Vec::new(),
                    labeled: Vec::new(),
                    threshold: None,
                },
                keys: Vec::new(),
                kind: PlanKind::Incremental,
                inserted,
                retired,
            };
        }

        let delta_exceeded = match self.planned_len {
            None => true,
            Some(prev) => {
                (inserted + retired) as f64 > self.max_delta_fraction * prev.max(1) as f64
            }
        };
        let caches_missing = (self.needs_graph() && self.eps.is_none())
            || (self.needs_cover() && self.cover_t.is_none());
        // Tombstone pressure: once dead slots outnumber live ones the
        // per-insert scans and graph sweeps pay more for garbage than for
        // data — compact via the full path.
        let garbage = self.keys.len() > 2 * self.n_active;
        let full = delta_exceeded || caches_missing || garbage;

        let epoch = if full {
            self.compact();
            self.plan_epoch(seed, PlanKind::Full)
        } else {
            self.plan_epoch(seed, PlanKind::Incremental)
        };
        self.planned_len = Some(self.n_active);
        match epoch.kind {
            PlanKind::Full => self.stats.full_plans += 1,
            PlanKind::Incremental => self.stats.incremental_plans += 1,
        }
        self.stats.last_plan_us =
            u64::try_from(plan_started.elapsed().as_micros()).unwrap_or(u64::MAX);
        EpochPlan { inserted, retired, ..epoch }
    }

    /// Drops tombstoned slots and every cache (the full plan rebuilds
    /// them). Slot order of survivors is preserved; canonical order is
    /// key-based, so plans are unaffected.
    fn compact(&mut self) {
        let dim = self.dim.unwrap_or(0);
        let n_slots = self.keys.len();
        if self.n_active == n_slots {
            // Nothing dead; caches are still dropped for rebuild.
            self.clear_caches();
            return;
        }
        let mut rows = Vec::with_capacity(self.n_active * dim);
        let mut keys = Vec::with_capacity(self.n_active);
        for slot in 0..n_slots {
            if self.active[slot] {
                rows.extend_from_slice(&self.rows[slot * dim..(slot + 1) * dim]);
                keys.push(self.keys[slot]);
            }
        }
        self.rows = rows;
        self.keys = keys;
        self.active = vec![true; self.n_active];
        self.key_to_slot = self
            .keys
            .iter()
            .enumerate()
            .map(|(slot, &key)| (key, slot as u32))
            .collect();
        self.clear_caches();
    }

    fn clear_caches(&mut self) {
        self.adj.clear();
        self.deg.clear();
        self.demo_cov.clear();
        self.eps = None;
        self.cover_t = None;
    }

    /// Canonical view of the active set: slots sorted by key, the
    /// inverse rank per slot, and the gathered feature space.
    fn gather(&self) -> (Vec<u32>, Vec<u32>, FeatureSpace) {
        let dim = self.dim.unwrap_or(0);
        let mut order: Vec<u32> = (0..self.keys.len() as u32)
            .filter(|&s| self.active[s as usize])
            .collect();
        order.sort_unstable_by_key(|&s| self.keys[s as usize]);
        let mut rank = vec![u32::MAX; self.keys.len()];
        let mut flat = Vec::with_capacity(order.len() * dim);
        for (r, &s) in order.iter().enumerate() {
            rank[s as usize] = r as u32;
            flat.extend_from_slice(&self.rows[s as usize * dim..(s as usize + 1) * dim]);
        }
        let matrix = FeatureMatrix::from_flat(flat, order.len(), dim);
        let space = FeatureSpace::from_matrix(matrix, self.pool.distance_kind());
        (order, rank, space)
    }

    /// One planning epoch; the two kinds differ **only** in where the
    /// clustering and the coverage lists come from:
    ///
    /// * `Full` — derive ε / `t` from the gathered space, run the kernel
    ///   sweeps, and (re)populate the caches from the results. Runs after
    ///   [`PlanState::compact`], so every slot is active.
    /// * `Incremental` — labels from a union-find pass over the cached ε
    ///   graph, coverage remapped from the cached lists; no distance
    ///   percentiles, no region-query or coverage sweeps.
    ///
    /// Everything downstream — batch assembly, selection dispatch, the
    /// empty-pool arm — is shared, so the two kinds cannot drift apart.
    fn plan_epoch(&mut self, seed: u64, kind: PlanKind) -> EpochPlan {
        let (order, rank, q_space) = self.gather();
        let n = order.len();

        let clusters = if self.config.batching == BatchingStrategy::Random {
            None
        } else if self.config.clustering == ClusteringKind::Dbscan {
            Some(match kind {
                PlanKind::Full => {
                    let eps = q_space
                        .distance_percentile(DBSCAN_EPS_PERCENTILE, 200_000, seed)
                        .max(1e-9);
                    let lists = dbscan_neighbor_lists(q_space.matrix(), eps);
                    // Cache the graph in slot space: lists include self,
                    // the cache excludes it.
                    self.adj = vec![Vec::new(); n];
                    self.deg = vec![0; n];
                    for (r, list) in lists.iter().enumerate() {
                        let slot = order[r] as usize;
                        let mut neighbors = Vec::with_capacity(list.len().saturating_sub(1));
                        for &nr in list {
                            if nr as usize != r {
                                neighbors.push(order[nr as usize]);
                            }
                        }
                        self.deg[slot] = neighbors.len() as u32;
                        self.adj[slot] = neighbors;
                    }
                    self.eps = Some(eps);
                    dbscan_from_neighbor_lists(&lists, DBSCAN_MIN_PTS)
                }
                PlanKind::Incremental => self.labels_from_graph(&order, &rank),
            })
        } else {
            Some(
                cluster_questions_pinned(
                    &q_space,
                    self.config.clustering,
                    self.config.batch_size,
                    seed,
                    None,
                )
                .0,
            )
        };
        let batches = batches_for_clustering(
            n,
            clusters.as_ref(),
            self.config.batching,
            self.config.batch_size,
            seed,
        );

        let selection = if self.pool.is_empty() {
            SelectionPlan {
                per_batch: vec![Vec::new(); batches.len()],
                labeled: Vec::new(),
                threshold: None,
            }
        } else if self.config.selection == SelectionStrategy::Covering {
            let (t, coverage) = match kind {
                PlanKind::Full => {
                    let t = covering_threshold(&q_space, self.selection_params(seed));
                    let coverage =
                        crate::selection::compute_coverage(&q_space, self.pool.space(), t);
                    // Cache in slot space (coverage is in rank space
                    // here).
                    self.demo_cov = (0..coverage.n_candidates())
                        .map(|d| {
                            let ranks = coverage.elements_of(d).iter();
                            ranks.map(|&r| order[r as usize]).collect()
                        })
                        .collect();
                    self.cover_t = Some(t);
                    (t, coverage)
                }
                PlanKind::Incremental => {
                    let t = self.cover_t.expect("coverage cache is live on this path");
                    // The cache stays per-demo lists (inserts and retires
                    // edit them in place); the covering step reads a table.
                    let mut by_demo = Rows::new();
                    for list in &self.demo_cov {
                        by_demo.push_row(
                            list.iter()
                                .map(|&slot| rank[slot as usize])
                                .filter(|&r| r != u32::MAX),
                        );
                    }
                    (t, CoverTable::from_candidate_rows(by_demo, n))
                }
            };
            let tokens = self.pool.token_weights();
            covering_with_coverage(&q_space, self.pool.space(), &batches, &coverage, t, |d| {
                tokens[d]
            })
        } else {
            let tokens = self.pool.token_weights();
            select_demonstrations_pinned(
                self.config.selection,
                &q_space,
                self.pool.space(),
                &batches,
                self.selection_params(seed),
                None,
                |d| tokens[d],
            )
        };

        self.assemble(order, batches, selection, kind)
    }

    fn selection_params(&self, seed: u64) -> SelectionParams {
        SelectionParams { k: self.config.k, cover_percentile: self.config.cover_percentile, seed }
    }

    fn assemble(
        &self,
        order: Vec<u32>,
        batches: Vec<Vec<usize>>,
        selection: SelectionPlan,
        kind: PlanKind,
    ) -> EpochPlan {
        let SelectionPlan { per_batch, labeled, threshold } = selection;
        EpochPlan {
            plan: QuestionBatchPlan { batches, demos_per_batch: per_batch, labeled, threshold },
            keys: order.iter().map(|&s| self.keys[s as usize]).collect(),
            kind,
            inserted: 0,
            retired: 0,
        }
    }

    /// DBSCAN labels over the cached ε graph, reproducing the expansion
    /// semantics of [`cluster::dbscan_matrix`] exactly (see
    /// `dbscan_union_find` in the cluster crate for why these rules are
    /// equivalent): core points cluster by ε-connectivity with ids in
    /// min-core-rank founding order, borders join the earliest-founded
    /// cluster among their core neighbors, leftovers become singletons
    /// in rank order.
    ///
    /// Deliberately a union-find over the cached edges rather than a
    /// remap into [`dbscan_from_neighbor_lists`]: one in-place pass with
    /// zero allocation, measured ~3x faster per epoch than materializing
    /// rank-space region-query lists — and the epoch is the product's
    /// hot path. The duplication of the labeling rules is pinned loudly:
    /// the equivalence harness compares every epoch's clustering against
    /// `dbscan_matrix`'s output across all strategy combinations.
    fn labels_from_graph(&self, order: &[u32], rank: &[u32]) -> Clustering {
        let n = order.len();
        // Core-ness: |N(p)| including self.
        let core: Vec<bool> = order
            .iter()
            .map(|&s| self.deg[s as usize] as usize + 1 >= DBSCAN_MIN_PTS)
            .collect();

        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        let mut parent: Vec<u32> = (0..n as u32).collect();
        for (r, &s) in order.iter().enumerate() {
            if !core[r] {
                continue;
            }
            for &v in &self.adj[s as usize] {
                let rv = rank[v as usize];
                // Visit each active core-core edge once (from the lower
                // rank); tombstoned neighbors rank as MAX and drop out.
                if rv == u32::MAX || (rv as usize) <= r || !core[rv as usize] {
                    continue;
                }
                let ra = find(&mut parent, r as u32);
                let rb = find(&mut parent, rv);
                if ra != rb {
                    if ra < rb {
                        parent[rb as usize] = ra;
                    } else {
                        parent[ra as usize] = rb;
                    }
                }
            }
        }

        const UNSET: usize = usize::MAX;
        let mut labels = vec![UNSET; n];
        let mut cluster_of_root = vec![UNSET; n];
        let mut next_cluster = 0usize;
        for r in 0..n {
            if core[r] {
                let root = find(&mut parent, r as u32) as usize;
                if cluster_of_root[root] == UNSET {
                    cluster_of_root[root] = next_cluster;
                    next_cluster += 1;
                }
                labels[r] = cluster_of_root[root];
            }
        }
        // Borders: min label among active core neighbors (a non-core
        // point has < min_pts neighbors, so these scans are tiny).
        for (r, &s) in order.iter().enumerate() {
            if core[r] {
                continue;
            }
            let mut best = UNSET;
            for &v in &self.adj[s as usize] {
                let rv = rank[v as usize];
                if rv != u32::MAX && core[rv as usize] && labels[rv as usize] < best {
                    best = labels[rv as usize];
                }
            }
            labels[r] = best;
        }
        for label in labels.iter_mut() {
            if *label == UNSET {
                *label = next_cluster;
                next_cluster += 1;
            }
        }
        Clustering { assignment: labels, n_clusters: next_cluster }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{plan_with_prepared_pool_pinned, PlanThresholds};
    use datagen::{generate, DatasetKind};

    fn fixtures() -> (Vec<er_core::LabeledPair>, Vec<er_core::LabeledPair>) {
        let d = generate(DatasetKind::Beer, 3);
        let pairs = d.pairs().to_vec();
        let pool = pairs[..40].to_vec();
        let questions = pairs[40..100].to_vec();
        (pool, questions)
    }

    fn reference(
        state: &PlanState,
        questions: &[(u64, EntityPair)],
        seed: u64,
    ) -> QuestionBatchPlan {
        let mut sorted: Vec<&(u64, EntityPair)> = questions.iter().collect();
        sorted.sort_by_key(|(k, _)| *k);
        let refs: Vec<&EntityPair> = sorted.iter().map(|(_, p)| p).collect();
        let config = BatchPlanConfig { seed, ..state.config };
        plan_with_prepared_pool_pinned(
            &refs,
            &state.pool,
            &config,
            PlanThresholds { eps: state.eps, cover_t: state.cover_t },
        )
    }

    #[test]
    fn first_plan_is_full_and_matches_from_scratch() {
        let (pool, questions) = fixtures();
        let pool_refs: Vec<&LabeledPair> = pool.iter().collect();
        let mut state = PlanState::new(&pool_refs, BatchPlanConfig::default());
        let qs: Vec<(u64, EntityPair)> = questions
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u64 * 7 + 3, p.pair.clone()))
            .collect();
        for (k, p) in &qs {
            assert!(state.insert(*k, p));
        }
        let epoch = state.plan(11);
        assert_eq!(epoch.kind, PlanKind::Full);
        assert_eq!(epoch.inserted, qs.len());
        assert_eq!(epoch.plan, reference(&state, &qs, 11));
        let mut keys: Vec<u64> = qs.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        assert_eq!(epoch.keys, keys);
    }

    #[test]
    fn small_deltas_go_incremental_and_stay_equivalent() {
        let (pool, questions) = fixtures();
        let pool_refs: Vec<&LabeledPair> = pool.iter().collect();
        let mut state = PlanState::new(&pool_refs, BatchPlanConfig::default());
        let qs: Vec<(u64, EntityPair)> = questions
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u64, p.pair.clone()))
            .collect();
        let mut live: Vec<(u64, EntityPair)> = qs[..50].to_vec();
        for (k, p) in &live {
            state.insert(*k, p);
        }
        state.plan(5);

        // Retire two, insert two: 4/50 < 20% → incremental.
        for k in [3u64, 17] {
            assert!(state.retire(k));
        }
        live.retain(|(k, _)| *k != 3 && *k != 17);
        for (k, p) in &qs[50..52] {
            assert!(state.insert(*k, p));
            live.push((*k, p.clone()));
        }
        let epoch = state.plan(9);
        assert_eq!(epoch.kind, PlanKind::Incremental);
        assert_eq!(epoch.inserted, 2);
        assert_eq!(epoch.retired, 2);
        assert_eq!(epoch.plan, reference(&state, &live, 9));
    }

    #[test]
    fn large_delta_falls_back_to_full() {
        let (pool, questions) = fixtures();
        let pool_refs: Vec<&LabeledPair> = pool.iter().collect();
        let mut state = PlanState::new(&pool_refs, BatchPlanConfig::default());
        for (i, p) in questions[..20].iter().enumerate() {
            state.insert(i as u64, &p.pair);
        }
        state.plan(1);
        for (i, p) in questions[20..40].iter().enumerate() {
            state.insert(20 + i as u64, &p.pair);
        }
        let epoch = state.plan(2);
        assert_eq!(epoch.kind, PlanKind::Full);
    }

    #[test]
    fn dense_inserts_stay_equivalent_at_scale() {
        // Hundreds of slots and pool rows, where the full plan's region
        // queries and coverage sweep prune through the metric index
        // while every insert extends both graphs by a dense scan — the
        // two must still agree.
        let d = generate(DatasetKind::FodorsZagats, 5);
        let pairs = d.pairs().to_vec();
        let pool: Vec<LabeledPair> = pairs[..300].to_vec();
        let pool_refs: Vec<&LabeledPair> = pool.iter().collect();
        let mut state = PlanState::new(&pool_refs, BatchPlanConfig::default());
        let qs: Vec<(u64, EntityPair)> = pairs[300..740]
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u64 * 13 + 1, p.pair.clone()))
            .collect();
        let mut live: Vec<(u64, EntityPair)> = qs[..400].to_vec();
        for (k, p) in &live {
            assert!(state.insert(*k, p));
        }
        let first = state.plan(21);
        assert_eq!(first.kind, PlanKind::Full);

        // Two small delta rounds: retires interleave with inserts so the
        // insert scans see tombstoned slots, then the epoch must still
        // equal the pinned from-scratch reference.
        for k in [1u64, 27, 53] {
            assert!(state.retire(k));
        }
        live.retain(|(k, _)| ![1u64, 27, 53].contains(k));
        for (k, p) in &qs[400..410] {
            assert!(state.insert(*k, p));
            live.push((*k, p.clone()));
        }
        for k in [79u64, 105] {
            assert!(state.retire(k));
        }
        live.retain(|(k, _)| ![79u64, 105].contains(k));
        for (k, p) in &qs[410..420] {
            assert!(state.insert(*k, p));
            live.push((*k, p.clone()));
        }
        let epoch = state.plan(22);
        assert_eq!(epoch.kind, PlanKind::Incremental);
        assert_eq!(epoch.plan, reference(&state, &live, 22));
    }

    #[test]
    fn duplicate_keys_and_unknown_retires_are_rejected() {
        let (pool, questions) = fixtures();
        let pool_refs: Vec<&LabeledPair> = pool.iter().collect();
        let mut state = PlanState::new(&pool_refs, BatchPlanConfig::default());
        assert!(state.insert(1, &questions[0].pair));
        assert!(!state.insert(1, &questions[1].pair));
        assert!(!state.retire(99));
        assert!(state.retire(1));
        assert!(!state.retire(1));
        assert!(state.is_empty());
    }

    #[test]
    fn empty_plan_is_empty() {
        let (pool, _) = fixtures();
        let pool_refs: Vec<&LabeledPair> = pool.iter().collect();
        let mut state = PlanState::new(&pool_refs, BatchPlanConfig::default());
        let epoch = state.plan(1);
        assert!(epoch.plan.is_empty());
        assert!(epoch.keys.is_empty());
    }
}
