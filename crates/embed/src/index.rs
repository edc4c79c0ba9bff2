//! Exact metric index over [`FeatureMatrix`] rows.
//!
//! One pivot row and the rows sorted by their distance to it (the
//! *key*), with triangle-inequality candidate elimination before any
//! full distance computation. For a query `q` and a row `x`,
//! `|d(q, p) − d(x, p)| ≤ d(q, x)`, so when the left side exceeds the
//! query radius (plus the float slack) the row cannot be a hit: the
//! candidates of a radius query are one binary-searched key window,
//! verified with one streaming kernel call over the rows gathered
//! contiguously in key order.
//!
//! **Exactness contract.** Pruning only ever *eliminates* candidates;
//! every survivor is verified with the same arithmetic the brute-force
//! reference uses ([`scan_rows_within`] for radius predicates, the
//! cached-norm dot trick of `FeatureMatrix::sq_dists_to_all` for
//! nearest-neighbour ranking). Per-row verdicts of those kernels are
//! position-independent, so the accelerated result sets are
//! bit-identical to a full scan — never approximate. The float slack
//! (`1e-9 + 1e-12 · max d₀`, the pivot-window convention from the
//! DBSCAN sweep this module generalizes) widens the pruning bound to
//! absorb the rounding gap between dot-trick and subtraction-form
//! distances; it only ever admits extra candidates for verification.
//!
//! **Degenerate inputs.** Rows with non-finite coordinates, norms, or
//! pivot distances — where the triangle bound is meaningless — live on
//! an *overflow* list that every query verifies linearly, so NaN/inf
//! features degrade to (partial) scans instead of wrong windows.
//! Empty matrices, single rows, all-identical rows (zero pivot
//! spread), and zero-dimensional rows all build degenerate-but-correct
//! indexes; the tests below pin each shape.
//!
//! **Immutability.** An index is built once over a matrix and never
//! changes; callers whose rows change rebuild it.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::matrix::{scan_rows_within, FeatureMatrix};
use crate::vecmath::{dot, sq_euclidean_distance};

// Process-wide counters (relaxed: monotone telemetry, no ordering
// dependencies). Snapshot with [`stats`]; meter a region by delta.
static BUILDS: AtomicU64 = AtomicU64::new(0);
static QUERIES: AtomicU64 = AtomicU64::new(0);
static CANDIDATES: AtomicU64 = AtomicU64::new(0);
static PRUNED: AtomicU64 = AtomicU64::new(0);

/// Point-in-time snapshot of the process-wide index counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Indexes constructed.
    pub builds: u64,
    /// Queries answered (radius, nearest, and pair sweeps alike).
    pub queries: u64,
    /// Rows (or row pairs, for sweeps) a brute-force pass would have
    /// fully evaluated.
    pub candidates: u64,
    /// Of those, eliminated by the triangle bound before any full
    /// distance computation.
    pub pruned: u64,
}

impl IndexStats {
    /// Counter increments since `earlier` (saturating, so a snapshot
    /// pair straddling little activity never underflows).
    pub fn delta_since(&self, earlier: &IndexStats) -> IndexStats {
        IndexStats {
            builds: self.builds.saturating_sub(earlier.builds),
            queries: self.queries.saturating_sub(earlier.queries),
            candidates: self.candidates.saturating_sub(earlier.candidates),
            pruned: self.pruned.saturating_sub(earlier.pruned),
        }
    }
}

/// Snapshot of the process-wide index counters.
pub fn stats() -> IndexStats {
    IndexStats {
        builds: BUILDS.load(Ordering::Relaxed),
        queries: QUERIES.load(Ordering::Relaxed),
        candidates: CANDIDATES.load(Ordering::Relaxed),
        pruned: PRUNED.load(Ordering::Relaxed),
    }
}

/// The one-pivot index: an exact metric index over feature rows whose
/// result sets are bit-identical to the brute-force reference kernels.
/// See the module docs for structure and guarantees.
#[derive(Debug)]
pub struct PivotIndex {
    dim: usize,

    // The pivot row (empty when no row is finite) and the float slack
    // padding the pruning bound.
    pivot: Vec<f64>,
    slack: f64,

    // Build-time rows with fully finite geometry, sorted by
    // `(key, id)`: original ids, sorted pivot distances (the keys),
    // gathered contiguous rows, gathered squared norms.
    order: Vec<u32>,
    keys: Vec<f64>,
    perm: Vec<f64>,
    seg_sqn: Vec<f64>,

    // Rows the triangle bound cannot cover (non-finite coordinates,
    // norms, or pivot distances; every row when `dim == 0`): always
    // verified linearly.
    over_ids: Vec<u32>,
    over_rows: Vec<f64>,
    over_sqn: Vec<f64>,
}

impl PivotIndex {
    /// Builds the index over every row of `matrix`.
    pub fn build(matrix: &FeatureMatrix) -> Self {
        BUILDS.fetch_add(1, Ordering::Relaxed);
        let n = matrix.len();
        let dim = matrix.dim();
        assert!(u32::try_from(n).is_ok(), "row count exceeds u32 ids");

        let mut index = PivotIndex {
            dim,
            pivot: Vec::new(),
            slack: 1e-9,
            order: Vec::new(),
            keys: Vec::new(),
            perm: Vec::new(),
            seg_sqn: Vec::new(),
            over_ids: Vec::new(),
            over_rows: Vec::new(),
            over_sqn: Vec::new(),
        };

        // Rows whose own geometry is finite are candidates for the
        // sorted segment; the rest go to overflow outright. `dim == 0`
        // rows carry no geometry to pivot on at all.
        let finite: Vec<bool> = (0..n)
            .map(|i| {
                dim > 0
                    && matrix.sq_norm(i).is_finite()
                    && matrix.row(i).iter().all(|v| v.is_finite())
            })
            .collect();

        // The pivot mirrors the pre-index sweep: the row farthest from
        // the first (finite) row, first maximum winning. Per-row keys
        // use the dot trick over cached norms, like that sweep; a
        // finite row whose key overflows still cannot be windowed
        // soundly, so it overflows too.
        let keys: Vec<f64> = match (0..n).find(|&i| finite[i]) {
            Some(base) => {
                let mut pivot = base;
                let mut far = f64::NEG_INFINITY;
                for (j, &ok) in finite.iter().enumerate() {
                    let d = matrix.sq_dist_rows(base, j);
                    if ok && d.is_finite() && d > far {
                        far = d;
                        pivot = j;
                    }
                }
                index.pivot = matrix.row(pivot).to_vec();
                (0..n)
                    .map(|j| matrix.sq_dist_rows(pivot, j).sqrt())
                    .collect()
            }
            None => vec![f64::NAN; n],
        };
        let indexable = |j: usize| finite[j] && keys[j].is_finite();

        let mut order: Vec<u32> = (0..n as u32).filter(|&j| indexable(j as usize)).collect();
        order.sort_unstable_by(|&a, &b| {
            keys[a as usize]
                .total_cmp(&keys[b as usize])
                .then(a.cmp(&b))
        });
        index.keys = order.iter().map(|&j| keys[j as usize]).collect();
        index.perm = Vec::with_capacity(order.len() * dim);
        for &j in &order {
            index.perm.extend_from_slice(matrix.row(j as usize));
        }
        index.seg_sqn = order.iter().map(|&j| matrix.sq_norm(j as usize)).collect();
        index.order = order;
        index.slack = 1e-9 + 1e-12 * index.keys.last().copied().unwrap_or(0.0);

        for j in (0..n).filter(|&j| !indexable(j)) {
            index.over_ids.push(j as u32);
            index.over_rows.extend_from_slice(matrix.row(j));
            index.over_sqn.push(matrix.sq_norm(j));
        }
        index
    }

    fn seg_row(&self, pos: usize) -> &[f64] {
        &self.perm[pos * self.dim..(pos + 1) * self.dim]
    }

    fn over_row(&self, oi: usize) -> &[f64] {
        &self.over_rows[oi * self.dim..(oi + 1) * self.dim]
    }

    /// The query's key: its pivot distance in subtraction form, the
    /// established query-side convention of the coverage sweep.
    fn key_of(&self, query: &[f64]) -> f64 {
        sq_euclidean_distance(&self.pivot, query).sqrt()
    }

    /// End (exclusive) of sorted position `a_pos`'s upper key window:
    /// the later rows whose key is within `pad` of its own.
    fn window_end(&self, a_pos: usize, pad: f64) -> usize {
        self.keys[a_pos + 1..].partition_point(|&v| v <= self.keys[a_pos] + pad) + a_pos + 1
    }
}

/// One row's radius verdict via the reference kernel ([`scan_rows_within`]
/// dispatches per dimension, so this is bit-identical to the full scan).
fn row_within<const STRICT: bool>(dim: usize, query: &[f64], row: &[f64], t_sq: f64) -> bool {
    let mut hit = false;
    scan_rows_within::<STRICT>(dim, query, row, t_sq, |_| hit = true);
    hit
}

/// Sorted-bounded insert for the nearest heap: ascending
/// `(total_cmp value, id)`, truncated to `k`.
fn heap_push(heap: &mut Vec<(f64, u32)>, k: usize, item: (f64, u32)) {
    let at = heap.partition_point(|&(v, id)| {
        v.total_cmp(&item.0).then(id.cmp(&item.1)) == std::cmp::Ordering::Less
    });
    if at < k {
        if heap.len() == k {
            heap.pop();
        }
        heap.insert(at, item);
    }
}

impl PivotIndex {
    /// Number of rows: every row sits in the sorted segment or on the
    /// overflow list.
    pub fn len(&self) -> usize {
        self.order.len() + self.over_ids.len()
    }

    /// True when the index holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ids strictly within `eps` of `query` (`< eps`), ascending — the
    /// verdict per row is exactly [`scan_rows_within`]'s with threshold
    /// `eps²`.
    pub fn within_into(&self, query: &[f64], eps: f64, out: &mut Vec<u32>) {
        out.clear();
        let t_sq = eps * eps;
        if self.dim == 0 {
            // All rows are empty vectors at distance 0.
            if 0.0 < t_sq {
                out.extend(0..self.len() as u32);
            }
            note_query(self.len(), self.len());
            return;
        }
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let mut verified = self.over_ids.len();
        if !self.keys.is_empty() {
            // The key window's rows are contiguous in gathered order,
            // so one streaming kernel call verifies them all.
            let key = self.key_of(query);
            let pad = eps + self.slack;
            let lo = self.keys.partition_point(|&v| v < key - pad);
            let hi = self.keys.partition_point(|&v| v <= key + pad);
            verified += hi - lo;
            let run = &self.perm[lo * self.dim..hi * self.dim];
            scan_rows_within::<true>(self.dim, query, run, t_sq, |k| {
                out.push(self.order[lo + k]);
            });
        }
        for (oi, &id) in self.over_ids.iter().enumerate() {
            if row_within::<true>(self.dim, query, self.over_row(oi), t_sq) {
                out.push(id);
            }
        }
        out.sort_unstable();
        note_query(self.len(), verified);
    }

    /// The `k` rows nearest to `query` under the dot-trick squared
    /// distance, as `(value, id)` ascending by `(total_cmp, id)` —
    /// exactly the head a full `sq_dists_to_all` + partial sort would
    /// produce.
    pub fn nearest_into(&self, query: &[f64], k: usize, out: &mut Vec<(f64, u32)>) {
        out.clear();
        if k == 0 || self.is_empty() {
            return;
        }
        if self.dim > 0 {
            assert_eq!(query.len(), self.dim, "query dimension mismatch");
        }
        let x_sq = dot(query, query);
        let value = |row: &[f64], sqn: f64| (x_sq + sqn - 2.0 * dot(query, row)).max(0.0);

        // Overflow rows carry no usable bound — and a non-finite row's
        // dot-trick value can legitimately be small (`.max(0.0)` maps
        // NaN to 0), so they are always evaluated exactly, first.
        let mut verified = self.over_ids.len();
        for (oi, &id) in self.over_ids.iter().enumerate() {
            heap_push(out, k, (value(self.over_row(oi), self.over_sqn[oi]), id));
        }

        if self.dim > 0 && !self.order.is_empty() {
            let key = self.key_of(query);
            // A query with a non-finite key (NaN/inf coordinates) has no
            // usable bound in either direction: evaluate the whole
            // segment exactly instead of expanding windows around a
            // garbage key.
            if !key.is_finite() {
                for (pos, &id) in self.order.iter().enumerate() {
                    heap_push(out, k, (value(self.seg_row(pos), self.seg_sqn[pos]), id));
                }
                note_query(self.len(), self.len());
                return;
            }
            // Current pruning radius: the kth-best distance once the
            // heap is full, else unbounded.
            let tau = |heap: &Vec<(f64, u32)>| {
                if heap.len() == k {
                    heap[k - 1].0.sqrt() + self.slack
                } else {
                    f64::INFINITY
                }
            };
            let seg = self.order.len();
            let split = self.keys.partition_point(|&v| v < key);
            let (mut l, mut r) = (split, split);
            let mut t = tau(out);
            // Expand outward from the query's key position; a side
            // stops once its window gap alone proves every remaining
            // row on it is beyond the kth-best distance.
            loop {
                let lg = if l > 0 {
                    key - self.keys[l - 1]
                } else {
                    f64::INFINITY
                };
                let rg = if r < seg {
                    self.keys[r] - key
                } else {
                    f64::INFINITY
                };
                let (pos, gap) = if lg <= rg {
                    if l == 0 {
                        break;
                    }
                    l -= 1;
                    (l, lg)
                } else {
                    if r >= seg {
                        // Left side is strictly nearer yet infinite:
                        // both exhausted.
                        if lg == f64::INFINITY {
                            break;
                        }
                        l -= 1;
                        (l, lg)
                    } else {
                        let pos = r;
                        r += 1;
                        (pos, rg)
                    }
                };
                if gap > t {
                    // Everything farther out on both sides is at least
                    // this far from the pivot key; the two-pointer scan
                    // always takes the smaller gap next, so stop.
                    break;
                }
                verified += 1;
                heap_push(
                    out,
                    k,
                    (value(self.seg_row(pos), self.seg_sqn[pos]), self.order[pos]),
                );
                t = tau(out);
            }
        }
        note_query(self.len(), verified);
    }

    /// Calls `on_pair(a, b)`, `a < b`, once per unordered pair of rows
    /// within `eps` (inclusive), in one symmetric sweep: each sorted row
    /// against the later rows of its key window, verified by the
    /// reference kernel in one streaming call, then each overflow row
    /// against every row before it in the sweep, linearly. Books one
    /// query of `n(n − 1)/2` candidates.
    pub fn for_close_pairs(&self, eps: f64, mut on_pair: impl FnMut(u32, u32)) {
        let n = self.len();
        let potential = n * n.saturating_sub(1) / 2;
        let t_sq = eps * eps;
        if self.dim == 0 {
            // Every pair of empty rows sits at distance 0.
            if 0.0 <= t_sq {
                for a in 0..n as u32 {
                    for b in a + 1..n as u32 {
                        on_pair(a, b);
                    }
                }
            }
            note_query(potential, potential);
            return;
        }
        let pad = eps + self.slack;
        let seg = self.order.len();
        let mut verified = 0usize;

        // Segment × segment: ascending key order, window bounded above
        // (symmetry covers the lower half).
        for a_pos in 0..seg {
            let a_id = self.order[a_pos];
            let hi = self.window_end(a_pos, pad);
            verified += hi - a_pos - 1;
            let run = &self.perm[(a_pos + 1) * self.dim..hi * self.dim];
            scan_rows_within::<false>(self.dim, self.seg_row(a_pos), run, t_sq, |k| {
                let b_id = self.order[a_pos + 1 + k];
                on_pair(a_id.min(b_id), a_id.max(b_id));
            });
        }

        // Overflow × (segment, earlier overflow): no bound available.
        for (oi, &o_id) in self.over_ids.iter().enumerate() {
            let o_row = self.over_row(oi);
            verified += seg + oi;
            for (pos, &s_id) in self.order.iter().enumerate() {
                if row_within::<false>(self.dim, o_row, self.seg_row(pos), t_sq) {
                    on_pair(s_id.min(o_id), s_id.max(o_id));
                }
            }
            for (oj, &u_id) in self.over_ids[..oi].iter().enumerate() {
                if row_within::<false>(self.dim, o_row, self.over_row(oj), t_sq) {
                    on_pair(u_id.min(o_id), u_id.max(o_id));
                }
            }
        }
        note_query(potential, verified);
    }
}

fn note_query(potential: usize, verified: usize) {
    QUERIES.fetch_add(1, Ordering::Relaxed);
    CANDIDATES.fetch_add(potential as u64, Ordering::Relaxed);
    PRUNED.fetch_add(potential.saturating_sub(verified) as u64, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

    /// The index counters are process-wide: a test that reads their exact
    /// delta holds [`alone`], every other index test holds [`shared`].
    static COUNTERS: RwLock<()> = RwLock::new(());

    fn shared() -> RwLockReadGuard<'static, ()> {
        COUNTERS.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn alone() -> RwLockWriteGuard<'static, ()> {
        COUNTERS.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Deterministic scattered fixture.
    fn scattered(n: usize, dim: usize, seed: u64) -> FeatureMatrix {
        let mut rng = er_core::Rng::from_seed(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.f64() * 4.0 - 2.0).collect())
            .collect();
        FeatureMatrix::from_rows(rows)
    }

    fn brute_within(m: &FeatureMatrix, query: &[f64], eps: f64) -> Vec<u32> {
        let mut out = Vec::new();
        scan_rows_within::<true>(m.dim(), query, m.flat(), eps * eps, |i| out.push(i as u32));
        out
    }

    fn brute_nearest(m: &FeatureMatrix, query: &[f64], k: usize) -> Vec<(f64, u32)> {
        let mut buf = vec![0.0; m.len()];
        m.sq_dists_to_all(query, &mut buf);
        let mut scored: Vec<(f64, u32)> = buf
            .into_iter()
            .enumerate()
            .map(|(i, v)| (v, i as u32))
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        scored.truncate(k);
        scored
    }

    fn check_all_queries(m: &FeatureMatrix, index: &PivotIndex, eps: f64) {
        let mut got = Vec::new();
        for i in 0..m.len() {
            index.within_into(m.row(i), eps, &mut got);
            assert_eq!(got, brute_within(m, m.row(i), eps), "query {i}");
            let mut near = Vec::new();
            index.nearest_into(m.row(i), 3, &mut near);
            assert_eq!(near, brute_nearest(m, m.row(i), 3), "nearest {i}");
        }
    }

    /// Asserts that one sweep of a fresh index over `m` reports exactly
    /// the pairs `a < b` the reference kernel puts within `eps`
    /// (inclusive), once each, and books one query of `n(n − 1)/2`
    /// candidates of which no close pair was pruned. Returns the
    /// sweep's counter delta; the caller holds [`alone`].
    fn check_close_pairs(m: &FeatureMatrix, eps: f64) -> IndexStats {
        let mut want = Vec::new();
        for a in 0..m.len() {
            // Empty rows leave the kernel no buffer to stream; every pair
            // of them sits at distance 0.
            if m.dim() == 0 {
                want.extend((a + 1..m.len()).map(|b| (a as u32, b as u32)));
                continue;
            }
            scan_rows_within::<false>(m.dim(), m.row(a), m.flat(), eps * eps, |b| {
                if b > a {
                    want.push((a as u32, b as u32));
                }
            });
        }
        let index = PivotIndex::build(m);
        let before = stats();
        let mut pairs = Vec::new();
        index.for_close_pairs(eps, |a, b| pairs.push((a, b)));
        let delta = stats().delta_since(&before);
        pairs.sort_unstable();
        assert_eq!(pairs, want, "eps {eps}");
        let n = m.len() as u64;
        let candidates = n * n.saturating_sub(1) / 2;
        assert_eq!(
            (delta.builds, delta.queries, delta.candidates),
            (0, 1, candidates)
        );
        assert!(
            delta.pruned <= candidates - want.len() as u64,
            "a close pair was pruned"
        );
        delta
    }

    #[test]
    fn queries_match_brute_force() {
        let _counters = shared();
        for dim in [1, 2, 3, 5, 7, 8, 16] {
            let m = scattered(90, dim, 7 + dim as u64);
            let index = PivotIndex::build(&m);
            check_all_queries(&m, &index, 0.9);
        }
    }

    #[test]
    fn close_pairs_match_brute_force() {
        let _counters = alone();
        let m = scattered(80, 4, 11);
        check_close_pairs(&m, 1.2);
        let delta = check_close_pairs(&m, 0.4);
        assert!(
            delta.pruned > 0,
            "a 0.4 radius over scattered data must prune"
        );
    }

    #[test]
    fn empty_matrix_builds_and_answers() {
        let _counters = alone();
        let m = FeatureMatrix::from_rows(vec![]);
        let index = PivotIndex::build(&m);
        assert_eq!(index.len(), m.len());
        assert!(index.is_empty());
        let mut out = Vec::new();
        index.within_into(&[], 1.0, &mut out);
        assert!(out.is_empty());
        let mut near = Vec::new();
        index.nearest_into(&[], 2, &mut near);
        assert!(near.is_empty());
        check_close_pairs(&m, 1.0);
    }

    #[test]
    fn single_row_and_identical_rows() {
        let _counters = alone();
        let single = FeatureMatrix::from_rows(vec![vec![1.0, 2.0]]);
        let index = PivotIndex::build(&single);
        assert_eq!(index.len(), single.len());
        let mut out = Vec::new();
        index.within_into(&[1.0, 2.0], 0.5, &mut out);
        assert_eq!(out, vec![0]);
        index.within_into(&[1.0, 2.0], 0.0, &mut out);
        assert!(out.is_empty(), "a zero radius must exclude the exact match");

        // All-identical rows: zero pivot spread puts every key at 0,
        // and every pair is a close pair.
        let same = FeatureMatrix::from_rows(vec![vec![3.0, -1.0]; 9]);
        let index = PivotIndex::build(&same);
        assert_eq!(index.len(), same.len());
        check_all_queries(&same, &index, 0.25);
        let delta = check_close_pairs(&same, 0.1);
        assert_eq!(delta.pruned, 0, "all 9 · 8 / 2 pairs are close");
    }

    #[test]
    fn zero_dimensional_rows() {
        let _counters = alone();
        let m = FeatureMatrix::from_rows(vec![vec![]; 5]);
        let index = PivotIndex::build(&m);
        assert_eq!(index.len(), m.len());
        let mut out = Vec::new();
        index.within_into(&[], 0.5, &mut out);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        index.within_into(&[], 0.0, &mut out);
        assert!(out.is_empty());
        let mut near = Vec::new();
        index.nearest_into(&[], 3, &mut near);
        assert_eq!(near, vec![(0.0, 0), (0.0, 1), (0.0, 2)]);
        // d = 0 ≤ eps = 0 for all ten pairs.
        let delta = check_close_pairs(&m, 0.0);
        assert_eq!(delta.pruned, 0);
    }

    #[test]
    fn non_finite_rows_degrade_but_stay_exact() {
        let _counters = alone();
        let mut rows = scattered(40, 3, 21).to_rows();
        rows[7] = vec![f64::NAN, 0.0, 0.0];
        rows[13] = vec![f64::INFINITY, 1.0, -1.0];
        rows[29] = vec![0.0, f64::NEG_INFINITY, f64::NAN];
        let m = FeatureMatrix::from_rows(rows.clone());
        let index = PivotIndex::build(&m);
        assert_eq!(index.len(), m.len());
        check_all_queries(&m, &index, 1.3);
        check_close_pairs(&m, 1.3);
        // Non-finite queries: no hits (NaN/inf never satisfies < eps²),
        // nearest degrades to the brute ranking.
        let mut out = Vec::new();
        index.within_into(&rows[7], 2.0, &mut out);
        assert_eq!(out, brute_within(&m, &rows[7], 2.0));
        assert!(out.is_empty());
        let mut near = Vec::new();
        index.nearest_into(&rows[13], 4, &mut near);
        assert_eq!(near, brute_nearest(&m, &rows[13], 4));
    }

    #[test]
    fn huge_magnitudes_overflow_to_linear_verification() {
        let _counters = alone();
        // Coordinates whose squared norms overflow the dot trick: the
        // window key would be garbage, so these rows must bypass it.
        let mut rows = scattered(30, 2, 17).to_rows();
        rows[4] = vec![1e200, 1e200];
        rows[9] = vec![-1e200, 1e200];
        let m = FeatureMatrix::from_rows(rows);
        let index = PivotIndex::build(&m);
        check_all_queries(&m, &index, 0.7);
        check_close_pairs(&m, 0.7);
    }

    #[test]
    fn stats_count_builds_and_pruning() {
        let _counters = alone();
        let before = stats();
        let m = scattered(300, 8, 77);
        let index = PivotIndex::build(&m);
        let mut out = Vec::new();
        for i in 0..50 {
            index.within_into(m.row(i), 0.4, &mut out);
        }
        let delta = stats().delta_since(&before);
        assert_eq!(
            (delta.builds, delta.queries, delta.candidates),
            (1, 50, 50 * 300)
        );
        assert!(
            delta.pruned > 0,
            "a 0.4 radius over scattered data must prune"
        );
    }

    #[test]
    fn nearest_ties_resolve_by_id_like_brute_force() {
        let _counters = shared();
        // Duplicate rows force (value, id) ties.
        let mut rows = vec![vec![0.5, 0.5]; 6];
        rows.extend(scattered(20, 2, 31).to_rows());
        let m = FeatureMatrix::from_rows(rows);
        let index = PivotIndex::build(&m);
        let mut near = Vec::new();
        index.nearest_into(&[0.5, 0.5], 4, &mut near);
        assert_eq!(near, brute_nearest(&m, &[0.5, 0.5], 4));
        assert_eq!(
            near.iter().map(|&(_, i)| i).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }
}
