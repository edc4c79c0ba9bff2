//! Exact metric index over [`FeatureMatrix`] rows.
//!
//! A LAESA-style pivot table: `P` pivot rows, a per-row vector of
//! pivot distances, and triangle-inequality candidate elimination
//! before any full distance computation. For a query `q` and a row `x`,
//! `|d(q, p) − d(x, p)| ≤ d(q, x)` for every pivot `p`, so when the
//! left side exceeds the query radius (plus the float slack) the row
//! cannot be a hit and is skipped without touching its coordinates.
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

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use crate::matrix::{scan_rows_within, FeatureMatrix};
use crate::vecmath::{dot, sq_euclidean_distance};

/// Hard cap on pivots; query-side pivot distances live on the stack.
pub const MAX_PIVOTS: usize = 8;

/// Pivot count heuristic: small matrices fit in the single-pivot
/// window's cache footprint anyway, and at low dimension a full
/// verification costs no more than an extra-pivot check, so extra
/// pivots only fragment the streaming verify runs.
pub fn auto_pivots(n: usize, dim: usize) -> usize {
    if n < 128 {
        1
    } else {
        match dim {
            0..=8 => 1,
            _ => MAX_PIVOTS,
        }
    }
}

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

    /// Fraction of candidates eliminated before full evaluation
    /// (0 when nothing was queried).
    pub fn pruned_fraction(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.pruned as f64 / self.candidates as f64
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

/// A recorded symmetric pair sweep: one verdict bit per candidate slot
/// in the sweep's deterministic window layout. The layout is a pure
/// function of the index geometry and `eps` — never of pruning
/// decisions — so pruned candidates simply keep their zero bit.
/// Replaying re-derives the same windows and word-skips straight to
/// the set bits; no distance is recomputed and no pruning check is
/// re-evaluated.
#[derive(Debug, Clone)]
pub struct PairSweep {
    eps: f64,
    bits: Vec<u64>,
    n_bits: usize,
    pairs: usize,
}

impl PairSweep {
    /// Number of close pairs the sweep found.
    pub fn close_pair_count(&self) -> usize {
        self.pairs
    }

    /// Reserves a `len`-bit all-zero window at the end of the stream,
    /// returning its base bit position.
    fn open_window(&mut self, len: usize) -> usize {
        let base = self.n_bits;
        self.n_bits += len;
        let words = self.n_bits.div_ceil(64);
        if words > self.bits.len() {
            self.bits.resize(words, 0);
        }
        base
    }

    /// Marks absolute bit `at` as a close pair.
    fn set_hit(&mut self, at: usize) {
        self.bits[at >> 6] |= 1u64 << (at & 63);
        self.pairs += 1;
    }

    /// Visits each set bit of the `len`-bit window based at absolute
    /// bit `base`, as an offset within the window, skipping zero words
    /// whole. Out-of-range words read as zero (the caller's cursor
    /// check reports the drift).
    fn visit_hits(&self, base: usize, len: usize, f: &mut dyn FnMut(usize)) {
        if len == 0 {
            return;
        }
        let end = base + len;
        let first = base >> 6;
        let last = (end - 1) >> 6;
        for w in first..=last {
            let mut word = self.bits.get(w).copied().unwrap_or(0);
            if w == first {
                word &= !0u64 << (base & 63);
            }
            if w == last && end & 63 != 0 {
                word &= (1u64 << (end & 63)) - 1;
            }
            while word != 0 {
                let bit = (w << 6) + word.trailing_zeros() as usize;
                f(bit - base);
                word &= word - 1;
            }
        }
    }
}

/// Fate of the extra-pivot checks on one index: still being measured,
/// measured worth keeping, or measured useless. A pure performance
/// hint — extra pivots only skip verification of provably-out rows, so
/// switching them off never changes any result, window layout, or
/// recorded bit. Relaxed atomic.
#[derive(Debug)]
struct GateHint(AtomicU8);

const HINT_SAMPLING: u8 = 0;
const HINT_KEEP: u8 = 1;
const HINT_OFF: u8 = 2;

/// Samples the first [`ExtraGate::SAMPLE`] extra-pivot checks of a
/// query or sweep and, when they reject less than 1 candidate in 16 —
/// concentrated data where every check is paid and almost none prune —
/// switches them off for the rest of this index's lifetime via
/// [`GateHint`]. Queries too small to finish the sample leave the hint
/// unresolved and the next large query resumes measuring.
struct ExtraGate<'a> {
    hint: &'a GateHint,
    enabled: bool,
    deciding: bool,
    checked: u32,
    rejected: u32,
}

impl<'a> ExtraGate<'a> {
    const SAMPLE: u32 = 8192;

    fn new(index: &'a PivotIndex) -> Self {
        let state = if index.n_pivots <= 1 {
            HINT_OFF
        } else {
            index.extra_hint.0.load(Ordering::Relaxed)
        };
        ExtraGate {
            hint: &index.extra_hint,
            enabled: state != HINT_OFF,
            deciding: state == HINT_SAMPLING,
            checked: 0,
            rejected: 0,
        }
    }

    /// Runs `check` (true = the candidate is provably out) unless the
    /// checks have been measured useless, in which case the candidate
    /// survives to exact verification.
    #[inline]
    fn rejects(&mut self, check: impl FnOnce() -> bool) -> bool {
        if !self.enabled {
            return false;
        }
        let rejected = check();
        if self.deciding {
            self.checked += 1;
            self.rejected += rejected as u32;
            if self.checked == Self::SAMPLE {
                self.deciding = false;
                self.enabled = self.rejected >= Self::SAMPLE / 16;
                self.hint.0.store(
                    if self.enabled { HINT_KEEP } else { HINT_OFF },
                    Ordering::Relaxed,
                );
            }
        }
        rejected
    }
}

/// The pivot-table index: an exact metric index over feature rows whose
/// result sets are bit-identical to the brute-force reference kernels.
/// See the module docs for structure and guarantees;
/// `with_pivots(matrix, 1)` is the single-pivot window sweep that tests
/// and benches use as the reference configuration.
#[derive(Debug)]
pub struct PivotIndex {
    dim: usize,

    // Pivots (flat, `n_pivots * dim`) and the float slack padding the
    // pruning bound.
    pivot_rows: Vec<f64>,
    n_pivots: usize,
    slack: f64,

    // Build-time rows with fully finite geometry, sorted by
    // `(d0, id)`: original ids, sorted first-pivot distances, extra
    // pivot distances (pivot-major, `(n_pivots−1) × seg`), gathered
    // contiguous rows, gathered squared norms.
    order: Vec<u32>,
    keys: Vec<f64>,
    extra: Vec<f64>,
    perm: Vec<f64>,
    seg_sqn: Vec<f64>,

    // Rows the triangle bound cannot cover (non-finite coordinates,
    // norms, or pivot distances; every row when `dim == 0`): always
    // verified linearly.
    over_ids: Vec<u32>,
    over_rows: Vec<f64>,
    over_sqn: Vec<f64>,

    // Measured usefulness of the extra-pivot checks (performance hint
    // only; see [`GateHint`]).
    extra_hint: GateHint,
}

impl PivotIndex {
    /// Builds with [`auto_pivots`] pivots.
    pub fn build(matrix: &FeatureMatrix) -> Self {
        Self::with_pivots(matrix, auto_pivots(matrix.len(), matrix.dim()))
    }

    /// Builds with exactly `pivots` pivots (clamped to
    /// `1..=MAX_PIVOTS`; fewer when the row spread runs out).
    pub fn with_pivots(matrix: &FeatureMatrix, pivots: usize) -> Self {
        BUILDS.fetch_add(1, Ordering::Relaxed);
        let n = matrix.len();
        let dim = matrix.dim();
        assert!(u32::try_from(n).is_ok(), "row count exceeds u32 ids");
        let target = pivots.clamp(1, MAX_PIVOTS);

        let mut index = PivotIndex {
            dim,
            pivot_rows: Vec::new(),
            n_pivots: 0,
            slack: 1e-9,
            order: Vec::new(),
            keys: Vec::new(),
            extra: Vec::new(),
            perm: Vec::new(),
            seg_sqn: Vec::new(),
            extra_hint: GateHint(AtomicU8::new(HINT_SAMPLING)),
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

        // Pivot 0 mirrors the pre-index sweep: the row farthest from
        // the first (finite) row, first maximum winning. Extra pivots
        // by farthest-point traversal — maximize the minimum distance
        // to the pivots already chosen — stopping early once the
        // spread hits zero (all remaining rows coincide with a pivot).
        let mut pivot_ids: Vec<usize> = Vec::new();
        if let Some(base) = (0..n).find(|&i| finite[i]) {
            let base_d: Vec<f64> = (0..n).map(|j| matrix.sq_dist_rows(base, j)).collect();
            let mut p0 = base;
            let mut far = f64::NEG_INFINITY;
            for (j, &d) in base_d.iter().enumerate() {
                if finite[j] && d.is_finite() && d > far {
                    far = d;
                    p0 = j;
                }
            }
            pivot_ids.push(p0);
            let mut min_d: Vec<f64> = vec![f64::INFINITY; n];
            while pivot_ids.len() < target {
                let p = *pivot_ids.last().expect("at least one pivot");
                let pd: Vec<f64> = (0..n).map(|j| matrix.sq_dist_rows(p, j).sqrt()).collect();
                let mut next = None;
                let mut spread = 0.0f64;
                for j in 0..n {
                    if !finite[j] {
                        continue;
                    }
                    if pd[j] < min_d[j] {
                        min_d[j] = pd[j];
                    }
                    if min_d[j].is_finite() && min_d[j] > spread {
                        spread = min_d[j];
                        next = Some(j);
                    }
                }
                match next {
                    Some(j) if spread > 0.0 => pivot_ids.push(j),
                    _ => break,
                }
            }
        }
        index.n_pivots = pivot_ids.len();
        for &p in &pivot_ids {
            index.pivot_rows.extend_from_slice(matrix.row(p));
        }

        if pivot_ids.is_empty() {
            for i in 0..n {
                index.over_ids.push(i as u32);
                index.over_rows.extend_from_slice(matrix.row(i));
                index.over_sqn.push(matrix.sq_norm(i));
            }
            return index;
        }

        // Per-row pivot distances (dot trick over cached norms, like
        // the sweep this replaces). A finite row whose distance to any
        // pivot overflows still cannot be windowed soundly — overflow.
        let pivot_d: Vec<Vec<f64>> = pivot_ids
            .iter()
            .map(|&p| (0..n).map(|j| matrix.sq_dist_rows(p, j).sqrt()).collect())
            .collect();
        let indexable: Vec<bool> = (0..n)
            .map(|j| finite[j] && pivot_d.iter().all(|pd| pd[j].is_finite()))
            .collect();

        let mut order: Vec<u32> = (0..n as u32).filter(|&j| indexable[j as usize]).collect();
        order.sort_unstable_by(|&a, &b| {
            pivot_d[0][a as usize]
                .total_cmp(&pivot_d[0][b as usize])
                .then(a.cmp(&b))
        });
        let seg = order.len();
        index.keys = order.iter().map(|&j| pivot_d[0][j as usize]).collect();
        index.extra = Vec::with_capacity(seg * (index.n_pivots - 1));
        for pd in pivot_d.iter().skip(1) {
            index.extra.extend(order.iter().map(|&j| pd[j as usize]));
        }
        index.perm = Vec::with_capacity(seg * dim);
        for &j in &order {
            index.perm.extend_from_slice(matrix.row(j as usize));
        }
        index.seg_sqn = order.iter().map(|&j| matrix.sq_norm(j as usize)).collect();
        index.order = order;
        index.slack = 1e-9 + 1e-12 * index.keys.last().copied().unwrap_or(0.0);

        for (j, _) in indexable.iter().enumerate().filter(|&(_, &ok)| !ok) {
            index.over_ids.push(j as u32);
            index.over_rows.extend_from_slice(matrix.row(j));
            index.over_sqn.push(matrix.sq_norm(j));
        }
        index
    }

    /// Pivots actually in use (may fall short of the requested count on
    /// degenerate inputs).
    pub fn n_pivots(&self) -> usize {
        self.n_pivots
    }

    fn pivot_row(&self, p: usize) -> &[f64] {
        &self.pivot_rows[p * self.dim..(p + 1) * self.dim]
    }

    fn seg_row(&self, pos: usize) -> &[f64] {
        &self.perm[pos * self.dim..(pos + 1) * self.dim]
    }

    fn over_row(&self, oi: usize) -> &[f64] {
        &self.over_rows[oi * self.dim..(oi + 1) * self.dim]
    }

    /// Extra-pivot distance of sorted position `pos` to pivot `p ≥ 1`.
    fn extra_d(&self, p: usize, pos: usize) -> f64 {
        self.extra[(p - 1) * self.order.len() + pos]
    }

    /// Query-side pivot distances (subtraction form, the established
    /// query-side convention of the coverage sweep).
    fn query_pivot_dists(&self, query: &[f64]) -> [f64; MAX_PIVOTS] {
        let mut qd = [0.0f64; MAX_PIVOTS];
        for (p, d) in qd.iter_mut().enumerate().take(self.n_pivots) {
            *d = sq_euclidean_distance(self.pivot_row(p), query).sqrt();
        }
        qd
    }

    /// True when any extra pivot proves sorted position `pos` is
    /// farther than `pad` from the query (NaN comparisons are false, so
    /// uncertain rows survive to verification).
    fn seg_pruned(&self, qd: &[f64; MAX_PIVOTS], pos: usize, pad: f64) -> bool {
        (1..self.n_pivots).any(|p| (qd[p] - self.extra_d(p, pos)).abs() > pad)
    }

    /// The radius-query core: verified hits pushed as original ids
    /// (unsorted). Returns the number of rows fully evaluated.
    fn within_core(&self, query: &[f64], eps: f64, strict: bool, out: &mut Vec<u32>) -> usize {
        let t_sq = eps * eps;
        if self.dim == 0 {
            // All rows are empty vectors at distance 0.
            if (strict && 0.0 < t_sq) || (!strict && 0.0 <= t_sq) {
                out.extend(0..self.len() as u32);
            }
            return self.len();
        }
        let qd = &self.query_pivot_dists(query);
        let mut verified = 0usize;
        let pad = eps + self.slack;
        let lo = self.keys.partition_point(|&v| v < qd[0] - pad);
        let hi = self.keys.partition_point(|&v| v <= qd[0] + pad);
        // Verify maximal runs of surviving candidates with one streaming
        // kernel call per run (the rows are contiguous in gathered
        // order): on low-contrast data the window barely prunes and the
        // run is the whole window, so per-row call overhead never
        // dominates the arithmetic. Verdicts per row are unchanged —
        // the kernel evaluates each row independently. Extra-pivot
        // checks run through the adaptive gate (off when measured
        // useless; the pivot-0 window above always applies).
        let mut gate = ExtraGate::new(self);
        let mut pos = lo;
        while pos < hi {
            if gate.rejects(|| self.seg_pruned(qd, pos, pad)) {
                pos += 1;
                continue;
            }
            let mut end = pos + 1;
            while end < hi && !gate.rejects(|| self.seg_pruned(qd, end, pad)) {
                end += 1;
            }
            verified += end - pos;
            let run = &self.perm[pos * self.dim..end * self.dim];
            if strict {
                scan_rows_within::<true>(self.dim, query, run, t_sq, |k| {
                    out.push(self.order[pos + k]);
                });
            } else {
                scan_rows_within::<false>(self.dim, query, run, t_sq, |k| {
                    out.push(self.order[pos + k]);
                });
            }
            pos = end;
        }
        for (oi, &id) in self.over_ids.iter().enumerate() {
            verified += 1;
            if row_within(self.dim, query, self.over_row(oi), t_sq, strict) {
                out.push(id);
            }
        }
        verified
    }
}

/// One row's radius verdict via the reference kernel ([`scan_rows_within`]
/// dispatches per dimension, so this is bit-identical to the full scan).
fn row_within(dim: usize, query: &[f64], row: &[f64], t_sq: f64, strict: bool) -> bool {
    let mut hit = false;
    if strict {
        scan_rows_within::<true>(dim, query, row, t_sq, |_| hit = true);
    } else {
        scan_rows_within::<false>(dim, query, row, t_sq, |_| hit = true);
    }
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

    /// Ids within `eps` of `query` (`< eps` when `strict`, else `≤ eps`),
    /// ascending — the verdict per row is exactly [`scan_rows_within`]'s
    /// with threshold `eps²`.
    pub fn within_into(&self, query: &[f64], eps: f64, strict: bool, out: &mut Vec<u32>) {
        out.clear();
        if self.dim > 0 {
            assert_eq!(query.len(), self.dim, "query dimension mismatch");
        }
        let verified = self.within_core(query, eps, strict, out);
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
            let qd = self.query_pivot_dists(query);
            // A query with non-finite pivot distances (NaN/inf
            // coordinates) has no usable bound in either direction:
            // evaluate the whole segment exactly instead of expanding
            // windows around a garbage key.
            if !qd[..self.n_pivots].iter().all(|v| v.is_finite()) {
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
            let split = self.keys.partition_point(|&v| v < qd[0]);
            let (mut l, mut r) = (split, split);
            let mut t = tau(out);
            // Expand outward from the query's key position; a side
            // stops once its window gap alone proves every remaining
            // row on it is beyond the kth-best distance.
            loop {
                let lg = if l > 0 {
                    qd[0] - self.keys[l - 1]
                } else {
                    f64::INFINITY
                };
                let rg = if r < seg {
                    self.keys[r] - qd[0]
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
                if self.seg_pruned(&qd, pos, t) {
                    continue;
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

    /// One symmetric sweep over all pairs within `eps` (inclusive),
    /// adding 1 to `degrees[a]`/`degrees[b]` per close pair and recording
    /// verdicts for [`PivotIndex::replay_close_pairs`]. `degrees.len()`
    /// must equal [`PivotIndex::len`].
    pub fn close_pairs(&self, eps: f64, degrees: &mut [u32]) -> PairSweep {
        assert_eq!(degrees.len(), self.len(), "degree buffer mismatch");
        let mut sweep = PairSweep { eps, bits: Vec::new(), n_bits: 0, pairs: 0 };
        let verified = self.sweep_record(eps, &mut sweep, &mut |a, b| {
            degrees[a as usize] += 1;
            degrees[b as usize] += 1;
        });
        let n = self.len() as u64;
        let potential = n * n.saturating_sub(1) / 2;
        QUERIES.fetch_add(1, Ordering::Relaxed);
        CANDIDATES.fetch_add(potential, Ordering::Relaxed);
        PRUNED.fetch_add(potential.saturating_sub(verified as u64), Ordering::Relaxed);
        sweep
    }

    /// Re-emits every close pair `(a, b)`, `a < b`, of the recorded
    /// stream, without recomputing any distance. `sweep` must have been
    /// recorded by this index.
    pub fn replay_close_pairs(&self, sweep: &PairSweep, visit: &mut dyn FnMut(u32, u32)) {
        let cursor = self.sweep_replay(sweep, visit);
        assert_eq!(
            cursor, sweep.n_bits,
            "sweep was recorded by a different index"
        );
    }

    /// Records one symmetric sweep into `sweep`: per left-hand row, one
    /// bit window per candidate section (see
    /// [`PivotIndex::sweep_replay`] for the exact layout), hits
    /// verified by the reference kernel in one streaming call per
    /// maximal run of surviving candidates. Pruning — window bounds
    /// aside — only decides *which* candidates are verified, never
    /// which bits exist, so the adaptive [`ExtraGate`] can switch the
    /// extra-pivot checks off mid-sweep without affecting the stream.
    /// Calls `on_hit(min_id, max_id)` per close pair; returns the
    /// number of rows fully verified.
    fn sweep_record<F: FnMut(u32, u32)>(
        &self,
        eps: f64,
        sweep: &mut PairSweep,
        on_hit: &mut F,
    ) -> usize {
        let t_sq = eps * eps;
        let mut verified = 0usize;
        if self.dim == 0 {
            // Every pair of empty rows sits at distance 0.
            let n = self.len();
            let hit0 = 0.0 <= t_sq;
            for a in 0..n {
                let base = sweep.open_window(n - a - 1);
                for b in a + 1..n {
                    verified += 1;
                    if hit0 {
                        sweep.set_hit(base + (b - a - 1));
                        on_hit(a as u32, b as u32);
                    }
                }
            }
            return verified;
        }
        let pad = eps + self.slack;
        let seg = self.order.len();
        let mut gate = ExtraGate::new(self);

        // Segment × segment: ascending key order, window bounded above
        // (symmetry covers the lower half). Surviving candidates verify
        // in maximal runs — one streaming kernel call per run over the
        // gathered contiguous rows — so when pruning barely fires the
        // sweep keeps the full streaming arithmetic of a plain window
        // scan.
        for a_pos in 0..seg {
            let a_id = self.order[a_pos];
            let hi = self.keys[a_pos + 1..].partition_point(|&v| v <= self.keys[a_pos] + pad)
                + a_pos
                + 1;
            let base = sweep.open_window(hi - a_pos - 1);
            let a_row = self.seg_row(a_pos);
            let pruned = |pos: usize| {
                (1..self.n_pivots)
                    .any(|p| (self.extra_d(p, a_pos) - self.extra_d(p, pos)).abs() > pad)
            };
            let mut pos = a_pos + 1;
            while pos < hi {
                if gate.rejects(|| pruned(pos)) {
                    pos += 1;
                    continue;
                }
                let mut end = pos + 1;
                while end < hi && !gate.rejects(|| pruned(end)) {
                    end += 1;
                }
                verified += end - pos;
                let run = &self.perm[pos * self.dim..end * self.dim];
                scan_rows_within::<false>(self.dim, a_row, run, t_sq, |k| {
                    let b_id = self.order[pos + k];
                    sweep.set_hit(base + (pos + k - a_pos - 1));
                    on_hit(a_id.min(b_id), a_id.max(b_id));
                });
                pos = end;
            }
        }

        // Overflow × everything: no bound available, verify linearly;
        // one window per section keeps the replay offset maps O(1).
        for (oi, &o_id) in self.over_ids.iter().enumerate() {
            let o_row = self.over_row(oi);
            let base = sweep.open_window(seg);
            for (pos, &s_id) in self.order.iter().enumerate() {
                verified += 1;
                if row_within(self.dim, o_row, self.seg_row(pos), t_sq, false) {
                    sweep.set_hit(base + pos);
                    on_hit(s_id.min(o_id), s_id.max(o_id));
                }
            }
            let base = sweep.open_window(oi);
            for oj in 0..oi {
                let u_id = self.over_ids[oj];
                verified += 1;
                if row_within(self.dim, o_row, self.over_row(oj), t_sq, false) {
                    sweep.set_hit(base + oj);
                    on_hit(u_id.min(o_id), u_id.max(o_id));
                }
            }
        }
        verified
    }

    /// Re-derives [`PivotIndex::sweep_record`]'s window layout — per
    /// left-hand row: its key window (segment rows), then for overflow
    /// rows one bit per segment position and per earlier overflow (for
    /// `dim == 0`, one bit per later row) — and emits the recorded set
    /// bits through `visit`. No distance or pruning work. Returns the
    /// total bits walked, which the caller checks against the recording.
    fn sweep_replay(&self, sweep: &PairSweep, visit: &mut dyn FnMut(u32, u32)) -> usize {
        let mut cursor = 0usize;
        if self.dim == 0 {
            let n = self.len();
            for a in 0..n {
                let len = n - a - 1;
                sweep.visit_hits(cursor, len, &mut |off| {
                    visit(a as u32, (a + 1 + off) as u32);
                });
                cursor += len;
            }
            return cursor;
        }
        let pad = sweep.eps + self.slack;
        let seg = self.order.len();
        for a_pos in 0..seg {
            let a_id = self.order[a_pos];
            let hi = self.keys[a_pos + 1..].partition_point(|&v| v <= self.keys[a_pos] + pad)
                + a_pos
                + 1;
            let len = hi - a_pos - 1;
            sweep.visit_hits(cursor, len, &mut |off| {
                let b_id = self.order[a_pos + 1 + off];
                visit(a_id.min(b_id), a_id.max(b_id));
            });
            cursor += len;
        }
        for (oi, &o_id) in self.over_ids.iter().enumerate() {
            sweep.visit_hits(cursor, seg, &mut |off| {
                let s_id = self.order[off];
                visit(s_id.min(o_id), s_id.max(o_id));
            });
            cursor += seg;
            sweep.visit_hits(cursor, oi, &mut |off| {
                let u_id = self.over_ids[off];
                visit(u_id.min(o_id), u_id.max(o_id));
            });
            cursor += oi;
        }
        cursor
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

    /// Deterministic scattered fixture.
    fn scattered(n: usize, dim: usize, seed: u64) -> FeatureMatrix {
        let mut rng = er_core::Rng::from_seed(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.f64() * 4.0 - 2.0).collect())
            .collect();
        FeatureMatrix::from_rows(rows)
    }

    fn brute_within(m: &FeatureMatrix, query: &[f64], eps: f64, strict: bool) -> Vec<u32> {
        let mut out = Vec::new();
        if strict {
            scan_rows_within::<true>(m.dim(), query, m.flat(), eps * eps, |i| out.push(i as u32));
        } else {
            scan_rows_within::<false>(m.dim(), query, m.flat(), eps * eps, |i| out.push(i as u32));
        }
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
            for strict in [false, true] {
                index.within_into(m.row(i), eps, strict, &mut got);
                assert_eq!(got, brute_within(m, m.row(i), eps, strict), "query {i}");
            }
            let mut near = Vec::new();
            index.nearest_into(m.row(i), 3, &mut near);
            assert_eq!(near, brute_nearest(m, m.row(i), 3), "nearest {i}");
        }
    }

    #[test]
    fn multi_pivot_matches_brute_force() {
        for dim in [1, 2, 3, 7, 8, 16] {
            let m = scattered(90, dim, 7 + dim as u64);
            let index = PivotIndex::with_pivots(&m, 4);
            check_all_queries(&m, &index, 0.9);
        }
    }

    #[test]
    fn single_pivot_reference_matches_brute_force() {
        let m = scattered(70, 5, 3);
        let index = PivotIndex::with_pivots(&m, 1);
        check_all_queries(&m, &index, 1.1);
    }

    #[test]
    fn close_pairs_and_replay_match_brute_force() {
        let m = scattered(80, 4, 11);
        let eps = 1.2;
        let index = PivotIndex::with_pivots(&m, 4);
        let mut degrees = vec![0u32; m.len()];
        let sweep = index.close_pairs(eps, &mut degrees);
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        index.replay_close_pairs(&sweep, &mut |a, b| pairs.push((a, b)));
        pairs.sort_unstable();
        let mut expect: Vec<(u32, u32)> = Vec::new();
        let mut expect_deg = vec![0u32; m.len()];
        for a in 0..m.len() {
            for b in a + 1..m.len() {
                if row_within(m.dim(), m.row(a), m.row(b), eps * eps, false) {
                    expect.push((a as u32, b as u32));
                    expect_deg[a] += 1;
                    expect_deg[b] += 1;
                }
            }
        }
        assert_eq!(pairs, expect);
        assert_eq!(degrees, expect_deg);
        assert_eq!(sweep.close_pair_count(), expect.len());
    }

    #[test]
    fn empty_matrix_builds_and_answers() {
        let m = FeatureMatrix::from_rows(vec![]);
        let index = PivotIndex::build(&m);
        assert_eq!(index.len(), m.len());
        assert!(index.is_empty());
        let mut out = Vec::new();
        index.within_into(&[], 1.0, false, &mut out);
        assert!(out.is_empty());
        let mut near = Vec::new();
        index.nearest_into(&[], 2, &mut near);
        assert!(near.is_empty());
        let sweep = index.close_pairs(1.0, &mut []);
        assert_eq!(sweep.close_pair_count(), 0);
    }

    #[test]
    fn single_row_and_identical_rows() {
        let single = FeatureMatrix::from_rows(vec![vec![1.0, 2.0]]);
        let index = PivotIndex::with_pivots(&single, 4);
        assert_eq!(index.len(), single.len());
        let mut out = Vec::new();
        index.within_into(&[1.0, 2.0], 0.5, false, &mut out);
        assert_eq!(out, vec![0]);
        index.within_into(&[1.0, 2.0], 0.0, true, &mut out);
        assert!(
            out.is_empty(),
            "strict zero radius must exclude the exact match"
        );

        // All-identical rows: zero pivot spread must terminate pivot
        // selection, and every pair is a close pair.
        let same = FeatureMatrix::from_rows(vec![vec![3.0, -1.0]; 9]);
        let index = PivotIndex::with_pivots(&same, 4);
        assert_eq!(index.len(), same.len());
        assert_eq!(
            index.n_pivots(),
            1,
            "zero spread cannot support extra pivots"
        );
        check_all_queries(&same, &index, 0.25);
        let mut degrees = vec![0u32; 9];
        let sweep = index.close_pairs(0.1, &mut degrees);
        assert_eq!(sweep.close_pair_count(), 9 * 8 / 2);
        assert!(degrees.iter().all(|&d| d == 8));
    }

    #[test]
    fn zero_dimensional_rows() {
        let m = FeatureMatrix::from_rows(vec![vec![]; 5]);
        let index = PivotIndex::build(&m);
        assert_eq!(index.len(), m.len());
        let mut out = Vec::new();
        index.within_into(&[], 0.5, false, &mut out);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        index.within_into(&[], 0.0, true, &mut out);
        assert!(out.is_empty());
        let mut near = Vec::new();
        index.nearest_into(&[], 3, &mut near);
        assert_eq!(near, vec![(0.0, 0), (0.0, 1), (0.0, 2)]);
        let mut degrees = vec![0u32; 5];
        let sweep = index.close_pairs(0.0, &mut degrees);
        assert_eq!(sweep.close_pair_count(), 10, "d = 0 ≤ eps = 0 everywhere");
    }

    #[test]
    fn non_finite_rows_degrade_but_stay_exact() {
        let mut rows = scattered(40, 3, 21).to_rows();
        rows[7] = vec![f64::NAN, 0.0, 0.0];
        rows[13] = vec![f64::INFINITY, 1.0, -1.0];
        rows[29] = vec![0.0, f64::NEG_INFINITY, f64::NAN];
        let m = FeatureMatrix::from_rows(rows.clone());
        let index = PivotIndex::with_pivots(&m, 4);
        assert_eq!(index.len(), m.len());
        check_all_queries(&m, &index, 1.3);
        // Non-finite queries: no hits (NaN/inf never satisfies ≤ eps²),
        // nearest degrades to the brute ranking.
        let mut out = Vec::new();
        index.within_into(&rows[7], 2.0, false, &mut out);
        assert_eq!(out, brute_within(&m, &rows[7], 2.0, false));
        assert!(out.is_empty());
        let mut near = Vec::new();
        index.nearest_into(&rows[13], 4, &mut near);
        assert_eq!(near, brute_nearest(&m, &rows[13], 4));
    }

    #[test]
    fn huge_magnitudes_overflow_to_linear_verification() {
        // Coordinates whose squared norms overflow the dot trick: the
        // window key would be garbage, so these rows must bypass it.
        let mut rows = scattered(30, 2, 17).to_rows();
        rows[4] = vec![1e200, 1e200];
        rows[9] = vec![-1e200, 1e200];
        let m = FeatureMatrix::from_rows(rows);
        let index = PivotIndex::with_pivots(&m, 3);
        check_all_queries(&m, &index, 0.7);
    }

    #[test]
    fn stats_count_builds_and_pruning() {
        let before = stats();
        let m = scattered(300, 8, 77);
        let index = PivotIndex::build(&m);
        let mut out = Vec::new();
        for i in 0..50 {
            index.within_into(m.row(i), 0.4, false, &mut out);
        }
        // Counters are process-global and other tests run concurrently,
        // so only lower bounds are stable.
        let delta = stats().delta_since(&before);
        assert!(delta.builds >= 1);
        assert!(delta.queries >= 50);
        assert!(delta.candidates >= 50 * 300);
        assert!(
            delta.pruned > 0,
            "a 0.4 radius over scattered data must prune"
        );
        assert!(delta.pruned_fraction() > 0.0 && delta.pruned_fraction() <= 1.0);
    }

    #[test]
    fn nearest_ties_resolve_by_id_like_brute_force() {
        // Duplicate rows force (value, id) ties.
        let mut rows = vec![vec![0.5, 0.5]; 6];
        rows.extend(scattered(20, 2, 31).to_rows());
        let m = FeatureMatrix::from_rows(rows);
        let index = PivotIndex::with_pivots(&m, 2);
        let mut near = Vec::new();
        index.nearest_into(&[0.5, 0.5], 4, &mut near);
        assert_eq!(near, brute_nearest(&m, &[0.5, 0.5], 4));
        assert_eq!(
            near.iter().map(|&(_, i)| i).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }
}
