//! Property tests pinning the metric index to brute force, to **zero
//! tolerance**: region queries, threshold scans, nearest-neighbour heads,
//! and pair sweeps must return exactly the id sets (and, for top-k, the
//! bit-identical `(value, id)` heads) that the reference kernels produce —
//! on random matrices and on the adversarial shapes the planner actually
//! sees (duplicate rows, zero-variance dimensions, near-collinear points,
//! eps sitting exactly on a pairwise distance).

use embed::index::{stats, IndexStats};
use embed::matrix::{pairs_within, pairs_within_sweep, scan_rows_within};
use embed::{FeatureMatrix, PivotIndex};
use er_core::Rng;
use proptest::prelude::*;
use proptest::TestRng;
use std::ops::Range;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The index counters are process-wide: the case that reads their exact
/// delta holds [`alone`], every other index case holds [`shared`].
static COUNTERS: RwLock<()> = RwLock::new(());

fn shared() -> RwLockReadGuard<'static, ()> {
    COUNTERS.read().unwrap_or_else(PoisonError::into_inner)
}

fn alone() -> RwLockWriteGuard<'static, ()> {
    COUNTERS.write().unwrap_or_else(PoisonError::into_inner)
}

/// A row width and a flat value stream for it. Four cases in six take
/// a fixed-dim kernel's width, `1..=max_small`, over `values` uniform
/// values; the rest take width 16 or 64 (the generic and AVX kernels'
/// widths, the planner's semantic rows) as 2 to 40 rows jittered by ±0.5
/// around three centres, so ε balls hold neighbours where uniform wide
/// rows would all sit far apart.
struct MatrixCase {
    max_small: usize,
    values: Range<usize>,
}

impl Strategy for MatrixCase {
    type Value = (usize, Vec<f64>);

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let pick = rng.below(6) as usize;
        if pick < 4 {
            let dim = 1 + rng.below(self.max_small as u64) as usize;
            let flat = prop::collection::vec(-4.0f64..4.0, self.values.clone()).generate(rng);
            return (dim, flat);
        }
        let dim = [16, 64][pick - 4];
        let centres = prop::collection::vec(-4.0f64..4.0, 3 * dim).generate(rng);
        let rows = 2 + rng.below(39) as usize;
        let flat = (0..rows * dim)
            .map(|i| centres[(i / dim % 3) * dim + i % dim] + (-0.5f64..0.5).generate(rng))
            .collect();
        (dim, flat)
    }
}

/// `eps` widened by √(dim / max_small) for rows wider than `max_small`:
/// a wide case's within-centre distances grow as √dim (≈ 3.3 at 64), and
/// the widened range keeps straddling them, from no hit to whole centres.
fn widened(eps: f64, dim: usize, max_small: usize) -> f64 {
    eps * (dim as f64 / max_small as f64).sqrt().max(1.0)
}

/// Chunks a flat value stream into `dim`-wide rows (dropping the ragged
/// tail), so row count and dimension both vary per case.
fn into_rows(flat: &[f64], dim: usize) -> Vec<Vec<f64>> {
    flat.chunks_exact(dim).map(<[f64]>::to_vec).collect()
}

/// Reference region query: the strict scan kernel with threshold `eps²`.
/// This is the exact arithmetic the index contracts to reproduce.
fn brute_within(m: &FeatureMatrix, query: &[f64], eps: f64) -> Vec<u32> {
    let mut out = Vec::new();
    scan_rows_within::<true>(m.dim(), query, m.flat(), eps * eps, |k| out.push(k as u32));
    out
}

/// Reference close pairs: every `(a, b)`, `a < b`, the inclusive scan
/// kernel puts within `eps` — one scan per row over the whole matrix.
fn brute_close_pairs(m: &FeatureMatrix, eps: f64) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for a in 0..m.len() {
        scan_rows_within::<false>(m.dim(), m.row(a), m.flat(), eps * eps, |b| {
            if b > a {
                out.push((a as u32, b as u32));
            }
        });
    }
    out
}

/// `index.for_close_pairs(eps)`'s pairs, sorted, and the counter delta
/// the sweep booked.
fn swept_pairs(index: &PivotIndex, eps: f64) -> (Vec<(u32, u32)>, IndexStats) {
    let before = stats();
    let mut pairs = Vec::new();
    index.for_close_pairs(eps, |a, b| pairs.push((a, b)));
    let delta = stats().delta_since(&before);
    pairs.sort_unstable();
    (pairs, delta)
}

/// Reference top-k: full `sq_dists_to_all` + `(total_cmp, id)` sort head.
fn brute_nearest(m: &FeatureMatrix, query: &[f64], k: usize) -> Vec<(f64, u32)> {
    let mut sq = vec![0.0; m.len()];
    m.sq_dists_to_all(query, &mut sq);
    let mut pairs: Vec<(f64, u32)> = (0..m.len()).map(|j| (sq[j], j as u32)).collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    pairs.truncate(k);
    pairs
}

/// Asserts full parity (`within_into`, `nearest_into` at several k)
/// between `index` and brute force over the matrix of all stored rows.
fn assert_query_parity(
    index: &PivotIndex,
    all: &FeatureMatrix,
    query: &[f64],
    eps: f64,
) -> Result<(), String> {
    let mut got = Vec::new();
    index.within_into(query, eps, &mut got);
    prop_assert_eq!(&got, &brute_within(all, query, eps), "within eps={}", eps);
    let mut knn = Vec::new();
    for k in [0usize, 1, 3, all.len() + 2] {
        index.nearest_into(query, k, &mut knn);
        let want = brute_nearest(all, query, k);
        prop_assert_eq!(&knn, &want, "nearest k={}", k);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Region queries and top-k heads match brute force exactly on random
    /// matrices, across the small fixed-dim kernels, the generic >8-dim
    /// kernel and the 64-dim AVX kernel.
    #[test]
    fn random_matrices_match_brute(
        case in MatrixCase { max_small: 12, values: 12..640 },
        eps in 0.05f64..3.0,
    ) {
        let _counters = shared();
        let (dim, flat) = case;
        let rows = into_rows(&flat, dim);
        if rows.len() < 2 {
            return Ok(()); // not enough rows at this dim; skip the case
        }
        let eps = widened(eps, dim, 12);
        let m = FeatureMatrix::from_rows(rows.clone());
        let query = rows[rows.len() / 2].clone();
        let off_query: Vec<f64> = query.iter().map(|v| v + 0.37).collect();
        let index = PivotIndex::build(&m);
        assert_query_parity(&index, &m, &query, eps)?;
        assert_query_parity(&index, &m, &off_query, eps)?;
    }

    /// eps placed exactly on a realized pairwise distance: the boundary
    /// row's verdict in the strict region query and in the inclusive pair
    /// sweep must be exactly the reference kernel's, with no tolerance
    /// band.
    #[test]
    fn boundary_eps_is_exact(
        flat in prop::collection::vec(-4.0f64..4.0, 12..320),
        dim in 1usize..9,
        pick in any::<u32>(),
    ) {
        let _counters = shared();
        let rows = into_rows(&flat, dim);
        if rows.len() < 2 {
            return Ok(());
        }
        let m = FeatureMatrix::from_rows(rows.clone());
        let q = pick as usize % rows.len();
        let other = (q + 1 + (pick as usize / rows.len()) % (rows.len() - 1)) % rows.len();
        // eps exactly at the distance from rows[q] to rows[other].
        let eps = embed::sq_euclidean_distance(&rows[q], &rows[other]).sqrt();
        let index = PivotIndex::build(&m);
        let mut ids = Vec::new();
        index.within_into(&rows[q], eps, &mut ids);
        prop_assert_eq!(&ids, &brute_within(&m, &rows[q], eps));
        prop_assert_eq!(swept_pairs(&index, eps).0, brute_close_pairs(&m, eps));
    }

    /// Duplicate rows and zero-variance (constant) dimensions: ids of
    /// clones all appear or all vanish together, and parity holds.
    #[test]
    fn duplicates_and_constant_dims_match_brute(
        flat in prop::collection::vec(-4.0f64..4.0, 8..240),
        dim in 1usize..7,
        eps in 0.05f64..3.0,
    ) {
        let _counters = shared();
        let base = into_rows(&flat, dim);
        if base.is_empty() {
            return Ok(());
        }
        // Each base row twice, with two constant dimensions appended.
        let mut rows = Vec::with_capacity(base.len() * 2);
        for r in &base {
            let mut ext = r.clone();
            ext.push(2.5);
            ext.push(-1.0);
            rows.push(ext.clone());
            rows.push(ext);
        }
        let m = FeatureMatrix::from_rows(rows.clone());
        let query = rows[0].clone();
        let index = PivotIndex::build(&m);
        assert_query_parity(&index, &m, &query, eps)?;
        let mut hits = Vec::new();
        index.within_into(&query, eps, &mut hits);
        // Clones share identical coordinates, so membership is pairwise.
        for pair in 0..base.len() {
            let (a, b) = (2 * pair as u32, 2 * pair as u32 + 1);
            prop_assert_eq!(hits.contains(&a), hits.contains(&b));
        }
    }

    /// Near-collinear points (a line plus ~1e-9 jitter) stress the pivot
    /// window: keys become nearly monotone and window bounds sit on
    /// top of each other. Parity must survive regardless.
    #[test]
    fn near_collinear_points_match_brute(
        origin in prop::collection::vec(-2.0f64..2.0, 5),
        dir in prop::collection::vec(-1.0f64..1.0, 5),
        ts in prop::collection::vec(-3.0f64..3.0, 4..40),
        noise in prop::collection::vec(-1e-9f64..1e-9, 200),
        eps in 0.05f64..2.0,
    ) {
        let _counters = shared();
        let dim = origin.len();
        let rows: Vec<Vec<f64>> = ts
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                (0..dim)
                    .map(|d| origin[d] + t * dir[d] + noise[(i * dim + d) % noise.len()])
                    .collect()
            })
            .collect();
        let m = FeatureMatrix::from_rows(rows.clone());
        let query = rows[rows.len() / 2].clone();
        let index = PivotIndex::build(&m);
        assert_query_parity(&index, &m, &query, eps)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `for_close_pairs` reports exactly the O(n²) reference's pairs,
    /// once each as `a < b`, and books one query of `n(n − 1)/2`
    /// candidates, pruning none of the close pairs.
    #[test]
    fn close_pairs_match_pairwise_brute(
        case in MatrixCase { max_small: 6, values: 16..320 },
        eps in 0.2f64..2.5,
    ) {
        let (dim, flat) = case;
        let rows = into_rows(&flat, dim);
        if rows.len() < 3 {
            return Ok(());
        }
        let eps = widened(eps, dim, 6);
        let m = FeatureMatrix::from_rows(rows);
        let index = PivotIndex::build(&m);
        let want = brute_close_pairs(&m, eps);
        let _counters = alone();
        let (pairs, delta) = swept_pairs(&index, eps);
        prop_assert_eq!(&pairs, &want);
        let n = m.len() as u64;
        let candidates = n * (n - 1) / 2;
        prop_assert_eq!((delta.builds, delta.queries, delta.candidates), (0, 1, candidates));
        prop_assert!(delta.pruned <= candidates - want.len() as u64, "a close pair was pruned");
    }
}

/// `n` rows for the coverage parity cases, each one of `centres`' rows
/// (`dim` wide, three of them) jittered by up to `jitter` per value, with
/// NaN, ±∞, ±0, subnormals and ±1e300 (whose squares overflow) mixed in
/// at `hostile_per_16` values in 16. A small jitter makes near-duplicate
/// pairs, whose distance is a small difference of large norms: the
/// cancellation the tile's rounding bound has to cover.
fn hostile_rows(
    n: usize,
    centres: &[f64],
    jitter: f64,
    hostile_per_16: usize,
    rng: &mut Rng,
) -> FeatureMatrix {
    const HOSTILE: [f64; 9] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        5e-324,
        -2.5e-310,
        1e300,
        -1e300,
    ];
    let dim = centres.len() / 3;
    let mut flat = Vec::with_capacity(n * dim);
    for _ in 0..n {
        let centre = &centres[rng.range(0..3) * dim..][..dim];
        flat.extend(centre.iter().map(|&c| {
            if rng.range(0..16) < hostile_per_16 {
                HOSTILE[rng.range(0..HOSTILE.len())]
            } else {
                c + jitter * (rng.f64() * 2.0 - 1.0)
            }
        }));
    }
    FeatureMatrix::from_flat(flat, n, dim)
}

/// Every question's hits as the lane kernel decides them: one
/// [`scan_rows_within`] per question over the whole pool, so each list is
/// in pool order.
fn brute_pairs(questions: &FeatureMatrix, pool: &FeatureMatrix, t_sq: f64) -> Vec<Vec<usize>> {
    questions
        .rows()
        .map(|q| {
            let mut hits = Vec::new();
            scan_rows_within::<true>(pool.dim(), q, pool.flat(), t_sq, |d| hits.push(d));
            hits
        })
        .collect()
}

/// `route`'s hits per question, in the order it reported them, and what
/// it returned.
fn routed_pairs<R>(
    questions: &FeatureMatrix,
    pool: &FeatureMatrix,
    t_sq: f64,
    route: impl Fn(&FeatureMatrix, &FeatureMatrix, f64, &mut dyn FnMut(usize, usize)) -> R,
) -> (Vec<Vec<usize>>, R) {
    let mut hits = vec![Vec::new(); questions.len()];
    let returned = route(questions, pool, t_sq, &mut |q, d| hits[q].push(d));
    (hits, returned)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The covering route — the dot-product tile where the CPU has
    /// AVX-512F — and the lane sweep it falls back to, against one
    /// `scan_rows_within::<true>` per question, at zero tolerance: the
    /// same hits, each question's in pool order, at widths 16 to 257,
    /// question counts that leave a partial register and panel, pool
    /// counts that leave a partial tile, hostile values, and thresholds
    /// on a pair's own lane value and one step either side of it, where
    /// the tile cannot decide and must ask the lane kernel.
    #[test]
    fn covering_pairs_match_the_lane_kernel(
        seed in any::<u64>(),
        dim in 16usize..258,
        n_q in 1usize..75,
        n_pool in 1usize..23,
        hostile_per_16 in 0usize..3,
        jitter in 0usize..3,
    ) {
        let mut rng = Rng::from_seed(seed);
        let centres: Vec<f64> = (0..3 * dim).map(|_| rng.f64() * 2.0 - 1.0).collect();
        let jitter = [1.0, 1e-3, 1e-9][jitter];
        let questions = hostile_rows(n_q, &centres, jitter, hostile_per_16, &mut rng);
        let pool = hostile_rows(n_pool, &centres, jitter, hostile_per_16, &mut rng);
        let mut thresholds = vec![(0.0, false), (dim as f64 / 3.0, false), (f64::INFINITY, false), (f64::NAN, false)];
        for _ in 0..8 {
            let (q, d) = (rng.range(0..n_q), rng.range(0..n_pool));
            let on_pair = embed::sq_euclidean_distance(questions.row(q), pool.row(d));
            if on_pair.is_finite() {
                thresholds.extend([(on_pair, true), (on_pair.next_up(), false), (on_pair.next_down(), false)]);
            }
        }
        for (t_sq, on_pair) in thresholds {
            let want = brute_pairs(&questions, &pool, t_sq);
            let (tile, verified) = routed_pairs(&questions, &pool, t_sq, |a, b, t, f| pairs_within(a, b, t, f));
            prop_assert_eq!(&tile, &want, "tile, t_sq {}", t_sq);
            let (sweep, ()) = routed_pairs(&questions, &pool, t_sq, |a, b, t, f| pairs_within_sweep(a, b, t, f));
            prop_assert_eq!(&sweep, &want, "sweep, t_sq {}", t_sq);
            // A threshold on a pair's own lane value lies inside the tile's
            // band for that pair: the lane kernel decides it.
            if on_pair {
                prop_assert!(verified >= 1, "t_sq {} on a pair, {} verified", t_sq, verified);
            }
        }
    }
}

/// Rows of one width whose pairwise distances crowd a threshold: every
/// pool row is a question row nudged by ±1 ulp in a few coordinates, so
/// s̃ and the lane value (`sq_euclidean_distance`, the scan's own
/// kernel) sit within rounding of each other and of
/// `t_sq` set to one of them.
#[test]
fn crowded_thresholds_are_exact() {
    let mut rng = Rng::from_seed(43);
    for dim in [16, 17, 63, 64, 65, 257] {
        let n_q = 37;
        let centres: Vec<f64> = (0..3 * dim).map(|_| rng.f64() * 2.0 - 1.0).collect();
        let questions = hostile_rows(n_q, &centres, 1.0, 0, &mut rng);
        let base = questions.row(5).to_vec();
        let pool_rows: Vec<Vec<f64>> = (0..13)
            .map(|i| {
                let mut row = base.clone();
                row[i % dim] = row[i % dim].next_up();
                row[(3 * i + 1) % dim] = row[(3 * i + 1) % dim].next_down();
                row
            })
            .collect();
        let pool = FeatureMatrix::from_rows(pool_rows);
        for d in 0..pool.len() {
            let t_sq = embed::sq_euclidean_distance(questions.row(5), pool.row(d));
            for t_sq in [t_sq, t_sq.next_up(), t_sq.next_down()] {
                let want = brute_pairs(&questions, &pool, t_sq);
                let (got, _) = routed_pairs(&questions, &pool, t_sq, |a, b, t, f| {
                    pairs_within(a, b, t, f)
                });
                assert_eq!(got, want, "dim {dim} demo {d} t_sq {t_sq:e}");
            }
        }
    }
}
