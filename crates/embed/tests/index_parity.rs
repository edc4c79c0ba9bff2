//! Property tests pinning the metric index to brute force, to **zero
//! tolerance**: region queries, threshold scans, nearest-neighbour heads,
//! and pair sweeps must return exactly the id sets (and, for top-k, the
//! bit-identical `(value, id)` heads) that the reference kernels produce —
//! on random matrices and on the adversarial shapes the planner actually
//! sees (duplicate rows, zero-variance dimensions, near-collinear points,
//! eps sitting exactly on a pairwise distance).

use embed::matrix::scan_rows_within;
use embed::{FeatureMatrix, PivotIndex};
use proptest::prelude::*;

/// Chunks a flat value stream into `dim`-wide rows (dropping the ragged
/// tail), so row count and dimension both vary per case.
fn into_rows(flat: &[f64], dim: usize) -> Vec<Vec<f64>> {
    flat.chunks_exact(dim).map(<[f64]>::to_vec).collect()
}

/// Reference region query: the scan kernel with threshold `eps²`. This
/// is the exact arithmetic the index contracts to reproduce.
fn brute_within(m: &FeatureMatrix, query: &[f64], eps: f64, strict: bool) -> Vec<u32> {
    let mut out = Vec::new();
    if strict {
        scan_rows_within::<true>(m.dim(), query, m.flat(), eps * eps, |k| out.push(k as u32));
    } else {
        scan_rows_within::<false>(m.dim(), query, m.flat(), eps * eps, |k| out.push(k as u32));
    }
    out
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

/// Asserts full parity (both strictness flavours of `within_into`,
/// `nearest_into` at several k) between `index` and brute force over the
/// matrix of all stored rows.
fn assert_query_parity(
    index: &PivotIndex,
    all: &FeatureMatrix,
    query: &[f64],
    eps: f64,
) -> Result<(), String> {
    let mut got = Vec::new();
    for strict in [false, true] {
        index.within_into(query, eps, strict, &mut got);
        let want = brute_within(all, query, eps, strict);
        prop_assert_eq!(&got, &want, "within strict={} eps={}", strict, eps);
    }
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
    /// matrices, across every pivot count (1 = sweep reference, up to 8)
    /// and across small fixed-dim kernels and the generic >8-dim kernel.
    #[test]
    fn random_matrices_match_brute(
        flat in prop::collection::vec(-4.0f64..4.0, 12..640),
        dim in 1usize..13,
        eps in 0.05f64..3.0,
    ) {
        let rows = into_rows(&flat, dim);
        if rows.len() < 2 {
            return Ok(()); // not enough rows at this dim; skip the case
        }
        let m = FeatureMatrix::from_rows(rows.clone());
        let query = rows[rows.len() / 2].clone();
        let off_query: Vec<f64> = query.iter().map(|v| v + 0.37).collect();
        for pivots in [1usize, 2, 4, 8] {
            let index = PivotIndex::with_pivots(&m, pivots);
            assert_query_parity(&index, &m, &query, eps)?;
            assert_query_parity(&index, &m, &off_query, eps)?;
        }
    }

    /// `within_row_into` (stored pivot distances on the query side)
    /// equals `within_into` with the stored row as an external query,
    /// under the default pivot budget and the single-pivot reference.
    #[test]
    fn row_queries_equal_external_queries(
        flat in prop::collection::vec(-4.0f64..4.0, 12..400),
        dim in 1usize..9,
        eps in 0.05f64..3.0,
    ) {
        let rows = into_rows(&flat, dim);
        if rows.is_empty() {
            return Ok(());
        }
        let m = FeatureMatrix::from_rows(rows.clone());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for index in [PivotIndex::build(&m), PivotIndex::with_pivots(&m, 1)] {
            for id in 0..rows.len() as u32 {
                for strict in [false, true] {
                    index.within_row_into(id, eps, strict, &mut a);
                    index.within_into(&rows[id as usize], eps, strict, &mut b);
                    prop_assert_eq!(&a, &b, "row-query vs external query, id={}", id);
                    if !strict {
                        prop_assert!(a.contains(&id), "self missing from own ball");
                    }
                }
            }
        }
    }

    /// eps placed exactly on a realized pairwise distance: the boundary
    /// row's verdict must flip between strict and non-strict exactly as
    /// the reference kernel decides, with no tolerance band.
    #[test]
    fn boundary_eps_is_exact(
        flat in prop::collection::vec(-4.0f64..4.0, 12..320),
        dim in 1usize..9,
        pick in any::<u32>(),
    ) {
        let rows = into_rows(&flat, dim);
        if rows.len() < 2 {
            return Ok(());
        }
        let m = FeatureMatrix::from_rows(rows.clone());
        let q = pick as usize % rows.len();
        let other = (q + 1 + (pick as usize / rows.len()) % (rows.len() - 1)) % rows.len();
        // eps exactly at the distance from rows[q] to rows[other].
        let eps = embed::sq_euclidean_distance(&rows[q], &rows[other]).sqrt();
        for pivots in [1usize, 4] {
            let index = PivotIndex::with_pivots(&m, pivots);
            let (mut strict_ids, mut loose_ids) = (Vec::new(), Vec::new());
            index.within_into(&rows[q], eps, true, &mut strict_ids);
            index.within_into(&rows[q], eps, false, &mut loose_ids);
            prop_assert_eq!(&strict_ids, &brute_within(&m, &rows[q], eps, true));
            prop_assert_eq!(&loose_ids, &brute_within(&m, &rows[q], eps, false));
            // The strict ball is a subset of the inclusive ball; every
            // excess id sits exactly on the boundary per the kernel.
            prop_assert!(strict_ids.iter().all(|id| loose_ids.contains(id)));
        }
    }

    /// Duplicate rows and zero-variance (constant) dimensions: ids of
    /// clones all appear or all vanish together, and parity holds.
    #[test]
    fn duplicates_and_constant_dims_match_brute(
        flat in prop::collection::vec(-4.0f64..4.0, 8..240),
        dim in 1usize..7,
        eps in 0.05f64..3.0,
    ) {
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
        for pivots in [1usize, 4] {
            let index = PivotIndex::with_pivots(&m, pivots);
            assert_query_parity(&index, &m, &query, eps)?;
            let mut hits = Vec::new();
            index.within_into(&query, eps, false, &mut hits);
            // Clones share identical coordinates, so membership is pairwise.
            for pair in 0..base.len() {
                let (a, b) = (2 * pair as u32, 2 * pair as u32 + 1);
                prop_assert_eq!(hits.contains(&a), hits.contains(&b));
            }
        }
    }

    /// Near-collinear points (a line plus ~1e-9 jitter) stress the pivot
    /// pruning band: keys become nearly monotone and window bounds sit on
    /// top of each other. Parity must survive regardless.
    #[test]
    fn near_collinear_points_match_brute(
        origin in prop::collection::vec(-2.0f64..2.0, 5),
        dir in prop::collection::vec(-1.0f64..1.0, 5),
        ts in prop::collection::vec(-3.0f64..3.0, 4..40),
        noise in prop::collection::vec(-1e-9f64..1e-9, 200),
        eps in 0.05f64..2.0,
    ) {
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
        for pivots in [1usize, 2, 4] {
            let index = PivotIndex::with_pivots(&m, pivots);
            assert_query_parity(&index, &m, &query, eps)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `close_pairs` degrees and the replayed pair stream match the O(n²)
    /// reference (scan kernel per row, inclusive threshold, a < b).
    #[test]
    fn close_pairs_match_pairwise_brute(
        flat in prop::collection::vec(-4.0f64..4.0, 16..320),
        dim in 1usize..7,
        eps in 0.2f64..2.5,
    ) {
        let rows = into_rows(&flat, dim);
        if rows.len() < 3 {
            return Ok(());
        }
        let m = FeatureMatrix::from_rows(rows.clone());
        for pivots in [1usize, 4] {
            let index = PivotIndex::with_pivots(&m, pivots);
            let mut degrees = vec![0u32; index.len()];
            let sweep = index.close_pairs(eps, &mut degrees);
            let mut want_pairs = Vec::new();
            let mut want_deg = vec![0u32; rows.len()];
            for i in 0..rows.len() {
                let mut hits = Vec::new();
                scan_rows_within::<false>(dim, &rows[i], m.flat(), eps * eps, |k| {
                    hits.push(k);
                });
                for j in hits {
                    if j > i {
                        want_pairs.push((i as u32, j as u32));
                        want_deg[i] += 1;
                        want_deg[j] += 1;
                    }
                }
            }
            prop_assert_eq!(sweep.close_pair_count(), want_pairs.len());
            prop_assert_eq!(&degrees, &want_deg);
            let mut got_pairs = Vec::new();
            index.replay_close_pairs(&sweep, &mut |a, b| got_pairs.push((a, b)));
            got_pairs.sort_unstable();
            want_pairs.sort_unstable();
            prop_assert_eq!(got_pairs, want_pairs);
        }
    }
}
