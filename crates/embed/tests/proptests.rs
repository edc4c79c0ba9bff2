//! Property tests pinning the batch kernels to the scalar `vecmath`
//! reference: whatever the lane split or dot trick does internally, distances must agree with the naive formulas to
//! 1e-12 across dimensions and lengths.

use embed::matrix::FeatureMatrix;
use embed::{cosine_distance, dot, euclidean_distance, sq_euclidean_distance};
use proptest::prelude::*;

/// Chunks a flat value stream into `dim`-wide rows (dropping the ragged
/// tail), so row count and dimension both vary per case.
fn into_rows(flat: &[f64], dim: usize) -> Vec<Vec<f64>> {
    flat.chunks_exact(dim).map(<[f64]>::to_vec).collect()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * (1.0 + a.abs().max(b.abs()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The 4-lane scalar kernels match the sequential formulas.
    #[test]
    fn lane_kernels_match_sequential(
        flat in prop::collection::vec(-4.0f64..4.0, 2..160),
    ) {
        let half = flat.len() / 2;
        let (a, b) = (&flat[..half], &flat[half..2 * half]);
        let seq_dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        prop_assert!(close(dot(a, b), seq_dot));
        let d = euclidean_distance(a, b);
        prop_assert!(close(sq_euclidean_distance(a, b), d * d));
    }

    /// One-to-many kernels (dot-trick squared Euclidean and cosine) match
    /// per-pair vecmath across dims and row counts.
    #[test]
    fn one_to_many_matches_vecmath(
        flat in prop::collection::vec(-4.0f64..4.0, 8..640),
        dim in 1usize..9,
    ) {
        let mut rows = into_rows(&flat, dim);
        if rows.len() < 2 {
            return Ok(()); // not enough rows at this dim; skip the case
        }
        let query = rows.pop().expect("at least two rows");
        let m = FeatureMatrix::from_rows(rows.clone());
        let mut sq = vec![0.0; m.len()];
        let mut cos = vec![0.0; m.len()];
        m.sq_dists_to_all(&query, &mut sq);
        m.cosine_dists_to_all(&query, &mut cos);
        for (j, row) in rows.iter().enumerate() {
            let d = euclidean_distance(&query, row);
            prop_assert!(close(sq[j], d * d), "sq[{j}] = {} vs {}", sq[j], d * d);
            prop_assert!(close(cos[j], cosine_distance(&query, row)));
        }
    }
}
