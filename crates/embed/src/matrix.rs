//! Contiguous feature-matrix storage and batch distance kernels.
//!
//! The planning pipeline (clustering, batching, covering selection) spends
//! its time comparing feature vectors. Stored as `Vec<Vec<f64>>`, every
//! comparison chases a pointer per row and re-derives norms; stored as one
//! row-major buffer with cached squared L2 norms, the hot loops become
//! streaming passes the compiler can vectorize, and Euclidean work reduces
//! to dot products via `‖x − y‖² = ‖x‖² + ‖y‖² − 2·x·y`.
//!
//! The batch kernels are **one-to-many**: distances from one query row to
//! every row of a matrix, written into a caller buffer
//! ([`FeatureMatrix::sq_dists_to_all`],
//! [`FeatureMatrix::cosine_dists_to_all`]), plus the threshold scan
//! [`scan_rows_within`].
//!
//! Hot paths compare **squared** Euclidean distances (`d ↦ d²` is monotone
//! on distances, so thresholds square once and argmins are unchanged) and
//! only take `sqrt` on values that escape to callers.

use crate::vecmath::{dot, sq_euclidean_lanes};

/// A dense row-major feature matrix with cached squared L2 norms.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMatrix {
    data: Vec<f64>,
    rows: usize,
    dim: usize,
    sq_norms: Vec<f64>,
}

impl FeatureMatrix {
    /// Builds a matrix from per-row vectors.
    ///
    /// # Panics
    /// Panics if rows have unequal lengths — mixing feature spaces is a
    /// caller bug.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        let dim = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(rows.len() * dim);
        for row in &rows {
            assert_eq!(row.len(), dim, "ragged feature rows");
            data.extend_from_slice(row);
        }
        Self::from_flat(data, rows.len(), dim)
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics unless `data.len() == rows * dim`.
    pub fn from_flat(data: Vec<f64>, rows: usize, dim: usize) -> Self {
        assert_eq!(
            data.len(),
            rows * dim,
            "flat buffer does not tile into rows"
        );
        let sq_norms = (0..rows)
            .map(|i| dot(&data[i * dim..(i + 1) * dim], &data[i * dim..(i + 1) * dim]))
            .collect();
        Self { data, rows, dim, sq_norms }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the matrix has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Feature dimension (0 for an empty matrix built from no rows).
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The whole buffer, row-major.
    #[inline]
    pub fn flat(&self) -> &[f64] {
        &self.data
    }

    /// Cached `‖row(i)‖²`.
    #[inline]
    pub fn sq_norm(&self, i: usize) -> f64 {
        self.sq_norms[i]
    }

    /// Rows as an iterator of slices.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f64]> {
        (0..self.rows).map(move |i| self.row(i))
    }

    /// Materializes per-row vectors (tests and interop with the slice
    /// APIs).
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        self.rows().map(<[f64]>::to_vec).collect()
    }

    /// Squared Euclidean distance between rows `i` and `j` via the dot
    /// trick, clamped at 0 against cancellation.
    #[inline]
    pub fn sq_dist_rows(&self, i: usize, j: usize) -> f64 {
        (self.sq_norms[i] + self.sq_norms[j] - 2.0 * dot(self.row(i), self.row(j))).max(0.0)
    }

    /// Squared Euclidean distance from an external query (with its
    /// precomputed squared norm) to row `j`.
    #[inline]
    pub fn sq_dist_to_row(&self, x: &[f64], x_sq_norm: f64, j: usize) -> f64 {
        (x_sq_norm + self.sq_norms[j] - 2.0 * dot(x, self.row(j))).max(0.0)
    }

    /// One-to-many squared Euclidean distances: fills `out[j] = ‖x − row(j)‖²`.
    ///
    /// # Panics
    /// Panics unless `out.len() == self.len()` and `x.len() == self.dim()`.
    pub fn sq_dists_to_all(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), self.rows, "output buffer length mismatch");
        assert_eq!(x.len(), self.dim, "query dimension mismatch");
        let x_sq = dot(x, x);
        for (j, slot) in out.iter_mut().enumerate() {
            *slot = self.sq_dist_to_row(x, x_sq, j);
        }
    }

    /// One-to-many cosine distances `1 − cos`, with the crate's zero-vector
    /// convention (similarity 0, hence distance 1, when either side is
    /// all-zero), dividing by the cached norms.
    ///
    /// # Panics
    /// Panics on buffer or dimension mismatch.
    pub fn cosine_dists_to_all(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), self.rows, "output buffer length mismatch");
        assert_eq!(x.len(), self.dim, "query dimension mismatch");
        let x_norm = dot(x, x).sqrt();
        if x_norm == 0.0 {
            out.fill(1.0);
            return;
        }
        for (j, slot) in out.iter_mut().enumerate() {
            let norm = self.sq_norms[j].sqrt();
            *slot = if norm == 0.0 {
                1.0
            } else {
                1.0 - dot(x, self.row(j)) / (x_norm * norm)
            };
        }
    }
}

/// Streams the contiguous row-major buffer `rows_flat` (row width `dim`)
/// and calls `on_hit(row_index)` for every row whose squared Euclidean
/// distance to `query` is below `t_sq` (strictly when `STRICT`, else
/// `≤`), in row order. Small dimensions dispatch to fully unrolled
/// two-lane loops; the four-lane kernel of
/// [`crate::vecmath::sq_euclidean_distance`] covers the rest — from
/// `vecmath`'s AVX width up, on a CPU with AVX, as a tile of four rows
/// against one query, which reads each query chunk once per tile and runs
/// four independent add chains. Every row's value is the scalar kernel's
/// to the bit, so the verdicts are the same on either path. Pure per-row
/// decisions — safe to shard by splitting `rows_flat`.
pub fn scan_rows_within<const STRICT: bool>(
    dim: usize,
    query: &[f64],
    rows_flat: &[f64],
    t_sq: f64,
    on_hit: impl FnMut(usize),
) {
    assert_eq!(query.len(), dim, "query dimension mismatch");
    match dim {
        1 => scan_fixed::<1, STRICT>(query, rows_flat, t_sq, on_hit),
        2 => scan_fixed::<2, STRICT>(query, rows_flat, t_sq, on_hit),
        3 => scan_fixed::<3, STRICT>(query, rows_flat, t_sq, on_hit),
        4 => scan_fixed::<4, STRICT>(query, rows_flat, t_sq, on_hit),
        5 => scan_fixed::<5, STRICT>(query, rows_flat, t_sq, on_hit),
        6 => scan_fixed::<6, STRICT>(query, rows_flat, t_sq, on_hit),
        7 => scan_fixed::<7, STRICT>(query, rows_flat, t_sq, on_hit),
        8 => scan_fixed::<8, STRICT>(query, rows_flat, t_sq, on_hit),
        #[cfg(target_arch = "x86_64")]
        _ if crate::vecmath::use_avx(dim) => {
            // SAFETY: `use_avx` saw AVX on this CPU, the one feature the
            // kernel is compiled for.
            unsafe { avx_scan::scan_wide::<STRICT>(dim, query, rows_flat, t_sq, on_hit) }
        }
        _ => scan_wide_lanes::<STRICT>(dim, query, rows_flat, t_sq, on_hit),
    }
}

#[inline]
fn within<const STRICT: bool>(s: f64, t_sq: f64) -> bool {
    (STRICT && s < t_sq) || (!STRICT && s <= t_sq)
}

/// The wide branch of [`scan_rows_within`] on the scalar four-lane
/// kernel: the fallback, and the reference the AVX tile is tested
/// against.
fn scan_wide_lanes<const STRICT: bool>(
    dim: usize,
    query: &[f64],
    rows_flat: &[f64],
    t_sq: f64,
    mut on_hit: impl FnMut(usize),
) {
    for (k, row) in rows_flat.chunks_exact(dim.max(1)).enumerate() {
        if within::<STRICT>(sq_euclidean_lanes(query, row), t_sq) {
            on_hit(k);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx_scan {
    use std::arch::x86_64::_mm256_setzero_pd;

    use super::within;
    use crate::vecmath::avx::{fold, load, sq_euclidean_distance, sq_step};

    /// Rows per tile.
    const TILE: usize = 4;

    /// [`super::scan_wide_lanes`] on AVX registers, four rows at a time:
    /// row `r` of a tile accumulates in its own register, lane for lane
    /// as the scalar kernel accumulates that row, and folds and finishes
    /// its tail the same way. Rows past the last whole tile run one by
    /// one through the AVX [`sq_euclidean_distance`].
    #[target_feature(enable = "avx")]
    pub(super) fn scan_wide<'a, const STRICT: bool>(
        dim: usize,
        query: &[f64],
        rows_flat: &'a [f64],
        t_sq: f64,
        mut on_hit: impl FnMut(usize),
    ) {
        assert!(dim >= 4 && query.len() == dim, "a wide query row");
        let lanes = dim / 4 * 4;
        let (q4, q_tail) = query.split_at(lanes);
        let tiles = rows_flat.chunks_exact(TILE * dim);
        let rest = tiles.remainder();
        let mut k = 0;
        for tile in tiles {
            let (r0, rest) = tile.split_at(dim);
            let (r1, rest) = rest.split_at(dim);
            let (r2, r3) = rest.split_at(dim);
            let rows = [r0, r1, r2, r3];
            let mut acc = [_mm256_setzero_pd(); TILE];
            let chunks = |row: &'a [f64]| row[..lanes].chunks_exact(4);
            let lane_chunks = q4
                .chunks_exact(4)
                .zip(chunks(r0))
                .zip(chunks(r1))
                .zip(chunks(r2))
                .zip(chunks(r3));
            for ((((q, x0), x1), x2), x3) in lane_chunks {
                let q = load(q);
                acc[0] = sq_step(acc[0], q, load(x0));
                acc[1] = sq_step(acc[1], q, load(x1));
                acc[2] = sq_step(acc[2], q, load(x2));
                acc[3] = sq_step(acc[3], q, load(x3));
            }
            for (acc, row) in acc.into_iter().zip(rows) {
                let mut s = fold(acc);
                for (x, y) in q_tail.iter().zip(&row[lanes..]) {
                    let d = x - y;
                    s += d * d;
                }
                if within::<STRICT>(s, t_sq) {
                    on_hit(k);
                }
                k += 1;
            }
        }
        for row in rest.chunks_exact(dim) {
            if within::<STRICT>(sq_euclidean_distance(query, row), t_sq) {
                on_hit(k);
            }
            k += 1;
        }
    }
}

fn scan_fixed<const D: usize, const STRICT: bool>(
    query: &[f64],
    rows_flat: &[f64],
    t_sq: f64,
    mut on_hit: impl FnMut(usize),
) {
    let q: &[f64; D] = query.try_into().expect("query width matches dim");
    for (k, row) in rows_flat.chunks_exact(D).enumerate() {
        let mut even = 0.0f64;
        let mut odd = 0.0f64;
        let mut d = 0;
        while d + 1 < D {
            let t0 = q[d] - row[d];
            let t1 = q[d + 1] - row[d + 1];
            even += t0 * t0;
            odd += t1 * t1;
            d += 2;
        }
        if d < D {
            let t = q[d] - row[d];
            even += t * t;
        }
        if within::<STRICT>(even + odd, t_sq) {
            on_hit(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vecmath::{cosine_distance, dot_lanes, euclidean_distance, sq_euclidean_distance};
    use er_core::Rng;
    use proptest::prelude::*;

    fn sample(rows: usize, dim: usize, phase: f64) -> Vec<Vec<f64>> {
        (0..rows)
            .map(|i| {
                (0..dim)
                    .map(|d| ((i * dim + d) as f64 * 0.637 + phase).sin())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn layout_and_norms() {
        let rows = sample(5, 7, 0.0);
        let m = FeatureMatrix::from_rows(rows.clone());
        assert_eq!(m.len(), 5);
        assert_eq!(m.dim(), 7);
        assert!(!m.is_empty());
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(m.row(i), row.as_slice());
            let sq: f64 = row.iter().map(|x| x * x).sum();
            assert!((m.sq_norm(i) - sq).abs() < 1e-12);
        }
        assert_eq!(m.to_rows(), rows);
        assert_eq!(m.rows().len(), 5);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn rejects_ragged_rows() {
        let _ = FeatureMatrix::from_rows(vec![vec![1.0, 2.0], vec![3.0]]);
    }

    #[test]
    fn sq_dists_match_scalar() {
        let rows = sample(9, 13, 0.3);
        let m = FeatureMatrix::from_rows(rows.clone());
        for i in 0..9 {
            for j in 0..9 {
                let d = euclidean_distance(&rows[i], &rows[j]);
                assert!(
                    (m.sq_dist_rows(i, j) - d * d).abs() < 1e-12,
                    "({i},{j}) kernel {} vs scalar {}",
                    m.sq_dist_rows(i, j),
                    d * d
                );
            }
        }
    }

    #[test]
    fn one_to_many_matches_scalar() {
        let rows = sample(11, 5, 0.9);
        let query: Vec<f64> = (0..5).map(|d| (d as f64 * 0.21).cos()).collect();
        let m = FeatureMatrix::from_rows(rows.clone());
        let mut sq = vec![0.0; 11];
        let mut cos = vec![0.0; 11];
        m.sq_dists_to_all(&query, &mut sq);
        m.cosine_dists_to_all(&query, &mut cos);
        for j in 0..11 {
            let d = euclidean_distance(&query, &rows[j]);
            assert!((sq[j] - d * d).abs() < 1e-12);
            assert!((cos[j] - cosine_distance(&query, &rows[j])).abs() < 1e-12);
        }
    }

    #[test]
    fn cosine_zero_vector_convention() {
        let m = FeatureMatrix::from_rows(vec![vec![0.0, 0.0], vec![1.0, 0.0]]);
        let mut out = vec![0.0; 2];
        m.cosine_dists_to_all(&[0.0, 0.0], &mut out);
        assert_eq!(out, vec![1.0, 1.0]);
        m.cosine_dists_to_all(&[1.0, 0.0], &mut out);
        assert_eq!(out[0], 1.0); // zero row
        assert!(out[1].abs() < 1e-12); // identical direction
    }

    #[test]
    fn scan_rows_within_matches_filter() {
        for dim in [1usize, 3, 4, 7, 13] {
            let rows = sample(40, dim, 0.4);
            let flat: Vec<f64> = rows.iter().flatten().copied().collect();
            let query: Vec<f64> = (0..dim).map(|d| (d as f64 * 0.37).sin()).collect();
            let t = 1.1f64;
            let expect_strict: Vec<usize> = rows
                .iter()
                .enumerate()
                .filter(|(_, r)| euclidean_distance(&query, r) < t)
                .map(|(k, _)| k)
                .collect();
            let mut got = Vec::new();
            scan_rows_within::<true>(dim, &query, &flat, t * t, |k| got.push(k));
            assert_eq!(got, expect_strict, "dim {dim} strict scan diverged");
            let mut inclusive = Vec::new();
            scan_rows_within::<false>(dim, &query, &flat, t * t, |k| inclusive.push(k));
            assert!(inclusive.len() >= got.len());
        }
    }

    /// Row values for the dispatch parity test: mostly ordinary, with
    /// NaN, ±∞, ±0, subnormals and ±1e300 (whose squares overflow)
    /// mixed in at a rate set per case.
    fn hostile_flat(len: usize, hostile_per_16: usize, rng: &mut Rng) -> Vec<f64> {
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
        (0..len)
            .map(|_| {
                if rng.range(0..16) < hostile_per_16 {
                    HOSTILE[rng.range(0..HOSTILE.len())]
                } else {
                    rng.f64() * 4.0 - 2.0
                }
            })
            .collect()
    }

    /// Bit for bit, except that a NaN only has to be a NaN: Rust leaves
    /// a NaN's sign and payload unspecified.
    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The dispatched kernels — AVX from `vecmath`'s width up on a CPU
        /// that has it — against the scalar four-lane reference: the same
        /// values, and the same hits in the same order under both
        /// comparisons, at widths that are and are not multiples of four
        /// and row counts that leave a partial tile.
        #[test]
        fn dispatched_kernels_match_the_scalar_lanes(
            seed in any::<u64>(),
            dim in 16usize..257,
            n_rows in 1usize..23,
            hostile_per_16 in 0usize..5,
        ) {
            let mut rng = Rng::from_seed(seed);
            let query = hostile_flat(dim, hostile_per_16, &mut rng);
            let flat = hostile_flat(dim * n_rows, hostile_per_16, &mut rng);
            let mut values = Vec::with_capacity(n_rows);
            for row in flat.chunks_exact(dim) {
                let (d, reference) = (dot(&query, row), dot_lanes(&query, row));
                prop_assert!(same(d, reference), "dot {} vs {}", d, reference);
                let s = sq_euclidean_distance(&query, row);
                let reference = sq_euclidean_lanes(&query, row);
                prop_assert!(same(s, reference), "sq {} vs {}", s, reference);
                values.push(s);
            }
            // On a stored value (strict and inclusive part there), between
            // values, and at the ends.
            let pick = values[rng.range(0..n_rows)];
            for t_sq in [pick, pick * 1.5, 0.0, f64::INFINITY, f64::MAX, f64::NAN] {
                let (mut got, mut want) = (Vec::new(), Vec::new());
                scan_rows_within::<true>(dim, &query, &flat, t_sq, |k| got.push(k));
                scan_wide_lanes::<true>(dim, &query, &flat, t_sq, |k| want.push(k));
                prop_assert_eq!(&got, &want, "strict, t_sq {}", t_sq);
                got.clear();
                want.clear();
                scan_rows_within::<false>(dim, &query, &flat, t_sq, |k| got.push(k));
                scan_wide_lanes::<false>(dim, &query, &flat, t_sq, |k| want.push(k));
                prop_assert_eq!(&got, &want, "inclusive, t_sq {}", t_sq);
            }
        }
    }

    #[test]
    fn avx_runs_where_the_cpu_has_it() {
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            crate::vecmath::use_avx(crate::vecmath::AVX_MIN_WIDTH),
            std::arch::is_x86_feature_detected!("avx")
        );
        assert!(!crate::vecmath::use_avx(crate::vecmath::AVX_MIN_WIDTH - 1));
    }

    #[test]
    fn empty_matrix() {
        let m = FeatureMatrix::from_rows(vec![]);
        assert!(m.is_empty());
        assert_eq!(m.dim(), 0);
        assert_eq!(m.rows().count(), 0);
        let mut out: [f64; 0] = [];
        m.sq_dists_to_all(&[], &mut out);
    }
}
