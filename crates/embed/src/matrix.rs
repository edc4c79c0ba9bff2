//! Contiguous feature-matrix storage and batch distance kernels.
//!
//! The planning pipeline (clustering, batching, covering selection) spends
//! its time comparing feature vectors. Stored as `Vec<Vec<f64>>`, every
//! comparison chases a pointer per row and re-derives norms; stored as one
//! row-major buffer with cached squared L2 norms, the hot loops become
//! streaming passes the compiler can vectorize, and Euclidean work reduces
//! to dot products via `‖x − y‖² = ‖x‖² + ‖y‖² − 2·x·y`.
//!
//! Two kernel families:
//!
//! * **one-to-many** — distances from one query row to every row of a
//!   matrix, written into a caller buffer ([`FeatureMatrix::sq_dists_to_all`],
//!   [`FeatureMatrix::dists_to_all`], [`FeatureMatrix::cosine_dists_to_all`]).
//! * **pairwise chunk** — a block of rows against the whole matrix
//!   ([`FeatureMatrix::pairwise_sq_chunk`]), tiled over columns so the
//!   inner rows stay cache-resident.
//!
//! Hot paths compare **squared** Euclidean distances (`d ↦ d²` is monotone
//! on distances, so thresholds square once and argmins are unchanged) and
//! only take `sqrt` on values that escape to callers.

use crate::vecmath::dot;

/// Column tile width for [`FeatureMatrix::pairwise_sq_chunk`]: 128 rows of
/// 64-dim `f64` features ≈ 64 KiB, comfortably L2-resident.
const PAIRWISE_TILE: usize = 128;

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

    /// One-to-many Euclidean distances (the `sqrt`-ed variant, for values
    /// that escape to callers rather than feed comparisons).
    pub fn dists_to_all(&self, x: &[f64], out: &mut [f64]) {
        self.sq_dists_to_all(x, out);
        for slot in out.iter_mut() {
            *slot = slot.sqrt();
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

    /// Pairwise squared-distance block: fills the row-major
    /// `rows.len() × other.len()` buffer `out` with
    /// `‖self.row(rows.start + r) − other.row(j)‖²`, tiling `other` in
    /// [`PAIRWISE_TILE`]-row column blocks for locality.
    ///
    /// # Panics
    /// Panics on range, buffer, or dimension mismatch.
    pub fn pairwise_sq_chunk(&self, rows: std::ops::Range<usize>, other: &Self, out: &mut [f64]) {
        assert!(rows.end <= self.rows, "row range out of bounds");
        assert_eq!(self.dim, other.dim, "matrix dimension mismatch");
        let width = other.len();
        assert_eq!(
            out.len(),
            rows.len() * width,
            "output buffer length mismatch"
        );
        for tile_start in (0..width).step_by(PAIRWISE_TILE) {
            let tile_end = (tile_start + PAIRWISE_TILE).min(width);
            for (r, i) in rows.clone().enumerate() {
                let row_i = self.row(i);
                let sq_i = self.sq_norms[i];
                let out_row = &mut out[r * width + tile_start..r * width + tile_end];
                for (slot, j) in out_row.iter_mut().zip(tile_start..tile_end) {
                    *slot = (sq_i + other.sq_norms[j] - 2.0 * dot(row_i, other.row(j))).max(0.0);
                }
            }
        }
    }
}

/// Streams the contiguous row-major buffer `rows_flat` (row width `dim`)
/// and calls `on_hit(row_index)` for every row whose squared Euclidean
/// distance to `query` is below `t_sq` (strictly when `STRICT`, else
/// `≤`). Small dimensions dispatch to fully unrolled two-lane loops; the
/// four-lane kernel covers the rest. Pure per-row decisions — safe to
/// shard by splitting `rows_flat`.
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
        _ => {
            let mut on_hit = on_hit;
            for (k, row) in rows_flat.chunks_exact(dim.max(1)).enumerate() {
                let s = crate::vecmath::sq_euclidean_distance(query, row);
                if (STRICT && s < t_sq) || (!STRICT && s <= t_sq) {
                    on_hit(k);
                }
            }
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
        let s = even + odd;
        if (STRICT && s < t_sq) || (!STRICT && s <= t_sq) {
            on_hit(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vecmath::{cosine_distance, euclidean_distance};

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
        let mut dist = vec![0.0; 11];
        let mut cos = vec![0.0; 11];
        m.sq_dists_to_all(&query, &mut sq);
        m.dists_to_all(&query, &mut dist);
        m.cosine_dists_to_all(&query, &mut cos);
        for j in 0..11 {
            let d = euclidean_distance(&query, &rows[j]);
            assert!((sq[j] - d * d).abs() < 1e-12);
            assert!((dist[j] - d).abs() < 1e-12);
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
    fn pairwise_chunk_matches_one_to_many() {
        // A tile-crossing width exercises the column tiling.
        let left = FeatureMatrix::from_rows(sample(7, 6, 0.1));
        let right = FeatureMatrix::from_rows(sample(PAIRWISE_TILE + 37, 6, 2.2));
        let mut chunk = vec![0.0; 3 * right.len()];
        left.pairwise_sq_chunk(2..5, &right, &mut chunk);
        let mut expect = vec![0.0; right.len()];
        for (r, i) in (2..5).enumerate() {
            right.sq_dists_to_all(left.row(i), &mut expect);
            assert_eq!(
                &chunk[r * right.len()..(r + 1) * right.len()],
                expect.as_slice(),
                "row {i} differs"
            );
        }
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
