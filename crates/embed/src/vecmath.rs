//! Dense-vector helpers shared by the embedder and its consumers.

/// Euclidean (L2) distance between two equal-length vectors.
///
/// # Panics
/// Panics on length mismatch — comparing vectors from different embedding
/// spaces is always a caller bug.
#[inline]
pub fn euclidean_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Squared Euclidean distance — the `sqrt`-free comparison kernel for hot
/// paths (threshold tests, argmin/argmax, order statistics), where the
/// monotone map `d ↦ d²` preserves every comparison.
///
/// Four independent accumulator lanes let the compiler vectorize the loop
/// without fast-math; the lane split is fixed, so the result is a
/// deterministic function of the inputs. From [`AVX_MIN_WIDTH`] up, on a
/// CPU with AVX, the four lanes are the four lanes of one AVX register
/// (see [`use_avx`]); the value is the same to the bit.
///
/// # Panics
/// Panics on length mismatch.
#[inline]
pub fn sq_euclidean_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    #[cfg(target_arch = "x86_64")]
    if use_avx(a.len()) {
        // SAFETY: `use_avx` saw AVX on this CPU, the one feature the
        // kernel is compiled for.
        return unsafe { avx::sq_euclidean_distance(a, b) };
    }
    sq_euclidean_lanes(a, b)
}

/// The four-lane scalar kernel behind [`sq_euclidean_distance`]: the
/// fallback, and the reference the AVX path is tested against.
pub(crate) fn sq_euclidean_lanes(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let lanes = a.len() / 4 * 4;
    let mut i = 0;
    while i < lanes {
        let d0 = a[i] - b[i];
        let d1 = a[i + 1] - b[i + 1];
        let d2 = a[i + 2] - b[i + 2];
        let d3 = a[i + 3] - b[i + 3];
        acc[0] += d0 * d0;
        acc[1] += d1 * d1;
        acc[2] += d2 * d2;
        acc[3] += d3 * d3;
        i += 4;
    }
    let mut s = combine_lanes(acc);
    while i < a.len() {
        let d = a[i] - b[i];
        s += d * d;
        i += 1;
    }
    s
}

/// Dot product with the same fixed four-lane accumulation (and the same
/// AVX path) as [`sq_euclidean_distance`].
///
/// # Panics
/// Panics on length mismatch.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    #[cfg(target_arch = "x86_64")]
    if use_avx(a.len()) {
        // SAFETY: `use_avx` saw AVX on this CPU, the one feature the
        // kernel is compiled for.
        return unsafe { avx::dot(a, b) };
    }
    dot_lanes(a, b)
}

/// The four-lane scalar kernel behind [`dot`].
pub(crate) fn dot_lanes(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let lanes = a.len() / 4 * 4;
    let mut i = 0;
    while i < lanes {
        acc[0] += a[i] * b[i];
        acc[1] += a[i + 1] * b[i + 1];
        acc[2] += a[i + 2] * b[i + 2];
        acc[3] += a[i + 3] * b[i + 3];
        i += 4;
    }
    let mut s = combine_lanes(acc);
    while i < a.len() {
        s += a[i] * b[i];
        i += 1;
    }
    s
}

/// The one order in which every four-lane kernel folds its lanes.
#[inline]
pub(crate) fn combine_lanes(acc: [f64; 4]) -> f64 {
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Row width from which the four-lane kernels run on AVX registers. Below
/// it, a row is a few loads either way and the run-time check costs more
/// than the wider registers save.
pub(crate) const AVX_MIN_WIDTH: usize = 16;

/// True when rows of `width` take the AVX path: at least
/// [`AVX_MIN_WIDTH`] wide, on a CPU that has AVX (checked at run time, so
/// one binary serves every x86-64 CPU; the answer is cached after the
/// first call).
///
/// The AVX path is exact, not approximate: each scalar accumulator
/// `acc[j]` of the four-lane kernels is lane `j` of one `__m256d`, fed the
/// same subtract, multiply and add in the same order — no fused
/// multiply-add, which would round once where the scalar code rounds twice
/// — and the lanes fold as [`combine_lanes`] folds them, before the same
/// scalar tail. Every result that is not a NaN is the scalar kernel's to
/// the bit; a NaN is a NaN on both (Rust leaves a NaN's sign and payload
/// unspecified).
#[inline]
pub(crate) fn use_avx(width: usize) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        width >= AVX_MIN_WIDTH && std::arch::is_x86_feature_detected!("avx")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = width;
        false
    }
}

/// The AVX forms of the four-lane kernels; see [`use_avx`] for why they
/// equal the scalar ones. Each is a safe function compiled for AVX, so
/// only code not itself compiled for AVX needs `unsafe` to call one, after
/// checking [`use_avx`].
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx {
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_setzero_pd,
        _mm256_storeu_pd, _mm256_sub_pd,
    };

    use super::combine_lanes;

    /// Loads the four values of `four`.
    #[inline]
    #[target_feature(enable = "avx")]
    pub(crate) fn load(four: &[f64]) -> __m256d {
        assert_eq!(four.len(), 4, "an AVX load reads four values");
        // SAFETY: the assertion keeps the four reads inside `four`; an
        // unaligned load has no alignment requirement.
        unsafe { _mm256_loadu_pd(four.as_ptr()) }
    }

    /// The four lanes of `acc` folded as the scalar kernels fold `acc`.
    #[inline]
    #[target_feature(enable = "avx")]
    pub(crate) fn fold(acc: __m256d) -> f64 {
        let mut lanes = [0.0f64; 4];
        // SAFETY: `lanes` holds four f64s; an unaligned store has no
        // alignment requirement.
        unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), acc) };
        combine_lanes(lanes)
    }

    /// One step of the squared distance, lane-wise: `acc + (a − b)²`.
    #[inline]
    #[target_feature(enable = "avx")]
    pub(crate) fn sq_step(acc: __m256d, a: __m256d, b: __m256d) -> __m256d {
        let d = _mm256_sub_pd(a, b);
        _mm256_add_pd(acc, _mm256_mul_pd(d, d))
    }

    /// [`super::sq_euclidean_lanes`] on AVX registers.
    #[target_feature(enable = "avx")]
    pub(crate) fn sq_euclidean_distance(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "vector length mismatch");
        let (a4, b4) = (a.chunks_exact(4), b.chunks_exact(4));
        let (a_tail, b_tail) = (a4.remainder(), b4.remainder());
        let mut acc = _mm256_setzero_pd();
        for (x, y) in a4.zip(b4) {
            acc = sq_step(acc, load(x), load(y));
        }
        let mut s = fold(acc);
        for (x, y) in a_tail.iter().zip(b_tail) {
            let d = x - y;
            s += d * d;
        }
        s
    }

    /// [`super::dot_lanes`] on AVX registers.
    #[target_feature(enable = "avx")]
    pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "vector length mismatch");
        let (a4, b4) = (a.chunks_exact(4), b.chunks_exact(4));
        let (a_tail, b_tail) = (a4.remainder(), b4.remainder());
        let mut acc = _mm256_setzero_pd();
        for (x, y) in a4.zip(b4) {
            acc = _mm256_add_pd(acc, _mm256_mul_pd(load(x), load(y)));
        }
        let mut s = fold(acc);
        for (x, y) in a_tail.iter().zip(b_tail) {
            s += x * y;
        }
        s
    }
}

/// Cosine similarity in `[-1, 1]`; 0 when either vector is all-zero.
#[inline]
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

/// Cosine distance `1 − cosine_similarity`, in `[0, 2]`.
#[inline]
pub fn cosine_distance(a: &[f64], b: &[f64]) -> f64 {
    1.0 - cosine_similarity(a, b)
}

/// Normalizes `v` to unit L2 norm in place; leaves the zero vector
/// untouched.
#[inline]
pub fn l2_normalize(v: &mut [f64]) {
    let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_basics() {
        assert_eq!(euclidean_distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(euclidean_distance(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn sq_euclidean_matches_euclidean() {
        let a: Vec<f64> = (0..37).map(|i| (i as f64 * 0.731).sin()).collect();
        let b: Vec<f64> = (0..37).map(|i| (i as f64 * 0.377).cos()).collect();
        let d = euclidean_distance(&a, &b);
        assert!((sq_euclidean_distance(&a, &b) - d * d).abs() < 1e-12);
        assert_eq!(sq_euclidean_distance(&[], &[]), 0.0);
    }

    #[test]
    fn dot_basics() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
        // Odd lengths exercise the scalar tail after the 4-lane body.
        let a: Vec<f64> = (0..9).map(|i| i as f64).collect();
        assert_eq!(dot(&a, &a), 204.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_rejects_mismatch() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn euclidean_rejects_mismatch() {
        let _ = euclidean_distance(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn cosine_basics() {
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!((cosine_similarity(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-12);
        assert!((cosine_similarity(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_zero_vector_convention() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
        assert_eq!(cosine_distance(&[0.0, 0.0], &[0.0, 0.0]), 1.0);
    }

    #[test]
    fn normalize_in_place() {
        let mut v = vec![3.0, 4.0];
        l2_normalize(&mut v);
        assert!((v[0] - 0.6).abs() < 1e-12);
        assert!((v[1] - 0.8).abs() < 1e-12);

        let mut z = vec![0.0, 0.0];
        l2_normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn scale_invariance_of_cosine() {
        let a = [0.2, 0.5, 0.9];
        let b: Vec<f64> = a.iter().map(|x| x * 7.5).collect();
        assert!((cosine_similarity(&a, &b) - 1.0).abs() < 1e-12);
    }
}
