//! Pair featurization for the PLM baseline simulators.

use batcher_core::features::structure_rows;
use er_core::rng::splitmix64;
use er_core::EntityPair;
use text_sim::fnv1a64;

/// Informative structure features of one pair: its row of
/// [`batcher_core::features::structure_rows`], per attribute
/// `[levenshtein ratio, jaccard, missing-on-a, missing-on-b]`, plus a
/// global aggregate similarity. Length = `4·m + 1`.
pub fn base_features(pair: &EntityPair) -> Vec<f64> {
    structure_rows([pair]).pop().expect("one pair, one row")
}

/// Featurization used by the simulated PLMs: [`base_features`] plus
/// `ctx_dim` **contextual pseudo-dimensions**.
///
/// Fine-tuning a transformer estimates millions of parameters over
/// high-dimensional contextual embeddings; with little labeled data the
/// model memorizes training idiosyncrasies that do not transfer. The
/// pseudo-dimensions reproduce that failure mode: each is a deterministic
/// hash of the pair's full text, so they are memorizable in training and
/// uninformative at test time. With enough data, L2-regularized training
/// learns to ignore them — which is exactly the sample-complexity curve of
/// Figure 7.
pub fn plm_features(pair: &EntityPair, ctx_dim: usize, model_seed: u64) -> Vec<f64> {
    with_context(&base_features(pair), pair, ctx_dim, model_seed)
}

/// `base`, the structure row of `pair`, followed by the pair's `ctx_dim`
/// contextual pseudo-dimensions under `model_seed`: its row of
/// [`plm_features`].
pub(crate) fn with_context(
    base: &[f64],
    pair: &EntityPair,
    ctx_dim: usize,
    model_seed: u64,
) -> Vec<f64> {
    let mut out = Vec::with_capacity(base.len() + ctx_dim);
    out.extend_from_slice(base);
    let base_hash = fnv1a64(pair.serialize().as_bytes(), model_seed);
    for d in 0..ctx_dim {
        let h = splitmix64(&mut (base_hash ^ (d as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        // Map to roughly N(0, 0.3²) via a cheap uniform sum.
        let u1 = (h & 0xFFFF_FFFF) as f64 / u32::MAX as f64;
        let u2 = (h >> 32) as f64 / u32::MAX as f64;
        out.push((u1 + u2 - 1.0) * 0.6);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, DatasetKind};

    #[test]
    fn plm_features_extend_base() {
        let d = generate(DatasetKind::Beer, 1);
        let p = &d.pairs()[0].pair;
        let base = base_features(p);
        let full = plm_features(p, 64, 7);
        assert_eq!(full.len(), base.len() + 64);
        assert_eq!(&full[..base.len()], &base[..]);
    }

    #[test]
    fn ctx_dims_deterministic_per_pair_and_seed() {
        let d = generate(DatasetKind::Beer, 1);
        let p = &d.pairs()[0].pair;
        assert_eq!(plm_features(p, 32, 7), plm_features(p, 32, 7));
        assert_ne!(plm_features(p, 32, 7), plm_features(p, 32, 8));
    }

    #[test]
    fn ctx_dims_differ_across_pairs() {
        let d = generate(DatasetKind::Beer, 1);
        let a = plm_features(&d.pairs()[0].pair, 32, 7);
        let b = plm_features(&d.pairs()[1].pair, 32, 7);
        let base_len = a.len() - 32;
        assert_ne!(&a[base_len..], &b[base_len..]);
    }

    #[test]
    fn ctx_dims_bounded() {
        let d = generate(DatasetKind::ItunesAmazon, 3);
        for p in d.pairs().iter().take(50) {
            for &x in plm_features(&p.pair, 128, 1).iter() {
                assert!(x.abs() <= 1.0 + 1e-9);
            }
        }
    }
}
