//! Pair featurization for the PLM baseline simulators.

use er_core::EntityPair;
use text_sim::{fnv1a64, jaccard_tokens, levenshtein_ratio, normalize};

/// Informative structure features of a pair: per attribute
/// `[levenshtein ratio, jaccard, missing-on-a, missing-on-b]`, plus a
/// global aggregate similarity. Length = `4·m + 1`.
pub fn base_features(pair: &EntityPair) -> Vec<f64> {
    let m = pair.a().schema().arity();
    let mut out = Vec::with_capacity(4 * m + 1);
    let mut agg = 0.0;
    for i in 0..m {
        let va = normalize(pair.a().value(i).unwrap_or(""));
        let vb = normalize(pair.b().value(i).unwrap_or(""));
        let (lr, jac) = if va.is_empty() || vb.is_empty() {
            (0.0, 0.0)
        } else {
            (levenshtein_ratio(&va, &vb), jaccard_tokens(&va, &vb))
        };
        out.push(lr);
        out.push(jac);
        out.push(if va.is_empty() { 1.0 } else { 0.0 });
        out.push(if vb.is_empty() { 1.0 } else { 0.0 });
        agg += 0.5 * (lr + jac);
    }
    out.push(agg / m.max(1) as f64);
    out
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
    let mut out = base_features(pair);
    let text = pair.serialize();
    let base_hash = fnv1a64(text.as_bytes(), model_seed);
    out.reserve(ctx_dim);
    for d in 0..ctx_dim {
        let h = splitmix(base_hash ^ (d as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Map to roughly N(0, 0.3²) via a cheap uniform sum.
        let u1 = (h & 0xFFFF_FFFF) as f64 / u32::MAX as f64;
        let u2 = (h >> 32) as f64 / u32::MAX as f64;
        out.push((u1 + u2 - 1.0) * 0.6);
    }
    out
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, DatasetKind};

    #[test]
    fn base_feature_length() {
        let d = generate(DatasetKind::Beer, 1);
        let m = d.schema().arity();
        let f = base_features(&d.pairs()[0].pair);
        assert_eq!(f.len(), 4 * m + 1);
        for &x in &f {
            assert!((0.0..=1.0).contains(&x), "feature out of range: {x}");
        }
    }

    #[test]
    fn identical_pair_scores_high() {
        let d = generate(DatasetKind::FodorsZagats, 1);
        // Construct a self-pair from an existing record.
        let p = &d.pairs()[0].pair;
        let self_pair = er_core::EntityPair::new(
            er_core::PairId(0),
            std::sync::Arc::new(p.a().clone()),
            std::sync::Arc::new(p.a().clone()),
        )
        .unwrap();
        let f = base_features(&self_pair);
        let agg = f[f.len() - 1];
        assert!(agg > 0.95, "self-pair aggregate {agg}");
    }

    #[test]
    fn matches_separate_from_negatives_on_average() {
        let d = generate(DatasetKind::DblpAcm, 2);
        let mut pos = 0.0;
        let mut pos_n = 0;
        let mut neg = 0.0;
        let mut neg_n = 0;
        for p in d.pairs().iter().take(1500) {
            let f = base_features(&p.pair);
            let agg = f[f.len() - 1];
            if p.label.is_match() {
                pos += agg;
                pos_n += 1;
            } else {
                neg += agg;
                neg_n += 1;
            }
        }
        assert!(pos / pos_n as f64 > neg / neg_n as f64 + 0.1);
    }

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
