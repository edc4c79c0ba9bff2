//! Canonical pair fingerprints for answer caching and coalescing.
//!
//! Two requests ask "the same question" when their records carry the same
//! normalized content, regardless of attribute casing/punctuation noise
//! and of which record arrives on which side. The fingerprint therefore
//! hashes the [`text_sim::normalize`]d serialization of each record and
//! combines the two half-hashes **symmetrically**, so `(a, b)` and
//! `(b, a)` collide on purpose.

use er_core::{serialize_record, EntityPair};
use text_sim::{fnv1a64, normalize};

/// Version of the fingerprinting scheme, stamped on every durable answer
/// record. Bump it whenever [`pair_fingerprint`]'s inputs change meaning
/// — the normalization rules, the record serialization, or the hash
/// mixing — so recovery replay skips answers keyed under the old scheme
/// instead of silently serving them for different questions.
pub const FINGERPRINT_VERSION: u32 = 1;

/// A 64-bit canonical fingerprint of an entity pair question.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PairFingerprint(pub u64);

impl std::fmt::Display for PairFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Fingerprints a pair: normalization-stable and symmetric in the two
/// records.
pub fn pair_fingerprint(pair: &EntityPair) -> PairFingerprint {
    let ha = fnv1a64(normalize(&serialize_record(pair.a())).as_bytes(), 0);
    let hb = fnv1a64(normalize(&serialize_record(pair.b())).as_bytes(), 0);
    // Sort the half-hashes before mixing: order independence without the
    // collision-prone xor of equal halves (xor would send every self-pair
    // to 0).
    let (lo, hi) = if ha <= hb { (ha, hb) } else { (hb, ha) };
    PairFingerprint(mix(lo, hi))
}

fn mix(lo: u64, hi: u64) -> u64 {
    let mut z = lo ^ hi.rotate_left(31);
    z = z.wrapping_add(hi.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 27)
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::{PairId, Record, RecordId, Schema};
    use std::sync::Arc;

    fn pair(left: &[&str], right: &[&str]) -> EntityPair {
        let schema = Arc::new(Schema::new((0..left.len()).map(|i| format!("attr{i}"))).unwrap());
        let a = Arc::new(
            Record::new(
                RecordId::a(0),
                Arc::clone(&schema),
                left.iter().map(|s| s.to_string()).collect(),
            )
            .unwrap(),
        );
        let b = Arc::new(
            Record::new(
                RecordId::b(0),
                Arc::clone(&schema),
                right.iter().map(|s| s.to_string()).collect(),
            )
            .unwrap(),
        );
        EntityPair::new(PairId(0), a, b).unwrap()
    }

    #[test]
    fn symmetric_in_record_order() {
        let fwd = pair(&["iPhone 13", "Apple"], &["Galaxy S21", "Samsung"]);
        let rev = pair(&["Galaxy S21", "Samsung"], &["iPhone 13", "Apple"]);
        assert_eq!(pair_fingerprint(&fwd), pair_fingerprint(&rev));
    }

    #[test]
    fn normalization_stable() {
        let noisy = pair(&["iPhone-13 (128GB)!"], &["Galaxy, S21"]);
        let clean = pair(&["iphone 13 128gb"], &["galaxy s21"]);
        assert_eq!(pair_fingerprint(&noisy), pair_fingerprint(&clean));
    }

    #[test]
    fn distinct_content_distinct_fingerprints() {
        let a = pair(&["iphone 13"], &["galaxy s21"]);
        let b = pair(&["iphone 13"], &["galaxy s22"]);
        let c = pair(&["iphone 12"], &["galaxy s21"]);
        assert_ne!(pair_fingerprint(&a), pair_fingerprint(&b));
        assert_ne!(pair_fingerprint(&a), pair_fingerprint(&c));
    }

    #[test]
    fn self_pairs_do_not_collapse_to_zero() {
        let same = pair(&["acoustic guitar"], &["acoustic guitar"]);
        let other_same = pair(&["drum kit"], &["drum kit"]);
        assert_ne!(pair_fingerprint(&same).0, 0);
        assert_ne!(pair_fingerprint(&same), pair_fingerprint(&other_same));
    }

    #[test]
    fn display_is_hex() {
        let fp = pair_fingerprint(&pair(&["x"], &["y"]));
        assert_eq!(fp.to_string().len(), 16);
    }
}
