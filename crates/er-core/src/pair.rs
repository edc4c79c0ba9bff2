//! Entity pairs, match labels and the serialization function of Eq. 1.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::error::ErError;
use crate::record::Record;
use crate::SEP;

/// Identifier of a candidate pair within a dataset (index into the pair
/// list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PairId(pub u32);

impl fmt::Display for PairId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Gold label of a pair: do the two records refer to the same real-world
/// entity?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MatchLabel {
    /// The records refer to the same entity.
    Matching,
    /// The records refer to different entities.
    NonMatching,
}

impl MatchLabel {
    /// True for [`MatchLabel::Matching`].
    pub fn is_match(self) -> bool {
        matches!(self, MatchLabel::Matching)
    }

    /// Builds a label from a boolean (`true` = matching).
    pub fn from_bool(is_match: bool) -> Self {
        if is_match {
            MatchLabel::Matching
        } else {
            MatchLabel::NonMatching
        }
    }
}

impl fmt::Display for MatchLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchLabel::Matching => write!(f, "matching"),
            MatchLabel::NonMatching => write!(f, "non-matching"),
        }
    }
}

/// A candidate pair `(a, b)` produced by the blocker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntityPair {
    id: PairId,
    a: Arc<Record>,
    b: Arc<Record>,
}

impl EntityPair {
    /// Builds a pair; both records must share one schema.
    pub fn new(id: PairId, a: Arc<Record>, b: Arc<Record>) -> Result<Self, ErError> {
        if a.schema() != b.schema() {
            return Err(ErError::SchemaMismatch);
        }
        Ok(Self { id, a, b })
    }

    /// The pair identifier.
    pub fn id(&self) -> PairId {
        self.id
    }

    /// The left record (from `T_A`).
    pub fn a(&self) -> &Record {
        &self.a
    }

    /// The right record (from `T_B`).
    pub fn b(&self) -> &Record {
        &self.b
    }

    /// Serializes this pair per Eq. 1: `S(a)[SEP]S(b)`.
    pub fn serialize(&self) -> String {
        serialize_pair(&self.a, &self.b)
    }

    /// [`EntityPair::serialize`] into a caller-owned buffer: `out` is
    /// overwritten (previous contents discarded, capacity kept), so a
    /// sweep that only inspects each serialization — token counting,
    /// embedding — reuses one allocation.
    pub fn serialize_into(&self, out: &mut String) {
        out.clear();
        write_pair(&self.a, &self.b, out);
    }
}

/// A pair together with its gold label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledPair {
    /// The candidate pair.
    pub pair: EntityPair,
    /// Its gold label.
    pub label: MatchLabel,
}

impl LabeledPair {
    /// Convenience constructor.
    pub fn new(pair: EntityPair, label: MatchLabel) -> Self {
        Self { pair, label }
    }
}

/// Serializes a single record per Eq. 1: `attr1: val1, attr2: val2, ...`.
///
/// The comma-space separator between attributes and the colon-space between
/// name and value mirror the prompt layout in Fig. 1 / Example 5 of the
/// paper. Missing values render as an empty string after the colon, which
/// lets the LLM (and its simulator) observe missingness.
pub fn serialize_record(record: &Record) -> String {
    let mut out = String::with_capacity(record_len(record));
    write_record(record, &mut out);
    out
}

/// Serializes a pair per Eq. 1: `S(a)[SEP]S(b)`.
pub fn serialize_pair(a: &Record, b: &Record) -> String {
    let mut out = String::with_capacity(record_len(a) + record_len(b) + SEP.len() + 2);
    write_pair(a, b, &mut out);
    out
}

/// Appends `S(a) [SEP] S(b)` to `out`.
fn write_pair(a: &Record, b: &Record, out: &mut String) {
    write_record(a, out);
    out.push(' ');
    out.push_str(SEP);
    out.push(' ');
    write_record(b, out);
}

/// Appends `S(record)` to `out`.
fn write_record(record: &Record, out: &mut String) {
    let names = record.schema().attributes();
    for (i, (name, value)) in names.iter().zip(record.values()).enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(name);
        out.push_str(": ");
        out.push_str(value);
    }
}

/// Byte length of `S(record)`, so serializations allocate exactly once.
fn record_len(record: &Record) -> usize {
    let names = record.schema().attributes();
    // ": " per attribute, ", " between attributes.
    let separators = 2 * names.len() + 2 * names.len().saturating_sub(1);
    let text: usize = names
        .iter()
        .zip(record.values())
        .map(|(name, value)| name.len() + value.len())
        .sum();
    separators + text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{RecordId, Schema};

    fn pair() -> EntityPair {
        let schema = Arc::new(Schema::new(["title", "id"]).unwrap());
        let a = Arc::new(
            Record::new(
                RecordId::a(0),
                Arc::clone(&schema),
                vec!["iphone-13".into(), "0256".into()],
            )
            .unwrap(),
        );
        let b = Arc::new(
            Record::new(
                RecordId::b(0),
                Arc::clone(&schema),
                vec!["iphone-14".into(), String::new()],
            )
            .unwrap(),
        );
        EntityPair::new(PairId(0), a, b).unwrap()
    }

    #[test]
    fn serialization_follows_eq1() {
        let p = pair();
        assert_eq!(
            p.serialize(),
            "title: iphone-13, id: 0256 [SEP] title: iphone-14, id: "
        );
    }

    #[test]
    fn serialize_allocates_exactly_its_length() {
        let p = pair();
        let s = p.serialize();
        assert_eq!(s.capacity(), s.len());
        let r = serialize_record(p.a());
        assert_eq!(r, "title: iphone-13, id: 0256");
        assert_eq!(r.capacity(), r.len());
    }

    #[test]
    fn serialize_into_overwrites_and_equals_serialize() {
        let schema = Arc::new(Schema::new(["name", "note", "city"]).unwrap());
        let record = |id, values: [&str; 3]| {
            Arc::new(
                Record::new(
                    id,
                    Arc::clone(&schema),
                    values.iter().map(|v| v.to_string()).collect(),
                )
                .unwrap(),
            )
        };
        // Missing values, non-ASCII, and a value that contains the
        // separator itself.
        let pairs = [
            EntityPair::new(
                PairId(0),
                record(RecordId::a(0), ["Café Ünïon™", "", "Zürich"]),
                record(RecordId::b(0), ["cafe union", "a [SEP] b", ""]),
            )
            .unwrap(),
            EntityPair::new(
                PairId(1),
                record(RecordId::a(1), ["", "", ""]),
                record(RecordId::b(1), ["", "", ""]),
            )
            .unwrap(),
            pair(),
        ];
        let mut buf = String::from("left over from the previous pair");
        for p in &pairs {
            p.serialize_into(&mut buf);
            assert_eq!(buf, p.serialize());
            assert_eq!(
                buf,
                format!(
                    "{} {SEP} {}",
                    serialize_record(p.a()),
                    serialize_record(p.b())
                )
            );
        }
    }

    #[test]
    fn pair_rejects_schema_mismatch() {
        let s1 = Arc::new(Schema::new(["title"]).unwrap());
        let s2 = Arc::new(Schema::new(["name"]).unwrap());
        let a = Arc::new(Record::new(RecordId::a(0), s1, vec!["x".into()]).unwrap());
        let b = Arc::new(Record::new(RecordId::b(0), s2, vec!["y".into()]).unwrap());
        assert_eq!(
            EntityPair::new(PairId(1), a, b).unwrap_err(),
            ErError::SchemaMismatch
        );
    }

    #[test]
    fn label_roundtrip() {
        assert!(MatchLabel::from_bool(true).is_match());
        assert!(!MatchLabel::from_bool(false).is_match());
        assert_eq!(MatchLabel::Matching.to_string(), "matching");
    }

    #[test]
    fn serialized_pair_contains_sep_exactly_once_for_clean_values() {
        let p = pair();
        let s = p.serialize();
        assert_eq!(s.matches(SEP).count(), 1);
    }
}
