//! Relational records: schemas, tuples and identifiers.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::error::ErError;

/// Which of the two input tables a record belongs to (§II-A: tables `T_A`
/// and `T_B`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SourceTable {
    /// The left relation `T_A`.
    A,
    /// The right relation `T_B`.
    B,
}

impl fmt::Display for SourceTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceTable::A => write!(f, "A"),
            SourceTable::B => write!(f, "B"),
        }
    }
}

/// Identifier of a record within one source table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RecordId {
    /// The table the record lives in.
    pub table: SourceTable,
    /// Zero-based row index within that table.
    pub row: u32,
}

impl RecordId {
    /// A record in table `T_A`.
    pub fn a(row: u32) -> Self {
        Self { table: SourceTable::A, row }
    }

    /// A record in table `T_B`.
    pub fn b(row: u32) -> Self {
        Self { table: SourceTable::B, row }
    }
}

impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.table, self.row)
    }
}

/// An ordered list of attribute names shared by all records of a dataset.
///
/// Both tables of a Magellan-style benchmark share one schema (the matcher
/// compares attribute `i` of `a` against attribute `i` of `b`), which is the
/// assumption the structure-aware feature extractor (§III-B) relies on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    attributes: Vec<String>,
}

impl Schema {
    /// Builds a schema from attribute names.
    ///
    /// # Errors
    /// Returns [`ErError::EmptySchema`] when no attributes are given and
    /// [`ErError::DuplicateAttribute`] when a name repeats.
    pub fn new<I, S>(names: I) -> Result<Self, ErError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let attributes: Vec<String> = names.into_iter().map(Into::into).collect();
        if attributes.is_empty() {
            return Err(ErError::EmptySchema);
        }
        // One pass: a request body may carry a schema of 10⁵ names.
        let mut seen: HashSet<&str> = HashSet::with_capacity(attributes.len());
        if let Some(repeat) = attributes.iter().find(|name| !seen.insert(name)) {
            return Err(ErError::DuplicateAttribute(repeat.clone()));
        }
        Ok(Self { attributes })
    }

    /// Number of attributes `m`.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Attribute names, in serialization order.
    pub fn attributes(&self) -> &[String] {
        &self.attributes
    }

    /// Index of `name`, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.attributes.iter().position(|a| a == name)
    }
}

/// One entity: a tuple of attribute values positionally aligned with a
/// [`Schema`].
///
/// Values are plain strings; a missing value is represented by an empty
/// string, matching how Magellan CSV benchmarks encode NULLs and how the
/// paper's serialization renders them (`attr: ` with nothing after the
/// colon).
///
/// Records intentionally do not implement serde traits: they travel between
/// processes as serialized prompt text (Eq. 1), never as structured JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    id: RecordId,
    schema: Arc<Schema>,
    values: Vec<String>,
}

impl Record {
    /// Builds a record; `values` must have exactly `schema.arity()` entries.
    pub fn new(id: RecordId, schema: Arc<Schema>, values: Vec<String>) -> Result<Self, ErError> {
        if values.len() != schema.arity() {
            return Err(ErError::ArityMismatch { expected: schema.arity(), got: values.len() });
        }
        Ok(Self { id, schema, values })
    }

    /// The record identifier.
    pub fn id(&self) -> RecordId {
        self.id
    }

    /// The shared schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// All attribute values in schema order.
    pub fn values(&self) -> &[String] {
        &self.values
    }

    /// Value of attribute `i` (schema order).
    pub fn value(&self, i: usize) -> Option<&str> {
        self.values.get(i).map(String::as_str)
    }

    /// Value of the attribute called `name`.
    pub fn value_by_name(&self, name: &str) -> Option<&str> {
        self.schema.index_of(name).and_then(|i| self.value(i))
    }

    /// True when the attribute value at `i` is missing (empty after
    /// trimming).
    pub fn is_missing(&self, i: usize) -> bool {
        self.value(i).is_none_or(|v| v.trim().is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::new(["title", "brand", "price"]).unwrap())
    }

    #[test]
    fn schema_rejects_empty() {
        assert!(matches!(
            Schema::new(Vec::<String>::new()),
            Err(ErError::EmptySchema)
        ));
    }

    #[test]
    fn schema_rejects_duplicates() {
        let err = Schema::new(["a", "b", "a"]).unwrap_err();
        assert!(matches!(err, ErError::DuplicateAttribute(name) if name == "a"));
        // The first name to repeat is the one named, not the first repeated.
        let err = Schema::new(["a", "b", "c", "b", "a"]).unwrap_err();
        assert!(matches!(err, ErError::DuplicateAttribute(name) if name == "b"));
    }

    #[test]
    fn schema_check_is_linear_in_the_names() {
        // 200,000 names: a scan per name is 2·10¹⁰ string compares
        // (minutes); one pass is milliseconds, debug build included.
        let names = || (0..200_000).map(|i| format!("attribute_{i}"));
        let started = std::time::Instant::now();
        assert_eq!(Schema::new(names()).expect("distinct").arity(), 200_000);
        let late_repeat = names().chain(["attribute_7".to_owned()]);
        let err = Schema::new(late_repeat).unwrap_err();
        assert!(matches!(err, ErError::DuplicateAttribute(name) if name == "attribute_7"));
        assert!(
            started.elapsed() < std::time::Duration::from_secs(1),
            "two 200,000-name schemas took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn schema_lookup() {
        let s = schema();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.index_of("brand"), Some(1));
        assert_eq!(s.index_of("missing"), None);
    }

    #[test]
    fn record_arity_checked() {
        let s = schema();
        let err = Record::new(RecordId::a(0), s, vec!["x".into()]).unwrap_err();
        assert!(matches!(
            err,
            ErError::ArityMismatch { expected: 3, got: 1 }
        ));
    }

    #[test]
    fn record_value_access() {
        let s = schema();
        let r = Record::new(
            RecordId::b(7),
            s,
            vec!["iphone 13".into(), "apple".into(), String::new()],
        )
        .unwrap();
        assert_eq!(r.value(0), Some("iphone 13"));
        assert_eq!(r.value_by_name("brand"), Some("apple"));
        assert_eq!(r.value(9), None);
        assert!(r.is_missing(2));
        assert!(!r.is_missing(0));
        assert_eq!(r.id().to_string(), "B7");
    }

    #[test]
    fn record_id_ordering_is_stable() {
        assert!(RecordId::a(1) < RecordId::a(2));
        assert!(RecordId::a(5) < RecordId::b(0));
    }
}
