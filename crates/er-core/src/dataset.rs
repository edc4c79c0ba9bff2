//! Labeled ER benchmark datasets (Table II of the paper).

use std::sync::Arc;

use crate::error::ErError;
use crate::pair::{LabeledPair, MatchLabel};
use crate::record::Schema;
use crate::split::ThreeWaySplit;

/// A labeled benchmark: a schema plus a list of candidate pairs with gold
/// labels, as produced by a blocker over two source tables.
#[derive(Debug, Clone)]
pub struct Dataset {
    name: String,
    domain: String,
    schema: Arc<Schema>,
    pairs: Vec<LabeledPair>,
}

impl Dataset {
    /// Builds a dataset; at least one labeled pair is required.
    pub fn new(
        name: impl Into<String>,
        domain: impl Into<String>,
        schema: Arc<Schema>,
        pairs: Vec<LabeledPair>,
    ) -> Result<Self, ErError> {
        if pairs.is_empty() {
            return Err(ErError::EmptyDataset);
        }
        Ok(Self { name: name.into(), domain: domain.into(), schema, pairs })
    }

    /// Short dataset name, e.g. `"WA"` for Walmart-Amazon.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Domain string, e.g. `"Electronics"`.
    pub fn domain(&self) -> &str {
        &self.domain
    }

    /// The shared schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// All labeled pairs.
    pub fn pairs(&self) -> &[LabeledPair] {
        &self.pairs
    }

    /// Number of labeled pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Always false — construction rejects empty datasets.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Summary statistics in the shape of the paper's Table II.
    pub fn stats(&self) -> DatasetStats {
        let matches = self
            .pairs
            .iter()
            .filter(|p| p.label == MatchLabel::Matching)
            .count();
        DatasetStats {
            name: self.name.clone(),
            domain: self.domain.clone(),
            attributes: self.schema.arity(),
            pairs: self.pairs.len(),
            matches,
        }
    }

    /// Splits into train : valid : test = 3 : 1 : 1 (§VI-A), deterministic
    /// in `seed`.
    pub fn split_3_1_1(&self, seed: u64) -> Result<ThreeWaySplit<'_>, ErError> {
        ThreeWaySplit::new(&self.pairs, 3, 1, 1, seed)
    }
}

/// One row of Table II: per-dataset statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetStats {
    /// Short name (WA, AB, ...).
    pub name: String,
    /// Domain (Electronics, Citation, ...).
    pub domain: String,
    /// Attribute count `m`.
    pub attributes: usize,
    /// Number of labeled candidate pairs.
    pub pairs: usize,
    /// Number of matching pairs among them.
    pub matches: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair::{EntityPair, PairId};
    use crate::record::{Record, RecordId};

    fn tiny_dataset(n: usize) -> Dataset {
        let schema = Arc::new(Schema::new(["title"]).unwrap());
        let pairs = (0..n)
            .map(|i| {
                let a = Arc::new(
                    Record::new(
                        RecordId::a(i as u32),
                        Arc::clone(&schema),
                        vec![format!("item {i}")],
                    )
                    .unwrap(),
                );
                let b = Arc::new(
                    Record::new(
                        RecordId::b(i as u32),
                        Arc::clone(&schema),
                        vec![format!("item {i} deluxe")],
                    )
                    .unwrap(),
                );
                LabeledPair::new(
                    EntityPair::new(PairId(i as u32), a, b).unwrap(),
                    MatchLabel::from_bool(i % 3 == 0),
                )
            })
            .collect();
        Dataset::new("TD", "Test", schema, pairs).unwrap()
    }

    #[test]
    fn rejects_empty() {
        let schema = Arc::new(Schema::new(["title"]).unwrap());
        assert!(matches!(
            Dataset::new("E", "none", schema, vec![]),
            Err(ErError::EmptyDataset)
        ));
    }

    #[test]
    fn stats_count_matches() {
        let d = tiny_dataset(9);
        let s = d.stats();
        assert_eq!(s.pairs, 9);
        assert_eq!(s.matches, 3); // i = 0, 3, 6
        assert_eq!(s.attributes, 1);
    }

    #[test]
    fn split_covers_everything_without_overlap() {
        let d = tiny_dataset(50);
        let split = d.split_3_1_1(42).unwrap();
        assert_eq!(split.train.len() + split.valid.len() + split.test.len(), 50);
        // 3:1:1 over 50 = 30/10/10.
        assert_eq!(split.train.len(), 30);
        assert_eq!(split.valid.len(), 10);
        assert_eq!(split.test.len(), 10);
    }

    #[test]
    fn split_is_deterministic_in_seed() {
        let d = tiny_dataset(25);
        let s1 = d.split_3_1_1(7).unwrap();
        let s2 = d.split_3_1_1(7).unwrap();
        let ids = |ps: &[&LabeledPair]| ps.iter().map(|p| p.pair.id()).collect::<Vec<_>>();
        assert_eq!(ids(&s1.train), ids(&s2.train));
        let s3 = d.split_3_1_1(8).unwrap();
        assert_ne!(ids(&s1.train), ids(&s3.train));
    }
}
