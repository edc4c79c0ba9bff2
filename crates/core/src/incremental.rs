//! A keyed question set planned from scratch, for the benchmark's planner
//! drill (`benchmark/src/drills.rs`), which inserts and retires questions
//! by key and re-plans after each delta. Despite the module's name there
//! is one planner: every [`PlanState::plan`] is
//! [`plan_with_prepared_pool`] over the active questions in key order.
//! This shim leaves with the drill.

use std::collections::BTreeMap;

use er_core::EntityPair;

use crate::plan::{plan_with_prepared_pool, BatchPlanConfig, PreparedPool, QuestionBatchPlan};

/// How a [`PlanState`] epoch was planned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// From scratch over the whole active set.
    Full,
}

/// One epoch's output.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochPlan {
    /// The plan; `plan.batches` indices refer to the active questions in
    /// ascending key order.
    pub plan: QuestionBatchPlan,
    /// Always [`PlanKind::Full`].
    pub kind: PlanKind,
}

/// The active questions by caller key, planned against a fixed pool.
#[derive(Debug, Clone)]
pub struct PlanState {
    config: BatchPlanConfig,
    pool: PreparedPool,
    active: BTreeMap<u64, EntityPair>,
}

impl PlanState {
    /// An empty state over an already-prepared pool.
    pub fn from_prepared(pool: PreparedPool, config: BatchPlanConfig) -> Self {
        Self { config, pool, active: BTreeMap::new() }
    }

    /// Inserts one question under `key`. Returns `false` (and changes
    /// nothing) when the key is already active.
    pub fn insert(&mut self, key: u64, pair: &EntityPair) -> bool {
        if self.active.contains_key(&key) {
            return false;
        }
        self.active.insert(key, pair.clone());
        true
    }

    /// Retires the question under `key`. Returns `false` when no such
    /// active question exists.
    pub fn retire(&mut self, key: u64) -> bool {
        self.active.remove(&key).is_some()
    }

    /// Plans the active questions, in ascending key order, with `seed`
    /// in place of the config's.
    pub fn plan(&mut self, seed: u64) -> EpochPlan {
        let questions: Vec<&EntityPair> = self.active.values().collect();
        let config = BatchPlanConfig { seed, ..self.config };
        EpochPlan {
            plan: plan_with_prepared_pool(&questions, &self.pool, &config),
            kind: PlanKind::Full,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, DatasetKind};
    use er_core::LabeledPair;

    fn fixtures() -> (PreparedPool, Vec<LabeledPair>) {
        let d = generate(DatasetKind::Beer, 3);
        let pairs = d.pairs().to_vec();
        let pool: Vec<&LabeledPair> = pairs[..40].iter().collect();
        let config = BatchPlanConfig::default();
        let prepared = PreparedPool::prepare(&pool, config.extractor, config.distance);
        (prepared, pairs[40..100].to_vec())
    }

    #[test]
    fn every_plan_is_the_from_scratch_plan_of_the_live_set() {
        let (pool, questions) = fixtures();
        // Random batching, so the plan depends on the seed `plan` takes.
        let config =
            BatchPlanConfig { batching: crate::BatchingStrategy::Random, ..Default::default() };
        let mut state = PlanState::from_prepared(pool.clone(), config);
        let mut live: BTreeMap<u64, &EntityPair> = BTreeMap::new();
        let check = |state: &mut PlanState, live: &BTreeMap<u64, &EntityPair>, seed| {
            let epoch = state.plan(seed);
            assert_eq!(epoch.kind, PlanKind::Full);
            let refs: Vec<&EntityPair> = live.values().copied().collect();
            let config = BatchPlanConfig { seed, ..config };
            assert_eq!(epoch.plan, plan_with_prepared_pool(&refs, &pool, &config));
        };

        // Keys out of arrival order, so key order is not insertion order.
        for (i, p) in questions[..50].iter().enumerate() {
            let key = (i as u64 * 7 + 3) % 50;
            assert!(state.insert(key, &p.pair));
            live.insert(key, &p.pair);
        }
        check(&mut state, &live, 11);

        for key in [3u64, 17, 31] {
            assert!(state.retire(key));
            live.remove(&key);
        }
        for (i, p) in questions[50..55].iter().enumerate() {
            let key = 100 - i as u64;
            assert!(state.insert(key, &p.pair));
            live.insert(key, &p.pair);
        }
        check(&mut state, &live, 12);
    }

    #[test]
    fn duplicate_keys_and_unknown_retires_are_rejected() {
        let (pool, questions) = fixtures();
        let mut state = PlanState::from_prepared(pool, BatchPlanConfig::default());
        assert!(state.insert(1, &questions[0].pair));
        assert!(!state.insert(1, &questions[1].pair));
        assert!(!state.retire(99));
        assert!(state.retire(1));
        assert!(!state.retire(1));
        assert!(state.plan(1).plan.is_empty());
    }
}
