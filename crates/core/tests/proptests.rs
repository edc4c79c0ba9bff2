//! Property-based tests for the BatchER framework invariants: batching
//! partitions, cover correctness, and selection plan sanity.

use batcher_core::batching::make_batches;
use batcher_core::selection::{select_demonstrations, SelectionParams};
use batcher_core::{
    greedy_weighted_cover, BatchingStrategy, ClusteringKind, CoverTable, DistanceKind,
    FeatureSpace, Rows, SelectionStrategy,
};
use proptest::prelude::*;

fn arb_points(max: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.0f64..1.0, 3), 1..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every batching strategy partitions the question set exactly —
    /// no question lost, none duplicated, no batch oversized (§II-C:
    /// ∪ B_i = M).
    #[test]
    fn batching_partitions(
        points in arb_points(60),
        batch_size in 1usize..12,
        seed in any::<u64>(),
    ) {
        let space = FeatureSpace::from_vectors(points.clone(), DistanceKind::Euclidean);
        for strategy in BatchingStrategy::ALL {
            for clustering in [ClusteringKind::Dbscan, ClusteringKind::KMeans] {
                let batches = make_batches(&space, strategy, clustering, batch_size, seed);
                let mut seen: Vec<usize> = batches.iter().flatten().copied().collect();
                seen.sort_unstable();
                let expect: Vec<usize> = (0..points.len()).collect();
                prop_assert_eq!(&seen, &expect, "{:?}/{:?} not a partition", strategy, clustering);
                prop_assert!(
                    batches.iter().all(|b| b.len() <= batch_size),
                    "{:?} produced an oversized batch", strategy
                );
            }
        }
    }

    /// Greedy set cover always covers every coverable element and never
    /// selects a zero-gain candidate.
    #[test]
    fn cover_correct(
        coverage in prop::collection::vec(
            prop::collection::vec(0u32..40, 0..12),
            1..25,
        ),
    ) {
        let n = 40usize;
        let mut rows = Rows::new();
        for list in &coverage {
            rows.push_row(list.iter().copied());
        }
        let picked = greedy_weighted_cover(&CoverTable::from_candidate_rows(rows, n), |_| 1.0);
        // Selected set covers exactly the union of all candidate coverage.
        let mut covered = vec![false; n];
        for &d in &picked {
            for &e in &coverage[d] {
                covered[e as usize] = true;
            }
        }
        let mut coverable = vec![false; n];
        for c in &coverage {
            for &e in c {
                coverable[e as usize] = true;
            }
        }
        prop_assert_eq!(covered, coverable);
        // No duplicates in the selection.
        let mut uniq = picked.clone();
        uniq.sort_unstable();
        uniq.dedup();
        prop_assert_eq!(uniq.len(), picked.len());
    }

    /// Selection plans are sane for every strategy: per-batch lists are
    /// duplicate-free subsets of the labeled set (for relevance-driven
    /// strategies), and the labeled set indexes into the pool.
    #[test]
    fn selection_plans_sane(
        q_points in arb_points(30),
        pool_points in arb_points(30),
        seed in any::<u64>(),
    ) {
        let questions = FeatureSpace::from_vectors(q_points.clone(), DistanceKind::Euclidean);
        let pool = FeatureSpace::from_vectors(pool_points.clone(), DistanceKind::Euclidean);
        let batches = make_batches(
            &questions,
            BatchingStrategy::Random,
            ClusteringKind::Dbscan,
            4,
            seed,
        );
        for strategy in SelectionStrategy::ALL {
            let plan = select_demonstrations(
                strategy,
                &questions,
                &pool,
                &batches,
                SelectionParams { k: 3, cover_percentile: 20.0, seed },
                |_| 1.0,
            );
            prop_assert_eq!(plan.per_batch.len(), batches.len());
            for (bi, demos) in plan.per_batch.iter().enumerate() {
                let mut uniq = demos.clone();
                uniq.sort_unstable();
                uniq.dedup();
                prop_assert_eq!(uniq.len(), demos.len(), "{:?} batch {} has duplicate demos", strategy, bi);
                for &d in demos {
                    prop_assert!(d < pool_points.len(), "{:?} demo index out of pool", strategy);
                    prop_assert!(
                        plan.labeled.contains(&d),
                        "{:?} prompts an unlabeled demo", strategy
                    );
                }
            }
            prop_assert!(plan.labeled.iter().all(|&d| d < pool_points.len()));
        }
    }

    /// The covering threshold is monotone in the percentile.
    #[test]
    fn percentile_monotone(points in arb_points(40), seed in any::<u64>()) {
        let space = FeatureSpace::from_vectors(points, DistanceKind::Euclidean);
        let p5 = space.distance_percentile(5.0, 10_000, seed);
        let p50 = space.distance_percentile(50.0, 10_000, seed);
        let p95 = space.distance_percentile(95.0, 10_000, seed);
        prop_assert!(p5 <= p50 && p50 <= p95);
    }
}
