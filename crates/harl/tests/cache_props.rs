//! Property and determinism tests for the plan cache stack: fingerprints
//! are byte-stable across thread counts, cache hits are bit-identical to
//! cold plans, and incremental re-planning with every region dirty equals
//! the full re-plan exactly.

use harl_core::{
    fingerprint_sorted, plan_file, MultiProfileModel, OptimizerConfig, PlanReuse,
    RegionDivisionConfig, TraceRecord,
};
use harl_devices::OpKind;
use harl_pfs::ClusterConfig;
use harl_simcore::{SimContext, SimNanos};
use proptest::prelude::*;

fn model() -> MultiProfileModel {
    MultiProfileModel::from_cluster(&ClusterConfig::paper_default())
}

prop_compose! {
    /// A multi-phase workload: a few phases of differing request size and
    /// op mix, laid out back to back (several Algorithm 1 regions).
    fn phased_workload()(
        phases in prop::collection::vec((1u64..24, any::<bool>(), 4u64..40), 1..5),
    ) -> (Vec<TraceRecord>, u64) {
        let mut records = Vec::new();
        let mut offset = 0u64;
        for (i, &(size_units, is_read, count)) in phases.iter().enumerate() {
            let size = size_units * 16 * 1024;
            let op = if is_read { OpKind::Read } else { OpKind::Write };
            for j in 0..count {
                records.push(TraceRecord {
                    rank: (j % 4) as u32,
                    fd: 0,
                    op,
                    offset,
                    size,
                    timestamp: SimNanos::from_nanos((i as u64) * 10_000 + j),
                });
                offset += size;
            }
        }
        let file_size = offset.max(1).next_multiple_of(4 * 1024 * 1024);
        (records, file_size)
    }
}

fn division() -> RegionDivisionConfig {
    RegionDivisionConfig {
        fixed_region_size: 4 * 1024 * 1024,
        ..RegionDivisionConfig::default()
    }
}

fn optimizer() -> OptimizerConfig {
    OptimizerConfig {
        max_requests_per_eval: 64,
        ..OptimizerConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Incremental re-planning under full dirtiness — an empty reuse table,
    /// so every region recomputes — must equal the full re-plan bitwise:
    /// same merged RST, and each per-region choice identical.
    #[test]
    fn all_dirty_incremental_equals_full_replan((records, file_size) in phased_workload()) {
        let m = model();
        let ctx = SimContext::new();
        let mut sorted = records;
        sorted.sort_by_key(|r| r.offset);
        let full = plan_file(&ctx, &m, &sorted, file_size, &division(), &optimizer(), None);
        let empty = PlanReuse::new();
        let dirty = plan_file(&ctx, &m, &sorted, file_size, &division(), &optimizer(), Some(&empty));
        prop_assert_eq!(&dirty.rst, &full.rst);
        prop_assert_eq!(dirty.reused, 0);

        // And a fully-warm table reproduces the same plan without running
        // a single grid search.
        let reuse: PlanReuse = dirty.region_plans.iter().cloned().collect();
        let warm = plan_file(&ctx, &m, &sorted, file_size, &division(), &optimizer(), Some(&reuse));
        prop_assert_eq!(&warm.rst, &full.rst);
        prop_assert_eq!(warm.planned, 0);
    }

    /// The fingerprint is a pure function of the trace: identical bytes at
    /// any thread budget, and insensitive to pre-sort record order.
    #[test]
    fn fingerprint_bytes_stable_across_thread_counts((records, file_size) in phased_workload()) {
        let m = model();
        let mut sorted = records.clone();
        sorted.sort_by_key(|r| r.offset);
        let reference = fingerprint_sorted(&sorted, file_size, &division(), &m);
        let reference_json = reference.canonical_json();
        for threads in [1usize, 2, 8] {
            // Thread budgets ride on the context; the fingerprint must not
            // observe them (it has no fan-out at all), and planning at any
            // budget leaves the trace — hence the fingerprint — unchanged.
            let ctx = SimContext::new().with_threads(threads);
            let planned = plan_file(&ctx, &m, &sorted, file_size, &division(), &optimizer(), None);
            prop_assert!(!planned.rst.is_empty());
            let fp = fingerprint_sorted(&sorted, file_size, &division(), &m);
            prop_assert_eq!(&fp, &reference);
            prop_assert_eq!(fp.canonical_json(), reference_json.clone());
        }
    }

    /// Planning itself stays thread-count invariant through the cache
    /// refactor, keys included.
    #[test]
    fn plan_file_thread_invariant((records, file_size) in phased_workload()) {
        let m = model();
        let mut sorted = records;
        sorted.sort_by_key(|r| r.offset);
        let empty = PlanReuse::new();
        let reference = plan_file(
            &SimContext::new().with_threads(1),
            &m, &sorted, file_size, &division(), &optimizer(), Some(&empty),
        );
        for threads in [2usize, 8] {
            let got = plan_file(
                &SimContext::new().with_threads(threads),
                &m, &sorted, file_size, &division(), &optimizer(), Some(&empty),
            );
            prop_assert_eq!(&got.rst, &reference.rst);
            prop_assert_eq!(&got.region_plans, &reference.region_plans);
        }
    }
}
