//! Property and determinism tests for the plan cache stack: fingerprints
//! are byte-stable across thread counts, and planning through a region
//! pool, empty or warm, equals the cold plan exactly.

use harl_core::{
    fingerprint_sorted, plan_file, MultiProfileModel, OptimizerConfig, RegionDivisionConfig,
    RegionPlanCache, TraceRecord,
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

    /// Planning through an empty pool — every region misses and searches —
    /// must equal the cold plan bitwise, and a pool warmed by that plan
    /// reproduces it without running a single search.
    #[test]
    fn empty_and_warm_pools_equal_the_cold_plan((records, file_size) in phased_workload()) {
        let m = model();
        let ctx = SimContext::new();
        let mut sorted = records;
        sorted.sort_by_key(|r| r.offset);
        let cold = plan_file(&ctx, &m, &sorted, file_size, &division(), &optimizer(), None);
        let mut pool = RegionPlanCache::new(64);
        let empty = plan_file(&ctx, &m, &sorted, file_size, &division(), &optimizer(), Some(&mut pool));
        prop_assert_eq!(&empty.rst, &cold.rst);
        prop_assert_eq!(empty.reused, 0);
        prop_assert_eq!(empty.planned, cold.planned);

        let warm = plan_file(&ctx, &m, &sorted, file_size, &division(), &optimizer(), Some(&mut pool));
        prop_assert_eq!(&warm.rst, &cold.rst);
        prop_assert_eq!(warm.planned, 0);
        prop_assert_eq!(warm.reused, cold.planned);
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

    /// Planning through a pool stays thread-count invariant, keys
    /// included: a pool filled at any budget answers every region of a
    /// single-threaded re-plan.
    #[test]
    fn plan_file_thread_invariant((records, file_size) in phased_workload()) {
        let m = model();
        let mut sorted = records;
        sorted.sort_by_key(|r| r.offset);
        let plan = |threads: usize, pool: &mut RegionPlanCache| {
            plan_file(
                &SimContext::new().with_threads(threads),
                &m, &sorted, file_size, &division(), &optimizer(), Some(pool),
            )
        };
        let reference = plan(1, &mut RegionPlanCache::new(64));
        for threads in [2usize, 8] {
            let mut pool = RegionPlanCache::new(64);
            let got = plan(threads, &mut pool);
            prop_assert_eq!(&got.rst, &reference.rst);
            prop_assert_eq!(got.planned, reference.planned);
            let again = plan(1, &mut pool);
            prop_assert_eq!(&again.rst, &reference.rst);
            prop_assert_eq!(again.planned, 0);
        }
    }
}
