//! Property tests: Algorithm 2's result is the true grid minimum, for
//! arbitrary small workloads (brute-force verified), the library's
//! request cost is the paper's Eqs. 1–8 assembled from a per-server scan,
//! to the bit, at any class count, and the cost floor the searches prune
//! on never exceeds that cost at any offset.

use harl_core::{
    optimize_region, CostKernel, MultiProfileModel, MultiProfileOptimizer, OptimizerConfig,
    RegionRequests, TraceRecord,
};
use harl_devices::{
    hdd_2015_preset, nvme_2020_preset, object_store_preset, ssd_2015_preset, NetworkProfile, OpKind,
};
use harl_pfs::ClusterConfig;
use harl_simcore::{SimContext, SimNanos};
use proptest::prelude::*;

fn model() -> MultiProfileModel {
    MultiProfileModel::from_cluster(&ClusterConfig::paper_default())
}

prop_compose! {
    fn small_workload()(
        sizes in prop::collection::vec(1u64..64, 1..12),
        op_read in any::<bool>(),
    ) -> Vec<TraceRecord> {
        let op = if op_read { OpKind::Read } else { OpKind::Write };
        let mut offset = 0;
        sizes.iter().enumerate().map(|(i, &s)| {
            let size = s * 8192;
            let r = TraceRecord {
                rank: 0, fd: 0, op, offset, size,
                timestamp: SimNanos::from_nanos(i as u64),
            };
            offset += size;
            r
        }).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// optimize_region returns the exact minimum of the candidate grid.
    #[test]
    fn optimizer_is_grid_optimal(records in small_workload()) {
        let m = model();
        let avg = (records.iter().map(|r| r.size).sum::<u64>()
            / records.len() as u64).max(1);
        let cfg = OptimizerConfig {
            step: 32 * 1024,
            max_grid_points: 64,
            max_requests_per_eval: records.len(),
            threads: 1,
        };
        let reqs = RegionRequests::new(&records, 0);
        let choice = optimize_region(&SimContext::new(), &m, &reqs, avg, &cfg, 0);

        // Brute force over the same candidate set.
        let kernel = CostKernel::new(&m);
        let step = cfg.effective_step(avg);
        let r_bar = avg.max(step).div_ceil(step) * step;
        let mut h = 0u64;
        while h <= r_bar {
            let mut s = h + step;
            while s <= r_bar + step {
                let cost: f64 = records.iter()
                    .map(|r| kernel.request_cost(r.offset, r.size, r.op, &[h, s]))
                    .sum();
                prop_assert!(
                    cost >= choice.cost - 1e-12,
                    "candidate ({h}, {s}) cost {cost} beats chosen ({}, {}) cost {}",
                    choice.h(), choice.s(), choice.cost
                );
                s += step;
            }
            h += step;
        }
        // The single-HServer extreme too.
        let cost: f64 = records.iter()
            .map(|r| kernel.request_cost(r.offset, r.size, r.op, &[r_bar, 0]))
            .sum();
        prop_assert!(cost >= choice.cost - 1e-12);
    }

    /// On a two-class cluster, the K-class coordinate descent and the
    /// paper's exhaustive K=2 grid agree: for arbitrary small workloads
    /// the descent cost lands within 5% of the grid minimum (it can stop
    /// at a nearby local optimum but never drifts).
    #[test]
    fn descent_agrees_with_grid_on_two_classes(records in small_workload()) {
        let m = model();
        let avg = (records.iter().map(|r| r.size).sum::<u64>()
            / records.len() as u64).max(1);
        let cfg = OptimizerConfig {
            step: 32 * 1024,
            max_grid_points: 64,
            max_requests_per_eval: records.len(),
            threads: 1,
        };
        let reqs = RegionRequests::new(&records, 0);
        let choice = optimize_region(&SimContext::new(), &m, &reqs, avg, &cfg, 0);

        let mut opt = MultiProfileOptimizer::new(m);
        opt.step = cfg.step;
        opt.max_grid_points = cfg.max_grid_points;
        let sample: Vec<(u64, u64, OpKind)> =
            records.iter().map(|r| (r.offset, r.size, r.op)).collect();
        let (widths, cost) = opt.optimize(&sample, avg);
        prop_assert_eq!(widths.len(), 2);
        prop_assert!(
            cost <= choice.cost * 1.05 + 1e-9,
            "descent cost {cost} is >5% above grid minimum {g} (widths {widths:?} vs ({}, {}))",
            choice.h(), choice.s(), g = choice.cost
        );
        prop_assert!(
            choice.cost <= cost * 1.05 + 1e-9,
            "grid minimum {g} is >5% above descent cost {cost} — descent escaped the grid \
             candidate set (widths {widths:?} vs ({}, {}))",
            choice.h(), choice.s(), g = choice.cost
        );
    }

    /// Per-class loads shrink (weakly), both the largest load and the
    /// servers touched, when the request shrinks from the right.
    #[test]
    fn loads_monotone_in_size(
        h in 1u64..64, s in 1u64..64,
        offset in 0u64..(1 << 28),
        size in 2u64..(1 << 22),
    ) {
        let widths = [h * 4096, s * 4096];
        let kernel = CostKernel::new(&model());
        let big = kernel.class_loads(offset, size, &widths);
        let small = kernel.class_loads(offset, size / 2, &widths);
        for (small, big) in small.iter().zip(&big) {
            prop_assert!(small.0 <= big.0);
            prop_assert!(small.1 <= big.1);
        }
    }
}

/// Per-class `(max_load, servers_touched)` of `[offset, offset + size)` by
/// walking every server: server `i` of class `c` holds
/// `[base_c + i·w_c, base_c + (i + 1)·w_c)` of each stripe group, where
/// `base_c` is the width of the classes before it. O(servers) per
/// request; the library's closed form must agree with it exactly.
fn server_loads_scan(
    offset: u64,
    size: u64,
    counts: &[usize],
    widths: &[u64],
) -> Vec<(u64, usize)> {
    let group: u64 = counts.iter().zip(widths).map(|(&n, &w)| n as u64 * w).sum();
    assert!(group > 0, "layout has no capacity");
    // Bytes of `[0, x)` on the server whose segment starts at `base`.
    let below =
        |x: u64, base: u64, w: u64| (x / group) * w + (x % group).saturating_sub(base).min(w);
    let end = offset + size;
    let mut base = 0;
    counts
        .iter()
        .zip(widths)
        .map(|(&n, &w)| {
            let (mut max_load, mut touched) = (0, 0);
            for _ in 0..n {
                let bytes = below(end, base, w) - below(offset, base, w);
                if bytes > 0 {
                    touched += 1;
                    max_load = max_load.max(bytes);
                }
                base += w;
            }
            (max_load, touched)
        })
        .collect()
}

/// The paper's Eqs. 1–8 assembled from the scan: the slowest sub-request
/// on the wire (Eq. 1), the slowest class's expected startup maximum over
/// its `k` touched servers (Eqs. 3–5), and the slowest sub-request on a
/// device (Eq. 6), summed (Eqs. 7/8).
fn paper_cost(
    model: &MultiProfileModel,
    offset: u64,
    size: u64,
    op: OpKind,
    widths: &[u64],
) -> f64 {
    if size == 0 {
        return 0.0;
    }
    let counts: Vec<usize> = model.classes.iter().map(|c| c.count).collect();
    let loads = server_loads_scan(offset, size, &counts, widths);
    let (mut t_x, mut t_s, mut t_t) = (0.0f64, 0.0f64, 0.0f64);
    for (class, &(load, k)) in model.classes.iter().zip(&loads) {
        let p = match op {
            OpKind::Read => &class.read,
            OpKind::Write => &class.write,
        };
        t_x = t_x.max(load as f64 * model.t_s_per_byte);
        if k > 0 {
            let k = k as f64;
            t_s = t_s.max(p.alpha_min_s + k / (k + 1.0) * (p.alpha_max_s - p.alpha_min_s));
        }
        t_t = t_t.max(load as f64 * p.beta_s_per_byte);
    }
    t_x + t_s + t_t
}

/// A K-class model, its widths and one request to price.
#[derive(Debug)]
struct PricedRequest {
    model: MultiProfileModel,
    widths: Vec<u64>,
    offset: u64,
    size: u64,
    op: OpKind,
}

prop_compose! {
    /// 1–4 classes of 0–5 servers with 0–15-unit widths (zero widths and
    /// empty classes included; at least one server holds data), and a
    /// request whose endpoints land either anywhere or on the stripe,
    /// class-span and group edges of the first three groups.
    fn priced_request()(
        classes in prop::collection::vec((0usize..6, 0usize..4, 0u64..16), 1..5),
        unit in 0usize..3,
        on_edges in any::<bool>(),
        a in 0u64..(1 << 24),
        b in 0u64..(1 << 22),
        read in any::<bool>(),
    ) -> PricedRequest {
        let presets = [hdd_2015_preset(), ssd_2015_preset(), nvme_2020_preset(), object_store_preset()];
        let unit = [1000, 4096, 4097][unit];
        let mut counts: Vec<usize> = classes.iter().map(|&(n, _, _)| n).collect();
        let mut widths: Vec<u64> = classes.iter().map(|&(_, _, w)| w * unit).collect();
        if counts.iter().zip(&widths).all(|(&n, &w)| n == 0 || w == 0) {
            // No capacity: give the first class one server and one unit.
            counts[0] = counts[0].max(1);
            widths[0] = unit;
        }
        let (offset, size) = if on_edges {
            let group: u64 = counts.iter().zip(&widths).map(|(&n, &w)| n as u64 * w).sum();
            let mut edges = Vec::new();
            for g in 0..3 {
                let mut base = g * group;
                for (&n, &w) in counts.iter().zip(&widths) {
                    for i in 0..=n as u64 {
                        edges.push(base + i * w);
                    }
                    base += n as u64 * w;
                }
            }
            let (x, y) = (edges[a as usize % edges.len()], edges[b as usize % edges.len()]);
            (x.min(y), x.max(y) - x.min(y))
        } else {
            (a, b)
        };
        let model = MultiProfileModel::new(
            &NetworkProfile::gigabit_ethernet(),
            counts
                .iter()
                .zip(&classes)
                .map(|(&n, &(_, p, _))| (n, presets[p].clone()))
                .collect(),
        );
        let op = if read { OpKind::Read } else { OpKind::Write };
        PricedRequest { model, widths, offset, size, op }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The library prices every request exactly as the paper-form oracle
    /// does, to the bit: the closed-form class loads equal the per-server
    /// scan, and the cost kernel's Eqs. 1–8 price equals the oracle's at
    /// any class count, for both ops, on and off stripe edges.
    #[test]
    fn cost_matches_paper_form_oracle(req in priced_request()) {
        let PricedRequest { model, widths, offset, size, op } = &req;
        let (offset, size, op) = (*offset, *size, *op);
        let counts: Vec<usize> = model.classes.iter().map(|c| c.count).collect();
        let kernel = CostKernel::new(model);
        prop_assert_eq!(
            kernel.class_loads(offset, size, widths),
            server_loads_scan(offset, size, &counts, widths)
        );
        prop_assert_eq!(
            kernel.request_cost(offset, size, op, widths).to_bits(),
            paper_cost(model, offset, size, op, widths).to_bits()
        );
    }
}

/// A K-class model, its widths and one request shape to floor.
#[derive(Debug)]
struct FlooredShape {
    model: MultiProfileModel,
    widths: Vec<u64>,
    size: u64,
    op: OpKind,
}

prop_compose! {
    /// 1–4 classes of 0–5 servers with 0–15-unit widths (zero widths and
    /// empty classes included; at least one server holds data), and a
    /// request below, at or above the stripe group `G`: multiples of `G`,
    /// one byte either side of them, and fractions in between.
    fn floored_shape()(
        classes in prop::collection::vec((0usize..6, 0usize..4, 0u64..16), 1..5),
        unit in 0usize..3,
        shape in 0usize..6,
        groups in 1u64..5,
        frac in 0u64..1024,
        read in any::<bool>(),
    ) -> FlooredShape {
        let presets = [hdd_2015_preset(), ssd_2015_preset(), nvme_2020_preset(), object_store_preset()];
        let unit = [1, 37, 4096][unit];
        let mut counts: Vec<usize> = classes.iter().map(|&(n, _, _)| n).collect();
        let mut widths: Vec<u64> = classes.iter().map(|&(_, _, w)| w * unit).collect();
        if counts.iter().zip(&widths).all(|(&n, &w)| n == 0 || w == 0) {
            // No capacity: give the first class one server and one unit.
            counts[0] = counts[0].max(1);
            widths[0] = unit;
        }
        let group: u64 = counts.iter().zip(&widths).map(|(&n, &w)| n as u64 * w).sum();
        let size = match shape {
            0 => 1 + frac * (group - 1) / 1024,
            1 => groups * group - 1,
            2 => groups * group,
            3 => groups * group + 1,
            4 => groups * group + frac * group / 1024,
            _ => 1 + frac % 16,
        };
        let model = MultiProfileModel::new(
            &NetworkProfile::gigabit_ethernet(),
            counts
                .iter()
                .zip(&classes)
                .map(|(&n, &(_, p, _))| (n, presets[p].clone()))
                .collect(),
        );
        let op = if read { OpKind::Read } else { OpKind::Write };
        FlooredShape { model, widths, size, op }
    }
}

/// Every residue of a group of at most 4,096 bytes; for larger groups
/// 4,096 evenly spaced residues plus every stripe edge and the bytes
/// either side of it.
fn residues(counts: &[usize], widths: &[u64]) -> Vec<u64> {
    let group: u64 = counts.iter().zip(widths).map(|(&n, &w)| n as u64 * w).sum();
    if group <= 4096 {
        return (0..group).collect();
    }
    let mut out: Vec<u64> = (0..4096).map(|i| i * group / 4096).collect();
    let mut edge = 0u64;
    for (&n, &w) in counts.iter().zip(widths) {
        for _ in 0..n {
            out.extend([edge.saturating_sub(1), edge, edge + 1]);
            edge += w;
        }
    }
    out.retain(|&r| r < group);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The floor the searches prune on is at most the price at every
    /// residue of the group, as `f64`, for any class count and both ops.
    #[test]
    fn floor_never_exceeds_cost(req in floored_shape()) {
        let FlooredShape { model, widths, size, op } = &req;
        let counts: Vec<usize> = model.classes.iter().map(|c| c.count).collect();
        let kernel = CostKernel::new(model);
        let floor = kernel.request_floor(*size, *op, widths);
        prop_assert!(floor >= 0.0);
        for r in residues(&counts, widths) {
            let cost = kernel.request_cost(r, *size, *op, widths);
            prop_assert!(
                floor <= cost,
                "floor {floor} above cost {cost} at residue {r} of {req:?}"
            );
        }
    }
}

#[test]
fn floor_is_tight_on_a_balanced_layout() {
    // One class of 4 SSDs at 64 KiB: a 2-group request at any residue puts
    // 128 KiB on every server, which is exactly the floor's balanced split.
    let model = MultiProfileModel::new(
        &NetworkProfile::gigabit_ethernet(),
        vec![(4, ssd_2015_preset())],
    );
    let kernel = CostKernel::new(&model);
    let widths = [64 * 1024];
    for op in [OpKind::Read, OpKind::Write] {
        let floor = kernel.request_floor(512 * 1024, op, &widths);
        for r in [0, 1, 4096, 100_000] {
            let cost = kernel.request_cost(r, 512 * 1024, op, &widths);
            assert!(floor <= cost, "{op:?} residue {r}: {floor} > {cost}");
            assert!(
                cost - floor <= 1e-9 * cost,
                "{op:?} residue {r}: {floor} vs {cost}"
            );
        }
    }
}
