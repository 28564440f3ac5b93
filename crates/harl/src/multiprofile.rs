//! K-profile extension — the paper's stated future work: *"we would like
//! to extend our cost model to accommodate more than two server
//! performance profiles."*
//!
//! The two-class cost structure of Sec. III-D generalises directly: a
//! request's cost is still `T_X + T_S + T_T`, with each term the maximum
//! over the K classes of the class's network/startup/transfer component.
//! [`MultiProfileModel`] holds the per-class parameters for any `K` (the
//! paper's `(h, s)` model is `K = 2`), and [`crate::model::CostKernel`],
//! built from it, prices every request. What does not generalise is
//! Algorithm 2's 2-D grid — K nested loops are exponential — so the
//! [`MultiProfileOptimizer`] uses coordinate descent: optimise one class's
//! stripe width at a time (a 1-D scan identical in spirit to the paper's
//! loops) and iterate to a fixed point. On two-class inputs it recovers
//! the same optima as the exhaustive grid (see the tests), and the fixed
//! point is deterministic.
//!
//! Scoring a width vector is the descent's hot path. Each `optimize` call
//! builds the kernel once and decomposes the sample once into the grid's
//! strided runs, prices one request per distinct residue of each run as
//! the replay first reaches it and replays those costs in sample order,
//! stops a vector once its running sum plus the cost floor of the
//! requests still to come passes the axis incumbent (the grid's one
//! pruning test), and remembers every vector it has scored — the starts
//! revisit many of them. The result is the same left fold a per-request
//! sum computes, so widths and cost bits are exactly those of the
//! unfolded descent (a test oracle pins this).

use crate::cast::usize_to_u64;
use crate::fold::OrderedSum;
use crate::model::CostKernel;
use crate::optimizer::{effective_step, gcd, SampleRuns};
use harl_devices::{CalibrationConfig, NetworkProfile, OpKind, OpParams, StorageProfile};
use harl_pfs::ClusterConfig;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One server class in the K-profile model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassParams {
    /// Servers in the class.
    pub count: usize,
    /// Read-path parameters.
    pub read: OpParams,
    /// Write-path parameters.
    pub write: OpParams,
}

/// The K-class cost model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiProfileModel {
    /// Per-class parameters, in server-id order.
    pub classes: Vec<ClassParams>,
    /// Network per-byte time (seconds/byte).
    pub t_s_per_byte: f64,
}

impl MultiProfileModel {
    /// Build from a cluster of any number of classes.
    pub fn from_cluster(cluster: &ClusterConfig) -> Self {
        MultiProfileModel {
            classes: cluster
                .classes
                .iter()
                .map(|c| ClassParams {
                    count: c.count,
                    read: c.profile.read,
                    write: c.profile.write,
                })
                .collect(),
            t_s_per_byte: cluster.network.t_s_per_byte,
        }
    }

    /// Build from explicit profiles.
    pub fn new(network: &NetworkProfile, classes: Vec<(usize, StorageProfile)>) -> Self {
        MultiProfileModel {
            classes: classes
                .into_iter()
                .map(|(count, p)| ClassParams {
                    count,
                    read: p.read,
                    write: p.write,
                })
                .collect(),
            t_s_per_byte: network.t_s_per_byte,
        }
    }

    /// Build from a cluster with *measured* (calibrated) device and
    /// network parameters — the paper's Analysis Phase: every class and
    /// the network are probed through the simulated devices.
    pub fn from_cluster_calibrated(cluster: &ClusterConfig, cfg: &CalibrationConfig) -> Self {
        MultiProfileModel::new(
            &harl_devices::calibrate_network(&cluster.network, cfg),
            cluster
                .classes
                .iter()
                .map(|c| (c.count, harl_devices::calibrate_storage(&c.profile, cfg)))
                .collect(),
        )
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }
}

/// Coordinate-descent stripe optimizer over K classes.
#[derive(Debug, Clone)]
pub struct MultiProfileOptimizer {
    /// The platform model.
    pub model: MultiProfileModel,
    /// Grid step per axis scan.
    pub step: u64,
    /// Maximum grid points per axis scan.
    pub max_grid_points: usize,
    /// Maximum full descent sweeps.
    pub max_sweeps: usize,
}

impl MultiProfileOptimizer {
    /// A default-configured optimizer for the model.
    pub fn new(model: MultiProfileModel) -> Self {
        MultiProfileOptimizer {
            model,
            step: 4 * 1024,
            max_grid_points: 128,
            max_sweeps: 16,
        }
    }

    /// Optimise per-class widths for a region's request sample (offsets
    /// region-relative) with average request size `avg`.
    ///
    /// Returns `(widths, cost)`. Deterministic: descent runs from several
    /// fixed starting points (balanced, bandwidth-proportional, and one
    /// per-class-favoured start), axes are scanned in class order, ties
    /// prefer larger widths, and the best fixed point wins.
    pub fn optimize(&self, sample: &[(u64, u64, OpKind)], avg: u64) -> (Vec<u64>, f64) {
        let (widths, cost, _) = self.optimize_counted(sample, avg);
        (widths, cost)
    }

    /// [`Self::optimize`], also returning how many width vectors the
    /// descent scored (memo hits and pruned vectors included).
    pub(crate) fn optimize_counted(
        &self,
        sample: &[(u64, u64, OpKind)],
        avg: u64,
    ) -> (Vec<u64>, f64, u64) {
        let mut scorer = Scorer::new(&self.model, sample);
        let (widths, cost) = self.search(sample, avg, |w, bound| scorer.cost(w, bound));
        (widths, cost, scorer.scored)
    }

    /// Descend from every starting point, scoring width vectors with
    /// `score(widths, bound)`, and keep the best fixed point. `score` must
    /// return the sample's exact summed cost whenever that is at most
    /// `bound`, and otherwise any value above `bound`.
    fn search(
        &self,
        sample: &[(u64, u64, OpKind)],
        avg: u64,
        mut score: impl FnMut(&[u64], f64) -> f64,
    ) -> (Vec<u64>, f64) {
        let k = self.model.class_count();
        assert!(k > 0, "no classes");
        let step = effective_step(self.step, self.max_grid_points, avg.max(1));
        let r_bar = avg.max(step).div_ceil(step) * step;

        let zero_out = |mut w: Vec<u64>| -> Vec<u64> {
            for (c, wi) in self.model.classes.iter().zip(w.iter_mut()) {
                if c.count == 0 {
                    *wi = 0;
                }
            }
            w
        };
        let balanced = zero_out(vec![r_bar.div_ceil(k as u64 * step) * step; k]);
        assert!(balanced.iter().any(|&w| w > 0), "no servers in any class");
        if sample.is_empty() {
            return (balanced, 0.0);
        }

        // Starting points: balanced, read-bandwidth-proportional, and each
        // class alone at R̄.
        let mut starts: Vec<Vec<u64>> = vec![balanced];
        let inv_beta: Vec<f64> = self
            .model
            .classes
            .iter()
            .map(|c| {
                if c.read.beta_s_per_byte > 0.0 {
                    1.0 / c.read.beta_s_per_byte
                } else {
                    1.0
                }
            })
            .collect();
        let total_inv = crate::fold::sum_f64(
            self.model
                .classes
                .iter()
                .zip(&inv_beta)
                .map(|(c, &b)| c.count as f64 * b),
        );
        if total_inv > 0.0 {
            let proportional: Vec<u64> = inv_beta
                .iter()
                .map(|&b| {
                    let w = (r_bar as f64 * b / total_inv) as u64;
                    w.div_ceil(step).max(1) * step
                })
                .collect();
            starts.push(zero_out(proportional));
        }
        for solo in 0..k {
            if self.model.classes[solo].count == 0 {
                continue;
            }
            let mut w = vec![0u64; k];
            w[solo] = r_bar;
            starts.push(w);
        }

        starts
            .into_iter()
            .filter(|w| {
                self.model
                    .classes
                    .iter()
                    .zip(w)
                    .any(|(c, &wi)| c.count > 0 && wi > 0)
            })
            .map(|start| self.descend(start, step, r_bar, &mut score))
            // The infinite-cost sentinel loses to every real descent (and
            // on a cost tie, any non-empty widths vector orders above the
            // empty one), so it only surfaces if no start survives the
            // filter — impossible for a cluster with servers.
            .fold((Vec::new(), f64::INFINITY), |a, b| {
                if b.1 < a.1 || (b.1 == a.1 && b.0 > a.0) {
                    b
                } else {
                    a
                }
            })
    }

    /// One coordinate-descent run from a fixed starting point. Each
    /// candidate is scored against the axis incumbent, so a vector that
    /// cannot win (its cost would exceed `best_cost`) may stop early.
    fn descend(
        &self,
        mut widths: Vec<u64>,
        step: u64,
        r_bar: u64,
        score: &mut impl FnMut(&[u64], f64) -> f64,
    ) -> (Vec<u64>, f64) {
        let k = widths.len();
        let mut best_cost = score(&widths, f64::INFINITY);

        for _sweep in 0..self.max_sweeps {
            let mut improved = false;
            for axis in 0..k {
                if self.model.classes[axis].count == 0 {
                    continue;
                }
                let mut best_w = widths[axis];
                let mut w = 0u64;
                while w <= r_bar + step {
                    let saved = widths[axis];
                    widths[axis] = w;
                    let valid = self
                        .model
                        .classes
                        .iter()
                        .zip(&widths)
                        .any(|(c, &cw)| c.count > 0 && cw > 0);
                    if valid {
                        let cost = score(&widths, best_cost);
                        if cost < best_cost || (cost == best_cost && w > best_w) {
                            if cost < best_cost {
                                improved = true;
                            }
                            best_cost = cost;
                            best_w = w;
                        }
                    }
                    widths[axis] = saved;
                    w += step;
                }
                widths[axis] = best_w;
            }
            if !improved {
                break;
            }
        }
        (widths, best_cost)
    }
}

/// What one `optimize` call knows about a width vector's summed cost.
#[derive(Debug, Clone, Copy)]
enum Known {
    /// The exact sum.
    Exact(f64),
    /// A running sum plus the floor of the requests not yet priced, taken
    /// when it passed the limit of the bound the vector was scored against.
    /// The exact sum exceeds every bound whose limit this passes.
    AtLeast(f64),
}

/// Scores width vectors for one `optimize` call: the sample is decomposed
/// into strided runs once, and every scored vector is remembered.
///
/// A score is the same left fold from `+0.0`, in sample order, that a
/// per-request `sum_f64` computes — bit for bit. Request cost depends on
/// the offset only through `offset mod G`, so each run prices one request
/// per distinct residue, when the in-order replay first reaches it, and
/// replays those costs in order. After every request the fold applies the
/// grid's pruning test ([`SampleRuns`]): it stops once the running sum
/// plus the cost floor of the requests still to come passes the limit.
struct Scorer {
    kernel: CostKernel,
    walk: SampleRuns,
    /// One run's residue costs; reused across runs and vectors.
    costs: Vec<f64>,
    /// One vector's per-shape floors and floor of runs `i..`; reused.
    shape_floors: Vec<f64>,
    after: Vec<f64>,
    /// Looked up and inserted into only, never iterated.
    memo: HashMap<Vec<u64>, Known>,
    /// Width vectors scored, memo hits and pruned vectors included.
    scored: u64,
}

impl Scorer {
    fn new(model: &MultiProfileModel, sample: &[(u64, u64, OpKind)]) -> Self {
        Scorer {
            kernel: CostKernel::new(model),
            walk: SampleRuns::new(sample),
            costs: Vec::new(),
            shape_floors: Vec::new(),
            after: Vec::new(),
            memo: HashMap::new(),
            scored: 0,
        }
    }

    /// The sample's exact summed cost under `widths` when it is at most
    /// `bound`; otherwise a value above `bound`.
    fn cost(&mut self, widths: &[u64], bound: f64) -> f64 {
        self.scored += 1;
        match self.memo.get(widths) {
            Some(&Known::Exact(cost)) => return cost,
            Some(&Known::AtLeast(passed)) if passed > self.walk.limit(bound) => return passed,
            _ => {}
        }
        let known = self.fold(widths, bound);
        self.memo.insert(widths.to_vec(), known);
        match known {
            Known::Exact(cost) | Known::AtLeast(cost) => cost,
        }
    }

    /// The ordered fold over the sample, stopping once it passes the limit
    /// of `bound`.
    fn fold(&mut self, widths: &[u64], bound: f64) -> Known {
        let group = self.kernel.group(widths);
        let (shape_floors, after) = (&mut self.shape_floors, &mut self.after);
        self.walk
            .floors_after(&self.kernel, group, widths, shape_floors, after);
        let limit = self.walk.limit(bound);
        if after[0] > limit {
            return Known::AtLeast(after[0]);
        }
        let mut sum = OrderedSum::new();
        for (i, run) in self.walk.runs.iter().enumerate() {
            // The residues of `o0 + j·d` cycle with period G / gcd(d, G).
            let d = run.d % group;
            let period = if d == 0 { 1 } else { group / gcd(d, group) };
            let floor = shape_floors[run.shape];
            self.costs.clear();
            let (mut r, mut j) = (run.o0 % group, 0usize);
            for left in (0..run.count).rev() {
                if j == self.costs.len() {
                    self.costs.push(
                        self.kernel
                            .cost_in_group(group, r, run.size, run.op, widths),
                    );
                    r += d;
                    if r >= group {
                        r -= group;
                    }
                }
                sum.add(self.costs[j]);
                j += 1;
                if usize_to_u64(j) == period {
                    j = 0;
                }
                let passed = sum.value() + (left as f64 * floor + after[i + 1]);
                if passed > limit {
                    return Known::AtLeast(passed);
                }
            }
        }
        Known::Exact(sum.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{optimize_region, OptimizerConfig, RegionRequests};
    use crate::trace::TraceRecord;
    use harl_devices::{hdd_2015_preset, nvme_2020_preset, object_store_preset, ssd_2015_preset};
    use harl_simcore::SimNanos;
    use proptest::prelude::*;

    const KB: u64 = 1024;

    /// The descent with every width vector priced request by request: no
    /// folding, pruning or memo. The oracle `optimize_counted` must match
    /// bit for bit; also returns how many vectors it scored.
    fn per_request_descent(
        opt: &MultiProfileOptimizer,
        sample: &[(u64, u64, OpKind)],
        avg: u64,
    ) -> (Vec<u64>, f64, u64) {
        let kernel = CostKernel::new(&opt.model);
        let mut scored = 0;
        let (widths, cost) = opt.search(sample, avg, |widths, _| {
            scored += 1;
            crate::fold::sum_f64(
                sample
                    .iter()
                    .map(|&(o, r, op)| kernel.request_cost(o, r, op, widths)),
            )
        });
        (widths, cost, scored)
    }

    /// Tiny LCG for scattering offsets and shuffling inside one case.
    fn lcg(x: &mut u64) -> u64 {
        *x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *x >> 33
    }

    prop_compose! {
        /// 1–3 phases back to back, each strided (contiguous or gapped) or
        /// scattered, in sorted, reversed or shuffled order.
        fn phased_sample()(
            phases in prop::collection::vec(
                (any::<bool>(), 0usize..9, 1u64..13, 0usize..3, any::<bool>()),
                1..4,
            ),
            order in 0usize..3,
            seed in any::<u64>(),
        ) -> Vec<(u64, u64, OpKind)> {
            let mut rng = seed;
            let mut base = 0u64;
            let mut sample = Vec::new();
            for &(strided, size, count, gap, read) in &phases {
                let size = [4, 16, 64, 100, 128, 200, 512, 1024, 2048][size] * KB;
                let op = if read { OpKind::Read } else { OpKind::Write };
                let pitch = size + [0, size, 12 * KB][gap];
                for j in 0..count {
                    let offset = if strided {
                        j * pitch
                    } else {
                        (lcg(&mut rng) % (count * pitch / 512)) * 512
                    };
                    sample.push((base + offset, size, op));
                }
                base += count * pitch;
            }
            match order {
                0 => sample.sort_by_key(|&(o, _, _)| o),
                1 => sample.sort_by_key(|&(o, _, _)| std::cmp::Reverse(o)),
                _ => {
                    for i in (1..sample.len()).rev() {
                        let j = lcg(&mut rng) as usize % (i + 1);
                        sample.swap(i, j);
                    }
                }
            }
            sample
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Folding, pruning and the memo change nothing: the descent picks
        /// the same widths at the same cost bits as the per-request oracle,
        /// and scores as many vectors.
        #[test]
        fn descent_matches_per_request_oracle(
            classes in prop::collection::vec((0usize..4, 1usize..7), 2..5),
            sample in phased_sample(),
            grid in 0usize..3,
        ) {
            let presets = [
                hdd_2015_preset(),
                ssd_2015_preset(),
                nvme_2020_preset(),
                object_store_preset(),
            ];
            let model = MultiProfileModel::new(
                &NetworkProfile::gigabit_ethernet(),
                classes.iter().map(|&(p, n)| (n, presets[p].clone())).collect(),
            );
            let mut opt = MultiProfileOptimizer::new(model);
            opt.max_grid_points = [16, 32, 128][grid];
            let avg = sample.iter().map(|&(_, r, _)| r).sum::<u64>() / sample.len() as u64;
            let (widths, cost, scored) = opt.optimize_counted(&sample, avg);
            let (want, want_cost, want_scored) = per_request_descent(&opt, &sample, avg);
            prop_assert_eq!(widths, want);
            prop_assert_eq!(cost.to_bits(), want_cost.to_bits());
            prop_assert_eq!(scored, want_scored);
        }
    }

    #[test]
    fn nvme_only_tie_goes_to_the_larger_width() {
        // 4 HDD + 2 SSD + 2 NVMe, calibrated. 4 KiB reads inside one
        // stripe cost the same under every NVMe-only width from 4 KiB up;
        // 64 KiB reads on 64 KiB boundaries put 32 KiB on each NVMe server
        // under every width dividing 32 KiB, where the cost floor equals
        // the cost. The axis scan meets exact ties and must keep the
        // largest width.
        let cluster = ClusterConfig::hybrid(4, 2).with_extra_class(2, nvme_2020_preset());
        let model =
            MultiProfileModel::from_cluster_calibrated(&cluster, &CalibrationConfig::default());
        let opt = MultiProfileOptimizer::new(model);
        let kernel = CostKernel::new(&opt.model);
        for (size, pitch, avg) in [(4 * KB, 8 * KB, 28 * KB), (64 * KB, 64 * KB, 64 * KB)] {
            let sample: Vec<(u64, u64, OpKind)> = (0..48u64)
                .map(|j| ((j * 37 % 48) * pitch, size, OpKind::Read))
                .collect();
            let (widths, cost, scored) = opt.optimize_counted(&sample, avg);
            let (want, want_cost, want_scored) = per_request_descent(&opt, &sample, avg);
            assert_eq!(widths, vec![0, 0, 32 * KB], "{size}-byte reads");
            assert_eq!(
                (widths, cost.to_bits(), scored),
                (want, want_cost.to_bits(), want_scored)
            );
            let priced = |widths: &[u64]| {
                crate::fold::sum_f64(
                    sample
                        .iter()
                        .map(|&(o, r, op)| kernel.request_cost(o, r, op, widths)),
                )
            };
            assert_eq!(priced(&[0, 0, 4 * KB]).to_bits(), cost.to_bits());
            assert_eq!(priced(&[0, 0, 32 * KB]).to_bits(), cost.to_bits());
        }
        let tight = kernel.request_cost(0, 64 * KB, OpKind::Read, &[0, 0, 32 * KB]);
        let floor = kernel.request_floor(64 * KB, OpKind::Read, &[0, 0, 32 * KB]);
        assert!(floor <= tight && tight - floor <= 1e-9 * tight);
    }

    fn sample(n: usize, size: u64, op: OpKind) -> Vec<(u64, u64, OpKind)> {
        (0..n).map(|i| (i as u64 * size, size, op)).collect()
    }

    fn two_class_model() -> MultiProfileModel {
        MultiProfileModel::from_cluster(&ClusterConfig::paper_default())
    }

    #[test]
    fn coordinate_descent_matches_grid_on_two_classes() {
        let model = two_class_model();
        let records: Vec<TraceRecord> = (0..32)
            .map(|i| TraceRecord {
                rank: 0,
                fd: 0,
                op: OpKind::Read,
                offset: i as u64 * 512 * KB,
                size: 512 * KB,
                timestamp: SimNanos::ZERO,
            })
            .collect();
        let grid = optimize_region(
            &harl_simcore::SimContext::new(),
            &model,
            &RegionRequests::new(&records, 0),
            512 * KB,
            &OptimizerConfig {
                threads: 1,
                ..OptimizerConfig::default()
            },
            0,
        );
        let opt = MultiProfileOptimizer::new(model);
        let (widths, cost) = opt.optimize(&sample(32, 512 * KB, OpKind::Read), 512 * KB);
        // Coordinate descent can stop at a local optimum; it must get
        // within a few percent of the exhaustive grid and produce the same
        // qualitative shape (s >> h).
        assert!(
            cost <= grid.cost * 1.05,
            "descent cost {cost} vs grid {g}",
            g = grid.cost
        );
        assert!(widths[1] > widths[0], "SSD class must get larger stripes");
    }

    #[test]
    fn three_classes_order_by_speed() {
        // HDD / SSD / NVMe: faster classes should be assigned larger (or
        // equal) stripes.
        let cluster = ClusterConfig::hybrid(4, 2).with_extra_class(2, nvme_2020_preset());
        let model = MultiProfileModel::from_cluster(&cluster);
        assert_eq!(model.class_count(), 3);
        let opt = MultiProfileOptimizer::new(model);
        let (widths, cost) = opt.optimize(&sample(32, 512 * KB, OpKind::Read), 512 * KB);
        assert!(cost.is_finite());
        assert!(
            widths[2] >= widths[1] && widths[1] >= widths[0],
            "stripe order should follow device speed: {widths:?}"
        );
        assert!(widths[2] > widths[0], "NVMe must out-stripe HDD");
    }

    #[test]
    fn loads_conservation_k_classes() {
        let model = MultiProfileModel::new(
            &NetworkProfile::gigabit_ethernet(),
            vec![
                (2, hdd_2015_preset()),
                (2, ssd_2015_preset()),
                (1, nvme_2020_preset()),
            ],
        );
        let widths = [16 * KB, 64 * KB, 128 * KB];
        let loads = CostKernel::new(&model).class_loads(0, 288 * KB, &widths);
        // Group = 2*16 + 2*64 + 128 = 288 KiB: one full group.
        assert_eq!(loads[0], (16 * KB, 2));
        assert_eq!(loads[1], (64 * KB, 2));
        assert_eq!(loads[2], (128 * KB, 1));
    }

    #[test]
    fn zero_count_class_is_skipped() {
        let model = MultiProfileModel::new(
            &NetworkProfile::gigabit_ethernet(),
            vec![(0, hdd_2015_preset()), (2, ssd_2015_preset())],
        );
        let opt = MultiProfileOptimizer::new(model);
        let (widths, cost) = opt.optimize(&sample(8, 128 * KB, OpKind::Read), 128 * KB);
        assert_eq!(widths[0], 0);
        assert!(widths[1] > 0);
        assert!(cost.is_finite());
    }

    #[test]
    fn empty_sample_returns_balanced_default() {
        let opt = MultiProfileOptimizer::new(two_class_model());
        let (widths, cost) = opt.optimize(&[], 128 * KB);
        assert_eq!(cost, 0.0);
        assert!(widths.iter().all(|&w| w > 0));
    }

    #[test]
    #[should_panic(expected = "one width per class")]
    fn width_count_mismatch_panics() {
        CostKernel::new(&two_class_model()).class_loads(0, 1, &[4 * KB]);
    }
}
