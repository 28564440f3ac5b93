//! The paper's *Analysis Phase* measurement step.
//!
//! From Sec. III-G: *"we use one file server in the parallel file system to
//! test the startup time α and data transfer time β for HServers and
//! SServers with read/write patterns … We repeat the tests thousands of
//! times (the number is configurable), and then calculate their average
//! values."*
//!
//! We reproduce that step against the *simulated* device: issue probe
//! accesses at several request sizes, observe total service times, and
//! recover `(α_min, α_max, β)` by ordinary least squares — the slope of
//! time-vs-bytes estimates `β`, and the spread of residuals at the
//! intercept estimates the startup range. The HARL optimizer consumes
//! these estimates, so the whole pipeline (measure → model → optimise)
//! matches the paper rather than cheating with ground-truth parameters.

use crate::network::NetworkProfile;
use crate::profile::{OpKind, OpParams, StorageProfile};
use harl_simcore::SimRng;
use serde::{Deserialize, Serialize};

/// How many probes to run and at which sizes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CalibrationConfig {
    /// Probe request sizes in bytes. Must contain at least two distinct
    /// sizes so the slope (β) is identifiable.
    pub probe_sizes: Vec<u64>,
    /// Probes per size ("thousands of times" in the paper; configurable).
    pub repetitions: usize,
    /// RNG seed for the probe run.
    pub seed: u64,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            probe_sizes: vec![4 * 1024, 64 * 1024, 256 * 1024, 1024 * 1024],
            repetitions: 1000,
            seed: 0x00CA_11B8,
        }
    }
}

/// Ordinary least squares fit of `y = a + b x`. Returns `(a, b)`.
fn least_squares(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    debug_assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
    }
    let b = if sxx == 0.0 { 0.0 } else { sxy / sxx };
    let a = my - b * mx;
    (a, b)
}

/// Estimate one operation's `(α_min, α_max, β)` from probe observations.
fn estimate_op(device: &StorageProfile, op: OpKind, cfg: &CalibrationConfig) -> OpParams {
    assert!(
        cfg.probe_sizes
            .first()
            .is_some_and(|first| cfg.probe_sizes.iter().any(|s| s != first)),
        "calibration needs at least two distinct probe sizes"
    );
    assert!(
        cfg.repetitions > 0,
        "calibration needs at least one repetition"
    );

    let mut rng = SimRng::derived(cfg.seed, &format!("calibrate-{}-{op}", device.name));
    let mut xs = Vec::with_capacity(cfg.probe_sizes.len() * cfg.repetitions);
    let mut ys = Vec::with_capacity(xs.capacity());
    for &size in &cfg.probe_sizes {
        for _ in 0..cfg.repetitions {
            xs.push(size as f64);
            ys.push(device.service_time(op, size, &mut rng).as_secs_f64());
        }
    }
    let (_, beta) = least_squares(&xs, &ys);
    let beta = beta.max(0.0);

    // Residual startup component per observation; its extremes estimate the
    // uniform range. Clamp at zero: noise can push residuals negative.
    let mut alpha_min = f64::INFINITY;
    let mut alpha_max = 0.0_f64;
    for (&x, &y) in xs.iter().zip(&ys) {
        let startup = (y - beta * x).max(0.0);
        alpha_min = alpha_min.min(startup);
        alpha_max = alpha_max.max(startup);
    }
    OpParams {
        alpha_min_s: alpha_min.min(alpha_max),
        alpha_max_s: alpha_max,
        beta_s_per_byte: beta,
    }
    .validated()
}

/// Calibrate a full storage profile (read and write paths) by probing the
/// simulated device, as the paper's Analysis Phase does against one real
/// file server.
pub fn calibrate_storage(device: &StorageProfile, cfg: &CalibrationConfig) -> StorageProfile {
    StorageProfile::new(
        format!("{}-measured", device.name),
        device.kind,
        estimate_op(device, OpKind::Read, cfg),
        estimate_op(device, OpKind::Write, cfg),
    )
}

/// Estimate the network per-byte time `t` from probe transfers between a
/// client/server pair (paper: "we use a pair of nodes … to estimate the
/// network transfer time t").
pub fn calibrate_network(net: &NetworkProfile, cfg: &CalibrationConfig) -> NetworkProfile {
    let xs: Vec<f64> = cfg.probe_sizes.iter().map(|&s| s as f64).collect();
    let ys: Vec<f64> = cfg
        .probe_sizes
        .iter()
        .map(|&s| net.transfer_time(s).as_secs_f64())
        .collect();
    let (latency, t) = least_squares(&xs, &ys);
    NetworkProfile::new(t.max(0.0), latency.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{hdd_2015_preset, ssd_2015_preset};

    #[test]
    fn least_squares_recovers_exact_line() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x).collect();
        let (a, b) = least_squares(&xs, &ys);
        assert!((a - 3.0).abs() < 1e-12);
        assert!((b - 2.0).abs() < 1e-12);
    }

    #[test]
    fn least_squares_degenerate_x() {
        let (a, b) = least_squares(&[2.0, 2.0], &[5.0, 7.0]);
        assert_eq!(b, 0.0);
        assert!((a - 6.0).abs() < 1e-12);
    }

    #[test]
    fn calibration_recovers_hdd_parameters() {
        let truth = hdd_2015_preset();
        let measured = calibrate_storage(&truth, &CalibrationConfig::default());
        let t = truth.read;
        let m = measured.read;
        assert!(
            (m.beta_s_per_byte - t.beta_s_per_byte).abs() / t.beta_s_per_byte < 0.05,
            "beta estimate off: {} vs {}",
            m.beta_s_per_byte,
            t.beta_s_per_byte
        );
        assert!((m.alpha_min_s - t.alpha_min_s).abs() / t.alpha_min_s < 0.15);
        assert!((m.alpha_max_s - t.alpha_max_s).abs() / t.alpha_max_s < 0.15);
    }

    #[test]
    fn calibration_preserves_ssd_asymmetry() {
        let measured = calibrate_storage(&ssd_2015_preset(), &CalibrationConfig::default());
        let bytes = 256 * 1024;
        assert!(
            measured.write.expected_service_s(bytes) > measured.read.expected_service_s(bytes),
            "measured profile lost the read/write asymmetry"
        );
    }

    #[test]
    fn calibration_is_deterministic() {
        let cfg = CalibrationConfig::default();
        let a = calibrate_storage(&hdd_2015_preset(), &cfg);
        let b = calibrate_storage(&hdd_2015_preset(), &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn network_calibration_recovers_t() {
        let truth = NetworkProfile::gigabit_ethernet();
        let measured = calibrate_network(&truth, &CalibrationConfig::default());
        assert!((measured.t_s_per_byte - truth.t_s_per_byte).abs() / truth.t_s_per_byte < 1e-6);
        assert!((measured.latency_s - truth.latency_s).abs() / truth.latency_s < 1e-6);
    }

    #[test]
    #[should_panic(expected = "two distinct probe sizes")]
    fn single_probe_size_rejected() {
        let cfg = CalibrationConfig {
            probe_sizes: vec![4096, 4096],
            repetitions: 10,
            seed: 1,
        };
        calibrate_storage(&hdd_2015_preset(), &cfg);
    }
}
