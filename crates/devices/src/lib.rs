//! # harl-devices — storage and network device performance models
//!
//! The HARL paper's cost model (Table I) characterises every file server by
//! a *startup time* drawn uniformly from `[α_min, α_max]` plus a *per-byte
//! transfer time* `β`, with SSD servers having separate read and write
//! profiles; the network contributes a per-byte time `t`. This crate
//! provides exactly those parameter families:
//!
//! * [`StorageProfile`] — one device's `(α, β)` parameters per operation,
//!   with [presets](hdd_2015_preset) calibrated to the paper's 2015-era
//!   testbed (250 GB SATA HDDs, PCIe X4 100 GB SSDs).
//! * [`NetworkProfile`] — Gigabit-Ethernet-like per-byte cost and a small
//!   per-message latency.
//! * [`calibration`] — a reproduction of the paper's *Analysis Phase*
//!   measurement step: probe a device with repeated requests of varied
//!   sizes and *estimate* `(α_min, α_max, β)` from the observations. The
//!   HARL optimizer is fed these estimates, not the ground-truth simulator
//!   parameters, mirroring how the real system can only measure its disks.

// missing_docs / rust_2018_idioms come from [workspace.lints], which also
// warn on todo!/unimplemented!. Library code must not panic: the cfg_attr
// tier denies the other four panic lints; unit tests compile under
// cfg(test) and stay exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod calibration;
pub mod network;
pub mod profile;

pub use calibration::{calibrate_network, calibrate_storage, CalibrationConfig};
pub use network::NetworkProfile;
pub use profile::{
    hdd_2015_preset, nvme_2020_preset, object_store_preset, ssd_2015_preset, CostProfile,
    DeviceKind, OpKind, OpParams, StorageProfile,
};
