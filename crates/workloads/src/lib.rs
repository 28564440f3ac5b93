//! # harl-workloads — the benchmarks of the paper's evaluation
//!
//! * [`ior`] — the IOR-like generator (uniform runs and the Fig. 11
//!   four-region non-uniform variant).
//! * [`btio`] — the BTIO-like generator (NAS BT, full subtype: collective
//!   nested-strided dumps + verification read-back).
//! * [`phased`] — arbitrary multi-phase workloads (drift scenarios,
//!   checkpoint/restart shapes).
//! * [`mod@replay`] — rebuild a workload from a recorded trace.

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

pub mod btio;
pub mod ior;
pub mod phased;
pub mod replay;
pub mod traffic;

pub use btio::BtioConfig;
pub use ior::{AccessOrder, IorConfig, MultiRegionIorConfig};
pub use phased::{Phase, PhasedConfig};
pub use replay::replay;
pub use traffic::{TrafficConfig, TrafficJob};
