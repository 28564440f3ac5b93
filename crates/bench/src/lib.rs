//! # harl-bench — the experiment harness
//!
//! One function per results figure of the paper (Figs. 1, 7–12), each
//! printing the same rows/series the paper plots and returning a JSON
//! value that the `experiments` binary writes under `results/`.
//!
//! Two scales are provided: [`Scale::quick`] (default; ~2 GiB IOR files,
//! reduced BTIO grid — minutes for the full suite) and [`Scale::paper`]
//! (the paper's 16 GiB files and ≈1.7 GB BTIO). Throughput is
//! bytes/makespan either way; the *shape* of every comparison is scale
//! invariant because all runs reach steady state within a few hundred
//! requests.

// missing_docs / rust_2018_idioms come from [workspace.lints].
// Bench and CLI code reports failures through exit codes and descriptive
// messages, never through panics: PR 8 swept the crate and ratcheted the
// unwrap/expect warns up to denies.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod ablations;
pub mod auditdet;
pub mod figures;
pub mod harness;

pub use ablations::*;
pub use figures::*;
pub use harness::{context, install_recorder, PolicyOutcome, Scale};
