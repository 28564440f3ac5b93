//! # harl-core — the HARL heterogeneity-aware region-level data layout
//!
//! The paper's contribution, end to end:
//!
//! 1. **Tracing** ([`trace`]) — collect `(rank, fd, op, offset, size, time)`
//!    records (the IOSIG stand-in) and sort them by offset.
//! 2. **Analysis**:
//!    * [`region`] — Algorithm 1: CV-driven division of the file into
//!      regions of similar workload, with threshold adaptation;
//!    * [`model`] — the Sec. III-D cost model (Table I, Eqs. 1–8): one
//!      [`CostKernel`] that prices every request, exact sub-request
//!      geometry, and the paper's Fig. 5 case table;
//!    * [`optimizer`] — Algorithm 2: per-region search for the optimal
//!      per-class stripe widths (exhaustive grid at `K = 2`, coordinate
//!      descent beyond), parallelised and deterministic.
//! 3. **Placement** ([`rst`], [`policy`]) — the Region Stripe Table and the
//!    policies the paper evaluates (fixed, random, segment-level, HARL).
//!
//! Extensions from the paper's discussion/future work live in
//! [`migration`] (SServer space balancing), [`multiprofile`] (more than
//! two server performance profiles) and [`online`] (on-line drift
//! detection and re-layout).

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

// The cost-model modules (Sec. III-D, Eqs. 1–8) carry the strictest
// numeric tier: no exact float comparison and no integer `as` cast that
// can truncate, wrap, drop a sign or stand in for a lossless `From`
// (conversions go through `cast`). `usize as u64` and `== 0.0` stay
// unflagged; DESIGN.md Appendix D says why.
#[warn(
    clippy::float_cmp,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss,
    clippy::cast_lossless
)]
pub mod analysis;
pub mod cache;
pub(crate) mod cast;
pub mod compat;
pub mod errors;
pub mod fingerprint;
pub mod fold;
pub mod migration;
#[warn(
    clippy::float_cmp,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss,
    clippy::cast_lossless
)]
pub mod model;
pub mod multiprofile;
pub mod online;
#[warn(
    clippy::float_cmp,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss,
    clippy::cast_lossless
)]
pub mod optimizer;
pub mod policy;
pub mod region;
pub mod rst;
pub mod trace;

pub use analysis::{size_histogram, summarize, summarize_records, TraceSummary};
pub use cache::{
    plan_file, CacheLookup, CacheStats, PlanCache, PlannedFile, RegionPlanCache, RegionPlanKey,
    SampledReq,
};
pub use errors::LoadError;
pub use fingerprint::{
    fingerprint_sorted, ClassShape, HistBucket, RegionSignature, WorkloadFingerprint,
};
pub use migration::{projected_sserver_bytes, BalanceOutcome, SpaceBalancer};
pub use model::{case_a_params, CostKernel, ServerLoads};
pub use multiprofile::{ClassParams, MultiProfileModel, MultiProfileOptimizer};
pub use online::{AdaptationEvent, OnlineConfig, OnlineMonitor};
pub use optimizer::{optimize_region, LayoutChoice, OptimizerConfig, RegionRequests};
pub use policy::{
    FixedPolicy, HarlPolicy, LayoutPolicy, RandomPolicy, SegmentPolicy, ServerLevelPolicy,
};
pub use region::{divide_regions, Region, RegionDivisionConfig};
pub use rst::{RegionStripeTable, RstEntry};
pub use trace::{Trace, TraceRecord};
