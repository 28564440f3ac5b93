//! # harl-middleware — the MPI-IO layer above the simulated PFS
//!
//! The paper implements HARL inside MPICH2, above OrangeFS, so applications
//! need no modification (Sec. III-G). This crate plays that role for the
//! simulation:
//!
//! * [`logical`] — what applications see: one shared logical file,
//!   independent and collective read/write calls, compute phases.
//! * [`placement`] — the Placing Phase: one physical region file per RST
//!   row, plus the R2F region-to-file mapping.
//! * [`collective`] — ROMIO-style two-phase collective I/O.
//! * [`runtime`] — trace collection (Tracing Phase), logical→physical
//!   translation (the modified `MPI_File_read/write`), and end-to-end
//!   execution of a workload under any layout policy.
//! * [`serve`] — the long-running multi-tenant planning service
//!   (fingerprint plan cache, incremental re-planning, batched RST
//!   updates) behind `harl-cli serve`.

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

pub mod collective;
pub mod logical;
pub mod multiapp;
pub mod placement;
pub mod runtime;
pub mod serve;

pub use collective::{plan_collective, CollectiveConfig, CollectivePlan};
pub use logical::{LogicalRequest, LogicalStep, RankProgram, Workload};
pub use multiapp::{run_shared, AppStats, MultiAppReport};
pub use placement::{bytes_per_server, place, PlacedFile, R2f};
pub use runtime::{
    collect_trace, collect_trace_lowered, run_workload, trace_plan_run, translate_workload,
};
pub use serve::{PlanOutcome, PlanTicket, PlanningService, ServeConfig, ServeStats, TickReport};
