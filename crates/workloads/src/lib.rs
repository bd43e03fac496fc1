//! Synthetic workload and benchmark models.
//!
//! The ContainerLeaks paper evaluates with real programs — Prime95, stress,
//! SPEC CPU2006, UnixBench — running on real hardware. This crate provides
//! the *models* of those programs that the simulated kernel executes: each
//! workload is a sequence of [`Phase`]s describing, per unit of CPU time, how
//! many instructions retire, how often caches and branch predictors miss,
//! what fraction of instructions are floating-point, how much memory is
//! touched, and how often the kernel is entered.
//!
//! Distinct workloads occupy distinct points in this microarchitectural
//! space, which is exactly the property the paper's power model (Fig. 6 and
//! Fig. 7: energy is linear in retired instructions / cache misses with
//! workload-dependent slopes) relies on.
//!
//! # Example
//!
//! ```
//! use workloads::{models, WorkloadSpec};
//!
//! let prime: WorkloadSpec = models::prime();
//! let phase = prime.phase_at_progress(0);
//! assert!(phase.instructions_per_cycle > 1.0, "prime is compute dense");
//! ```

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::iter_over_hash_type
)]

pub mod models;
pub mod spec;
pub mod unixbench;

pub use spec::{Phase, PhaseCursor, Repeat, WorkloadClass, WorkloadSpec};
pub use unixbench::{OpMix, UnixBenchSpec, UNIXBENCH_SUITE};
