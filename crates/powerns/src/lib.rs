//! The power-based namespace defense (§V of the paper).
//!
//! The second-stage defense: instead of masking the RAPL channel, serve
//! each container *its own* power consumption through the unchanged RAPL
//! interface. Three components, exactly as in the paper's Fig. 5 workflow:
//!
//! * [`collect`] — **data collection**: per-container perf events
//!   (retired instructions, cache misses, branch misses, CPU cycles)
//!   created at namespace initialization with `TASK_TOMBSTONE` owners,
//!   accumulated in the container's `perf_event` cgroup.
//! * [`model`] — **power modeling** (Formula 2): core energy as
//!   `F(CM/C, BM/C) · I + α` with `F` fit by multiple linear regression,
//!   DRAM energy as `β · CM + γ`, package as their sum plus `λ`.
//! * [`nsfs`] — **on-the-fly calibration** (Formula 3) and the replacement
//!   read path: every container read of `energy_uj` returns
//!   `M_container / M_host × E_RAPL`, accumulated per container.
//!
//! [`overhead`] reproduces the Table III cost analysis: the perf-event
//! machinery's enable/disable on inter-cgroup context switches, replayed
//! through a UnixBench-style suite with the namespace on and off.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::iter_over_hash_type
)]

pub mod accounting;
pub mod collect;
pub mod model;
pub mod nsfs;
pub mod overhead;

pub use accounting::{EnergyBill, EnergyBilling, EnergyTariff, PowerThrottle, ThrottleState};
pub use collect::PerfSampler;
pub use model::{CalibrationRun, ModelSample, PowerModel, Trainer};
pub use nsfs::{DefendedHost, PowerNamespace};
pub use overhead::{run_table3, Table3Row};
