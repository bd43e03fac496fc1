//! The power-based namespace defense (§V of the paper).
//!
//! The second-stage defense: instead of masking the RAPL channel, serve
//! each container *its own* power consumption through the unchanged RAPL
//! interface. The namespace itself is a kernel feature
//! ([`simkernel::Kernel::power_namespace`]); this crate supplies what runs
//! above the kernel, following the paper's Fig. 5 workflow:
//!
//! * **data collection** is the kernel's: per-container perf events
//!   (retired instructions, cache misses, branch misses, CPU cycles)
//!   created with `TASK_TOMBSTONE` owners as each container env is
//!   registered, accumulated in its `perf_event` cgroup.
//! * [`model`] — **power modeling** (Formula 2): core energy as
//!   `F(CM/C, BM/C) · I + α` with `F` fit by multiple linear regression,
//!   DRAM energy as `β · CM + γ`, package as their sum plus `λ`. The
//!   trainer fits the coefficients the kernel then holds.
//! * [`nsfs`] — the **on-the-fly calibration** (Formula 3) evaluated:
//!   the Fig. 8 accuracy and Fig. 9 transparency drivers, reading what
//!   the kernel's RAPL files serve each container,
//!   `M_container / M_host × E_RAPL` accumulated per container.
//!
//! [`overhead`] reproduces the Table III cost analysis: the perf-event
//! machinery's enable/disable on inter-cgroup context switches, replayed
//! through a UnixBench-style suite with the namespace on and off.
//! [`accounting`] meters and throttles containers by calibrated energy.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::iter_over_hash_type
)]

pub mod accounting;
pub mod model;
pub mod nsfs;
pub mod overhead;

pub use accounting::{EnergyBill, EnergyBilling, EnergyTariff, PowerThrottle, ThrottleState};
pub use model::{CalibrationRun, ModelSample, PowerModel, Trainer};
pub use nsfs::container_energy_uj;
pub use overhead::{run_table3, Table3Row};
