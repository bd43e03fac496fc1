//! # ContainerLeaks — a full reproduction of the DSN'17 paper
//!
//! *"ContainerLeaks: Emerging Security Threats of Information Leakages in
//! Container Clouds"* (Gao, Gu, Kayaalp, Pendarakis, Wang).
//!
//! This crate is the high-level entry point. The system is layered:
//!
//! | layer | crate | role |
//! |---|---|---|
//! | substrate | [`simkernel`] | simulated Linux 4.7 kernel: namespaces, cgroups, scheduler, RAPL/thermal hardware |
//! | substrate | [`pseudofs`] | `/proc` + `/sys` with the paper's leaking and properly-namespaced handlers |
//! | substrate | [`container_runtime`] | Docker/LXC-style runtime |
//! | substrate | [`cloudsim`] | multi-host cloud, CC1–CC5 masking profiles, billing |
//! | contribution | [`leakscan`] | cross-validation detector, U/V/M metrics, entropy ranking, cloud inspection (§III) |
//! | contribution | [`powersim`] | synergistic power attack, breakers, orchestration (§IV) |
//! | contribution | [`powerns`] | power-based namespace defense (§V) |
//!
//! The [`experiments`] module regenerates **every table and figure** of the
//! paper's evaluation; the `containerleaks-experiments` `all` binary
//! prints them, and `EXPERIMENTS.md` records paper-vs-measured.
//!
//! # Example: detect the leaks, exploit one, then close it
//!
//! ```
//! use containerleaks::leakscan::{CrossValidator, Lab};
//!
//! // 1. A local testbed: host context + unprivileged container.
//! let lab = Lab::new(1, 42);
//! let host = lab.host(0);
//!
//! // 2. The paper's cross-validation scan finds the leaking channels.
//! let leaks = CrossValidator::new().leaking_paths(&host.kernel, &host.container_view());
//! assert!(leaks.contains(&"/sys/class/powercap/intel-rapl:0/energy_uj".to_string()));
//! assert!(leaks.contains(&"/proc/timer_list".to_string()));
//! ```

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::iter_over_hash_type
)]

pub use campaign;
pub use cloudsim;
pub use container_runtime;
pub use detector;
pub use leakcheck;
pub use leakscan;
pub use powerns;
pub use powersim;
pub use pseudofs;
pub use simkernel;
pub use simtrace;
pub use workloads;

pub mod experiments;
pub mod faultmatrix;
pub mod report;

pub use experiments::ExperimentResult;
pub use faultmatrix::FAULT_MATRIX;
pub use report::render_experiments_md;

/// The default deterministic seed used by every experiment binary.
pub const DEFAULT_SEED: u64 = 1729;
