//! A simulated Linux kernel substrate for the ContainerLeaks reproduction.
//!
//! The ContainerLeaks paper (DSN 2017) studies how *incomplete namespacing*
//! of Linux kernel subsystems leaks host-wide information into containers.
//! Reproducing that requires a kernel whose subsystems hold exactly the kind
//! of state the paper's leakage channels expose — interrupts, scheduler
//! debug data, memory zones, RAPL energy counters, file locks, timers — and
//! whose pseudo-file handlers may or may not consult the calling process's
//! namespaces.
//!
//! This crate is that kernel, as a deterministic discrete-time simulation:
//!
//! * [`Kernel`] owns all global state and advances via [`Kernel::advance`].
//! * [`ns`] implements the seven namespace types of Linux 4.7.
//! * [`cgroup`] implements the cgroup hierarchies containers rely on
//!   (`cpuacct`, `perf_event`, `net_prio`, `memory`).
//! * [`sched`] is a fair-share fluid scheduler with per-CPU accounting
//!   (schedstat / sched_debug / loadavg / `/proc/stat` sources).
//! * [`hw`] models the hardware the paper's channels read: RAPL energy
//!   counters, core temperature sensors, cpuidle states, NUMA nodes.
//! * [`perf`] is the perf-event subsystem the power-based-namespace defense
//!   hooks into, including the context-switch overhead model behind the
//!   paper's Table III.
//! * [`power_ns`] is that defense's kernel side: per-container energy,
//!   calibrated against RAPL each second (Formula 3), which the RAPL
//!   files serve a registered container in place of the host counter.
//! * [`syscost`] is the kernel-operation cost model used by the
//!   UnixBench-style overhead harness.
//!
//! Everything is seeded: two kernels constructed with the same
//! ([`MachineConfig`], seed) evolve identically; kernels with different
//! seeds have distinct boot ids, energy counters and interface names —
//! the *uniqueness* property the paper's co-residence metrics rely on.
//!
//! # Example
//!
//! ```
//! use simkernel::{Kernel, MachineConfig};
//! use workloads::models;
//!
//! let mut k = Kernel::new(MachineConfig::small_server(), 42);
//! let pid = k.spawn_host_process("prime", models::prime())?;
//! k.advance_secs(5);
//! assert!(k.rapl().package_energy_uj(0) > 0);
//! assert!(k.process(pid).is_some());
//! # Ok::<(), simkernel::KernelError>(())
//! ```

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::iter_over_hash_type
)]

pub mod cgroup;
pub mod churn;
pub mod config;
pub mod epoch;
pub mod error;
pub mod faults;
pub mod fsstate;
pub mod hw;
pub mod irq;
pub mod kernel;
pub mod mem;
pub mod net;
pub mod ns;
pub mod parallel;
pub mod perf;
pub mod power_ns;
pub mod process;
pub mod sched;
pub mod syscost;
pub mod time;
pub mod timers;

pub use cgroup::{CgroupForest, CgroupId, CgroupKind};
pub use churn::{ChurnDriver, ChurnEvent, ChurnPlan, ChurnStats};
pub use config::MachineConfig;
pub use epoch::{dep, SubsystemEpochs};
pub use error::KernelError;
pub use faults::{is_sensor_path, FaultPlan, FsFaultKind, SensorFaultKind};
pub use hw::{PowerModelParams, PowerSnapshot, RaplDomains};
pub use kernel::Kernel;
pub use ns::{NamespaceKind, NamespaceSet, NsId};
pub use power_ns::{ContainerEnergy, PowerModel, PowerNamespace};
pub use process::{HostPid, ProcState, Process};
pub use syscost::SysCosts;
pub use time::{Clock, NANOS_PER_SEC};

/// FNV-1a offset basis: the digest of no bytes.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the running 64-bit FNV-1a digest `h` (start from
/// [`FNV1A_OFFSET`]). Stable across platforms and runs, so rendered
/// bytes and campaign digests may depend on it.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(FNV1A_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV1A_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV1A_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        // Folding in pieces is hashing the concatenation.
        assert_eq!(
            fnv1a(fnv1a(FNV1A_OFFSET, b"foo"), b"bar"),
            0x8594_4171_f739_67e8
        );
    }
}
