//! Data collection (§V-B1).
//!
//! Thin sampling layer over the kernel's perf-event cgroup counters: the
//! namespace initialization attaches one event per (type × CPU) with a
//! `TASK_TOMBSTONE` owner (see [`simkernel::perf`]); this module reads the
//! accumulated counters and produces per-interval deltas for the model.

use simkernel::cgroup::{CgroupId, PerfCounters};
use simkernel::{Kernel, KernelError};

/// Samples per-interval deltas of one perf_event cgroup's counters.
#[derive(Debug, Clone, Default)]
pub struct PerfSampler {
    last: PerfCounters,
}

impl PerfSampler {
    /// Attaches monitoring to `cgroup` and primes the sampler at the
    /// current counter values.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors for invalid cgroups.
    pub fn attach(kernel: &mut Kernel, cgroup: CgroupId) -> Result<Self, KernelError> {
        kernel.attach_perf_monitoring(cgroup)?;
        Ok(PerfSampler {
            last: kernel.cgroups().perf_counters(cgroup).unwrap_or_default(),
        })
    }

    /// The delta since the previous call (or since attach), advancing the
    /// baseline. Returns zeroed counters for unknown cgroups.
    pub fn delta(&mut self, kernel: &Kernel, cgroup: CgroupId) -> PerfCounters {
        let cur = kernel.cgroups().perf_counters(cgroup).unwrap_or_default();
        let d = cur.delta_since(&self.last);
        self.last = cur;
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::kernel::ProcessSpec;
    use simkernel::MachineConfig;
    use workloads::models;

    #[test]
    fn deltas_track_container_work_only() {
        let mut k = Kernel::new(MachineConfig::small_server(), 5);
        let env = k.create_container_env("c").unwrap();
        let mut sampler = PerfSampler::attach(&mut k, env.cgroups.perf_event).unwrap();
        // Host work should not appear in the container's counters.
        k.spawn_host_process("host-noise", models::prime()).unwrap();
        k.advance_secs(2);
        let d = sampler.delta(&k, env.cgroups.perf_event);
        assert_eq!(
            d.instructions, 0,
            "host work leaked into container counters"
        );

        k.spawn(ProcessSpec::new("app", models::prime()).in_container(&env))
            .unwrap();
        k.advance_secs(2);
        let d = sampler.delta(&k, env.cgroups.perf_event);
        assert!(d.instructions > 1_000_000_000);
        assert!(d.cycles > 0);
        // Prime's characteristic mix.
        let cmpki = d.cache_misses as f64 / d.instructions as f64 * 1000.0;
        assert!((0.01..0.2).contains(&cmpki), "cmpki {cmpki}");
    }

    #[test]
    fn consecutive_deltas_are_disjoint() {
        let mut k = Kernel::new(MachineConfig::small_server(), 6);
        let env = k.create_container_env("c").unwrap();
        let mut sampler = PerfSampler::attach(&mut k, env.cgroups.perf_event).unwrap();
        k.spawn(ProcessSpec::new("app", models::prime()).in_container(&env))
            .unwrap();
        k.advance_secs(1);
        let d1 = sampler.delta(&k, env.cgroups.perf_event);
        k.advance_secs(1);
        let d2 = sampler.delta(&k, env.cgroups.perf_event);
        let total_from_deltas = d1.instructions + d2.instructions;
        let total = k
            .cgroups()
            .perf_counters(env.cgroups.perf_event)
            .unwrap()
            .instructions;
        assert_eq!(total_from_deltas, total);
    }

    #[test]
    fn attach_creates_tombstone_events() {
        let mut k = Kernel::new(MachineConfig::small_server(), 7);
        let env = k.create_container_env("c").unwrap();
        let _ = PerfSampler::attach(&mut k, env.cgroups.perf_event).unwrap();
        // 4 event types × 4 CPUs.
        assert_eq!(k.perf().events().len(), 16);
        assert!(k.perf().events().iter().all(|e| e.tombstone_owner));
    }
}
