//! The local testbed fixture used by the detection experiments.
//!
//! The paper's §III-A experiments run on local Linux machines with Docker
//! installed: a host context and an unprivileged container context on the
//! same kernel, and (for uniqueness measurements) several distinct hosts.
//! [`Lab`] packages that: `n` independent kernels, each with a container
//! runtime, one probe container, and a small background workload so the
//! machines are not eerily quiet.

use container_runtime::{ContainerId, ContainerSpec, Runtime, RuntimeError};
use pseudofs::{PseudoFs, View};
use simkernel::{Kernel, MachineConfig};
use workloads::models;

/// One lab machine.
#[derive(Debug)]
pub struct LabHost {
    /// The machine's kernel.
    pub kernel: Kernel,
    /// Its container runtime.
    pub runtime: Runtime,
    /// The probe container (unmasked, like local Docker).
    pub container: ContainerId,
}

impl LabHost {
    /// Reads a path from inside the probe container.
    ///
    /// # Errors
    ///
    /// Propagates pseudo-fs errors.
    pub fn read_container(&self, path: &str) -> Result<String, RuntimeError> {
        self.runtime.read_file(&self.kernel, self.container, path)
    }

    /// [`LabHost::read_container`] into a caller-provided buffer; the
    /// metric windows call this dozens of times per channel and reuse
    /// one allocation throughout.
    ///
    /// # Errors
    ///
    /// Propagates pseudo-fs errors; on error `buf` is left empty.
    pub fn read_container_into(&self, path: &str, buf: &mut String) -> Result<(), RuntimeError> {
        self.runtime
            .read_file_into(&self.kernel, self.container, path, buf)
    }

    /// Reads a path from the host context.
    ///
    /// # Errors
    ///
    /// Propagates pseudo-fs errors.
    pub fn read_host(&self, path: &str) -> Result<String, pseudofs::FsError> {
        PseudoFs::new().read(&self.kernel, &View::host(), path)
    }

    /// The probe container's view.
    #[expect(
        clippy::expect_used,
        reason = "the probe container is created in the constructor and never destroyed for \
            the lab's lifetime"
    )]
    pub fn container_view(&self) -> View {
        self.runtime
            .container(self.container)
            .expect("probe container exists")
            .view()
            .clone()
    }
}

/// A fleet of independent lab machines.
#[derive(Debug)]
pub struct Lab {
    hosts: Vec<LabHost>,
}

impl Lab {
    /// Builds `n` lab machines on the paper's i7-6700 testbed config,
    /// each with a probe container running an idle process (so implant
    /// primitives have an owner) and a host-side background service.
    pub fn new(n: usize, seed: u64) -> Self {
        Self::with_machine(n, seed, MachineConfig::testbed_i7_6700())
    }

    /// Builds `n` lab machines of a custom type.
    #[expect(
        clippy::expect_used,
        reason = "lab construction: fresh kernels always admit the probe container and its \
            processes; runs before faults are installed"
    )]
    pub fn with_machine(n: usize, seed: u64, machine: MachineConfig) -> Self {
        let mut hosts = Vec::with_capacity(n);
        for i in 0..n {
            let mut kernel = Kernel::new(
                machine.clone(),
                seed.wrapping_mul(0x9e37_79b9).wrapping_add(i as u64 * 7919),
            );
            kernel.fast_forward_boot(86_400 * (20 + 3 * i as u64) + 1000 * i as u64);
            kernel
                .spawn_host_process("systemd-journal", models::web_service(0.05))
                .expect("background process");
            let mut runtime = Runtime::new();
            let container = runtime
                .create(&mut kernel, ContainerSpec::new("probe"))
                .expect("probe container");
            runtime
                .exec(&mut kernel, container, "probe-shell", models::sleeper())
                .expect("probe process");
            hosts.push(LabHost {
                kernel,
                runtime,
                container,
            });
        }
        let mut lab = Lab { hosts };
        lab.advance_secs(2); // settle counters
        lab
    }

    /// The machines.
    pub fn hosts(&self) -> &[LabHost] {
        &self.hosts
    }

    /// Mutable access to one machine.
    pub fn host_mut(&mut self, i: usize) -> &mut LabHost {
        &mut self.hosts[i]
    }

    /// One machine.
    pub fn host(&self, i: usize) -> &LabHost {
        &self.hosts[i]
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// Whether the lab is empty.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// Advances every machine in lockstep, in host order.
    pub fn advance_secs(&mut self, secs: u64) {
        for h in &mut self.hosts {
            h.kernel.advance_secs(secs);
        }
    }

    /// Installs a fault plan on every machine, anchored at the current
    /// instant (see [`Kernel::install_faults`]).
    pub fn install_faults(&mut self, plan: &simkernel::FaultPlan) {
        for h in &mut self.hosts {
            h.kernel.install_faults(plan.clone());
        }
    }

    /// Reads `path` from machine `i`'s probe container with bounded
    /// retry-with-backoff: on a transient fault the whole lab advances
    /// (1 s, then 2 s) so the retry lands past the fault window, keeping
    /// the machines in lockstep and the outcome deterministic. Permanent
    /// errors are returned immediately.
    pub fn read_container_retry(&mut self, i: usize, path: &str, buf: &mut String) -> ReadAttempt {
        let mut attempt = 0u32;
        loop {
            match self.hosts[i].read_container_into(path, buf) {
                Ok(()) if attempt == 0 => return ReadAttempt::Clean,
                Ok(()) => {
                    if simtrace::enabled() {
                        simtrace::counters::add("faults.tolerated.retried_reads", 1);
                        if let Some(tr) = self.hosts[i].kernel.tracer() {
                            tr.emit(
                                self.hosts[i].kernel.lifetime_ns(),
                                simtrace::TraceEvent::Degraded {
                                    subsystem: "leakscan",
                                    detail: format!("{path} recovered after {attempt} retries"),
                                },
                            );
                        }
                    }
                    return ReadAttempt::Recovered(attempt);
                }
                Err(e) if e.is_transient() && attempt < 2 => {
                    self.advance_secs(u64::from(attempt) + 1);
                    attempt += 1;
                }
                Err(e) => {
                    simtrace::counters::add("leakscan.lost_reads", 1);
                    return ReadAttempt::Failed(e);
                }
            }
        }
    }
}

/// Outcome of [`Lab::read_container_retry`].
#[derive(Debug)]
pub enum ReadAttempt {
    /// First read succeeded.
    Clean,
    /// Succeeded after this many retries (evidence is still usable but
    /// the scan should downgrade its confidence).
    Recovered(u32),
    /// Failed even after the retry budget (or failed permanently).
    Failed(RuntimeError),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_hosts_are_distinct_machines() {
        let lab = Lab::new(3, 77);
        assert_eq!(lab.len(), 3);
        let ids: std::collections::HashSet<String> = lab
            .hosts()
            .iter()
            .map(|h| h.kernel.boot_id().to_string())
            .collect();
        assert_eq!(ids.len(), 3);
        // Distinct uptimes too.
        let u0 = lab.host(0).kernel.clock().uptime_secs();
        let u1 = lab.host(1).kernel.clock().uptime_secs();
        assert!((u0 - u1).abs() > 3600.0);
    }

    #[test]
    fn container_and_host_reads_work() {
        let lab = Lab::new(1, 5);
        let h = lab.host(0);
        let c = h.read_container("/proc/uptime").unwrap();
        let host = h.read_host("/proc/uptime").unwrap();
        assert_eq!(c, host, "uptime is a leaking channel: identical views");
        let c_host = h.read_container("/proc/sys/kernel/hostname").unwrap();
        let h_host = h.read_host("/proc/sys/kernel/hostname").unwrap();
        assert_ne!(c_host, h_host, "hostname is namespaced");
    }

    #[test]
    fn lockstep_advance() {
        let mut lab = Lab::new(2, 5);
        let before: Vec<f64> = lab
            .hosts()
            .iter()
            .map(|h| h.kernel.clock().uptime_secs())
            .collect();
        lab.advance_secs(5);
        for (h, b) in lab.hosts().iter().zip(before) {
            assert!((h.kernel.clock().uptime_secs() - b - 5.0).abs() < 1e-9);
        }
    }
}
