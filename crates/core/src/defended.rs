//! A fleet of defended hosts: the power-based namespace deployed
//! datacenter-wide, for running the attack end-to-end against the defense.
//!
//! `cloudsim::Cloud` models the *vulnerable* provider; this module is the
//! patched one. It provides just enough of the same tenant surface
//! (launch / exec / read / background-demand control) to replay the
//! synergistic campaign — whose RAPL oracle is now gone.

use container_runtime::{ContainerId, ContainerSpec, RuntimeError};
use powerns::{DefendedHost, PowerModel};
use simkernel::{HostPid, MachineConfig};
use workloads::WorkloadSpec;

/// An instance handle on the defended fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetInstance {
    host: usize,
    container: ContainerId,
}

impl FleetInstance {
    /// The host index (operator-side knowledge).
    pub fn host(&self) -> usize {
        self.host
    }
}

/// A fleet of hosts with the power-based namespace installed.
#[derive(Debug)]
pub struct DefendedFleet {
    hosts: Vec<DefendedHost>,
    background: Vec<Vec<HostPid>>,
    next_host: usize,
}

impl DefendedFleet {
    /// Boots `n` defended cloud servers sharing one trained model, each
    /// with 12 background tenant services (as in [`cloudsim::Cloud`]).
    pub fn new(n: usize, seed: u64, model: &PowerModel) -> Self {
        let mut hosts = Vec::with_capacity(n);
        let mut background = Vec::with_capacity(n);
        for i in 0..n {
            let mut machine = MachineConfig::cloud_server();
            machine.hostname = format!("defended-node{i}");
            let mut host = DefendedHost::new(
                machine,
                seed.wrapping_mul(0x9e37_79b9).wrapping_add(i as u64),
                model.clone(),
            );
            let bg = host
                .create_container(ContainerSpec::new("bg-tenant"))
                .expect("background container");
            let pids = (0..12)
                .map(|j| {
                    host.exec(
                        bg,
                        &format!("bg-service-{j}"),
                        workloads::models::web_service(0.15),
                    )
                    .expect("background workload")
                })
                .collect();
            hosts.push(host);
            background.push(pids);
        }
        DefendedFleet {
            hosts,
            background,
            next_host: 0,
        }
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// Launches an instance (round-robin placement).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn launch(&mut self, name: &str) -> Result<FleetInstance, RuntimeError> {
        let host = self.next_host % self.hosts.len();
        self.next_host += 1;
        let container = self.hosts[host].create_container(ContainerSpec::new(name))?;
        Ok(FleetInstance { host, container })
    }

    /// Runs a process inside an instance.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn exec(
        &mut self,
        inst: FleetInstance,
        name: &str,
        workload: WorkloadSpec,
    ) -> Result<HostPid, RuntimeError> {
        self.hosts[inst.host].exec(inst.container, name, workload)
    }

    /// Reads a pseudo file from inside an instance — through the
    /// namespace-protected RAPL path.
    ///
    /// # Errors
    ///
    /// Propagates pseudo-fs errors.
    pub fn read_file(&self, inst: FleetInstance, path: &str) -> Result<String, RuntimeError> {
        self.hosts[inst.host].read_file(inst.container, path)
    }

    /// Swaps a process's workload (attack payload control).
    pub fn set_process_workload(&mut self, inst: FleetInstance, pid: HostPid, w: WorkloadSpec) {
        let _ = self.hosts[inst.host].kernel.set_workload(pid, w);
    }

    /// Drives the background demand on one host.
    pub fn set_background_demand(&mut self, host: usize, demand: f64) {
        // Same clamp `web_service` applies at construction; retargeted in
        // place so the trace driver does not rebuild a spec per service.
        let demand = demand.clamp(0.01, 1.0);
        for i in 0..self.background[host].len() {
            let pid = self.background[host][i];
            let _ = self.hosts[host].kernel.set_workload_demand(pid, demand);
        }
    }

    /// Advances every host by `secs` (1 s calibration intervals), in
    /// host order.
    pub fn advance_secs(&mut self, secs: u64) {
        for h in &mut self.hosts {
            h.advance_secs(secs);
        }
    }

    /// True aggregate wall power, watts (operator-side ground truth).
    pub fn aggregate_wall_w(&self) -> f64 {
        self.hosts.iter().map(|h| h.kernel.wall_watts()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerns::Trainer;
    use std::sync::OnceLock;

    fn model() -> &'static PowerModel {
        static MODEL: OnceLock<PowerModel> = OnceLock::new();
        MODEL.get_or_init(|| {
            Trainer::new(42)
                .machine(MachineConfig::cloud_server())
                .train()
        })
    }

    #[test]
    fn fleet_serves_defended_rapl_reads() {
        let mut fleet = DefendedFleet::new(2, 7, model());
        let a = fleet.launch("obs-a").unwrap();
        let b = fleet.launch("obs-b").unwrap();
        assert_ne!(a.host(), b.host(), "round robin spreads");
        fleet.advance_secs(5);
        let ea: u64 = fleet
            .read_file(a, "/sys/class/powercap/intel-rapl:0/energy_uj")
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        // The observer sees only its own idle-level attribution — below
        // the host's real counter (which includes the 12 active background
        // services) and, crucially, *not* the host counter itself.
        let host_uj = fleet.hosts[a.host()].host_energy_uj() as u64;
        assert!(
            ea < host_uj * 85 / 100,
            "observer sees {ea} of host {host_uj}"
        );
        assert!(ea > 0);
    }

    #[test]
    fn background_demand_moves_true_power_not_the_observer() {
        let mut fleet = DefendedFleet::new(1, 8, model());
        let obs = fleet.launch("obs").unwrap();
        fleet.advance_secs(3);
        let read = |f: &DefendedFleet| -> u64 {
            f.read_file(obs, "/sys/class/powercap/intel-rapl:0/energy_uj")
                .unwrap()
                .trim()
                .parse()
                .unwrap()
        };
        let w_low = fleet.aggregate_wall_w();
        let o0 = read(&fleet);
        fleet.advance_secs(5);
        let o_idle_rate = (read(&fleet) - o0) / 5;
        fleet.set_background_demand(0, 0.9);
        fleet.advance_secs(5);
        let w_high = fleet.aggregate_wall_w();
        let o1 = read(&fleet);
        fleet.advance_secs(5);
        let o_busy_rate = (read(&fleet) - o1) / 5;
        assert!(
            w_high > w_low + 30.0,
            "true power must surge: {w_low} -> {w_high}"
        );
        let drift = (o_busy_rate as f64 - o_idle_rate as f64).abs();
        assert!(
            drift < o_idle_rate as f64 * 0.2,
            "observer rate moved with the surge: {o_idle_rate} -> {o_busy_rate}"
        );
    }
}
