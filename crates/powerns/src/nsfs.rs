//! The power-based namespace itself: per-container energy views served
//! through the unchanged RAPL interface (§V-B3, Formula 3).
//!
//! Every read interval the namespace models the energy of each container
//! and of the whole host from perf counters, then calibrates against the
//! actual hardware counter:
//!
//! ```text
//! E_container += M_container / M_host × ΔE_RAPL
//! ```
//!
//! so modeling bias largely cancels (it appears in both numerator and
//! denominator), which is why the paper's Fig. 8 errors stay below 5 %.
//! A container only ever sees its own accumulated `E_container`; the
//! host-wide counter — the synergistic attack's oracle — is gone.

use std::collections::BTreeMap;

use container_runtime::{ContainerId, ContainerSpec, Runtime, RuntimeError};
use pseudofs::MaskAction;
use simkernel::{Kernel, KernelError, MachineConfig, NANOS_PER_SEC};
use workloads::WorkloadSpec;

use crate::collect::PerfSampler;
use crate::model::{raw_rapl, PowerModel};

/// Per-container namespace state.
#[derive(Debug)]
struct ContainerPower {
    sampler: PerfSampler,
    perf_cgroup: simkernel::cgroup::CgroupId,
    cpuacct_cgroup: simkernel::cgroup::CgroupId,
    cpuacct_last: Vec<u64>,
    core_uj: f64,
    dram_uj: f64,
    package_uj: f64,
    /// Package-domain energy split by physical package, using the
    /// container's per-CPU cpuacct deltas as attribution weights — a
    /// container pinned to socket 1 accumulates in `intel-rapl:1`.
    per_package_uj: Vec<f64>,
}

/// The power-based namespace: models, calibrates and accumulates
/// per-container energy.
#[derive(Debug)]
pub struct PowerNamespace {
    model: PowerModel,
    host_sampler: PerfSampler,
    host_root: simkernel::cgroup::CgroupId,
    containers: BTreeMap<ContainerId, ContainerPower>,
    rapl_last: (f64, f64, f64),
}

impl PowerNamespace {
    /// Installs the namespace on a kernel: attaches perf monitoring to the
    /// root perf_event cgroup (the host-wide model input).
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn install(kernel: &mut Kernel, model: PowerModel) -> Result<Self, KernelError> {
        let root = kernel.cgroups().root(simkernel::CgroupKind::PerfEvent);
        let host_sampler = PerfSampler::attach(kernel, root)?;
        Ok(PowerNamespace {
            model,
            host_sampler,
            host_root: root,
            containers: BTreeMap::new(),
            rapl_last: raw_rapl(kernel),
        })
    }

    /// Registers a container at namespace initialization: creates its perf
    /// events and starts accumulation from zero.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn register(
        &mut self,
        kernel: &mut Kernel,
        id: ContainerId,
        perf_cgroup: simkernel::cgroup::CgroupId,
    ) -> Result<(), KernelError> {
        self.register_with_cpuacct(kernel, id, perf_cgroup, None)
    }

    /// Like [`PowerNamespace::register`], additionally wiring the
    /// container's cpuacct cgroup so package-domain energy can be split
    /// across physical packages by where the container actually ran.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn register_with_cpuacct(
        &mut self,
        kernel: &mut Kernel,
        id: ContainerId,
        perf_cgroup: simkernel::cgroup::CgroupId,
        cpuacct_cgroup: Option<simkernel::cgroup::CgroupId>,
    ) -> Result<(), KernelError> {
        let sampler = PerfSampler::attach(kernel, perf_cgroup)?;
        let cpuacct =
            cpuacct_cgroup.unwrap_or_else(|| kernel.cgroups().root(simkernel::CgroupKind::Cpuacct));
        let cpuacct_last = kernel
            .cgroups()
            .cpuacct_usage_percpu(cpuacct)
            .map(<[u64]>::to_vec)
            .unwrap_or_default();
        let npkg = kernel.rapl().package_count();
        self.containers.insert(
            id,
            ContainerPower {
                sampler,
                perf_cgroup,
                cpuacct_cgroup: cpuacct,
                cpuacct_last,
                core_uj: 0.0,
                dram_uj: 0.0,
                package_uj: 0.0,
                per_package_uj: vec![0.0; npkg],
            },
        );
        Ok(())
    }

    /// One calibration interval (Formula 3): must be called after every
    /// simulation step whose energy should be attributed.
    pub fn update(&mut self, kernel: &Kernel) {
        let rapl = raw_rapl(kernel);
        let d_core = rapl.0 - self.rapl_last.0;
        let d_dram = rapl.1 - self.rapl_last.1;
        let d_pkg = rapl.2 - self.rapl_last.2;
        self.rapl_last = rapl;

        let host_delta = self.host_sampler.delta(kernel, self.host_root);
        let m_host_core = self.model.core_uj(&host_delta).max(1.0);
        let m_host_dram = self.model.dram_uj(&host_delta).max(1.0);
        let m_host_pkg = self.model.package_uj(&host_delta).max(1.0);

        for c in self.containers.values_mut() {
            let d = c.sampler.delta(kernel, c.perf_cgroup);
            let pkg_delta = (self.model.package_uj(&d) / m_host_pkg * d_pkg).max(0.0);
            c.core_uj += (self.model.core_uj(&d) / m_host_core * d_core).max(0.0);
            c.dram_uj += (self.model.dram_uj(&d) / m_host_dram * d_dram).max(0.0);
            c.package_uj += pkg_delta;

            // Split by where the container's CPU time landed this interval.
            let percpu = kernel
                .cgroups()
                .cpuacct_usage_percpu(c.cpuacct_cgroup)
                .map(<[u64]>::to_vec)
                .unwrap_or_default();
            let mut per_pkg_ns = vec![0u64; c.per_package_uj.len()];
            for (cpu, now) in percpu.iter().enumerate() {
                let last = c.cpuacct_last.get(cpu).copied().unwrap_or(0);
                let pkg = kernel.hw().package_of(cpu);
                if pkg < per_pkg_ns.len() {
                    per_pkg_ns[pkg] += now.saturating_sub(last);
                }
            }
            let total_ns: u64 = per_pkg_ns.iter().sum();
            if total_ns > 0 {
                for (pkg, ns) in per_pkg_ns.iter().enumerate() {
                    c.per_package_uj[pkg] += pkg_delta * (*ns as f64 / total_ns as f64);
                }
            } else if let Some(first) = c.per_package_uj.first_mut() {
                // Idle container: its constant share lands on package 0.
                *first += pkg_delta;
            }
            c.cpuacct_last = percpu;
        }
    }

    /// The container's calibrated (core, dram, package) energy in µJ, or
    /// `None` if unregistered.
    pub fn energy_uj(&self, id: ContainerId) -> Option<(u64, u64, u64)> {
        self.containers
            .get(&id)
            .map(|c| (c.core_uj as u64, c.dram_uj as u64, c.package_uj as u64))
    }

    /// The container's calibrated package-domain energy for one physical
    /// package (the value `intel-rapl:{pkg}/energy_uj` serves).
    pub fn package_energy_uj(&self, id: ContainerId, pkg: usize) -> Option<u64> {
        self.containers
            .get(&id)
            .and_then(|c| c.per_package_uj.get(pkg))
            .map(|v| *v as u64)
    }
}

/// A host with the power-based namespace deployed: the kernel, a container
/// runtime, and the modified RAPL read path.
#[derive(Debug)]
pub struct DefendedHost {
    /// The kernel.
    pub kernel: Kernel,
    /// The runtime.
    pub runtime: Runtime,
    ns: PowerNamespace,
}

impl DefendedHost {
    /// Boots a defended host with a pre-trained model.
    #[expect(
        clippy::expect_used,
        reason = "installs on a freshly booted kernel, whose root perf_event cgroup always \
            accepts the host sampler"
    )]
    pub fn new(machine: MachineConfig, seed: u64, model: PowerModel) -> Self {
        let mut kernel = Kernel::new(machine, seed);
        let ns = PowerNamespace::install(&mut kernel, model).expect("namespace install");
        DefendedHost {
            kernel,
            runtime: Runtime::new(),
            ns,
        }
    }

    /// Creates a container registered with the power namespace.
    ///
    /// # Errors
    ///
    /// Propagates runtime/kernel errors.
    pub fn create_container(&mut self, spec: ContainerSpec) -> Result<ContainerId, RuntimeError> {
        let id = self.runtime.create(&mut self.kernel, spec)?;
        let cgroups = self
            .runtime
            .container(id)
            .ok_or(RuntimeError::NoSuchContainer(id))?
            .env()
            .cgroups;
        self.ns
            .register_with_cpuacct(
                &mut self.kernel,
                id,
                cgroups.perf_event,
                Some(cgroups.cpuacct),
            )
            .map_err(RuntimeError::Kernel)?;
        Ok(id)
    }

    /// Runs a process inside a container.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn exec(
        &mut self,
        id: ContainerId,
        name: &str,
        workload: WorkloadSpec,
    ) -> Result<simkernel::HostPid, RuntimeError> {
        self.runtime.exec(&mut self.kernel, id, name, workload)
    }

    /// Advances time in 1 s calibration intervals.
    pub fn advance_secs(&mut self, secs: u64) {
        for _ in 0..secs {
            self.kernel.advance(NANOS_PER_SEC);
            self.ns.update(&self.kernel);
        }
    }

    /// Reads a pseudo file from a container, with the RAPL read path
    /// replaced: `energy_uj` under the powercap tree returns the
    /// container's calibrated energy instead of the host counter. All
    /// other paths — and every `energy_uj` read the unchanged interface
    /// would refuse — are the ordinary read: the namespace is
    /// *transparent*.
    ///
    /// # Errors
    ///
    /// Propagates pseudo-fs errors.
    pub fn read_file(&self, id: ContainerId, path: &str) -> Result<String, RuntimeError> {
        match self.calibrated_uj(id, path) {
            Some(v) => Ok(format!("{v}\n")),
            None => self.runtime.read_file(&self.kernel, id, path),
        }
    }

    /// The calibrated value for a registered container's `energy_uj`
    /// read, only where the tree itself would serve that file: RAPL
    /// present, the package in range, a core or DRAM sub-domain of that
    /// same package, and the path not denied to the container.
    fn calibrated_uj(&self, id: ContainerId, path: &str) -> Option<u64> {
        let (p, domain) = rapl_read(path)?;
        let rapl = self.kernel.rapl();
        if !rapl.is_present() || p >= rapl.package_count() {
            return None;
        }
        if self.runtime.container(id)?.view().mask_action(path) == Some(MaskAction::Deny) {
            return None;
        }
        let (core, dram, pkg) = self.ns.energy_uj(id)?;
        Some(match domain {
            RaplDomain::Package => self.ns.package_energy_uj(id, p).unwrap_or(0),
            // Core/dram domains split proportionally to the package
            // attribution.
            RaplDomain::Core => (core as f64 * self.pkg_share(id, p, pkg)) as u64,
            RaplDomain::Dram => (dram as f64 * self.pkg_share(id, p, pkg)) as u64,
        })
    }

    fn pkg_share(&self, id: ContainerId, pkg: usize, total_pkg_uj: u64) -> f64 {
        if total_pkg_uj == 0 {
            return 0.0;
        }
        self.ns
            .package_energy_uj(id, pkg)
            .map(|v| v as f64 / total_pkg_uj as f64)
            .unwrap_or(0.0)
    }

    /// The container's calibrated package energy (µJ), the defense-side
    /// ground truth used by the evaluation.
    pub fn container_energy_uj(&self, id: ContainerId) -> Option<u64> {
        self.ns.energy_uj(id).map(|(_, _, p)| p)
    }

    /// Host RAPL package energy (µJ) — visible to the *operator* only.
    pub fn host_energy_uj(&self) -> f64 {
        raw_rapl(&self.kernel).2
    }
}

enum RaplDomain {
    Package,
    Core,
    Dram,
}

/// The package and domain an `energy_uj` path names, parsed as the
/// powercap tree parses it: a sub-domain `intel-rapl:{p}:{d}` must sit
/// under its own package `p`, and `d` is 0 (core) or 1 (DRAM).
fn rapl_read(path: &str) -> Option<(usize, RaplDomain)> {
    let segs: Vec<&str> = path.trim_start_matches('/').split('/').collect();
    match segs.as_slice() {
        ["sys", "class", "powercap", dom, "energy_uj"] => {
            let p: usize = dom.strip_prefix("intel-rapl:")?.parse().ok()?;
            Some((p, RaplDomain::Package))
        }
        ["sys", "class", "powercap", dom, sub, "energy_uj"] => {
            let p: usize = dom.strip_prefix("intel-rapl:")?.parse().ok()?;
            let (owner, d) = sub.strip_prefix("intel-rapl:")?.split_once(':')?;
            if owner.parse::<usize>().ok()? != p {
                return None;
            }
            match d.parse::<usize>().ok()? {
                0 => Some((p, RaplDomain::Core)),
                1 => Some((p, RaplDomain::Dram)),
                _ => None,
            }
        }
        _ => None,
    }
}

/// The Fig. 8 accuracy experiment for one benchmark: runs it (4 copies)
/// in a defended container for 60 s alongside a light host background and
/// returns the paper's error metric
/// `ξ = |(E_RAPL − Δdiff) − M_container| / (E_RAPL − Δdiff)`.
#[expect(
    clippy::expect_used,
    reason = "experiment driver on a fresh defended testbed host: its background process, \
        containers and workloads always fit, and the experiment runner contains a panic"
)]
pub fn fig8_error(model: &PowerModel, workload: &WorkloadSpec, seed: u64) -> f64 {
    // Paired idle run measures Δdiff: host-vs-container idle energy gap.
    let idle_host_uj;
    let idle_cont_uj;
    {
        let mut h = DefendedHost::new(MachineConfig::testbed_i7_6700(), seed, model.clone());
        h.kernel
            .spawn_host_process("systemd-journal", workloads::models::web_service(0.05))
            .expect("background");
        let c = h
            .create_container(ContainerSpec::new("probe"))
            .expect("container");
        let e0 = h.host_energy_uj();
        h.advance_secs(60);
        idle_host_uj = h.host_energy_uj() - e0;
        idle_cont_uj = h.container_energy_uj(c).unwrap_or(0) as f64;
    }
    let delta_diff = (idle_host_uj - idle_cont_uj).max(0.0);

    let mut h = DefendedHost::new(MachineConfig::testbed_i7_6700(), seed, model.clone());
    h.kernel
        .spawn_host_process("systemd-journal", workloads::models::web_service(0.05))
        .expect("background");
    let c = h
        .create_container(ContainerSpec::new("bench"))
        .expect("container");
    for i in 0..4 {
        h.exec(c, &format!("w{i}"), workload.clone())
            .expect("bench workload");
    }
    let e0 = h.host_energy_uj();
    h.advance_secs(60);
    let e_rapl = h.host_energy_uj() - e0;
    let m_container = h.container_energy_uj(c).unwrap_or(0) as f64;
    ((e_rapl - delta_diff) - m_container).abs() / (e_rapl - delta_diff)
}

/// Ablation of the on-the-fly calibration (Formula 3): the same Fig. 8
/// setup, but the container's reading is the *raw modeled* energy
/// `Σ M_container` with no calibration against the hardware counter.
/// Model bias (e.g. the unmodeled FP term) no longer cancels.
#[expect(
    clippy::expect_used,
    reason = "experiment driver on a fresh defended testbed host: its background process, \
        containers and workloads always fit, and the experiment runner contains a panic"
)]
pub fn fig8_error_uncalibrated(model: &PowerModel, workload: &WorkloadSpec, seed: u64) -> f64 {
    let mut h = DefendedHost::new(MachineConfig::testbed_i7_6700(), seed, model.clone());
    h.kernel
        .spawn_host_process("systemd-journal", workloads::models::web_service(0.05))
        .expect("background");
    let c = h
        .create_container(ContainerSpec::new("bench"))
        .expect("container");
    let perf_cg = h
        .runtime
        .container(c)
        .expect("container")
        .env()
        .cgroups
        .perf_event;
    for i in 0..4 {
        h.exec(c, &format!("w{i}"), workload.clone())
            .expect("bench workload");
    }
    let e0 = h.host_energy_uj();
    let mut last = h.kernel.cgroups().perf_counters(perf_cg).expect("counters");
    let mut modeled = 0.0;
    for _ in 0..60 {
        h.advance_secs(1);
        let cur = h.kernel.cgroups().perf_counters(perf_cg).expect("counters");
        modeled += model.package_uj(&cur.delta_since(&last));
        last = cur;
    }
    let e_rapl = h.host_energy_uj() - e0;
    (e_rapl - modeled).abs() / e_rapl
}

/// The Fig. 9 transparency experiment: two containers on one defended
/// host; container 1 runs `401.bzip2` from `t = 10 s` to `60 s`.
/// Returns 1 Hz power series `(host_w, container1_w, container2_w)`.
#[expect(
    clippy::expect_used,
    reason = "experiment driver on a fresh defended testbed host: its background process, \
        containers and workloads always fit, and the experiment runner contains a panic"
)]
pub fn fig9_transparency(model: &PowerModel, seed: u64) -> Vec<(f64, f64, f64)> {
    let mut h = DefendedHost::new(MachineConfig::testbed_i7_6700(), seed, model.clone());
    let c1 = h
        .create_container(ContainerSpec::new("worker"))
        .expect("c1");
    let c2 = h
        .create_container(ContainerSpec::new("bystander"))
        .expect("c2");
    h.exec(c2, "idle-shell", workloads::models::sleeper())
        .expect("c2 shell");
    let mut out = Vec::with_capacity(70);
    let mut last = (h.host_energy_uj(), 0u64, 0u64);
    let mut started = false;
    for t in 0..70u64 {
        if t == 10 && !started {
            for i in 0..4 {
                h.exec(c1, &format!("bzip2-{i}"), workloads::models::bzip2())
                    .expect("bzip2");
            }
            started = true;
        }
        h.advance_secs(1);
        let cur = (
            h.host_energy_uj(),
            h.container_energy_uj(c1).unwrap_or(0),
            h.container_energy_uj(c2).unwrap_or(0),
        );
        out.push((
            (cur.0 - last.0) / 1e6,
            (cur.1 - last.1) as f64 / 1e6,
            (cur.2 - last.2) as f64 / 1e6,
        ));
        last = cur;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Trainer;
    use std::sync::OnceLock;
    use workloads::models;

    fn model() -> &'static PowerModel {
        static MODEL: OnceLock<PowerModel> = OnceLock::new();
        MODEL.get_or_init(|| Trainer::new(2001).train())
    }

    #[test]
    fn defended_read_serves_container_energy_not_host() {
        let mut h = DefendedHost::new(MachineConfig::testbed_i7_6700(), 9, model().clone());
        let busy = h.create_container(ContainerSpec::new("busy")).unwrap();
        let idle = h.create_container(ContainerSpec::new("idle")).unwrap();
        for i in 0..4 {
            h.exec(busy, &format!("s{i}"), models::stress_small())
                .unwrap();
        }
        h.exec(idle, "shell", models::sleeper()).unwrap();
        h.advance_secs(30);

        let read = |h: &DefendedHost, c| -> u64 {
            h.read_file(c, "/sys/class/powercap/intel-rapl:0/energy_uj")
                .unwrap()
                .trim()
                .parse()
                .unwrap()
        };
        let busy_uj = read(&h, busy);
        let idle_uj = read(&h, idle);
        let host_uj = h.host_energy_uj() as u64;
        // The busy container sees its own (high) consumption; the idle one
        // sees an idle-host-level reading (as in the paper's Fig. 9, where
        // unloaded containers sit at the host's idle level). Neither sees
        // the host-global counter.
        assert!(
            busy_uj > idle_uj * 13 / 10,
            "busy {busy_uj} vs idle {idle_uj}"
        );
        assert!(busy_uj < host_uj, "container must see less than host");
    }

    #[test]
    fn interface_is_unchanged_for_other_files() {
        let mut h = DefendedHost::new(MachineConfig::testbed_i7_6700(), 10, model().clone());
        let c = h.create_container(ContainerSpec::new("c")).unwrap();
        h.advance_secs(2);
        // Same path names; max_energy_range_uj still served normally.
        assert!(h
            .read_file(c, "/sys/class/powercap/intel-rapl:0/max_energy_range_uj")
            .is_ok());
        assert!(h.read_file(c, "/proc/uptime").is_ok());
        // Subdomain energy files also answer (core/dram split).
        let core: u64 = h
            .read_file(
                c,
                "/sys/class/powercap/intel-rapl:0/intel-rapl:0:0/energy_uj",
            )
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        let pkg: u64 = h
            .read_file(c, "/sys/class/powercap/intel-rapl:0/energy_uj")
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert!(core <= pkg);
    }

    #[test]
    fn container_counters_are_monotone() {
        let mut h = DefendedHost::new(MachineConfig::testbed_i7_6700(), 11, model().clone());
        let c = h.create_container(ContainerSpec::new("c")).unwrap();
        h.exec(c, "w", models::stress_small()).unwrap();
        let mut last = 0;
        for _ in 0..10 {
            h.advance_secs(1);
            let cur = h.container_energy_uj(c).unwrap();
            assert!(cur >= last, "energy went backwards: {last} -> {cur}");
            last = cur;
        }
        assert!(last > 0);
    }

    #[test]
    fn fig8_errors_below_five_percent() {
        let m = model();
        // A representative subset of the held-out SPEC benchmarks (the
        // full sweep runs in the fig8 binary).
        for w in [models::bzip2(), models::hmmer(), models::mcf()] {
            let e = fig8_error(m, &w, 3005);
            assert!(e < 0.05, "{}: ξ = {e}", w.name());
        }
    }

    #[test]
    fn fig9_bystander_is_blind_to_coresident_load() {
        let series = fig9_transparency(model(), 3009);
        // Host power surges when bzip2 starts at t=10...
        let host_before: f64 = series[3..9].iter().map(|s| s.0).sum::<f64>() / 6.0;
        let host_during: f64 = series[20..50].iter().map(|s| s.0).sum::<f64>() / 30.0;
        assert!(
            host_during > host_before + 10.0,
            "{host_before} -> {host_during}"
        );
        // ...container 1 follows the host...
        let c1_during: f64 = series[20..50].iter().map(|s| s.1).sum::<f64>() / 30.0;
        assert!(c1_during > host_during * 0.6);
        // ...while container 2's view stays at its own (idle) level.
        let c2_before: f64 = series[3..9].iter().map(|s| s.2).sum::<f64>() / 6.0;
        let c2_during: f64 = series[20..50].iter().map(|s| s.2).sum::<f64>() / 30.0;
        assert!(
            (c2_during - c2_before).abs() < host_during * 0.1,
            "bystander saw the surge: {c2_before} -> {c2_during}"
        );
    }

    #[test]
    fn package_attribution_follows_the_pinning() {
        // Dual-socket host: a container pinned to socket 1's CPUs must
        // accumulate its energy in intel-rapl:1, not intel-rapl:0.
        let model = Trainer::new(2002)
            .machine(MachineConfig::cloud_server())
            .train();
        let mut h = DefendedHost::new(MachineConfig::cloud_server(), 13, model);
        let pinned = h
            .create_container(ContainerSpec::new("socket1").cpus(vec![8, 9, 10, 11]))
            .unwrap();
        for i in 0..4 {
            h.exec(pinned, &format!("w{i}"), models::stress_small())
                .unwrap();
        }
        h.advance_secs(20);
        let read = |h: &DefendedHost, path: &str| -> u64 {
            h.read_file(pinned, path).unwrap().trim().parse().unwrap()
        };
        let pkg0 = read(&h, "/sys/class/powercap/intel-rapl:0/energy_uj");
        let pkg1 = read(&h, "/sys/class/powercap/intel-rapl:1/energy_uj");
        assert!(
            pkg1 > pkg0 * 3,
            "socket-1 pinned container: pkg0 {pkg0} vs pkg1 {pkg1}"
        );
        let (_, _, total) = h.ns.energy_uj(pinned).unwrap();
        assert!(
            (pkg0 + pkg1) as i64 - total as i64 <= 2,
            "package split must sum to the total: {pkg0}+{pkg1} vs {total}"
        );
    }

    /// The defended read and the plain runtime read of `path`, which the
    /// namespace must agree with wherever the tree refuses the file.
    fn both_reads(
        h: &DefendedHost,
        c: ContainerId,
        path: &str,
    ) -> (Result<String, RuntimeError>, Result<String, RuntimeError>) {
        (
            h.read_file(c, path),
            h.runtime.read_file(&h.kernel, c, path),
        )
    }

    #[test]
    fn a_package_past_the_last_is_not_found() {
        let mut h = DefendedHost::new(MachineConfig::testbed_i7_6700(), 14, model().clone());
        assert_eq!(h.kernel.rapl().package_count(), 1);
        let c = h.create_container(ContainerSpec::new("c")).unwrap();
        h.advance_secs(2);
        for path in [
            "/sys/class/powercap/intel-rapl:7/energy_uj",
            "/sys/class/powercap/intel-rapl:7/intel-rapl:7:0/energy_uj",
            "/sys/class/powercap/intel-rapl:0/intel-rapl:7:0/energy_uj",
            "/sys/class/powercap/intel-rapl:0/intel-rapl:0:2/energy_uj",
        ] {
            let (defended, plain) = both_reads(&h, c, path);
            assert!(
                matches!(plain, Err(RuntimeError::Fs(pseudofs::FsError::NotFound(_)))),
                "{path}: {plain:?}"
            );
            assert_eq!(format!("{defended:?}"), format!("{plain:?}"), "{path}");
        }
    }

    #[test]
    fn a_host_without_rapl_serves_no_energy_file() {
        let machine = MachineConfig::legacy_server_no_rapl();
        let mut h = DefendedHost::new(machine, 15, model().clone());
        let c = h.create_container(ContainerSpec::new("c")).unwrap();
        h.advance_secs(2);
        let (defended, plain) = both_reads(&h, c, "/sys/class/powercap/intel-rapl:0/energy_uj");
        assert!(
            matches!(plain, Err(RuntimeError::Fs(pseudofs::FsError::NotFound(_)))),
            "{plain:?}"
        );
        assert_eq!(format!("{defended:?}"), format!("{plain:?}"));
    }

    #[test]
    fn a_denied_powercap_tree_stays_denied() {
        let mut h = DefendedHost::new(MachineConfig::testbed_i7_6700(), 16, model().clone());
        let policy = pseudofs::MaskPolicy::none().deny("/sys/class/powercap/**");
        let c = h
            .create_container(ContainerSpec::new("c").policy(policy))
            .unwrap();
        h.exec(c, "w", models::stress_small()).unwrap();
        h.advance_secs(2);
        assert!(
            h.container_energy_uj(c).unwrap() > 0,
            "the namespace still meters it"
        );
        for path in [
            "/sys/class/powercap/intel-rapl:0/energy_uj",
            "/sys/class/powercap/intel-rapl:0/intel-rapl:0:0/energy_uj",
        ] {
            let (defended, plain) = both_reads(&h, c, path);
            assert!(
                matches!(
                    plain,
                    Err(RuntimeError::Fs(pseudofs::FsError::PermissionDenied(_)))
                ),
                "{path}: {plain:?}"
            );
            assert_eq!(format!("{defended:?}"), format!("{plain:?}"), "{path}");
        }
    }

    #[test]
    fn unregistered_container_reads_fall_through() {
        let mut h = DefendedHost::new(MachineConfig::testbed_i7_6700(), 12, model().clone());
        let c = h
            .runtime
            .create(&mut h.kernel, ContainerSpec::new("raw"))
            .unwrap();
        h.advance_secs(2);
        // Not registered with the namespace: reads the raw (leaking) file —
        // the defense only protects namespaced containers.
        let v: u64 = h
            .read_file(c, "/sys/class/powercap/intel-rapl:0/energy_uj")
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert!(v > 0);
    }
}
