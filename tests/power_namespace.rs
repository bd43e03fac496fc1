//! The power-based namespace as a kernel feature.
//!
//! [`Kernel::power_namespace`] moves Formula 3's calibration into the
//! kernel: one accumulator per registered container env, calibrated at
//! each whole second since install, served through the unchanged RAPL
//! files. These tests hold it to the namespace as it ran above the kernel
//! — a sampler pass after every `advance(1 s)` — bit for bit, on a
//! coalescing and a tick-stepped kernel; check that its registry only
//! ever holds live containers; and replay the defended-fleet checks on a
//! namespaced [`Cloud`].

use std::collections::BTreeMap;
use std::sync::OnceLock;

use containerleaks::cloudsim::{Cloud, CloudConfig, CloudProfile, HostId, InstanceSpec};
use containerleaks::powerns::Trainer;
use containerleaks::pseudofs::{PseudoFs, View};
use containerleaks::simkernel::cgroup::PerfCounters;
use containerleaks::simkernel::kernel::{ContainerEnv, ProcessSpec};
use containerleaks::simkernel::process::CgroupMembership;
use containerleaks::simkernel::{
    CgroupKind, HostPid, Kernel, MachineConfig, PowerModel, NANOS_PER_SEC,
};
use containerleaks::workloads::models;

/// Plausible Formula 2 coefficients: any model serves a differential
/// check, and a literal one keeps training out of it.
fn literal_model() -> PowerModel {
    PowerModel {
        core_coef: [6.0e-4, 2.0e-3, 1.0e-3, 1.5e-3, 2.0e5],
        dram_coef: [4.0e-3, 3.0e5],
        lambda_uj: 1.2e6,
    }
}

/// One container as the reference namespace sampled it.
struct RefContainer {
    cgroups: CgroupMembership,
    perf_last: PerfCounters,
    cpuacct_last: Vec<u64>,
    core_uj: f64,
    dram_uj: f64,
    package_uj: f64,
    per_package_uj: Vec<f64>,
}

/// The namespace as it ran above the kernel before it moved in: samplers
/// primed at install and at registration, and Formula 3 computed from
/// perf-counter and raw-RAPL deltas after every `advance(1 s)`.
struct Reference {
    model: PowerModel,
    host_last: PerfCounters,
    rapl_last: (f64, f64, f64),
    containers: BTreeMap<usize, RefContainer>,
}

fn raw_rapl(k: &Kernel) -> (f64, f64, f64) {
    let rapl = k.rapl();
    let mut t = (0.0, 0.0, 0.0);
    for raw in (0..rapl.package_count()).filter_map(|p| rapl.raw(p)) {
        t.0 += raw.core_uj;
        t.1 += raw.dram_uj;
        t.2 += raw.package_uj;
    }
    t
}

fn perf_now(k: &Kernel, cg: containerleaks::simkernel::CgroupId) -> PerfCounters {
    k.cgroups().perf_counters(cg).unwrap_or_default()
}

impl Reference {
    fn install(k: &Kernel, model: PowerModel) -> Self {
        Reference {
            model,
            host_last: perf_now(k, k.cgroups().root(CgroupKind::PerfEvent)),
            rapl_last: raw_rapl(k),
            containers: BTreeMap::new(),
        }
    }

    fn register(&mut self, k: &Kernel, slot: usize, cgroups: CgroupMembership) {
        let cpuacct_last = k
            .cgroups()
            .cpuacct_usage_percpu(cgroups.cpuacct)
            .map(<[u64]>::to_vec)
            .unwrap_or_default();
        self.containers.insert(
            slot,
            RefContainer {
                cgroups,
                perf_last: perf_now(k, cgroups.perf_event),
                cpuacct_last,
                core_uj: 0.0,
                dram_uj: 0.0,
                package_uj: 0.0,
                per_package_uj: vec![0.0; k.rapl().package_count()],
            },
        );
    }

    fn update(&mut self, k: &Kernel) {
        let rapl = raw_rapl(k);
        let d_core = rapl.0 - self.rapl_last.0;
        let d_dram = rapl.1 - self.rapl_last.1;
        let d_pkg = rapl.2 - self.rapl_last.2;
        self.rapl_last = rapl;

        let host_now = perf_now(k, k.cgroups().root(CgroupKind::PerfEvent));
        let host_delta = host_now.delta_since(&self.host_last);
        self.host_last = host_now;
        let m_host_core = self.model.core_uj(&host_delta).max(1.0);
        let m_host_dram = self.model.dram_uj(&host_delta).max(1.0);
        let m_host_pkg = self.model.package_uj(&host_delta).max(1.0);

        for c in self.containers.values_mut() {
            let now = perf_now(k, c.cgroups.perf_event);
            let d = now.delta_since(&c.perf_last);
            c.perf_last = now;
            let pkg_delta = (self.model.package_uj(&d) / m_host_pkg * d_pkg).max(0.0);
            c.core_uj += (self.model.core_uj(&d) / m_host_core * d_core).max(0.0);
            c.dram_uj += (self.model.dram_uj(&d) / m_host_dram * d_dram).max(0.0);
            c.package_uj += pkg_delta;

            let percpu = k
                .cgroups()
                .cpuacct_usage_percpu(c.cgroups.cpuacct)
                .map(<[u64]>::to_vec)
                .unwrap_or_default();
            let mut per_pkg_ns = vec![0u64; c.per_package_uj.len()];
            for (cpu, now) in percpu.iter().enumerate() {
                let last = c.cpuacct_last.get(cpu).copied().unwrap_or(0);
                let pkg = k.hw().package_of(cpu);
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
                *first += pkg_delta;
            }
            c.cpuacct_last = percpu;
        }
    }

    /// What the replaced read path served for `intel-rapl:{pkg}` (domain
    /// `None`) or its core (`Some(0)`) / DRAM (`Some(1)`) sub-domain.
    fn served(&self, slot: usize, pkg: usize, domain: Option<usize>) -> u64 {
        let c = &self.containers[&slot];
        let pkg_uj = c.per_package_uj[pkg] as u64;
        let total = c.package_uj as u64;
        let share = if total == 0 {
            0.0
        } else {
            pkg_uj as f64 / total as f64
        };
        match domain {
            None => pkg_uj,
            Some(0) => (c.core_uj as u64 as f64 * share) as u64,
            Some(_) => (c.dram_uj as u64 as f64 * share) as u64,
        }
    }
}

/// One step of the differential script.
#[derive(Debug, Clone, Copy)]
enum Op {
    Create,
    Exec { slot: usize, busy: bool },
    KillAll,
    Destroy { slot: usize },
    TickSecs(u64),
    Advance(u64),
}

/// Busy and idle spans, exec and kill, a 30 s tick set mid-run, and a
/// container destroyed mid-run.
const SCRIPT: &[Op] = &[
    Op::Create,
    Op::Create,
    Op::Exec {
        slot: 0,
        busy: true,
    },
    Op::Exec {
        slot: 0,
        busy: true,
    },
    Op::Exec {
        slot: 1,
        busy: true,
    },
    Op::Advance(7),
    Op::KillAll,
    Op::Advance(9),
    Op::TickSecs(30),
    Op::Exec {
        slot: 1,
        busy: false,
    },
    Op::Create,
    Op::Exec {
        slot: 2,
        busy: true,
    },
    Op::Advance(6),
    Op::Destroy { slot: 0 },
    Op::Advance(4),
    Op::KillAll,
    Op::Advance(12),
    Op::Exec {
        slot: 2,
        busy: true,
    },
    Op::Advance(3),
];

/// A namespaced kernel driven through the script, its containers by slot.
struct Driven {
    k: Kernel,
    envs: Vec<Option<ContainerEnv>>,
    pids: Vec<HostPid>,
}

impl Driven {
    fn new(seed: u64, stepped: bool) -> Self {
        let k = Kernel::new(MachineConfig::cloud_server(), seed);
        let k = if stepped { k.tick_stepped() } else { k };
        Driven {
            k: k.power_namespace(literal_model()),
            envs: Vec::new(),
            pids: Vec::new(),
        }
    }

    /// Applies one op; the time an `Advance` op takes is the caller's.
    fn apply(&mut self, op: Op) {
        match op {
            Op::Create => {
                let env = self
                    .k
                    .create_container_env(&format!("c{}", self.envs.len()))
                    .unwrap();
                self.envs.push(Some(env));
            }
            Op::Exec { slot, busy } => {
                let env = self.envs[slot].as_ref().unwrap();
                let w = if busy {
                    models::stress_small()
                } else {
                    models::web_service(0.3)
                };
                let mut spec = ProcessSpec::new("w", w).in_container(env);
                if slot == 1 {
                    // Slot 1 runs on socket 1, so its energy lands in
                    // `intel-rapl:1`.
                    spec = spec.affinity(vec![8, 9, 10, 11]);
                }
                self.pids.push(self.k.spawn(spec).unwrap());
            }
            Op::KillAll => {
                for pid in self.pids.drain(..) {
                    let _ = self.k.kill(pid);
                }
            }
            Op::Destroy { slot } => {
                let env = self.envs[slot].take().unwrap();
                self.k.destroy_container_env(&env).unwrap();
            }
            Op::TickSecs(s) => self.k.set_tick_ns(s * NANOS_PER_SEC),
            Op::Advance(_) => {}
        }
    }
}

/// Runs the script twice — one kernel advanced second by second under
/// the reference, one advanced in whole `Advance` spans — and demands
/// the kernel's accumulators and the bytes its RAPL files serve equal
/// the reference's at every advance.
fn differential(seed: u64, stepped: bool) {
    let fs = PseudoFs::new();
    let mut per_second = Driven::new(seed, stepped);
    let mut spans = Driven::new(seed, stepped);
    let mut reference = Reference::install(&per_second.k, literal_model());
    for (i, &op) in SCRIPT.iter().enumerate() {
        per_second.apply(op);
        spans.apply(op);
        let secs = match op {
            Op::Advance(secs) => secs,
            Op::Create => {
                let slot = per_second.envs.len() - 1;
                let cg = per_second.envs[slot].as_ref().unwrap().cgroups;
                reference.register(&per_second.k, slot, cg);
                continue;
            }
            Op::Destroy { slot } => {
                reference.containers.remove(&slot);
                continue;
            }
            _ => continue,
        };
        for _ in 0..secs {
            per_second.k.advance(NANOS_PER_SEC);
            reference.update(&per_second.k);
        }
        spans.k.advance(secs * NANOS_PER_SEC);

        let live = spans.envs.iter().flatten().count();
        let ns = spans.k.power_ns().unwrap();
        assert_eq!(ns.container_count(), live, "op {i}: registry size");
        for (slot, env) in spans.envs.iter().enumerate() {
            let Some(env) = env else { continue };
            let want = &reference.containers[&slot];
            for d in [&spans, &per_second] {
                let got = d.k.power_ns().unwrap().energy(&env.cgroups).unwrap();
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&[got.core_uj, got.dram_uj, got.package_uj]),
                    bits(&[want.core_uj, want.dram_uj, want.package_uj]),
                    "op {i}, slot {slot}, seed {seed}, stepped {stepped}"
                );
                assert_eq!(bits(&got.per_package_uj), bits(&want.per_package_uj));
            }
            let view = View::container(env.ns, env.cgroups);
            for pkg in 0..2 {
                for (domain, path) in [
                    (
                        None,
                        format!("/sys/class/powercap/intel-rapl:{pkg}/energy_uj"),
                    ),
                    (
                        Some(0),
                        format!(
                            "/sys/class/powercap/intel-rapl:{pkg}/intel-rapl:{pkg}:0/energy_uj"
                        ),
                    ),
                    (
                        Some(1),
                        format!(
                            "/sys/class/powercap/intel-rapl:{pkg}/intel-rapl:{pkg}:1/energy_uj"
                        ),
                    ),
                ] {
                    assert_eq!(
                        fs.read(&spans.k, &view, &path).unwrap(),
                        format!("{}\n", reference.served(slot, pkg, domain)),
                        "op {i}: {path} served to slot {slot}"
                    );
                }
            }
        }
    }
    // Both kernels ran the same ticks: the same host energy to the bit.
    assert_eq!(
        raw_rapl(&spans.k).2.to_bits(),
        raw_rapl(&per_second.k).2.to_bits()
    );
    assert!(reference
        .containers
        .values()
        .any(|c| c.per_package_uj[1] > 0.0));
}

#[test]
fn kernel_calibration_matches_the_per_second_reference() {
    for seed in [3, 41] {
        differential(seed, false);
    }
}

#[test]
fn tick_stepped_calibration_matches_the_per_second_reference() {
    differential(3, true);
}

#[test]
fn the_namespace_holds_entries_only_for_live_containers() {
    let mut k = Kernel::new(MachineConfig::small_server(), 5).power_namespace(literal_model());
    let keep: Vec<ContainerEnv> = (0..2)
        .map(|i| k.create_container_env(&format!("keep{i}")).unwrap())
        .collect();
    for i in 0..1_000 {
        let env = k.create_container_env(&format!("churn{i}")).unwrap();
        if i % 100 == 0 {
            k.advance_secs(1);
        }
        k.destroy_container_env(&env).unwrap();
    }
    let ns = k.power_ns().unwrap();
    assert_eq!(ns.container_count(), keep.len());
    for env in &keep {
        assert!(ns.energy(&env.cgroups).is_some());
    }
    // The root and each live container keep one tombstone event per
    // (type × CPU); every destroyed container's events are gone.
    let per_cgroup = 4 * usize::from(k.config().cpus);
    assert_eq!(k.perf().events().len(), (keep.len() + 1) * per_cgroup);
    assert!(k.perf().events().iter().all(|e| e.tombstone_owner));
}

#[test]
fn a_registered_container_counts_only_its_own_work() {
    let mut k = Kernel::new(MachineConfig::small_server(), 5).power_namespace(literal_model());
    let env = k.create_container_env("c").unwrap();
    let counters = |k: &Kernel| k.cgroups().perf_counters(env.cgroups.perf_event).unwrap();
    // Host work must not appear in the container's counters...
    k.spawn_host_process("host-noise", models::prime()).unwrap();
    k.advance_secs(2);
    assert_eq!(counters(&k).instructions, 0, "host work leaked in");
    // ...while its own work does, with prime's characteristic mix.
    k.spawn(ProcessSpec::new("app", models::prime()).in_container(&env))
        .unwrap();
    k.advance_secs(2);
    let d = counters(&k);
    assert!(d.instructions > 1_000_000_000 && d.cycles > 0);
    let cmpki = d.cache_misses as f64 / d.instructions as f64 * 1000.0;
    assert!((0.01..0.2).contains(&cmpki), "cmpki {cmpki}");
}

fn cloud_model() -> &'static PowerModel {
    static MODEL: OnceLock<PowerModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        Trainer::new(42)
            .machine(MachineConfig::cloud_server())
            .train()
    })
}

fn namespaced_cloud(hosts: usize, seed: u64) -> Cloud {
    let cfg = CloudConfig::new(CloudProfile::CC1)
        .hosts(hosts)
        .power_namespace(cloud_model().clone());
    Cloud::new(cfg, seed)
}

fn read_uj(cloud: &mut Cloud, inst: containerleaks::cloudsim::InstanceId) -> u64 {
    cloud
        .read_file(inst, "/sys/class/powercap/intel-rapl:0/energy_uj")
        .unwrap()
        .trim()
        .parse()
        .unwrap()
}

#[test]
fn an_observer_sees_less_than_its_host() {
    let mut cloud = namespaced_cloud(2, 7);
    let a = cloud.launch("obs", InstanceSpec::new("obs-a")).unwrap();
    let b = cloud.launch("obs", InstanceSpec::new("obs-b")).unwrap();
    let host_a = cloud.instance(a).unwrap().host();
    assert_ne!(
        host_a,
        cloud.instance(b).unwrap().host(),
        "spread placement"
    );
    cloud.advance_secs(5);
    let ea = read_uj(&mut cloud, a);
    // The observer sees only its own idle-level attribution — below the
    // host's real counter (which includes the 12 active background
    // services) and, crucially, *not* the host counter itself.
    let host_uj = cloud
        .host(host_a)
        .unwrap()
        .kernel()
        .rapl()
        .raw_totals()
        .package_uj as u64;
    assert!(
        ea < host_uj * 85 / 100,
        "observer sees {ea} of host {host_uj}"
    );
    assert!(ea > 0);
}

#[test]
fn a_background_surge_does_not_move_the_observer_rate() {
    let mut cloud = namespaced_cloud(1, 8);
    let obs = cloud.launch("obs", InstanceSpec::new("obs")).unwrap();
    cloud.advance_secs(3);
    let w_low = cloud.host_power_w(HostId(0));
    let o0 = read_uj(&mut cloud, obs);
    cloud.advance_secs(5);
    let idle_rate = (read_uj(&mut cloud, obs) - o0) / 5;
    cloud.set_background_demand(HostId(0), 0.9);
    cloud.advance_secs(5);
    let w_high = cloud.host_power_w(HostId(0));
    let o1 = read_uj(&mut cloud, obs);
    cloud.advance_secs(5);
    let busy_rate = (read_uj(&mut cloud, obs) - o1) / 5;
    assert!(
        w_high > w_low + 30.0,
        "true power must surge: {w_low} -> {w_high}"
    );
    let drift = (busy_rate as f64 - idle_rate as f64).abs();
    assert!(
        drift < idle_rate as f64 * 0.2,
        "observer rate moved with the surge: {idle_rate} -> {busy_rate}"
    );
}

#[test]
fn a_rebooted_host_comes_back_namespaced() {
    let mut cloud = namespaced_cloud(1, 9);
    cloud.advance_secs(2);
    cloud.reboot_host(HostId(0));
    let obs = cloud.launch("obs", InstanceSpec::new("obs")).unwrap();
    cloud.advance_secs(3);
    let kernel = cloud.host(HostId(0)).unwrap().kernel();
    let host_uj = kernel.rapl().raw_totals().package_uj as u64;
    // The background tenant and the observer.
    assert_eq!(kernel.power_ns().map(|ns| ns.container_count()), Some(2));
    assert!(read_uj(&mut cloud, obs) < host_uj);
}
