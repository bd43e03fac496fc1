//! The power-based namespace's evaluation (§V-B3, Figs. 8 and 9), run on
//! kernels with the namespace installed ([`Kernel::power_namespace`]).
//!
//! The namespace itself lives in the kernel ([`simkernel::power_ns`]):
//! every container env created after install accumulates
//! `M_container / M_host × ΔE_RAPL` each second (Formula 3), and the
//! unchanged RAPL files serve that value to the container. So a
//! container only ever sees its own energy; the host-wide counter — the
//! synergistic attack's oracle — is gone from its view.

use container_runtime::{ContainerId, ContainerSpec, Runtime};
use simkernel::{Kernel, MachineConfig};
use workloads::WorkloadSpec;

use crate::model::PowerModel;

/// The container's calibrated package energy (µJ), the defense-side
/// ground truth the evaluation reads; `None` when the container is
/// unknown or not registered with the kernel's namespace.
pub fn container_energy_uj(kernel: &Kernel, runtime: &Runtime, id: ContainerId) -> Option<u64> {
    let cgroups = runtime.container(id)?.env().cgroups;
    let e = kernel.power_ns()?.energy(&cgroups)?;
    Some(e.package_uj as u64)
}

/// A namespaced i7-6700 testbed kernel and an empty runtime, with a light
/// host background process.
#[expect(
    clippy::expect_used,
    reason = "a freshly booted testbed kernel always admits its background process"
)]
fn testbed(model: &PowerModel, seed: u64) -> (Kernel, Runtime) {
    let mut k = Kernel::new(MachineConfig::testbed_i7_6700(), seed).power_namespace(model.clone());
    k.spawn_host_process("systemd-journal", workloads::models::web_service(0.05))
        .expect("background");
    (k, Runtime::new())
}

/// The Fig. 8 accuracy experiment for one benchmark: runs it (4 copies)
/// in a namespaced container for 60 s alongside a light host background
/// and returns the paper's error metric
/// `ξ = |(E_RAPL − Δdiff) − M_container| / (E_RAPL − Δdiff)`.
#[expect(
    clippy::expect_used,
    reason = "experiment driver on a fresh namespaced testbed host: its containers and \
        workloads always fit, and the experiment runner contains a panic"
)]
pub fn fig8_error(model: &PowerModel, workload: &WorkloadSpec, seed: u64) -> f64 {
    // Paired idle run measures Δdiff: host-vs-container idle energy gap.
    let idle_host_uj;
    let idle_cont_uj;
    {
        let (mut k, mut rt) = testbed(model, seed);
        let c = rt
            .create(&mut k, ContainerSpec::new("probe"))
            .expect("container");
        let e0 = k.rapl().raw_totals().package_uj;
        k.advance_secs(60);
        idle_host_uj = k.rapl().raw_totals().package_uj - e0;
        idle_cont_uj = container_energy_uj(&k, &rt, c).unwrap_or(0) as f64;
    }
    let delta_diff = (idle_host_uj - idle_cont_uj).max(0.0);

    let (mut k, mut rt) = testbed(model, seed);
    let c = rt
        .create(&mut k, ContainerSpec::new("bench"))
        .expect("container");
    for i in 0..4 {
        rt.exec(&mut k, c, &format!("w{i}"), workload.clone())
            .expect("bench workload");
    }
    let e0 = k.rapl().raw_totals().package_uj;
    k.advance_secs(60);
    let e_rapl = k.rapl().raw_totals().package_uj - e0;
    let m_container = container_energy_uj(&k, &rt, c).unwrap_or(0) as f64;
    ((e_rapl - delta_diff) - m_container).abs() / (e_rapl - delta_diff)
}

/// Ablation of the on-the-fly calibration (Formula 3): the same Fig. 8
/// setup, but the container's reading is the *raw modeled* energy
/// `Σ M_container` with no calibration against the hardware counter.
/// Model bias (e.g. the unmodeled FP term) no longer cancels.
#[expect(
    clippy::expect_used,
    reason = "experiment driver on a fresh namespaced testbed host: its containers and \
        workloads always fit, and the experiment runner contains a panic"
)]
pub fn fig8_error_uncalibrated(model: &PowerModel, workload: &WorkloadSpec, seed: u64) -> f64 {
    let (mut k, mut rt) = testbed(model, seed);
    let c = rt
        .create(&mut k, ContainerSpec::new("bench"))
        .expect("container");
    let perf_cg = rt.container(c).expect("container").env().cgroups.perf_event;
    for i in 0..4 {
        rt.exec(&mut k, c, &format!("w{i}"), workload.clone())
            .expect("bench workload");
    }
    let e0 = k.rapl().raw_totals().package_uj;
    let mut last = k.cgroups().perf_counters(perf_cg).expect("counters");
    let mut modeled = 0.0;
    for _ in 0..60 {
        k.advance_secs(1);
        let cur = k.cgroups().perf_counters(perf_cg).expect("counters");
        modeled += model.package_uj(&cur.delta_since(&last));
        last = cur;
    }
    let e_rapl = k.rapl().raw_totals().package_uj - e0;
    (e_rapl - modeled).abs() / e_rapl
}

/// The Fig. 9 transparency experiment: two containers on one namespaced
/// host; container 1 runs `401.bzip2` from `t = 10 s` to `60 s`.
/// Returns 1 Hz power series `(host_w, container1_w, container2_w)`.
#[expect(
    clippy::expect_used,
    reason = "experiment driver on a fresh namespaced testbed host: its containers and \
        workloads always fit, and the experiment runner contains a panic"
)]
pub fn fig9_transparency(model: &PowerModel, seed: u64) -> Vec<(f64, f64, f64)> {
    let mut k = Kernel::new(MachineConfig::testbed_i7_6700(), seed).power_namespace(model.clone());
    let mut rt = Runtime::new();
    let c1 = rt.create(&mut k, ContainerSpec::new("worker")).expect("c1");
    let c2 = rt
        .create(&mut k, ContainerSpec::new("bystander"))
        .expect("c2");
    rt.exec(&mut k, c2, "idle-shell", workloads::models::sleeper())
        .expect("c2 shell");
    let energies = |k: &Kernel, rt: &Runtime| {
        (
            k.rapl().raw_totals().package_uj,
            container_energy_uj(k, rt, c1).unwrap_or(0),
            container_energy_uj(k, rt, c2).unwrap_or(0),
        )
    };
    let mut out = Vec::with_capacity(70);
    let mut last = energies(&k, &rt);
    for t in 0..70u64 {
        if t == 10 {
            for i in 0..4 {
                rt.exec(
                    &mut k,
                    c1,
                    &format!("bzip2-{i}"),
                    workloads::models::bzip2(),
                )
                .expect("bzip2");
            }
        }
        k.advance_secs(1);
        let cur = energies(&k, &rt);
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
    use container_runtime::RuntimeError;
    use pseudofs::FsError;
    use std::sync::OnceLock;
    use workloads::models;

    fn model() -> &'static PowerModel {
        static MODEL: OnceLock<PowerModel> = OnceLock::new();
        MODEL.get_or_init(|| Trainer::new(2001).train())
    }

    fn namespaced(machine: MachineConfig, seed: u64) -> (Kernel, Runtime) {
        (
            Kernel::new(machine, seed).power_namespace(model().clone()),
            Runtime::new(),
        )
    }

    fn read_uj(k: &Kernel, rt: &Runtime, c: ContainerId, path: &str) -> u64 {
        rt.read_file(k, c, path).unwrap().trim().parse().unwrap()
    }

    const PKG0: &str = "/sys/class/powercap/intel-rapl:0/energy_uj";

    #[test]
    fn namespaced_read_serves_container_energy_not_host() {
        let (mut k, mut rt) = namespaced(MachineConfig::testbed_i7_6700(), 9);
        let busy = rt.create(&mut k, ContainerSpec::new("busy")).unwrap();
        let idle = rt.create(&mut k, ContainerSpec::new("idle")).unwrap();
        for i in 0..4 {
            rt.exec(&mut k, busy, &format!("s{i}"), models::stress_small())
                .unwrap();
        }
        rt.exec(&mut k, idle, "shell", models::sleeper()).unwrap();
        k.advance_secs(30);

        let busy_uj = read_uj(&k, &rt, busy, PKG0);
        let idle_uj = read_uj(&k, &rt, idle, PKG0);
        let host_uj = k.rapl().raw_totals().package_uj as u64;
        // The busy container sees its own (high) consumption; the idle one
        // sees an idle-host-level reading (as in the paper's Fig. 9, where
        // unloaded containers sit at the host's idle level). Neither sees
        // the host-global counter.
        assert!(
            busy_uj > idle_uj * 13 / 10,
            "busy {busy_uj} vs idle {idle_uj}"
        );
        assert!(busy_uj < host_uj, "container must see less than host");
        assert_eq!(Some(busy_uj), container_energy_uj(&k, &rt, busy));
    }

    #[test]
    fn interface_is_unchanged_for_other_files() {
        let (mut k, mut rt) = namespaced(MachineConfig::testbed_i7_6700(), 10);
        let c = rt.create(&mut k, ContainerSpec::new("c")).unwrap();
        k.advance_secs(2);
        // Same path names; max_energy_range_uj still served normally.
        assert!(rt
            .read_file(
                &k,
                c,
                "/sys/class/powercap/intel-rapl:0/max_energy_range_uj"
            )
            .is_ok());
        assert!(rt.read_file(&k, c, "/proc/uptime").is_ok());
        // Subdomain energy files also answer (core/dram split).
        let core = read_uj(
            &k,
            &rt,
            c,
            "/sys/class/powercap/intel-rapl:0/intel-rapl:0:0/energy_uj",
        );
        assert!(core <= read_uj(&k, &rt, c, PKG0));
    }

    #[test]
    fn container_counters_are_monotone() {
        let (mut k, mut rt) = namespaced(MachineConfig::testbed_i7_6700(), 11);
        let c = rt.create(&mut k, ContainerSpec::new("c")).unwrap();
        rt.exec(&mut k, c, "w", models::stress_small()).unwrap();
        let mut last = 0;
        for _ in 0..10 {
            k.advance_secs(1);
            let cur = container_energy_uj(&k, &rt, c).unwrap();
            assert!(cur >= last, "energy went backwards: {last} -> {cur}");
            last = cur;
        }
        assert!(last > 0);
    }

    #[test]
    fn fig8_errors_below_five_percent() {
        let m = model();
        // A representative subset of the held-out SPEC benchmarks (the
        // full sweep runs in the fig8 experiment).
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
        let mut k = Kernel::new(MachineConfig::cloud_server(), 13).power_namespace(model);
        let mut rt = Runtime::new();
        let pinned = rt
            .create(
                &mut k,
                ContainerSpec::new("socket1").cpus(vec![8, 9, 10, 11]),
            )
            .unwrap();
        for i in 0..4 {
            rt.exec(&mut k, pinned, &format!("w{i}"), models::stress_small())
                .unwrap();
        }
        k.advance_secs(20);
        let pkg0 = read_uj(&k, &rt, pinned, PKG0);
        let pkg1 = read_uj(
            &k,
            &rt,
            pinned,
            "/sys/class/powercap/intel-rapl:1/energy_uj",
        );
        assert!(
            pkg1 > pkg0 * 3,
            "socket-1 pinned container: pkg0 {pkg0} vs pkg1 {pkg1}"
        );
        let total = container_energy_uj(&k, &rt, pinned).unwrap();
        assert!(
            (pkg0 + pkg1) as i64 - total as i64 <= 2,
            "package split must sum to the total: {pkg0}+{pkg1} vs {total}"
        );
    }

    #[test]
    fn a_package_past_the_last_is_not_found() {
        let (mut k, mut rt) = namespaced(MachineConfig::testbed_i7_6700(), 14);
        assert_eq!(k.rapl().package_count(), 1);
        let c = rt.create(&mut k, ContainerSpec::new("c")).unwrap();
        k.advance_secs(2);
        for path in [
            "/sys/class/powercap/intel-rapl:7/energy_uj",
            "/sys/class/powercap/intel-rapl:7/intel-rapl:7:0/energy_uj",
            "/sys/class/powercap/intel-rapl:0/intel-rapl:7:0/energy_uj",
            "/sys/class/powercap/intel-rapl:0/intel-rapl:0:2/energy_uj",
        ] {
            let read = rt.read_file(&k, c, path);
            assert!(
                matches!(read, Err(RuntimeError::Fs(FsError::NotFound(_)))),
                "{path}: {read:?}"
            );
        }
    }

    #[test]
    fn a_host_without_rapl_serves_no_energy_file() {
        let (mut k, mut rt) = namespaced(MachineConfig::legacy_server_no_rapl(), 15);
        let c = rt.create(&mut k, ContainerSpec::new("c")).unwrap();
        rt.exec(&mut k, c, "w", models::stress_small()).unwrap();
        k.advance_secs(2);
        let read = rt.read_file(&k, c, PKG0);
        assert!(
            matches!(read, Err(RuntimeError::Fs(FsError::NotFound(_)))),
            "{read:?}"
        );
    }

    #[test]
    fn a_denied_powercap_tree_stays_denied() {
        let (mut k, mut rt) = namespaced(MachineConfig::testbed_i7_6700(), 16);
        let policy = pseudofs::MaskPolicy::none().deny("/sys/class/powercap/**");
        let c = rt
            .create(&mut k, ContainerSpec::new("c").policy(policy))
            .unwrap();
        rt.exec(&mut k, c, "w", models::stress_small()).unwrap();
        k.advance_secs(2);
        assert!(
            container_energy_uj(&k, &rt, c).unwrap() > 0,
            "the namespace still meters it"
        );
        for path in [
            PKG0,
            "/sys/class/powercap/intel-rapl:0/intel-rapl:0:0/energy_uj",
        ] {
            let read = rt.read_file(&k, c, path);
            assert!(
                matches!(read, Err(RuntimeError::Fs(FsError::PermissionDenied(_)))),
                "{path}: {read:?}"
            );
        }
    }

    #[test]
    fn the_host_view_reads_the_host_counter() {
        let (mut k, mut rt) = namespaced(MachineConfig::testbed_i7_6700(), 17);
        let c = rt.create(&mut k, ContainerSpec::new("c")).unwrap();
        rt.exec(&mut k, c, "w", models::stress_small()).unwrap();
        k.advance_secs(3);
        let fs = pseudofs::PseudoFs::new();
        let host = fs.read(&k, &pseudofs::View::host(), PKG0).unwrap();
        assert_eq!(host, format!("{}\n", k.rapl().package_energy_uj(0)));
        // The container's view, through the same route, is its own energy.
        assert_eq!(
            Some(read_uj(&k, &rt, c, PKG0)),
            container_energy_uj(&k, &rt, c)
        );
    }

    #[test]
    fn a_container_created_before_install_reads_the_host_counter() {
        let mut k = Kernel::new(MachineConfig::testbed_i7_6700(), 12);
        let mut rt = Runtime::new();
        let raw = rt.create(&mut k, ContainerSpec::new("raw")).unwrap();
        let mut k = k.power_namespace(model().clone());
        k.advance_secs(2);
        // Not registered with the namespace: reads the raw (leaking) file —
        // the defense only protects containers created under it.
        assert_eq!(container_energy_uj(&k, &rt, raw), None);
        assert_eq!(read_uj(&k, &rt, raw, PKG0), k.rapl().package_energy_uj(0));
        assert!(k.rapl().package_energy_uj(0) > 0);
    }
}
