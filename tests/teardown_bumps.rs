//! Teardown paths must bump every dirty epoch they invalidate — and
//! unwind every registry entry they created.
//!
//! Consumers of the per-subsystem epochs (the fleet calendar's sync
//! check, cross-validation snapshots, the idle-channel metrics) trust
//! them completely: a teardown path that mutates kernel state without
//! bumping the epochs its pseudo-files depend on would let them treat
//! changed bytes as unchanged. These tests pin the bump masks of
//! [`Kernel::kill`] and [`Kernel::destroy_container_env`] bit by bit,
//! then drive the seeded churn loop to prove the namespace registry
//! returns to its baseline size once everything is torn down. Two
//! teardown storms — hundreds of create → exec → advance → destroy
//! cycles on one faulted host, and launch/terminate churn on a fleet
//! with the detector attached — prove the same for every registry a
//! container touches, and that cgroup ids are never reused.

use containerleaks::cloudsim::{
    Cloud, CloudConfig, CloudProfile, DetectorConfig, InstanceId, InstanceSpec,
};
use containerleaks::container_runtime::{ContainerSpec, Runtime};
use containerleaks::pseudofs::render::sys_cgroup;
use containerleaks::pseudofs::View;
use containerleaks::simkernel::cgroup::CgroupData;
use containerleaks::simkernel::kernel::ContainerEnv;
use containerleaks::simkernel::{
    dep, CgroupId, CgroupKind, ChurnDriver, ChurnPlan, FaultPlan, Kernel, MachineConfig,
};
use containerleaks::workloads::models;

/// Per-subsystem epoch snapshot, one masked sum per `dep` bit.
fn per_bit(k: &Kernel) -> Vec<(u32, u64)> {
    dep::BITS
        .iter()
        .map(|b| (*b, k.epochs().masked_sum(*b)))
        .collect()
}

/// Asserts that exactly the subsystems in `expected` advanced between
/// the two snapshots; everything else must have stood still.
fn assert_bumped(before: &[(u32, u64)], after: &[(u32, u64)], expected: u32, what: &str) {
    for ((bit, b), (_, a)) in before.iter().zip(after) {
        if expected & bit != 0 {
            assert!(
                a > b,
                "{what} must bump the {} epoch",
                dep::mask_names(*bit)
            );
        } else {
            assert_eq!(
                a,
                b,
                "{what} bumped the unrelated {} epoch",
                dep::mask_names(*bit)
            );
        }
    }
}

#[test]
fn kill_bumps_process_ns_fs_and_timer_epochs() {
    let mut k = Kernel::new(MachineConfig::small_server(), 3);
    let pid = k.spawn_host_process("victim", models::sleeper()).unwrap();
    k.advance_secs(2);
    let before = per_bit(&k);
    k.kill(pid).unwrap();
    // /proc listings (PROCESS), per-ns pid views (NS), open-fd derived
    // files (FS), and the dead process's timers (TIMERS) all changed.
    assert_bumped(
        &before,
        &per_bit(&k),
        dep::PROCESS | dep::NS | dep::FS | dep::TIMERS,
        "kill",
    );
}

#[test]
fn destroying_an_idle_container_env_bumps_ns_net_and_cgroup_epochs() {
    let mut k = Kernel::new(MachineConfig::small_server(), 5);
    let env = k.create_container_env("idle").unwrap();
    k.advance_secs(1);
    let before = per_bit(&k);
    k.destroy_container_env(&env).unwrap();
    // No member processes, so the teardown is purely namespace + veth +
    // cgroup removal; the process/fs/timer epochs must not move.
    assert_bumped(
        &before,
        &per_bit(&k),
        dep::NS | dep::NET | dep::CGROUP,
        "destroy_container_env (idle)",
    );
}

#[test]
fn destroying_a_populated_env_also_bumps_the_process_epochs() {
    let mut k = Kernel::new(MachineConfig::small_server(), 8);
    let env = k.create_container_env("busy").unwrap();
    let spec = containerleaks::simkernel::kernel::ProcessSpec::new("inmate", models::sleeper())
        .in_container(&env);
    k.spawn(spec).unwrap();
    k.advance_secs(1);
    let before = per_bit(&k);
    k.destroy_container_env(&env).unwrap();
    // The member process is reaped through the same cleanup path as
    // kill, so its bump mask rides along with the env teardown's.
    assert_bumped(
        &before,
        &per_bit(&k),
        dep::NS | dep::NET | dep::CGROUP | dep::PROCESS | dep::FS | dep::TIMERS,
        "destroy_container_env (populated)",
    );
}

#[test]
fn churn_teardown_returns_the_namespace_registry_to_baseline() {
    let mut k = Kernel::new(MachineConfig::small_server(), 7);
    let baseline = k.namespaces().len();
    let mut driver = ChurnDriver::new(ChurnPlan::new(7).cycles(24).max_live(4));
    driver.run(&mut k);
    driver.teardown_all(&mut k);
    assert!(
        driver.live().is_empty(),
        "teardown_all left live containers"
    );
    assert_eq!(
        k.namespaces().len(),
        baseline,
        "namespace registry leaked entries across a churn run"
    );
}

/// What a container leaves behind if its teardown is incomplete: the
/// live cgroups (hierarchy and path), every net_prio node's
/// `ifpriomap` key set (empty: no priority is ever set), the host device
/// list, and the namespace count.
#[derive(Debug, PartialEq)]
struct Footprint {
    cgroups: Vec<(CgroupKind, String)>,
    ifpriomaps: Vec<(String, Vec<String>)>,
    devices: Vec<String>,
    namespaces: usize,
}

fn footprint(k: &Kernel) -> Footprint {
    let cg = k.cgroups();
    let cgroups = CgroupKind::ALL
        .iter()
        .flat_map(|&kind| {
            cg.nodes_of_kind(kind)
                .into_iter()
                .map(move |n| (kind, n.path().to_string()))
        })
        .collect();
    let ifpriomaps = cg
        .nodes_of_kind(CgroupKind::NetPrio)
        .into_iter()
        .map(|n| match n.data() {
            CgroupData::NetPrio { ifpriomap } => {
                (n.path().to_string(), ifpriomap.keys().cloned().collect())
            }
            other => panic!("net_prio node {} holds {other:?}", n.path()),
        })
        .collect();
    Footprint {
        cgroups,
        ifpriomaps,
        devices: k.net().devices().iter().map(|d| d.name.clone()).collect(),
        namespaces: k.namespaces().len(),
    }
}

/// Asserts the net_prio leak's invariant as readers see it: from the
/// host and from every container of `rt`, `net_prio.ifpriomap` renders
/// every host device, in device order, at priority 0 (nothing sets a
/// priority). A group keeps no entry for a device the host no longer has,
/// so a veth reusing a dead one's name starts at 0 too.
fn assert_ifpriomap_renders_host_devices(k: &Kernel, rt: &Runtime, what: &str) {
    let devices: Vec<String> = k.net().devices().iter().map(|d| d.name.clone()).collect();
    let want: String = devices.iter().map(|d| format!("{d} 0\n")).collect();
    let views = std::iter::once(View::host()).chain(rt.iter().map(|c| c.view().clone()));
    for view in views {
        let mut got = String::new();
        sys_cgroup::ifpriomap(k, &view, &[], &mut got).expect("ifpriomap renders");
        assert_eq!(
            got, want,
            "{what}: net_prio.ifpriomap out of step with the host devices"
        );
    }
    for (path, keys) in footprint(k).ifpriomaps {
        assert!(
            keys.iter().all(|key| devices.contains(key)),
            "{what}: net_prio {path} keeps a priority for a removed device: {keys:?}"
        );
    }
}

/// The env's cgroup ids in hierarchy order.
fn env_ids(env: &ContainerEnv) -> [CgroupId; 4] {
    let cg = env.cgroups;
    [cg.cpuacct, cg.perf_event, cg.net_prio, cg.memory]
}

/// Asserts that `ids` all lie above `*high` and rise in order, then
/// raises `*high` to the last of them.
fn assert_fresh_ids(ids: [CgroupId; 4], high: &mut Option<CgroupId>, what: &str) {
    for id in ids {
        assert!(
            high.is_none_or(|h| id > h),
            "{what}: cgroup id {id} reuses or precedes {high:?}"
        );
        *high = Some(id);
    }
}

#[test]
fn teardown_storm_on_a_faulted_host_leaves_no_trace() {
    const CYCLES: u64 = 512;
    let mut k = Kernel::new(MachineConfig::small_server(), 21);
    // Read faults, sensor faults, skew windows and three crash-reboots
    // spread over the storm's ~20 simulated minutes.
    k.install_faults(
        FaultPlan::builder(21)
            .horizon_secs(1_200)
            .transient_reads(8)
            .sensor_faults(4)
            .clock_skew(2)
            .reboots(3)
            .build(),
    );
    let mut rt = Runtime::new();
    // One warm-up cycle: the first container also creates each
    // hierarchy's `/docker` parent, which outlives every container.
    let warm = rt
        .create(&mut k, ContainerSpec::new("warm-up"))
        .expect("warm-up container");
    let mut high = rt.container(warm).map(|c| env_ids(c.env())[3]);
    rt.remove(&mut k, warm).expect("warm-up teardown");
    let baseline = footprint(&k);
    let reboots = k.reboot_count();

    for i in 0..CYCLES {
        let id = rt
            .create(&mut k, ContainerSpec::new(format!("storm-{i}")))
            .expect("create");
        let env = rt.container(id).expect("live container").env().clone();
        assert_fresh_ids(env_ids(&env), &mut high, "storm create");
        assert_ifpriomap_renders_host_devices(&k, &rt, "storm create");
        let jobs = [models::prime(), models::sleeper(), models::stress_vm()];
        for (j, w) in jobs.into_iter().take(1 + (i % 3) as usize).enumerate() {
            rt.exec(&mut k, id, &format!("job-{j}"), w).expect("exec");
        }
        k.advance_secs(1 + i % 3);
        rt.remove(&mut k, id).expect("remove");
        assert_ifpriomap_renders_host_devices(&k, &rt, "storm destroy");
        assert!(
            k.processes().all(|p| p.namespaces() != env.ns),
            "cycle {i}: a member process outlived its container"
        );
    }
    assert!(
        k.reboot_count() > reboots,
        "the fault plan's crash-reboots must fire during the storm"
    );
    assert_eq!(k.process_count(), 0, "every storm process was reaped");
    assert_eq!(
        footprint(&k),
        baseline,
        "{CYCLES} create/exec/advance/destroy cycles left registry entries behind"
    );
}

#[test]
fn fleet_churn_with_the_detector_returns_every_host_to_baseline() {
    let mut cloud = Cloud::new(
        CloudConfig::new(CloudProfile::CC1)
            .hosts(16)
            .detector(DetectorConfig::default()),
        33,
    );
    // Every host already runs its background tenant's container, so
    // each hierarchy's `/docker` parent exists before the churn starts.
    let baseline: Vec<Footprint> = cloud.hosts().map(|h| footprint(h.kernel())).collect();
    let mut high: Vec<Option<CgroupId>> = vec![None; 16];
    let mut live: Vec<InstanceId> = Vec::new();
    let mut state = 33u64;
    for op in 0..600u64 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let word = state >> 33;
        if word % 5 < 3 || live.is_empty() {
            let tenant = format!("t{}", word % 7);
            let id = cloud
                .launch(&tenant, InstanceSpec::new(format!("c{op}")).vcpus(1))
                .expect("launch");
            let inst = *cloud.instance(id).expect("launched");
            let host = inst.host();
            let h = cloud.host(host).expect("placed host");
            let env = h
                .runtime()
                .container(inst.container())
                .expect("instance container")
                .env()
                .clone();
            assert_fresh_ids(env_ids(&env), &mut high[host.0 as usize], "fleet launch");
            assert_ifpriomap_renders_host_devices(h.kernel(), h.runtime(), "fleet launch");
            if word.is_multiple_of(4) {
                cloud
                    .exec(id, "app", models::web_service(0.2))
                    .expect("exec");
            }
            // Probes feed the detector's read tap.
            let _ = cloud.read_file(id, "/proc/uptime");
            live.push(id);
        } else {
            let id = live.swap_remove((word as usize / 5) % live.len());
            cloud.terminate(id).expect("terminate");
        }
        if op % 25 == 24 {
            cloud.advance_secs(1 + op % 3);
        }
    }
    for id in live.drain(..) {
        cloud.terminate(id).expect("terminate");
    }
    cloud.advance_secs(5);
    let after: Vec<Footprint> = cloud.hosts().map(|h| footprint(h.kernel())).collect();
    for (host, (b, a)) in baseline.iter().zip(&after).enumerate() {
        assert_eq!(a, b, "host {host} kept registry entries after the churn");
    }
}
