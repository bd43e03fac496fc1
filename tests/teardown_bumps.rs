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
//! returns to its baseline size once everything is torn down.

use containerleaks::simkernel::{dep, ChurnDriver, ChurnPlan, Kernel, MachineConfig};
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
