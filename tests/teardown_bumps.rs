//! Teardown paths must bump every dirty epoch they invalidate — and
//! unwind every registry entry they created.
//!
//! The render cache trusts the per-subsystem epochs completely: a
//! teardown path that mutates kernel state without bumping the epochs
//! its pseudo-files depend on would let the cache serve stale bytes
//! forever. These tests pin the bump masks of [`Kernel::kill`] and
//! [`Kernel::destroy_container_env`] bit by bit, then drive the seeded
//! churn loop to prove the same contracts hold at fuzzable rates: twin
//! kernels (cache on / cache off) stay byte-identical through an entire
//! create–work–kill–destroy script, and the namespace registry returns
//! to its baseline size once everything is torn down.

use containerleaks::pseudofs::{PseudoFs, View};
use containerleaks::simkernel::{dep, ChurnDriver, ChurnPlan, Kernel, MachineConfig, RunConfig};
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

/// Channels read after every churn event; chosen to depend on the
/// namespace, cgroup, process, and net subsystems the teardown paths
/// touch.
const PROBES: &[&str] = &[
    "/proc/stat",
    "/proc/uptime",
    "/proc/net/dev",
    "/proc/self/cgroup",
    "/sys/fs/cgroup/cpuacct/cpuacct.usage",
];

/// Runs the seeded churn script on a fresh kernel and folds every event
/// and every probe read (host view plus each live container view) into
/// one transcript string.
fn churn_transcript(cache: bool, seed: u64) -> String {
    let mut k = {
        let _run = RunConfig {
            render_cache: cache,
            ..RunConfig::DEFAULT
        }
        .enter();
        Kernel::new(MachineConfig::small_server(), seed)
    };
    let mut driver = ChurnDriver::new(ChurnPlan::new(seed).cycles(16).max_live(3));
    let fs = PseudoFs::new();
    let mut out = String::new();
    for _ in 0..16 {
        let event = driver.step(&mut k);
        out.push_str(&format!("{event:?}\n"));
        k.advance_secs(1);
        let mut views = vec![View::host()];
        views.extend(
            driver
                .live()
                .iter()
                .map(|(env, _)| View::container(env.ns, env.cgroups)),
        );
        for view in &views {
            for path in PROBES {
                match fs.read(&k, view, path) {
                    Ok(body) => out.push_str(&body),
                    Err(e) => out.push_str(&format!("<{e:?}>")),
                }
            }
        }
    }
    driver.teardown_all(&mut k);
    for path in PROBES {
        match fs.read(&k, &View::host(), path) {
            Ok(body) => out.push_str(&body),
            Err(e) => out.push_str(&format!("<{e:?}>")),
        }
    }
    out
}

#[test]
fn churn_script_is_byte_identical_across_cache_modes() {
    for seed in [0, 11, 4242] {
        assert_eq!(
            churn_transcript(true, seed),
            churn_transcript(false, seed),
            "cached vs uncached churn transcripts diverged (seed {seed})"
        );
    }
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

#[test]
fn evicting_destroyed_views_bounds_the_render_cache() {
    // Two back-to-back churn runs with eviction after each teardown: the
    // cache must end no larger than one generation of live views leaves
    // it — destroyed containers' fingerprints never recur, so without
    // eviction occupancy would grow with every generation.
    let mut k = Kernel::new(MachineConfig::small_server(), 13);
    assert!(k.render_caching());
    let fs = PseudoFs::new();
    let live_fps = |d: &ChurnDriver| -> std::collections::HashSet<u64> {
        d.live()
            .iter()
            .map(|(env, _)| View::container(env.ns, env.cgroups).fingerprint())
            .collect()
    };
    let mut occupancy_after = Vec::new();
    for generation in 0..2u64 {
        let mut driver = ChurnDriver::new(ChurnPlan::new(13 + generation).cycles(12).max_live(3));
        let mut prev = live_fps(&driver);
        for _ in 0..12 {
            driver.step(&mut k);
            let now = live_fps(&driver);
            // Evict what this cycle destroyed, exactly as the container
            // runtime does on removal.
            for fp in prev.difference(&now) {
                k.render_cache_evict_view(*fp);
            }
            prev = now;
            k.advance_secs(1);
            for (env, _) in driver.live() {
                let view = View::container(env.ns, env.cgroups);
                for path in PROBES {
                    let _ = fs.read(&k, &view, path);
                }
            }
        }
        driver.teardown_all(&mut k);
        for fp in prev {
            k.render_cache_evict_view(fp);
        }
        occupancy_after.push(k.render_cache_len());
    }
    // Only host-view entries (a fixed set of routes) may persist across
    // generations, so occupancy must not grow from one run to the next.
    assert!(
        occupancy_after[1] <= occupancy_after[0],
        "render cache grew across evicted churn generations: {occupancy_after:?}"
    );
}
