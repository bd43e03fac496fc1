//! Epoch-keyed render caching must be invisible.
//!
//! The pseudofs render cache serves previously rendered bytes whenever
//! the dependency epochs of a path are unchanged. These tests pin the
//! contract that caching on and off are *byte-identical* — full pseudofs
//! snapshots across host, container, and masked-container views, the
//! leakscan differential pipelines, and the whole fault matrix at
//! several worker counts — with and without an installed [`FaultPlan`]
//! and in both coalescing modes. A property test then checks the
//! soundness direction of the epoch contract itself: rendered bytes
//! never change while the route's masked epoch sum stands still.

use proptest::prelude::*;

use containerleaks::cloudsim::CloudProfile;
use containerleaks::leakscan::{CrossValidator, Hardener, Lab};
use containerleaks::pseudofs::{route_for, MaskPolicy, PseudoFs, View, ROUTES};
use containerleaks::simkernel::kernel::ProcessSpec;
use containerleaks::simkernel::{
    dep, FaultPlan, Kernel, MachineConfig, RenderHit, RunConfig, NANOS_PER_SEC,
};
use containerleaks::workloads::models;
use containerleaks::{run_fault_matrix, DEFAULT_SEED};

/// Reads every pseudo file in `view` (listing included) into `out`.
fn snapshot_view(k: &Kernel, view: &View, out: &mut String) {
    let fs = PseudoFs::new();
    for path in fs.list(k, view) {
        out.push_str(&path);
        out.push('\n');
        match fs.read(k, view, &path) {
            Ok(body) => out.push_str(&body),
            Err(e) => out.push_str(&format!("<{e:?}>")),
        }
        out.push('\n');
    }
    // A path outside the listing exercises the cached deny verdict when
    // the view's policy masks it, and NotFound caching-bypass otherwise.
    for probe in ["/proc/stat", "/sys/class/powercap/intel-rapl:0/energy_uj"] {
        match fs.read(k, view, probe) {
            Ok(body) => out.push_str(&body),
            Err(e) => out.push_str(&format!("<{e:?}>")),
        }
        out.push('\n');
    }
}

/// One seeded scenario observed at four instants: right after a
/// quiescent stretch (populates the cache), again at the same instant
/// (pure cache hits), after a burst of real work (every dirty epoch
/// advanced — entries must revalidate), and after a long tail crossing
/// the fault plan's reboot. Reads go through a host view, an open
/// container view, and a deny/partial-masked container view.
fn run_scenario(cache: bool, coalesce: bool, faults: bool, seed: u64) -> String {
    let mut k = Kernel::new(MachineConfig::small_server(), seed);
    k.set_render_caching(cache);
    k.set_coalescing(coalesce);
    if faults {
        k.install_faults(FaultPlan::standard(seed));
    }
    let env = k.create_container_env("c1").unwrap();
    let views = [
        View::host(),
        View::container(env.ns, env.cgroups),
        View::container(env.ns, env.cgroups).with_policy(
            MaskPolicy::none()
                .deny("/sys/class/powercap/**")
                .deny("/proc/timer_list")
                .partial("/proc/meminfo"),
        ),
    ];
    let pid = k.spawn_host_process("shell", models::sleeper()).unwrap();
    k.add_user_timer(pid, "itimer", 7 * NANOS_PER_SEC + 123)
        .unwrap();

    let mut out = String::new();
    k.advance_secs(40);
    for v in &views {
        snapshot_view(&k, v, &mut out);
    }
    // Same instant again: with caching on this pass is all cache hits,
    // and it must reproduce the first pass byte for byte.
    for v in &views {
        snapshot_view(&k, v, &mut out);
    }
    let worker = k
        .spawn_host_process("burst", models::stress_small())
        .unwrap();
    k.advance_secs(10);
    for v in &views {
        snapshot_view(&k, v, &mut out);
    }
    let _ = k.kill(worker);
    k.advance_secs(310);
    for v in &views {
        snapshot_view(&k, v, &mut out);
    }
    out
}

#[test]
fn caching_is_invisible_on_a_clean_host() {
    for coalesce in [true, false] {
        for seed in [0, 7, 1729] {
            assert_eq!(
                run_scenario(true, coalesce, false, seed),
                run_scenario(false, coalesce, false, seed),
                "cached vs uncached diverged (clean, coalesce {coalesce}, seed {seed})"
            );
        }
    }
}

#[test]
fn caching_is_invisible_under_the_standard_fault_plan() {
    // Injected EIO, short reads, and sensor distortion all land *after*
    // the cache layer — a fault window must never poison an entry that
    // later fault-free reads would serve.
    for coalesce in [true, false] {
        for seed in [0, 7, 1729] {
            assert_eq!(
                run_scenario(true, coalesce, true, seed),
                run_scenario(false, coalesce, true, seed),
                "cached vs uncached diverged (faulted, coalesce {coalesce}, seed {seed})"
            );
        }
    }
}

#[test]
fn leakscan_pipelines_are_identical_in_both_modes() {
    // The two profiled pipelines — the Table I differential walk and
    // hardening policy generation — must report the same findings and
    // the same policy whether their reads are cached or not, including
    // on a rescan after the kernel advanced.
    let run = |cache: bool| {
        let mut lab = Lab::new(1, DEFAULT_SEED);
        lab.host_mut(0).kernel.set_render_caching(cache);
        let view = lab.host(0).container_view();
        let validator = CrossValidator::new();
        let hardener = Hardener::new();
        let mut out = String::new();
        for _ in 0..2 {
            let findings = validator.scan(&lab.host(0).kernel, &view);
            out.push_str(&serde_json::to_string(&findings).expect("serializable findings"));
            let (policy, report) = hardener.harden(&lab.host(0).kernel, &view);
            out.push_str(&serde_json::to_string(&policy).expect("serializable policy"));
            out.push_str(&serde_json::to_string(&report).expect("serializable report"));
            lab.advance_secs(3);
        }
        out
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn fault_matrix_is_identical_across_cache_modes_and_worker_counts() {
    // The run configuration is what the CLI `--render-cache` flag sets;
    // crossing it with the worker count proves the artifact bytes depend
    // on neither. It is scoped to this thread (and the pool workers it
    // fans out to), so sibling tests keep the shipped configuration.
    let matrix = |cache: bool, jobs: usize| {
        let _run = RunConfig {
            render_cache: cache,
            ..RunConfig::DEFAULT
        }
        .enter();
        let results = run_fault_matrix(DEFAULT_SEED, jobs);
        serde_json::to_string(&results).expect("serializable matrix")
    };
    let baseline = matrix(true, 1);
    assert_eq!(baseline, matrix(false, 1), "cache off diverged (jobs 1)");
    assert_eq!(baseline, matrix(true, 4), "jobs 4 diverged (cache on)");
    assert_eq!(baseline, matrix(false, 4), "cache off diverged (jobs 4)");
}

#[test]
fn reads_never_advance_epochs() {
    // The whole cache rests on this: rendering is pure. Listing and
    // reading every path — through every view and both cache modes —
    // must not bump a single subsystem epoch.
    let mut k = Kernel::new(MachineConfig::small_server(), 11);
    let env = k.create_container_env("c1").unwrap();
    k.advance_secs(5);
    let fs = PseudoFs::new();
    let before = k.epochs().total();
    for cache in [true, false] {
        k.set_render_caching(cache);
        for view in [View::host(), View::container(env.ns, env.cgroups)] {
            for path in fs.list(&k, &view) {
                let _ = fs.read(&k, &view, &path);
            }
        }
    }
    assert_eq!(k.epochs().total(), before, "a read bumped an epoch");
    k.set_render_caching(true);
}

#[test]
fn stale_hits_carry_the_route_mask() {
    // Every probe is cached under its route's declared deps: dirtying
    // every subsystem stales exactly the routes that declare some.
    let mut k = Kernel::new(MachineConfig::testbed_i7_6700(), 11);
    let env = k.create_container_env("c1").unwrap();
    k.spawn(ProcessSpec::new("app", models::prime()).in_container(&env))
        .unwrap();
    k.advance_secs(2);
    let fs = PseudoFs::new();
    let (host, container) = (View::host(), View::container(env.ns, env.cgroups));
    // Numeric pid probes only resolve inside the container's pid namespace.
    let view_for = |pattern: &str| {
        if pattern.starts_with("/proc/*/") {
            &container
        } else {
            &host
        }
    };
    for r in ROUTES {
        fs.read(&k, view_for(r.pattern), r.probe).unwrap();
    }
    // Dirty every subsystem; nothing is cached under the evicted
    // fingerprint, so the swap only bumps epochs.
    k.note_policy_swap(View::host().with_mem_limit(1).fingerprint(), dep::ALL);
    for r in ROUTES {
        let hit = k.render_cache_get(view_for(r.pattern).fingerprint(), r.probe);
        if r.deps == 0 {
            // A render that depends on nothing can never go stale.
            assert!(matches!(hit, Some(RenderHit::Fresh(_))), "{}", r.probe);
        } else {
            assert_eq!(hit, Some(RenderHit::Stale), "{}", r.probe);
        }
    }
}

#[test]
fn busy_host_rapl_revalidation_matches_uncached_reads() {
    // The 1 Hz attack loop's read: every advance dirties HW, so each
    // energy_uj read is a stale revalidation. Fault effects stay below
    // the cache, so the bytes must match an uncached kernel with and
    // without sensor faults, through both cached read entry points.
    let run = |cache: bool, faults: bool| -> Vec<String> {
        let profile = CloudProfile::CC1;
        let mut k = Kernel::new(profile.default_machine(), 29);
        k.set_render_caching(cache);
        if faults {
            k.install_faults(
                FaultPlan::builder(29)
                    .horizon_secs(100)
                    .sensor_faults(9)
                    .build(),
            );
        }
        let env = k.create_container_env("tenant").unwrap();
        for i in 0..4 {
            k.spawn(
                ProcessSpec::new(format!("virus{i}"), models::power_virus()).in_container(&env),
            )
            .unwrap();
        }
        let view = View::container(env.ns, env.cgroups).with_policy(profile.mask_policy());
        let fs = PseudoFs::new();
        let mut out = Vec::new();
        for step in 0..100 {
            k.advance_secs(1);
            for pkg in 0..3 {
                let path = format!("/sys/class/powercap/intel-rapl:{pkg}/energy_uj");
                let read = if step % 2 == 0 {
                    fs.read(&k, &view, &path)
                } else {
                    fs.read_shared(&k, &view, &path).map(|b| b.to_string())
                };
                out.push(read.unwrap_or_else(|e| format!("<{e:?}>")));
            }
        }
        out
    };
    let clean = run(true, false);
    assert_eq!(clean, run(false, false), "clean reads diverged");
    let faulted = run(true, true);
    assert_eq!(faulted, run(false, true), "faulted reads diverged");
    assert_ne!(clean, faulted, "the sensor faults never fired");
}

/// Routes whose dependency masks span every subsystem class the bump
/// sites distinguish (clock, sched, hw, mem, net, process, cgroup, …).
const PROBED: &[&str] = &[
    "/proc/uptime",
    "/proc/loadavg",
    "/proc/meminfo",
    "/proc/stat",
    "/proc/net/dev",
    "/proc/timer_list",
    "/proc/interrupts",
    "/sys/fs/cgroup/cpuacct/cpuacct.usage",
    "/proc/sys/kernel/random/entropy_avail",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The soundness direction of the epoch contract, on a fault-free
    /// kernel (distortion faults change bytes *after* the cache layer by
    /// design, so the claim is scoped to clean reads): whenever a
    /// route's rendered bytes change between two instants, the masked
    /// sum of its declared dependency epochs must have advanced — and
    /// the total epoch sum never decreases.
    #[test]
    fn changed_bytes_imply_advanced_epochs(seed in 0u64..10_000) {
        let mut k = Kernel::new(MachineConfig::small_server(), seed);
        k.set_render_caching(seed % 2 == 0);
        let fs = PseudoFs::new();
        let view = View::host();
        let masks: Vec<u32> = PROBED
            .iter()
            .map(|p| route_for(p).map_or(dep::ALL, |r| r.deps))
            .collect();

        let mut last: Vec<(String, u64)> = Vec::new();
        let mut last_total = k.epochs().total();
        let mut worker = None;
        for step in 0..6u64 {
            // Seed-derived evolution: uneven advances plus a spawn/kill
            // pair so run ticks, idle ticks, and process-table changes
            // all occur somewhere in the walk.
            let secs = 1 + (seed.wrapping_mul(31).wrapping_add(step * 7)) % 9;
            k.advance_secs(secs);
            if step == 2 {
                worker = k.spawn_host_process("w", models::stress_small()).ok();
            }
            if step == 4 {
                if let Some(pid) = worker.take() {
                    let _ = k.kill(pid);
                }
            }

            let total = k.epochs().total();
            prop_assert!(total >= last_total, "total epoch sum went backwards");
            last_total = total;

            let now: Vec<(String, u64)> = PROBED
                .iter()
                .zip(&masks)
                .map(|(p, m)| {
                    (
                        fs.read(&k, &view, p).unwrap_or_default(),
                        k.epochs().masked_sum(*m),
                    )
                })
                .collect();
            if !last.is_empty() {
                for (i, (path, (bytes, sum))) in PROBED.iter().zip(&now).enumerate() {
                    let (prev_bytes, prev_sum) = &last[i];
                    if bytes != prev_bytes {
                        prop_assert!(
                            sum != prev_sum,
                            "{path} changed bytes while its dependency epochs \
                             ({}) stood still at step {step}",
                            dep::mask_names(masks[i])
                        );
                    }
                }
            }
            last = now;
        }
    }
}
