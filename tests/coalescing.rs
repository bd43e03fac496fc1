//! Event-horizon tick coalescing must be invisible.
//!
//! `Kernel::advance` takes one large span to the next event horizon
//! whenever the host is quiescent; the `Kernel::tick_stepped` reference
//! walks the same interval tick by tick. These tests pin the contract
//! that the two are *byte-identical* — full pseudofs
//! snapshots, `/proc/uptime`, `/proc/loadavg`, and the RAPL energy
//! counters — with and without an installed [`FaultPlan`], including
//! when timer expiries and fault events land inside a window the
//! coalesced run would otherwise have jumped over in one span.

use proptest::prelude::*;

use containerleaks::cloudsim::{Cloud, CloudConfig, CloudProfile, HostId};
use containerleaks::pseudofs::{PseudoFs, View};
use containerleaks::simkernel::{FaultPlan, Kernel, MachineConfig, NANOS_PER_SEC};
use containerleaks::workloads::models;

/// Reads every host-visible pseudo file into one string.
fn pseudofs_snapshot(k: &Kernel) -> String {
    let fs = PseudoFs::new();
    let view = View::host();
    let mut out = String::new();
    for path in fs.list(k, &view) {
        out.push_str(&path);
        out.push('\n');
        match fs.read(k, &view, &path) {
            Ok(body) => out.push_str(&body),
            Err(e) => out.push_str(&format!("<{e:?}>")),
        }
        out.push('\n');
    }
    out
}

/// Everything the contract names: the full pseudofs image, the uptime
/// and loadavg files verbatim, the package energy counter, and the
/// scheduler's in-memory load averages.
type Observation = (String, String, String, u64, [f64; 3]);

fn observe(k: &Kernel) -> Observation {
    let fs = PseudoFs::new();
    let view = View::host();
    (
        pseudofs_snapshot(k),
        fs.read(k, &view, "/proc/uptime").unwrap_or_default(),
        fs.read(k, &view, "/proc/loadavg").unwrap_or_default(),
        k.rapl().package_energy_uj(0),
        k.sched().loadavg(),
    )
}

/// A small server: coalescing, or the tick-stepped reference.
fn kernel(coalesce: bool, seed: u64) -> Kernel {
    let k = Kernel::new(MachineConfig::small_server(), seed);
    if coalesce {
        k
    } else {
        k.tick_stepped()
    }
}

/// One seeded scenario: a quiescent host holding a periodic user timer,
/// a mid-run burst of real work, and (optionally) the standard fault
/// plan — whose windows and 150 s crash-reboot land inside stretches
/// the coalesced run would otherwise cross in one span.
fn run_scenario(coalesce: bool, faults: bool, seed: u64) -> Observation {
    let mut k = kernel(coalesce, seed);
    if faults {
        k.install_faults(FaultPlan::standard(seed));
    }
    // A blocked shell owning a 7.000000123 s interval timer: the host
    // stays quiescent, so every expiry falls inside a would-be
    // coalesced window and must split it at the exact nanosecond.
    let pid = k.spawn_host_process("shell", models::sleeper()).unwrap();
    k.add_user_timer(pid, "itimer", 7 * NANOS_PER_SEC + 123)
        .unwrap();
    k.advance_secs(40);
    // A burst of real work: coalescing must disengage while the host
    // is busy and re-engage once the worker is gone.
    let worker = k
        .spawn_host_process("burst", models::stress_small())
        .unwrap();
    k.advance_secs(10);
    let _ = k.kill(worker);
    // Long quiescent tail crossing the fault plan's reboot and the
    // remaining fault windows (the standard horizon is 300 s).
    k.advance_secs(310);
    observe(&k)
}

#[test]
fn coalescing_is_invisible_on_a_clean_host() {
    for seed in [0, 7, 1729] {
        assert_eq!(
            run_scenario(true, false, seed),
            run_scenario(false, false, seed),
            "coalesced vs per-tick diverged (clean, seed {seed})"
        );
    }
}

#[test]
fn coalescing_is_invisible_under_the_standard_fault_plan() {
    for seed in [0, 7, 1729] {
        assert_eq!(
            run_scenario(true, true, seed),
            run_scenario(false, true, seed),
            "coalesced vs per-tick diverged (faulted, seed {seed})"
        );
    }
}

#[test]
fn coalescing_is_invisible_with_active_processes() {
    // Nothing quiescent here: coalescing never engages, but the
    // stepped reference must still observe the same state.
    let run = |coalesce: bool| {
        let mut k = kernel(coalesce, 42);
        k.spawn_host_process("svc", models::web_service(0.4))
            .unwrap();
        k.advance_secs(30);
        observe(&k)
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn a_tick_stepped_cloud_stays_stepped_across_reboots() {
    // The reference must reach every host kernel, rebooted ones too, or
    // a fleet-level compare would hold coalescing to itself.
    for stepped in [false, true] {
        let mut cfg = CloudConfig::new(CloudProfile::CC1).hosts(4);
        if stepped {
            cfg = cfg.tick_stepped();
        }
        let mut cloud = Cloud::new(cfg, 5);
        cloud.advance_secs(3);
        cloud.reboot_host(HostId(1));
        for id in [HostId(0), HostId(1)] {
            let coalescing = cloud.host(id).expect("4 hosts").kernel().coalescing();
            assert_eq!(coalescing, !stepped, "{id:?} (stepped cloud: {stepped})");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever the seed and whether faults are installed (odd seeds
    /// install the standard plan), the coalescing kernel and its
    /// tick-stepped reference observe the same machine.
    #[test]
    fn coalescing_never_changes_observable_state(seed in 0u64..10_000) {
        let faults = seed % 2 == 1;
        prop_assert_eq!(
            run_scenario(true, faults, seed),
            run_scenario(false, faults, seed),
            "seed {} faults {}", seed, faults
        );
    }
}
