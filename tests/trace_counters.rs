//! Counter coverage under the standard fault plan: a faulted run that
//! reads every sensor class must light up a nonzero counter for every
//! §4.1 fault class, plus the tick-shape counters in their documented
//! determinism groups.
//!
//! Lives in its own integration-test binary because `simtrace::install`
//! is once-per-process and the counter store is process-global; both
//! checks share one `#[test]` so the delta arithmetic on the global
//! counters never races another test.

use std::sync::Arc;

use containerleaks::cloudsim::{Cloud, CloudConfig, CloudProfile, InstanceSpec};
use containerleaks::simkernel::{FaultPlan, Kernel, MachineConfig, NANOS_PER_SEC};
use containerleaks::simtrace;

fn counter(name: &str) -> u64 {
    simtrace::counters::snapshot()
        .iter()
        .find(|c| c.name == name)
        .map_or(0, |c| c.value)
}

#[test]
fn faulted_run_counters_cover_every_class_and_group() {
    simtrace::install(Arc::new(simtrace::MemorySink::new()));

    // Part 1 — tick shape. An idle kernel jumps in multi-tick spans;
    // its tick-stepped reference walks the same idle time tick by
    // tick. Both shapes are counted as mode-exempt, while the
    // portable quiescent_ns total is identical either way.
    let testbed = || Kernel::new(MachineConfig::testbed_i7_6700(), 7);
    let mut coalescing = testbed();
    coalescing.advance(3 * NANOS_PER_SEC);
    let spans = counter("kernel.quiescent_spans");
    let idle_on = counter("kernel.quiescent_ns");
    assert!(spans > 0, "coalescing on must produce multi-tick spans");

    let mut ticking = testbed().tick_stepped();
    ticking.advance(3 * NANOS_PER_SEC);
    let stepped = counter("kernel.quiescent_stepped_ticks");
    assert!(stepped > 0, "coalescing off must walk quiescent ticks");
    assert_eq!(
        counter("kernel.quiescent_ns") - idle_on,
        idle_on,
        "portable quiescent_ns must not depend on the coalescing mode"
    );
    for entry in &simtrace::counters::snapshot() {
        let exempt = entry.group == simtrace::Group::ModeExempt;
        // The two tick-shape counters, plus the epoch-bump tally: the
        // fleet calendar's lazy fast-forward folds many eager `advance`
        // calls into one covering call, so the bump *count* (never any
        // epoch comparison outcome) varies with the stepping mode.
        let is_shape = entry.name == "kernel.quiescent_spans"
            || entry.name == "kernel.quiescent_stepped_ticks"
            || entry.name == "kernel.epoch_bump";
        assert_eq!(exempt, is_shape, "{} in wrong group", entry.name);
    }

    // Part 2 — fault classes. A standard faulted run polling every
    // sensor class once per second across the whole 300 s horizon:
    // plain files (EIO / short reads), the energy counter (dropout /
    // quantization), the thermal zone (dropout / saturation), and
    // uptime (clock skew). Errors are the point.
    let _scope = simtrace::scope("counters/faulted");
    let mut cloud = Cloud::new(CloudConfig::new(CloudProfile::CC1).hosts(1), 1729);
    let probe = cloud
        .launch("probe", InstanceSpec::new("p").vcpus(1))
        .expect("launch");
    cloud.advance_secs(1);
    cloud.install_faults(&FaultPlan::standard(1729));

    const POLLED: [&str; 8] = [
        "/proc/stat",
        "/proc/meminfo",
        "/proc/loadavg",
        "/proc/interrupts",
        "/proc/schedstat",
        "/sys/class/powercap/intel-rapl:0/energy_uj",
        "/sys/class/thermal/thermal_zone0/temp",
        "/proc/uptime",
    ];
    for _ in 0..300 {
        cloud.advance_secs(1);
        for path in POLLED {
            let _ = cloud.read_file(probe, path);
        }
    }

    // Every §4.1 fault class must have fired at least once.
    for class in [
        "faults.injected.fs.eio",
        "faults.injected.fs.short_read",
        "faults.injected.sensor.dropout",
        "faults.injected.sensor.saturation",
        "faults.injected.sensor.quantization",
        "faults.injected.clock.skew",
    ] {
        assert!(
            counter(class) > 0,
            "{class} never fired: {:#?}",
            simtrace::counters::snapshot()
        );
    }
    // The plan's mid-horizon crash-reboot happened and was counted.
    assert!(counter("faults.reboots") >= 1);
    assert!(counter("faults.plans_installed") >= 1);
    // The probes themselves were accounted per channel. Only successful
    // reads count, so EIO windows and reboot downtime shave a few off
    // the 300 polls.
    assert!(counter("pseudofs.read./proc/uptime") >= 250);
}
