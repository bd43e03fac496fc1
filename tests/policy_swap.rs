//! Live masking-policy swaps must be indistinguishable from rebirth.
//!
//! The detector's whole enforcement path rests on [`Runtime::set_policy`]:
//! swapping a container's mask mid-run has to produce exactly the bytes a
//! container *created* with that policy would produce. These tests pin
//! the create→read→swap→read chain against a twin kernel that had the
//! target policy from birth, and check the swap's bookkeeping: affected
//! subsystem epochs are bumped (so epoch-sum consumers re-read) and the
//! swap is counted. A file handle opened before a swap reads what a
//! read by path reads after it, so a monitor that keeps its files open
//! is masked like one that re-opens them, and the online detector sees
//! every read made through a handle.

use std::sync::Mutex;

use containerleaks::cloudsim::{
    Cloud, CloudConfig, CloudError, CloudProfile, DetectorConfig, InstanceSpec,
};
use containerleaks::container_runtime::{ContainerId, ContainerSpec, Runtime, RuntimeError};
use containerleaks::leakscan::PROBE_SET;
use containerleaks::pseudofs::{route_for, FsError, Handle, MaskPolicy};
use containerleaks::simkernel::{Kernel, MachineConfig};
use containerleaks::simtrace;

/// Held by every test that swaps a policy: the swap counter is
/// process-global, so a swap on a sibling test's thread would land inside
/// the counting test's before/after window.
static SWAPS: Mutex<()> = Mutex::new(());

/// Channels crossing the policies below: one fully denied, one partially
/// filtered, one glob-denied, and two left open as controls.
const PROBES: &[&str] = &[
    "/proc/meminfo",
    "/proc/timer_list",
    "/sys/class/powercap/intel-rapl:0/energy_uj",
    "/proc/loadavg",
    "/proc/stat",
];

/// The mask the detector would impose on a flagged tenant.
fn masked() -> MaskPolicy {
    MaskPolicy::none()
        .deny("/proc/timer_list")
        .deny("/sys/class/powercap/**")
        .partial("/proc/meminfo")
}

/// One kernel + runtime + single container created under `policy`.
struct Cell {
    k: Kernel,
    rt: Runtime,
    id: ContainerId,
}

impl Cell {
    fn new(seed: u64, policy: MaskPolicy) -> Self {
        let mut k = Kernel::new(MachineConfig::small_server(), seed);
        let mut rt = Runtime::new();
        let id = rt
            .create(&mut k, ContainerSpec::new("cell").policy(policy))
            .expect("container");
        Cell { k, rt, id }
    }

    /// Every probe's bytes (or error) at the current instant.
    fn snapshot(&self) -> String {
        let mut out = String::new();
        for p in PROBES {
            match self.rt.read_file(&self.k, self.id, p) {
                Ok(body) => out.push_str(&body),
                Err(e) => out.push_str(&format!("<{e:?}>")),
            }
            out.push('\n');
        }
        out
    }

    /// [`Cell::snapshot`] read through `handles`, one per probe.
    fn handle_snapshot(&self, handles: &[Handle]) -> String {
        let mut out = String::new();
        let mut buf = String::new();
        for h in handles {
            match self.rt.read_handle_into(&self.k, self.id, h, &mut buf) {
                Ok(()) => out.push_str(&buf),
                Err(e) => out.push_str(&format!("<{e:?}>")),
            }
            out.push('\n');
        }
        out
    }
}

#[test]
fn live_swap_matches_policy_from_birth() {
    let _serial = SWAPS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for seed in [0u64, 7, 1729] {
        // `live` starts open and is swapped mid-run; `born_masked` and
        // `born_open` are the ground-truth twins. All three evolve in
        // lockstep so rendered bytes depend only on the policy.
        let mut live = Cell::new(seed, MaskPolicy::none());
        let mut born_masked = Cell::new(seed, masked());
        let mut born_open = Cell::new(seed, MaskPolicy::none());

        for c in [&mut live, &mut born_masked, &mut born_open] {
            c.k.advance_secs(30);
        }
        // `live` reads *unmasked* bytes before the swap.
        assert_eq!(
            live.snapshot(),
            born_open.snapshot(),
            "open twins diverged before any swap (seed {seed})"
        );

        // The live swap.
        live.rt
            .set_policy(&mut live.k, live.id, masked())
            .expect("swap");
        assert_eq!(
            live.snapshot(),
            born_masked.snapshot(),
            "post-swap reads differ from a container born with the \
             policy (seed {seed})"
        );

        // And again after time passes.
        for c in [&mut live, &mut born_masked, &mut born_open] {
            c.k.advance_secs(45);
        }
        assert_eq!(
            live.snapshot(),
            born_masked.snapshot(),
            "masked twins diverged after advancing (seed {seed})"
        );

        // Swap back: the container must be indistinguishable from one
        // that was never masked at all.
        live.rt
            .set_policy(&mut live.k, live.id, MaskPolicy::none())
            .expect("swap back");
        assert_eq!(
            live.snapshot(),
            born_open.snapshot(),
            "swap-back reads differ from the never-masked twin \
             (seed {seed})"
        );
    }
}

/// The value of the named portable counter right now.
fn counter(name: &str) -> u64 {
    simtrace::counters::snapshot()
        .into_iter()
        .find(|c| c.name == name)
        .map_or(0, |c| c.value)
}

#[test]
fn swap_bumps_affected_epochs_and_is_counted() {
    // Counters only accumulate with a sink installed; the other test in
    // this binary never reads counters, so installing here is safe.
    let _serial = SWAPS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    simtrace::install(std::sync::Arc::new(simtrace::MemorySink::new()));
    let mut cell = Cell::new(11, MaskPolicy::none());
    cell.k.advance_secs(10);
    let _ = cell.snapshot();

    let timer_deps = route_for("/proc/timer_list").expect("route").deps;
    let before_sum = cell.k.epochs().masked_sum(timer_deps);
    let before_swaps = counter("kernel.policy_swaps");

    cell.rt
        .set_policy(&mut cell.k, cell.id, masked())
        .expect("swap");
    assert!(
        cell.k.epochs().masked_sum(timer_deps) > before_sum,
        "swap left the denied route's dependency epochs untouched"
    );
    assert_eq!(
        counter("kernel.policy_swaps"),
        before_swaps + 1,
        "swap was not counted"
    );

    // Swapping to an identical policy is a no-op: no bump, no count.
    let sum = cell.k.epochs().masked_sum(timer_deps);
    let swaps = counter("kernel.policy_swaps");
    cell.rt
        .set_policy(&mut cell.k, cell.id, masked())
        .expect("no-op swap");
    assert_eq!(cell.k.epochs().masked_sum(timer_deps), sum);
    assert_eq!(counter("kernel.policy_swaps"), swaps);
}

#[test]
fn a_handle_opened_before_a_live_swap_is_masked_after_it() {
    let _serial = SWAPS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for seed in [0u64, 7, 1729] {
        let mut live = Cell::new(seed, MaskPolicy::none());
        let mut born_masked = Cell::new(seed, masked());
        for c in [&mut live, &mut born_masked] {
            c.k.advance_secs(30);
        }
        let handles: Vec<Handle> = PROBES.iter().map(|p| Handle::open(p)).collect();
        assert_eq!(live.handle_snapshot(&handles), live.snapshot());

        live.rt
            .set_policy(&mut live.k, live.id, masked())
            .expect("swap");
        let after = live.handle_snapshot(&handles);
        assert_eq!(
            after,
            born_masked.snapshot(),
            "handle reads after the swap differ from a container born \
             with the policy (seed {seed})"
        );
        assert!(
            after.contains("PermissionDenied(\"/proc/timer_list\")"),
            "the swapped-in deny did not reach the open handle: {after}"
        );
    }
}

/// A prober on a one-host CC1 cloud with the online detector, reading
/// every [`PROBE_SET`] channel each second for two minutes, by path or
/// through handles opened once. Returns every read's bytes or error, the
/// detector's report, how many reads it observed, and how many reads of
/// the round right after the detector first flagged the tenant were
/// denied.
fn probe_run(by_handle: bool) -> (String, String, u64, Option<usize>) {
    let cfg = CloudConfig::new(CloudProfile::CC1)
        .hosts(1)
        .without_background()
        .detector(DetectorConfig::default());
    let mut cloud = Cloud::new(cfg, 77);
    let prober = cloud
        .launch("mallory", InstanceSpec::new("probe"))
        .expect("launch");
    let tenant = cloud.instance(prober).expect("instance").tenant().0;
    let handles: Vec<Handle> = PROBE_SET.iter().map(|p| Handle::open(p)).collect();
    let before = counter("detector.observations");
    let (mut transcript, mut buf) = (String::new(), String::new());
    let mut denied_after_flag = None;
    for _ in 0..120 {
        let flagged = cloud.detector().is_some_and(|d| d.level(tenant) > 0);
        let mut denied = 0;
        for (path, handle) in PROBE_SET.iter().zip(&handles) {
            let read = if by_handle {
                cloud.read_handle_into(prober, handle, &mut buf)
            } else {
                cloud.read_file_into(prober, path, &mut buf)
            };
            match read {
                Ok(()) => transcript.push_str(&buf),
                Err(e) => {
                    denied += usize::from(matches!(
                        e,
                        CloudError::Runtime(RuntimeError::Fs(FsError::PermissionDenied(_)))
                    ));
                    transcript.push_str(&format!("<{e:?}>"));
                }
            }
            transcript.push('\n');
        }
        if flagged && denied_after_flag.is_none() {
            denied_after_flag = Some(denied);
        }
        cloud.advance_secs(1);
    }
    let report = cloud.detector().map(|d| d.report()).unwrap_or_default();
    let observed = counter("detector.observations") - before;
    (transcript, report, observed, denied_after_flag)
}

#[test]
fn the_detector_masks_and_observes_a_prober_reading_through_handles() {
    // The observation counter is process-global: hold the lock every
    // test in this binary takes, and install a sink so counters count.
    let _serial = SWAPS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    simtrace::install(std::sync::Arc::new(simtrace::MemorySink::new()));
    let (by_path, path_report, path_observed, _) = probe_run(false);
    let (by_handle, handle_report, handle_observed, denied) = probe_run(true);
    assert_eq!(
        denied,
        Some(PROBE_SET.len()),
        "the detector's mask did not deny every open handle on the next read"
    );
    assert_eq!(
        handle_observed, path_observed,
        "the detector observed a different number of handle reads"
    );
    assert!(path_observed >= 120 * PROBE_SET.len() as u64);
    assert_eq!(handle_report, path_report, "detector verdicts differ");
    assert!(
        by_handle == by_path,
        "handle reads differ from reads by path"
    );
}
