//! Live masking-policy swaps must be indistinguishable from rebirth.
//!
//! The detector's whole enforcement path rests on [`Runtime::set_policy`]:
//! swapping a container's mask mid-run has to produce exactly the bytes a
//! container *created* with that policy would produce, even when the
//! render cache already holds entries rendered under the old view
//! fingerprint. These tests pin the create→warm-cache→swap→read chain
//! against a twin kernel that had the target policy from birth, in both
//! cache modes, and check the bookkeeping the fix relies on: affected
//! subsystem epochs are bumped and the swap is counted.

use containerleaks::container_runtime::{ContainerId, ContainerSpec, Runtime};
use containerleaks::pseudofs::{route_for, MaskPolicy};
use containerleaks::simkernel::{Kernel, MachineConfig, RunConfig};
use containerleaks::simtrace;

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
    fn new(seed: u64, cache: bool, policy: MaskPolicy) -> Self {
        let mut k = {
            let _run = RunConfig {
                render_cache: cache,
                ..RunConfig::DEFAULT
            }
            .enter();
            Kernel::new(MachineConfig::small_server(), seed)
        };
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
}

#[test]
fn live_swap_matches_policy_from_birth() {
    for cache in [true, false] {
        for seed in [0u64, 7, 1729] {
            // `live` starts open and is swapped mid-run; `born_masked` and
            // `born_open` are the ground-truth twins. All three evolve in
            // lockstep so rendered bytes depend only on the policy.
            let mut live = Cell::new(seed, cache, MaskPolicy::none());
            let mut born_masked = Cell::new(seed, cache, masked());
            let mut born_open = Cell::new(seed, cache, MaskPolicy::none());

            for c in [&mut live, &mut born_masked, &mut born_open] {
                c.k.advance_secs(30);
            }
            // Warm the render cache in every cell — `live` now holds
            // *unmasked* bytes under its current view fingerprint.
            let open_bytes = live.snapshot();
            let _ = born_masked.snapshot();
            assert_eq!(
                open_bytes,
                born_open.snapshot(),
                "open twins diverged before any swap (cache {cache}, seed {seed})"
            );

            // The live swap: stale entries must not survive it.
            live.rt
                .set_policy(&mut live.k, live.id, masked())
                .expect("swap");
            assert_eq!(
                live.snapshot(),
                born_masked.snapshot(),
                "post-swap reads differ from a container born with the \
                 policy (cache {cache}, seed {seed})"
            );

            // And again after time passes — revalidation must stay sound.
            for c in [&mut live, &mut born_masked, &mut born_open] {
                c.k.advance_secs(45);
            }
            assert_eq!(
                live.snapshot(),
                born_masked.snapshot(),
                "masked twins diverged after advancing (cache {cache}, seed {seed})"
            );

            // Swap back: the container must be indistinguishable from one
            // that was never masked at all.
            live.rt
                .set_policy(&mut live.k, live.id, MaskPolicy::none())
                .expect("swap back");
            let _ = born_open.snapshot();
            assert_eq!(
                live.snapshot(),
                born_open.snapshot(),
                "swap-back reads differ from the never-masked twin \
                 (cache {cache}, seed {seed})"
            );
        }
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
    simtrace::install(std::sync::Arc::new(simtrace::MemorySink::new()));
    let mut cell = Cell::new(11, true, MaskPolicy::none());
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
