//! Dynamic cross-validation of the static information-flow analysis.
//!
//! The leakcheck flow fixpoint derives, per registered channel, the set
//! of kernel subsystems whose state can reach the rendered bytes. This
//! test attacks that claim from the runtime side: mutate exactly one
//! subsystem at a frozen virtual clock, diff a full pseudofs snapshot
//! (host and container views, listing included), and require that every
//! byte that moved belongs to a channel whose *derived* mask covers the
//! bumped subsystem. A byte change outside the derived mask would mean
//! the static analysis missed a flow — the same bug class the
//! derived-⊇-declared gate catches for the registry's declared masks.
//!
//! Lives in its own integration-test binary because `simtrace::install`
//! is once-per-process and the counter store is process-global; the
//! single `#[test]` keeps the epoch-bump counter deltas race-free while
//! the first (corroborated) pass runs, then repeats the whole suite on
//! four threads to pin that the transcript is independent of
//! parallelism, as the containment is of the standard fault plan.

use std::collections::BTreeMap;
use std::sync::Arc;

use containerleaks::leakcheck;
use containerleaks::pseudofs::{route_for, PseudoFs, View};
use containerleaks::simkernel::ns::NamespaceData;
use containerleaks::simkernel::{dep, FaultPlan, Kernel, MachineConfig};
use containerleaks::simtrace;
use containerleaks::workloads::models;
use containerleaks::DEFAULT_SEED;

fn counter(name: &str) -> u64 {
    simtrace::counters::snapshot()
        .iter()
        .find(|c| c.name == name)
        .map_or(0, |c| c.value)
}

/// Folds subsystem names back into a dirty-epoch bit mask.
fn bit_mask(names: &[String]) -> u32 {
    names
        .iter()
        .map(|n| dep::from_name(n).expect("flow rows use canonical subsystem names"))
        .fold(0, |a, b| a | b)
}

/// Reads every pseudo file through every view. Keys are `view:path`;
/// the listing itself is snapshotted under the `(list)` pseudo-path,
/// matching the flow report's listing row.
fn snapshot(k: &Kernel, views: &[View]) -> BTreeMap<String, String> {
    let fs = PseudoFs::new();
    let mut out = BTreeMap::new();
    for (vi, v) in views.iter().enumerate() {
        let listing = fs.list(k, v);
        out.insert(format!("{vi}:(list)"), listing.join("\n"));
        for path in listing {
            let body = match fs.read(k, v, &path) {
                Ok(b) => b,
                Err(e) => format!("<{e:?}>"),
            };
            out.insert(format!("{vi}:{path}"), body);
        }
    }
    out
}

/// Every key whose bytes differ between the two snapshots must map to a
/// route whose derived mask intersects the bumped subsystems. Returns
/// the number of changed keys (for the non-vacuity check).
fn assert_containment(
    derived: &BTreeMap<String, u32>,
    before: &BTreeMap<String, String>,
    after: &BTreeMap<String, String>,
    bumped: u32,
    ctx: &str,
) -> usize {
    let mut changed = 0;
    let keys: std::collections::BTreeSet<&String> = before.keys().chain(after.keys()).collect();
    for key in keys {
        if before.get(key) == after.get(key) {
            continue;
        }
        changed += 1;
        let path = key.split_once(':').expect("snapshot keys are view:path").1;
        let pattern = if path == "(list)" {
            "(list)".to_string()
        } else {
            route_for(path)
                .expect("every listed path has a registered route")
                .pattern()
        };
        let mask = derived
            .get(&pattern)
            .unwrap_or_else(|| panic!("no flow row for route {pattern}"));
        assert!(
            mask & bumped != 0,
            "{ctx}: {key} changed bytes after a [{}] bump, but its derived \
             mask [{}] does not cover any bumped subsystem — the static \
             flow analysis missed this dependency",
            dep::mask_names(bumped),
            dep::mask_names(*mask),
        );
    }
    changed
}

/// One mutation step at a frozen clock: the mutation must bump exactly
/// `expect` (nothing else moves while the clock stands still), the
/// epoch-bump counter must agree when we are the only thread touching
/// the global store, and every byte diff must stay inside the derived
/// masks. Clean runs additionally assert non-vacuity: a mutation that
/// changes no bytes at all would make the containment claim empty.
#[allow(clippy::too_many_arguments)]
fn step(
    k: &mut Kernel,
    views: &[View],
    derived: &BTreeMap<String, u32>,
    before: &mut BTreeMap<String, String>,
    name: &str,
    expect: u32,
    corroborate: bool,
    faults: bool,
    out: &mut String,
    mutate: &mut dyn FnMut(&mut Kernel),
) {
    let epochs: Vec<u64> = (0..dep::COUNT).map(|i| k.epochs().get(i)).collect();
    let bumps = counter("kernel.epoch_bump");
    mutate(k);
    let bumped: u32 = (0..dep::COUNT)
        .filter(|&i| k.epochs().get(i) != epochs[i])
        .map(|i| dep::BITS[i])
        .sum();
    assert_eq!(
        bumped,
        expect,
        "{name}: expected a pure [{}] bump at a frozen clock, saw [{}]",
        dep::mask_names(expect),
        dep::mask_names(bumped),
    );
    if corroborate {
        assert_eq!(
            counter("kernel.epoch_bump") - bumps,
            u64::from(expect.count_ones()),
            "{name}: simtrace epoch_bump counter disagrees with the epoch diff",
        );
    }
    let after = snapshot(k, views);
    let ctx = format!("{name} (faults {faults})");
    let changed = assert_containment(derived, before, &after, bumped, &ctx);
    if !faults {
        assert!(
            changed > 0,
            "{name}: the mutation changed no rendered bytes — the \
             containment assertion is vacuous for this subsystem",
        );
    }
    for (key, body) in &after {
        out.push_str(key);
        out.push('\n');
        out.push_str(body);
        out.push('\n');
    }
    *before = after;
}

/// The full single-subsystem mutation suite with or without the
/// standard fault plan, appending every post-mutation snapshot to `out`.
fn run_config(derived: &BTreeMap<String, u32>, faults: bool, corroborate: bool, out: &mut String) {
    let mut k = Kernel::new(MachineConfig::small_server(), DEFAULT_SEED);
    if faults {
        k.install_faults(FaultPlan::standard(DEFAULT_SEED));
    }
    let env = k.create_container_env("c1").expect("container env");
    let pid = k
        .spawn_host_process("shell", models::sleeper())
        .expect("spawn");
    k.advance_secs(30);
    let views = [View::host(), View::container(env.ns, env.cgroups)];
    // Each step diffs against the snapshot the previous one left.
    let mut before = snapshot(&k, &views);

    let uts = env.ns.uts;
    step(
        &mut k,
        &views,
        derived,
        &mut before,
        "uts hostname",
        dep::NS,
        corroborate,
        faults,
        out,
        &mut |k| {
            if let Some(NamespaceData::Uts { hostname, .. }) = k.namespaces_mut().get_mut(uts) {
                *hostname = "mutated-host".to_string();
            } else {
                panic!("container uts namespace disappeared");
            }
        },
    );
    let memcg = env.cgroups.memory;
    step(
        &mut k,
        &views,
        derived,
        &mut before,
        "memcg usage",
        dep::CGROUP,
        corroborate,
        faults,
        out,
        &mut |k| k.cgroups_mut().set_memory_usage(memcg, 7 << 20),
    );
    step(
        &mut k,
        &views,
        derived,
        &mut before,
        "boot id",
        dep::FS,
        corroborate,
        faults,
        out,
        &mut |k| {
            let (fs, rng) = k.fs_mut();
            fs.rotate_boot_id(rng);
        },
    );
    step(
        &mut k,
        &views,
        derived,
        &mut before,
        "user timer",
        dep::TIMERS,
        corroborate,
        faults,
        out,
        &mut |k| {
            k.add_user_timer(pid, "sigtimer", 5_000_000_000)
                .expect("timer")
        },
    );
    if !faults {
        // Clock advance: a multi-bit bump (fault distortion depends on
        // the clock position, so this scenario is clean-only — a fault
        // window opening mid-advance changes bytes through the *read
        // path*, not through kernel state the flow analysis models).
        let epochs: Vec<u64> = (0..dep::COUNT).map(|i| k.epochs().get(i)).collect();
        k.advance_secs(3);
        let bumped: u32 = (0..dep::COUNT)
            .filter(|&i| k.epochs().get(i) != epochs[i])
            .map(|i| dep::BITS[i])
            .sum();
        let after = snapshot(&k, &views);
        assert_containment(derived, &before, &after, bumped, "clock advance");
        for (key, body) in &after {
            out.push_str(key);
            out.push('\n');
            out.push_str(body);
            out.push('\n');
        }
    }
}

fn transcript(derived: &BTreeMap<String, u32>, corroborate: bool) -> String {
    let mut out = String::new();
    for faults in [false, true] {
        out.push_str(&format!("== faults {faults}\n"));
        run_config(derived, faults, corroborate, &mut out);
    }
    out
}

#[test]
fn byte_changes_stay_inside_the_derived_masks() {
    simtrace::install(Arc::new(simtrace::MemorySink::new()));

    let report = leakcheck::audit().expect("static audit");
    assert!(
        report.flow.missing.is_empty(),
        "declared masks missing derived bits: {:?}",
        report.flow.missing
    );
    let derived: BTreeMap<String, u32> = report
        .flow
        .rows
        .iter()
        .map(|r| (r.pattern.clone(), bit_mask(&r.derived)))
        .collect();

    // Pass 1 — single-threaded, with epoch-bump counter corroboration.
    let solo = transcript(&derived, true);

    // Pass 2 — the identical suite on four threads at once. The
    // transcripts must match pass 1 byte for byte: the flow contract is
    // independent of parallelism.
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let derived = derived.clone();
            std::thread::spawn(move || transcript(&derived, false))
        })
        .collect();
    for (i, w) in workers.into_iter().enumerate() {
        assert!(
            w.join().expect("worker panicked") == solo,
            "worker {i} transcript diverged from the single-threaded run",
        );
    }
}
