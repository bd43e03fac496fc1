//! Tier-1 gate: the sharded, lazily-advanced fleet (global event
//! calendar, closed-form fast-forward of quiescent hosts) is
//! byte-identical to the eager naive-stepping reference.
//!
//! Each proptest case derives one tenant-lifecycle script and replays it
//! twice: once on a lazy calendar fleet with a drawn shard count and
//! worker-thread count, once on an unsharded eager fleet stepped
//! serially. Everything observable must match byte for byte —
//! per-instance pseudo-fs probes taken mid-script, the full per-host
//! pseudo-fs surface and wall power at the end, every tenant's bill,
//! and the simtrace event transcript (modulo the documented mode-exempt
//! bookkeeping, which legitimately counts calendar pops and syncs).
//!
//! Lives in its own integration-test binary because `simtrace::install`
//! is once-per-process and both replays share the process-global sink.

use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

use containerleaks::cloudsim::{Cloud, CloudConfig, CloudProfile, InstanceId, InstanceSpec};
use containerleaks::pseudofs::{PseudoFs, View};
use containerleaks::simkernel::{FaultPlan, RunConfig};
use containerleaks::simtrace;
use containerleaks::workloads::models;
use proptest::prelude::*;

/// Channels probed from inside a live instance mid-script: time,
/// scheduler, memory, net, and cgroup classes.
const PROBE_CHANNELS: &[&str] = &[
    "/proc/uptime",
    "/proc/stat",
    "/proc/meminfo",
    "/proc/loadavg",
    "/proc/net/dev",
    "/proc/self/cgroup",
];

fn sink() -> &'static Arc<simtrace::MemorySink> {
    static SINK: OnceLock<Arc<simtrace::MemorySink>> = OnceLock::new();
    SINK.get_or_init(|| {
        let sink = Arc::new(simtrace::MemorySink::new());
        simtrace::install(Arc::clone(&sink) as Arc<dyn simtrace::TraceSink>);
        sink
    })
}

/// One scripted step: an action roll (0..100) and an advance span.
#[derive(Debug, Clone)]
struct Step {
    roll: u32,
    pick: u32,
    advance_secs: u64,
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (0u32..100, 0u32..1_000_000, 1u64..5).prop_map(|(roll, pick, advance_secs)| Step {
            roll,
            pick,
            advance_secs,
        }),
        8..14,
    )
}

/// Replays the script on one fleet configuration and returns
/// `(snapshot, transcript)`: every observable byte the script saw, and
/// the rendered trace events (counter lines dropped — the counter store
/// is process-global and cumulative — and mode-exempt lines dropped,
/// since calendar bookkeeping legitimately varies with the sharding).
#[allow(clippy::too_many_arguments)]
fn run_script(
    seed: u64,
    hosts: usize,
    steps: &[Step],
    shards: usize,
    eager: bool,
    jobs: usize,
    coalesce: bool,
    faults: bool,
) -> (String, String) {
    sink().drain();
    let _run = RunConfig { coalesce, shards }.enter();
    let mut cfg = CloudConfig::new(CloudProfile::CC2)
        .hosts(hosts)
        .hosts_per_rack(2)
        .without_background();
    if eager {
        cfg = cfg.eager_advance();
    }
    let mut cloud = Cloud::new(cfg, seed);
    if faults {
        cloud.install_faults(&FaultPlan::standard(seed));
    }

    let mut snap = String::new();
    let mut live: Vec<InstanceId> = Vec::new();
    let mut launched = 0u32;
    for (i, step) in steps.iter().enumerate() {
        if live.is_empty() || step.roll < 35 {
            launched += 1;
            let tenant = format!("t{}", step.pick % 3);
            let spec = InstanceSpec::new(format!("i{launched}")).vcpus(1 + (step.pick % 2) as u16);
            match cloud.launch(&tenant, spec) {
                Ok(id) => {
                    live.push(id);
                    let _ = writeln!(snap, "launch {tenant} {id:?}");
                }
                Err(e) => {
                    let _ = writeln!(snap, "launch {tenant} <{e:?}>");
                }
            }
        } else if step.roll < 55 {
            let id = live[step.pick as usize % live.len()];
            let r = cloud.exec(id, &format!("svc-{i}"), models::web_service(0.4));
            let _ = writeln!(snap, "exec {id:?} {r:?}");
        } else if step.roll < 70 {
            let id = live[step.pick as usize % live.len()];
            let r = cloud.implant_timer(id, &format!("timer-{i}"));
            let _ = writeln!(snap, "timer {id:?} {r:?}");
        } else if step.roll < 85 {
            let id = live.swap_remove(step.pick as usize % live.len());
            let r = cloud.terminate(id);
            let _ = writeln!(snap, "terminate {id:?} {r:?}");
        }
        cloud.advance_secs_threads(step.advance_secs, jobs);

        if let Some(&id) = live.get(step.pick as usize % live.len().max(1)) {
            for ch in PROBE_CHANNELS {
                match cloud.read_file(id, ch) {
                    Ok(bytes) => snap.push_str(&bytes),
                    Err(e) => {
                        let _ = writeln!(snap, "<{e:?}>");
                    }
                }
            }
        }
    }

    // End-of-script surface: every host's full host-view pseudo-fs plus
    // wall power, regardless of how lagged the calendar left it.
    let fs = PseudoFs::new();
    let view = View::host();
    for host in cloud.hosts() {
        for path in fs.list(host.kernel(), &view) {
            match fs.read(host.kernel(), &view, &path) {
                Ok(bytes) => snap.push_str(&bytes),
                Err(e) => {
                    let _ = writeln!(snap, "{path} <{e:?}>");
                }
            }
        }
    }
    for h in 0..cloud.host_count() {
        let w = cloud.host_power_w(containerleaks::cloudsim::HostId(h as u32));
        let _ = writeln!(snap, "host{h} {w:.6} W");
    }
    for t in 0..3 {
        let _ = writeln!(snap, "t{t} {:?}", cloud.bill(&format!("t{t}")));
    }

    let rendered = simtrace::render_jsonl(seed, &sink().drain());
    let transcript: String = rendered
        .lines()
        .filter(|l| {
            // Counter and profile rows render the *cumulative* process-
            // global stores; only the event stream is per-run.
            !l.contains("\"type\":\"counter\"")
                && !l.contains("\"type\":\"profile\"")
                && !l.contains("\"group\":\"mode-exempt\"")
        })
        .map(|l| format!("{l}\n"))
        .collect();
    (snap, transcript)
}

/// First line where two transcripts differ, for failure messages.
fn first_diff(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("line {i}:\n  a: {la}\n  b: {lb}");
        }
    }
    format!(
        "line counts differ: {} vs {}\n  a tail: {:?}\n  b tail: {:?}",
        a.lines().count(),
        b.lines().count(),
        a.lines().last(),
        b.lines().last()
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The lazy calendar path, under any sharding and worker count, must
    /// be indistinguishable from naive eager stepping — and from itself
    /// under a different shard count (the ci.sh `--shards 1` vs
    /// `--shards 8` gate, in miniature and seeded). One `#[test]`, not
    /// several: the replays share the process-global trace sink, so a
    /// sibling test draining it concurrently would corrupt transcripts.
    #[test]
    fn lazy_calendar_matches_eager_reference(
        seed in 0u64..1_000_000,
        hosts in 1usize..7,
        steps in arb_steps(),
        shards in 1usize..9,
        jobs in 1usize..5,
        modes in 0u32..4,
    ) {
        let (coalesce, faults) = (modes & 1 == 1, modes & 2 == 2);
        let (snap_eager, trace_eager) =
            run_script(seed, hosts, &steps, 1, true, 1, coalesce, faults);
        let (snap_lazy, trace_lazy) =
            run_script(seed, hosts, &steps, shards, false, jobs, coalesce, faults);
        prop_assert!(
            snap_eager == snap_lazy,
            "observable bytes diverged: {}",
            first_diff(&snap_eager, &snap_lazy)
        );
        prop_assert!(
            trace_eager == trace_lazy,
            "trace transcript diverged: {}",
            first_diff(&trace_eager, &trace_lazy)
        );
        let (snap_one, trace_one) =
            run_script(seed, hosts, &steps, 1, false, 1, coalesce, faults);
        prop_assert!(
            snap_one == snap_lazy,
            "bytes diverged across shard counts: {}",
            first_diff(&snap_one, &snap_lazy)
        );
        prop_assert!(
            trace_one == trace_lazy,
            "trace diverged across shard counts: {}",
            first_diff(&trace_one, &trace_lazy)
        );
    }
}
