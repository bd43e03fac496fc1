//! The online detector must be byte-deterministic across execution modes.
//!
//! Verdicts, masking-policy updates, and the `detector.*` counters are
//! part of the simulation's observable surface, so they fall under the
//! same contract as every pseudo-file byte: identical across `--jobs`,
//! `--shards`, and coalescing. A detector whose flagging
//! depended on worker scheduling would make the attack↔defense
//! experiment unreproducible.
//!
//! Everything lives in one `#[test]` on purpose: the counter deltas are
//! read from the process-global counter store, and a second test running
//! concurrently in this binary would pollute them.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::{Strategy, TestRunner};

use containerleaks::cloudsim::{Cloud, CloudConfig, CloudProfile, DetectorConfig, InstanceSpec};
use containerleaks::leakscan::{AdaptiveAttacker, AttackerMode};
use containerleaks::simkernel::RunConfig;
use containerleaks::simtrace;

/// Runs one attack-under-detection scenario in the given execution mode
/// and returns the detector's full report (config, verdict log, policy
/// updates) — the bytes that must not depend on the mode.
fn detector_report(seed: u64, horizon: u64, jobs: usize, shards: usize, coalesce: bool) -> String {
    let modes = [
        AttackerMode::Persistent,
        AttackerMode::Backoff,
        AttackerMode::Rotate,
        AttackerMode::CovertFallback,
    ];
    let profiles = [CloudProfile::CC1, CloudProfile::CC5, CloudProfile::CC4];
    let mode = modes[(seed % 4) as usize];
    let profile = profiles[(seed % 3) as usize];

    let cfg = {
        let _run = RunConfig { coalesce, shards }.enter();
        CloudConfig::new(profile)
            .hosts(4)
            .placement(containerleaks::cloudsim::PlacementPolicy::BinPack)
            .without_background()
            .detector(DetectorConfig::default())
    };
    let mut cloud = Cloud::new(cfg, seed);
    let benign = cloud
        .launch("alice", InstanceSpec::new("web"))
        .expect("benign");
    let prober = cloud
        .launch("mallory", InstanceSpec::new("probe"))
        .expect("prober");
    let decoder = cloud
        .launch("cassandra", InstanceSpec::new("decode"))
        .expect("decoder");
    let mut atk = AdaptiveAttacker::new(mode, prober, Some(decoder));
    for s in 0..horizon {
        if s % 15 == 0 {
            let _ = cloud.read_file(benign, "/proc/meminfo");
        }
        atk.step(&mut cloud, s);
        cloud.advance_secs_threads(1, jobs);
    }
    cloud.detector().expect("detector attached").report()
}

/// Current values of every detector-owned counter (all portable-group).
fn detector_counters() -> BTreeMap<String, u64> {
    simtrace::counters::snapshot()
        .into_iter()
        .filter(|c| c.name.starts_with("detector.") || c.name == "kernel.policy_swaps")
        .map(|c| (c.name, c.value))
        .collect()
}

/// Delta of the detector counters across `f`.
fn counter_delta(f: impl FnOnce()) -> BTreeMap<String, u64> {
    let before = detector_counters();
    f();
    detector_counters()
        .into_iter()
        .map(|(k, v)| {
            let b = before.get(&k).copied().unwrap_or(0);
            (k, v - b)
        })
        .collect()
}

#[test]
fn detector_is_byte_identical_across_execution_modes() {
    // Counters only accumulate with a sink installed.
    simtrace::install(Arc::new(simtrace::MemorySink::new()));

    // Part 1: the full mode matrix on two fixed seeds, comparing reports
    // AND counter deltas. Seed 2 drives a rotating prober under CC4,
    // seed 4 a persistent prober under CC5 — both scenarios flag (a
    // covert-fallback prober under a masked tier goes dark on the base
    // policy's denials before the detector fires, so such seeds would
    // make the verdict sanity check below vacuous).
    for seed in [2u64, 4] {
        let mut baseline: Option<(String, BTreeMap<String, u64>)> = None;
        for (jobs, shards) in [(1usize, 1usize), (4, 1), (1, 8), (4, 8)] {
            for coalesce in [true, false] {
                let mut report = String::new();
                let delta = counter_delta(|| {
                    report = detector_report(seed, 180, jobs, shards, coalesce);
                });
                match &baseline {
                    None => baseline = Some((report, delta)),
                    Some((r0, d0)) => {
                        assert_eq!(
                            &report, r0,
                            "detector report diverged (seed {seed}, jobs {jobs}, \
                             shards {shards}, coalesce {coalesce})"
                        );
                        assert_eq!(
                            &delta, d0,
                            "detector counters diverged (seed {seed}, jobs {jobs}, \
                             shards {shards}, coalesce {coalesce})"
                        );
                    }
                }
            }
        }
        let (report, delta) = baseline.expect("matrix ran");
        assert!(
            report.contains("flag "),
            "seed {seed} scenario never produced a verdict:\n{report}"
        );
        assert!(
            delta.get("detector.observations").copied().unwrap_or(0) > 0,
            "no observations counted: {delta:?}"
        );
    }

    // Part 2: a seeded property sweep — any scenario seed must replay
    // byte-identically across the two extreme modes. Reports only here;
    // the counter store was already pinned above. Drawn through the
    // proptest runner so each case is reproducible from its index.
    for case in 0..6u32 {
        let mut runner = TestRunner::for_case("detector_determinism_sweep", case);
        let seed = (0u64..10_000).generate(&mut runner);
        let serial = detector_report(seed, 90, 1, 1, true);
        let sharded = detector_report(seed, 90, 4, 8, false);
        assert_eq!(serial, sharded, "case {case} (seed {seed}) diverged");
    }
}
