//! The online detector must be byte-deterministic across execution modes.
//!
//! Verdicts, masking-policy updates, and the `detector.*` counters are
//! part of the simulation's observable surface, so they fall under the
//! same contract as every pseudo-file byte: identical with coalescing on
//! and off. A detector whose flagging depended on the tick shape would
//! make the attack↔defense experiment unreproducible.
//!
//! Everything lives in one `#[test]` on purpose: the counter deltas are
//! read from the process-global counter store, and a second test running
//! concurrently in this binary would pollute them.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::{Strategy, TestRunner};

use containerleaks::cloudsim::{Cloud, CloudConfig, CloudProfile, DetectorConfig, InstanceSpec};
use containerleaks::leakscan::{AdaptiveAttacker, AttackerMode};
use containerleaks::simtrace;

/// Runs one attack-under-detection scenario on coalescing hosts, or on
/// the tick-stepped reference, and returns the detector's full report (config, verdict log, policy
/// updates) — the bytes that must not depend on the mode.
fn detector_report(seed: u64, horizon: u64, coalesce: bool) -> String {
    let modes = [
        AttackerMode::Persistent,
        AttackerMode::Backoff,
        AttackerMode::Rotate,
        AttackerMode::CovertFallback,
    ];
    let profiles = [CloudProfile::CC1, CloudProfile::CC5, CloudProfile::CC4];
    let mode = modes[(seed % 4) as usize];
    let profile = profiles[(seed % 3) as usize];

    let mut cfg = CloudConfig::new(profile)
        .hosts(4)
        .placement(containerleaks::cloudsim::PlacementPolicy::BinPack)
        .without_background()
        .detector(DetectorConfig::default());
    if !coalesce {
        cfg = cfg.tick_stepped();
    }
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
        cloud.advance_secs(1);
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

    // Part 1: both coalescing modes on two fixed seeds, comparing reports
    // AND counter deltas. Seed 2 drives a rotating prober under CC4,
    // seed 4 a persistent prober under CC5 — both scenarios flag (a
    // covert-fallback prober under a masked tier goes dark on the base
    // policy's denials before the detector fires, so such seeds would
    // make the verdict sanity check below vacuous).
    for seed in [2u64, 4] {
        let mut baseline: Option<(String, BTreeMap<String, u64>)> = None;
        for coalesce in [true, false] {
            let mut report = String::new();
            let delta = counter_delta(|| {
                report = detector_report(seed, 180, coalesce);
            });
            match &baseline {
                None => baseline = Some((report, delta)),
                Some((r0, d0)) => {
                    assert_eq!(
                        &report, r0,
                        "detector report diverged (seed {seed}, coalesce {coalesce})"
                    );
                    assert_eq!(
                        &delta, d0,
                        "detector counters diverged (seed {seed}, coalesce {coalesce})"
                    );
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
    // byte-identically across both coalescing modes. Reports only here;
    // the counter store was already pinned above. Drawn through the
    // proptest runner so each case is reproducible from its index.
    for case in 0..6u32 {
        let mut runner = TestRunner::for_case("detector_determinism_sweep", case);
        let seed = (0u64..10_000).generate(&mut runner);
        let coalesced = detector_report(seed, 90, true);
        let stepped = detector_report(seed, 90, false);
        assert_eq!(coalesced, stepped, "case {case} (seed {seed}) diverged");
    }
}
