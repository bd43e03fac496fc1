//! The fault-injection matrix: one scenario per fault class.
//!
//! Each scenario runs a detector (or the calibration pipeline) twice from
//! the same seed — once fault-free, once under an installed
//! [`simkernel::FaultPlan`] — and checks the robustness contract: every
//! conclusion is either **unchanged** or **explicitly degraded** (a
//! [`leakscan::Confidence::Degraded`] marker, a
//! [`leakscan::CoResVerdict::Inconclusive`] abstention, a rejected
//! calibration window), never a panic and never a silently different
//! answer. The scenarios are ordinary [`ExperimentFn`]s, so the matrix
//! runs through the same guarded runner as the paper experiments and is
//! byte-identical at any `--jobs` level.

use std::fmt::Write as _;

use cloudsim::{Cloud, CloudConfig, CloudProfile, InstanceId, InstanceSpec, PlacementPolicy};
use leakscan::{
    ChannelAssessment, CoResDetector, CoResOutcome, CoResVerdict, DetectorKind, Lab,
    MetricsAssessor, TABLE2_CHANNELS,
};
use powerns::{PowerModel, Trainer};
use powersim::RaplMonitor;
use simkernel::cgroup::PerfCounters;
use simkernel::FaultPlan;
use workloads::models;

use crate::experiments::{cmp, Ctx, ExperimentFn, ExperimentResult};

// ---------------------------------------------------------------------
// Scenario 1: transient pseudo-fs read faults under the U/V/M campaign
// ---------------------------------------------------------------------

const FS_TITLE: &str = "Fault matrix — transient read faults vs. the metric campaign";

/// Transient `EIO`/short-read faults during the full Table II campaign:
/// per-channel U/V/M verdicts must match the fault-free run or carry a
/// degraded-confidence marker naming the accommodation.
pub fn fs_transient(seed: u64) -> ExperimentResult {
    fs_transient_inner(seed).unwrap_or_else(|e| ExperimentResult::failed("fault_fs", FS_TITLE, e))
}

fn fs_transient_inner(seed: u64) -> Result<ExperimentResult, String> {
    let assessor = MetricsAssessor::new(format!("fm-{seed}"));
    let mut clean_lab = Lab::new(2, seed);
    let clean = assessor.assess_all(&mut clean_lab, TABLE2_CHANNELS);

    let mut lab = Lab::new(2, seed);
    lab.install_faults(
        &FaultPlan::builder(seed)
            .horizon_secs(120)
            .transient_reads(12)
            .build(),
    );
    let faulted = assessor.assess_all(&mut lab, TABLE2_CHANNELS);

    let clean_full = clean.iter().filter(|a| a.confidence.is_full()).count();
    let degraded = faulted.iter().filter(|a| !a.confidence.is_full()).count();

    let mut silently_wrong: Vec<&str> = Vec::new();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<52} {:^9} {:^9} degradations",
        "channel", "verdicts", "conf"
    );
    for (c, f) in clean.iter().zip(&faulted) {
        let unchanged = verdicts_match(c, f);
        if !unchanged && f.confidence.is_full() {
            silently_wrong.push(f.channel.glob);
        }
        let reasons = match &f.confidence {
            leakscan::Confidence::Full => String::new(),
            leakscan::Confidence::Degraded { reasons } => reasons.join("; "),
        };
        let _ = writeln!(
            out,
            "{:<52} {:^9} {:^9} {}",
            f.channel.glob,
            if unchanged { "same" } else { "CHANGED" },
            if f.confidence.is_full() {
                "full"
            } else {
                "degraded"
            },
            reasons
        );
    }

    let comparisons = vec![
        cmp(
            "fault-free campaign confidence",
            "full on all 29 channels",
            format!("{clean_full}/{} full", clean.len()),
            clean_full == clean.len(),
        ),
        cmp(
            "verdicts under transient read faults",
            "unchanged, or explicitly degraded",
            if silently_wrong.is_empty() {
                "no silent changes".into()
            } else {
                format!("silently changed: {}", silently_wrong.join(", "))
            },
            silently_wrong.is_empty(),
        ),
        cmp(
            "fault plan actually bit",
            ">= 1 channel degraded",
            format!("{degraded} degraded"),
            degraded > 0,
        ),
    ];
    Ok(ExperimentResult {
        id: "fault_fs".into(),
        title: FS_TITLE.into(),
        rendered: out,
        comparisons,
        error: None,
    })
}

fn verdicts_match(a: &ChannelAssessment, b: &ChannelAssessment) -> bool {
    a.unique == b.unique && a.varies == b.varies && a.manipulation == b.manipulation
}

// ---------------------------------------------------------------------
// Scenario 2: a host crash-reboot in the middle of a co-residence scan
// ---------------------------------------------------------------------

const REBOOT_TITLE: &str = "Fault matrix — mid-scan host reboot vs. co-residence detectors";

/// A crash-reboot of the scanned host mid-verdict: the reset-sensitive
/// detectors (boot id, uptime delta) must either re-scan to the fault-free
/// verdict with a degraded marker or abstain — never flip the answer.
pub fn reboot_mid_scan(seed: u64) -> ExperimentResult {
    reboot_mid_scan_inner(seed)
        .unwrap_or_else(|e| ExperimentResult::failed("fault_reboot", REBOOT_TITLE, e))
}

/// Two spread hosts, three instances: `a`/`c` share a host, `b` is alone.
fn spread_fleet(seed: u64) -> Result<(Cloud, InstanceId, InstanceId, InstanceId), String> {
    let mut cloud = Cloud::new(
        CloudConfig::new(CloudProfile::CC1)
            .hosts(2)
            .placement(PlacementPolicy::Spread),
        seed,
    );
    let a = cloud
        .launch("fm", InstanceSpec::new("a"))
        .ctx("launch instance a")?;
    let b = cloud
        .launch("fm", InstanceSpec::new("b"))
        .ctx("launch instance b")?;
    let c = cloud
        .launch("fm", InstanceSpec::new("c"))
        .ctx("launch instance c")?;
    cloud.advance_secs(2);
    if cloud.coresident(a, c) != Some(true) || cloud.coresident(a, b) != Some(false) {
        return Err("spread placement did not interleave instances across the hosts".into());
    }
    Ok((cloud, a, b, c))
}

/// Installs `plan` on the host running `target` only — the reboot is a
/// single-machine event, so the other host's counters keep running.
fn install_on_host_of(
    cloud: &mut Cloud,
    target: InstanceId,
    plan: &FaultPlan,
) -> Result<(), String> {
    let host = cloud
        .instance(target)
        .ok_or_else(|| "target instance vanished".to_string())?
        .host();
    cloud.install_faults_on(host, plan);
    Ok(())
}

fn reboot_mid_scan_inner(seed: u64) -> Result<ExperimentResult, String> {
    let mut out = String::new();
    let mut comparisons = Vec::new();
    let mut any_degraded = false;
    let _ = writeln!(
        out,
        "{:<16} {:<10} {:<16} {:<16} degradations",
        "detector", "pair", "clean", "rebooted"
    );
    for kind in [DetectorKind::BootId, DetectorKind::UptimeDelta] {
        // Fault-free verdicts first, on a fresh fleet.
        let (mut clean_cloud, a, b, c) = spread_fleet(seed)?;
        let mut det = CoResDetector::new(kind);
        let clean_same = det.coresident_checked(&mut clean_cloud, a, c);
        let clean_diff = det.coresident_checked(&mut clean_cloud, a, b);

        // Same fleet, same seed, but `a`'s host crash-reboots one second
        // into the scan.
        let (mut cloud, a, b, c) = spread_fleet(seed)?;
        let plan = FaultPlan::builder(seed)
            .horizon_secs(60)
            .reboot_at_secs(1)
            .build();
        install_on_host_of(&mut cloud, a, &plan)?;
        let mut det = CoResDetector::new(kind);
        let fault_same = det.coresident_checked(&mut cloud, a, c);
        let fault_diff = det.coresident_checked(&mut cloud, a, b);

        for (pair, clean, faulted) in [
            ("same-host", &clean_same, &fault_same),
            ("cross-host", &clean_diff, &fault_diff),
        ] {
            any_degraded |= faulted.degraded;
            let ok =
                faulted.verdict == clean.verdict || faulted.verdict == CoResVerdict::Inconclusive;
            let _ = writeln!(
                out,
                "{:<16} {:<10} {:<16} {:<16} {}",
                format!("{kind:?}"),
                pair,
                format!("{:?}", clean.verdict),
                format!("{:?}", faulted.verdict),
                faulted.reasons.join("; ")
            );
            comparisons.push(cmp(
                &format!("{kind:?} {pair} verdict under reboot"),
                "unchanged or Inconclusive, never flipped",
                describe_outcome(faulted),
                ok && !clean.degraded,
            ));
        }
    }
    comparisons.push(cmp(
        "reboot visible in the evidence trail",
        ">= 1 scan reports the reset",
        if any_degraded {
            "reset detected and reported".into()
        } else {
            "no scan noticed the reboot".into()
        },
        any_degraded,
    ));
    Ok(ExperimentResult {
        id: "fault_reboot".into(),
        title: REBOOT_TITLE.into(),
        rendered: out,
        comparisons,
        error: None,
    })
}

fn describe_outcome(o: &CoResOutcome) -> String {
    format!(
        "{:?} after {} attempt(s){}",
        o.verdict,
        o.attempts,
        if o.degraded { ", degraded" } else { "" }
    )
}

// ---------------------------------------------------------------------
// Scenario 3: RAPL/coretemp sensor faults under the power monitor
// ---------------------------------------------------------------------

const SENSOR_TITLE: &str = "Fault matrix — sensor dropout/quantization vs. the RAPL monitor";

/// Sensor dropout, saturation, and quantization jitter while a tenant
/// monitors host power: the monitor must skip bad samples (counting them)
/// and keep its long-run power estimate close to the fault-free one.
pub fn sensor_faults(seed: u64) -> ExperimentResult {
    sensor_faults_inner(seed)
        .unwrap_or_else(|e| ExperimentResult::failed("fault_sensor", SENSOR_TITLE, e))
}

/// One CC1 host with a busy victim and an idle observer.
fn monitored_cloud(seed: u64) -> Result<(Cloud, InstanceId), String> {
    let mut cloud = Cloud::new(CloudConfig::new(CloudProfile::CC1).hosts(1), seed);
    let obs = cloud
        .launch("spy", InstanceSpec::new("obs").vcpus(1))
        .ctx("launch observer")?;
    let victim = cloud
        .launch("victim", InstanceSpec::new("v"))
        .ctx("launch victim")?;
    cloud
        .exec(victim, "load", models::prime())
        .ctx("start victim load")?;
    cloud.advance_secs(2);
    Ok((cloud, obs))
}

/// Mean watts over a 60 s monitoring window, plus the monitor itself.
fn monitor_mean(cloud: &mut Cloud, obs: InstanceId) -> Result<(f64, RaplMonitor), String> {
    let mut mon = RaplMonitor::new();
    let mut sum = 0.0;
    let mut n = 0u32;
    for t in 0..60u64 {
        cloud.advance_secs(1);
        match mon.sample_watts(cloud, obs, t as f64) {
            Ok(Some(w)) => {
                if !(0.0..10_000.0).contains(&w) {
                    return Err(format!("absurd power estimate at t={t}: {w} W"));
                }
                sum += w;
                n += 1;
            }
            Ok(None) => {}
            Err(e) => return Err(format!("sensor fault surfaced as a hard error: {e}")),
        }
    }
    if n == 0 {
        return Err("monitor produced no estimates at all".into());
    }
    Ok((sum / f64::from(n), mon))
}

fn sensor_faults_inner(seed: u64) -> Result<ExperimentResult, String> {
    let (mut clean_cloud, obs) = monitored_cloud(seed)?;
    let (clean_mean, _) = monitor_mean(&mut clean_cloud, obs)?;

    let (mut cloud, obs) = monitored_cloud(seed)?;
    cloud.install_faults(
        &FaultPlan::builder(seed)
            .horizon_secs(90)
            .sensor_faults(24)
            .build(),
    );
    let (fault_mean, mon) = monitor_mean(&mut cloud, obs)?;

    let drift = (fault_mean - clean_mean).abs() / clean_mean.max(1e-9);
    let mut out = String::new();
    let _ = writeln!(out, "clean mean   : {clean_mean:8.2} W");
    let _ = writeln!(
        out,
        "faulted mean : {fault_mean:8.2} W  (drift {:.1}%)",
        drift * 100.0
    );
    let _ = writeln!(out, "dropped      : {} sample(s)", mon.dropped_samples());
    let _ = writeln!(out, "resets       : {}", mon.resets_detected());

    let comparisons = vec![
        cmp(
            "dropout handling",
            "samples skipped and counted, no hard error",
            format!("{} dropped", mon.dropped_samples()),
            mon.dropped_samples() > 0,
        ),
        cmp(
            "power estimate under sensor faults",
            "within 25% of the fault-free mean",
            format!("{:.1}% drift", drift * 100.0),
            drift < 0.25,
        ),
        cmp(
            "attack-cost accounting",
            "no spurious counter resets",
            mon.resets_detected().to_string(),
            mon.resets_detected() == 0,
        ),
    ];
    Ok(ExperimentResult {
        id: "fault_sensor".into(),
        title: SENSOR_TITLE.into(),
        rendered: out,
        comparisons,
        error: None,
    })
}

// ---------------------------------------------------------------------
// Scenario 4: clock skew under the uptime-delta detector
// ---------------------------------------------------------------------

const CLOCK_TITLE: &str = "Fault matrix — clock skew vs. the uptime channel";

/// Fleet-wide clock skew: `/proc/uptime` must keep parsing (skew can never
/// drive it negative or garble it) and the uptime-delta verdicts must
/// match the fault-free run — both ends of a comparison see the same skew.
pub fn clock_skew(seed: u64) -> ExperimentResult {
    clock_skew_inner(seed)
        .unwrap_or_else(|e| ExperimentResult::failed("fault_clock", CLOCK_TITLE, e))
}

fn clock_skew_inner(seed: u64) -> Result<ExperimentResult, String> {
    let (mut clean_cloud, a, b, c) = spread_fleet(seed)?;
    let mut det = CoResDetector::new(DetectorKind::UptimeDelta);
    let clean_same = det.coresident_checked(&mut clean_cloud, a, c);
    let clean_diff = det.coresident_checked(&mut clean_cloud, a, b);

    let (mut cloud, a, b, c) = spread_fleet(seed)?;
    cloud.install_faults(
        &FaultPlan::builder(seed)
            .horizon_secs(120)
            .clock_skew(3)
            .build(),
    );

    // The channel itself must stay well-formed at every skew window.
    let mut parse_failures = 0u32;
    for _ in 0..10u64 {
        cloud.advance_secs(10);
        for id in [a, b, c] {
            let text = cloud
                .read_file(id, "/proc/uptime")
                .ctx("read /proc/uptime under skew")?;
            let fields = leakscan::parse::numeric_fields(&text);
            if fields.len() < 2 || fields.iter().any(|v| !v.is_finite() || *v < 0.0) {
                parse_failures += 1;
            }
        }
    }

    let mut det = CoResDetector::new(DetectorKind::UptimeDelta);
    let fault_same = det.coresident_checked(&mut cloud, a, c);
    let fault_diff = det.coresident_checked(&mut cloud, a, b);

    let same_ok = fault_same.verdict == clean_same.verdict
        || fault_same.verdict == CoResVerdict::Inconclusive;
    let diff_ok = fault_diff.verdict == clean_diff.verdict
        || fault_diff.verdict == CoResVerdict::Inconclusive;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "same-host : clean {:?} / skewed {}",
        clean_same.verdict,
        describe_outcome(&fault_same)
    );
    let _ = writeln!(
        out,
        "cross-host: clean {:?} / skewed {}",
        clean_diff.verdict,
        describe_outcome(&fault_diff)
    );
    let _ = writeln!(out, "uptime parse failures under skew: {parse_failures}/30");

    let comparisons = vec![
        cmp(
            "/proc/uptime well-formed under skew",
            "two finite non-negative fields, always",
            format!("{parse_failures} failure(s) in 30 reads"),
            parse_failures == 0,
        ),
        cmp(
            "same-host verdict under skew",
            "unchanged or Inconclusive",
            describe_outcome(&fault_same),
            same_ok,
        ),
        cmp(
            "cross-host verdict under skew",
            "unchanged or Inconclusive",
            describe_outcome(&fault_diff),
            diff_ok,
        ),
    ];
    Ok(ExperimentResult {
        id: "fault_clock".into(),
        title: CLOCK_TITLE.into(),
        rendered: out,
        comparisons,
        error: None,
    })
}

// ---------------------------------------------------------------------
// Scenario 5: counter reset inside the power-model calibration
// ---------------------------------------------------------------------

const POWERNS_TITLE: &str = "Fault matrix — crash-reboot vs. power-model calibration";

/// A crash-reboot halfway through calibration zeroes the RAPL
/// accumulators: the trainer must reject (and count) the window spanning
/// the reset, and the model fit from the surviving samples must stay
/// close to the fault-free fit.
pub fn powerns_reset(seed: u64) -> ExperimentResult {
    powerns_reset_inner(seed)
        .unwrap_or_else(|e| ExperimentResult::failed("fault_powerns", POWERNS_TITLE, e))
}

fn powerns_reset_inner(seed: u64) -> Result<ExperimentResult, String> {
    let clean = Trainer::new(seed).collect_samples_checked(&models::prime());
    let faulted = Trainer::new(seed)
        .faults(
            FaultPlan::builder(seed)
                .horizon_secs(60)
                .reboot_at_secs(30)
                .build(),
        )
        .collect_samples_checked(&models::prime());

    let negative = faulted
        .samples
        .iter()
        .filter(|s| s.core_uj < 0.0 || s.dram_uj < 0.0 || s.package_uj < 0.0)
        .count();
    if clean.samples.len() < 8 || faulted.samples.len() < 8 {
        return Err(format!(
            "too few calibration samples to fit: clean {}, faulted {}",
            clean.samples.len(),
            faulted.samples.len()
        ));
    }
    let busy = PerfCounters {
        instructions: 8_000_000_000,
        cache_misses: 400_000,
        branch_misses: 3_000_000,
        cycles: 3_400_000_000,
    };
    let clean_j = PowerModel::fit(&clean.samples).core_uj(&busy) / 1e6;
    let fault_j = PowerModel::fit(&faulted.samples).core_uj(&busy) / 1e6;
    let drift = (fault_j - clean_j).abs() / clean_j.abs().max(1e-9);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "clean   : {} samples, {} rejected, predicts {clean_j:.2} J",
        clean.samples.len(),
        clean.rejected_windows
    );
    let _ = writeln!(
        out,
        "rebooted: {} samples, {} rejected, predicts {fault_j:.2} J  (drift {:.1}%)",
        faulted.samples.len(),
        faulted.rejected_windows,
        drift * 100.0
    );

    let comparisons = vec![
        cmp(
            "fault-free calibration",
            "0 rejected windows",
            clean.rejected_windows.to_string(),
            clean.rejected_windows == 0,
        ),
        cmp(
            "reset window flagged",
            ">= 1 rejected window under the reboot",
            faulted.rejected_windows.to_string(),
            faulted.rejected_windows >= 1,
        ),
        cmp(
            "no corrupt samples admitted",
            "0 negative energy deltas",
            negative.to_string(),
            negative == 0,
        ),
        cmp(
            "fit from surviving samples",
            "within 20% of the fault-free prediction",
            format!("{:.1}% drift", drift * 100.0),
            drift < 0.20,
        ),
    ];
    Ok(ExperimentResult {
        id: "fault_powerns".into(),
        title: POWERNS_TITLE.into(),
        rendered: out,
        comparisons,
        error: None,
    })
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

/// Every fault-matrix scenario, one per injected fault class.
pub const FAULT_MATRIX: &[(&str, ExperimentFn)] = &[
    ("fault_fs", |s, _| fs_transient(s)),
    ("fault_reboot", |s, _| reboot_mid_scan(s)),
    ("fault_sensor", |s, _| sensor_faults(s)),
    ("fault_clock", |s, _| clock_skew(s)),
    ("fault_powerns", |s, _| powerns_reset(s)),
];

/// Runs the whole matrix through the guarded experiment runner.
pub fn run_fault_matrix(seed: u64, jobs: usize) -> Vec<ExperimentResult> {
    crate::experiments::run_entries_with(FAULT_MATRIX, seed, 1, jobs, |_, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;

    // The cheap scenarios run here; the full matrix (including the two
    // campaign-sized scenarios) is exercised by `tests/fault_matrix.rs`
    // at the workspace root and by the `fault_matrix` binary in CI.

    #[test]
    fn reboot_scenario_holds() {
        let r = reboot_mid_scan(crate::DEFAULT_SEED);
        assert!(r.all_hold(), "{:#?}", r.comparisons);
    }

    #[test]
    fn sensor_scenario_holds() {
        let r = sensor_faults(crate::DEFAULT_SEED);
        assert!(r.all_hold(), "{:#?}", r.comparisons);
    }

    #[test]
    fn clock_scenario_holds() {
        let r = clock_skew(crate::DEFAULT_SEED);
        assert!(r.all_hold(), "{:#?}", r.comparisons);
    }
}
