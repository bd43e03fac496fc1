//! The campaign's metamorphic oracles.
//!
//! Each oracle checks a relation that must hold for *every* scenario —
//! never a golden output — so the campaign can sweep arbitrary seeds
//! without any committed snapshots:
//!
//! * [`mask_monotonic`] — strengthening the masking policy never
//!   increases a channel's observable entropy.
//! * [`mode_invariance`] — the scenario transcript digest is identical
//!   on coalescing hosts and on the tick-stepped reference.
//! * [`shard_invariance`] — the transcript digest is identical on the
//!   lazy fleet calendar and on the eager reference path.
//! * [`power_monotone`] — the power attack's peak aggregate power is
//!   monotone in the number of co-resident payload hosts.
//! * [`churn_soundness`] — under create/destroy churn, reading the full
//!   surface of every live view never bumps an epoch, and fresh
//!   containers never see a stale namespace view.
//! * [`detector_soundness`] — masking a flagged tenant never increases
//!   any channel's subsequent empirical entropy, and a passive (never
//!   flagging) detector tap is byte-invisible: its transcript digest
//!   matches a detector-free run exactly.

use cloudsim::{Cloud, CloudConfig, CloudError, DetectorConfig, InstanceId, InstanceSpec};
use powersim::{AttackCampaign, AttackStrategy, DiurnalTrace};
use pseudofs::{MaskAction, MaskPolicy, MaskRule, PseudoFs, View};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use simkernel::kernel::ProcessSpec;
use simkernel::{fnv1a, ChurnDriver, ChurnEvent, ChurnPlan, FaultPlan, Kernel, FNV1A_OFFSET};
use workloads::models;

use crate::scenario::Scenario;

/// A failed oracle: which one, and a human-readable account of the
/// broken relation (channel, path, or measured values).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct Violation {
    /// Oracle name (`mask-monotonic`, `mode-invariance`,
    /// `shard-invariance`, `power-monotone`, `churn-soundness`, or
    /// `injected`).
    pub oracle: &'static str,
    /// What broke, with enough context to start debugging.
    pub detail: String,
}

impl Violation {
    pub(crate) fn new(oracle: &'static str, detail: impl Into<String>) -> Self {
        Violation {
            oracle,
            detail: detail.into(),
        }
    }
}

/// Channels the masking oracle probes: a spread over the paper's channel
/// groups (time, scheduler, memory, interrupts, net, cgroup, RAPL).
const PROBE_CHANNELS: &[&str] = &[
    "/proc/uptime",
    "/proc/stat",
    "/proc/meminfo",
    "/proc/loadavg",
    "/proc/interrupts",
    "/proc/schedstat",
    "/proc/timer_list",
    "/proc/locks",
    "/proc/net/dev",
    "/proc/sys/kernel/random/entropy_avail",
    "/proc/self/cgroup",
    "/sys/fs/cgroup/cpuacct/cpuacct.usage",
];

/// Runs every oracle against `sc`, stopping at the first violation.
///
/// # Errors
///
/// The first [`Violation`] found, if any.
pub fn check_all(sc: &Scenario) -> Result<(), Violation> {
    mask_monotonic(sc)?;
    mode_invariance(sc)?;
    shard_invariance(sc)?;
    power_monotone(sc)?;
    churn_soundness(sc)?;
    detector_soundness(sc)?;
    Ok(())
}

fn sample_hash(s: &str) -> f64 {
    let h = fnv1a(FNV1A_OFFSET, s.as_bytes());
    // Keep the bucket key inside f64's exact-integer range; the entropy
    // histogram only needs distinctness, not the full 64 bits.
    (h >> 11) as f64
}

/// A kernel on the scenario's machine in its drawn mode: coalescing,
/// or the tick-stepped reference.
fn kernel(sc: &Scenario) -> Kernel {
    let k = Kernel::new(sc.profile.default_machine(), sc.seed);
    if sc.coalesce {
        k
    } else {
        k.tick_stepped()
    }
}

/// A fleet config for the scenario's profile whose hosts coalesce, or
/// are the tick-stepped reference.
fn cloud_config(sc: &Scenario, coalesce: bool) -> CloudConfig {
    let cfg = CloudConfig::new(sc.profile);
    if coalesce {
        cfg
    } else {
        cfg.tick_stepped()
    }
}

fn entropy_of(samples: &[String]) -> f64 {
    let snapshots: Vec<Vec<f64>> = samples.iter().map(|s| vec![sample_hash(s)]).collect();
    leakscan::metrics::joint_entropy(&snapshots)
}

/// Oracle 1: masking monotonically reduces per-channel entropy.
///
/// One kernel, one state stream, three views over it that differ only in
/// masking policy: `T0` unmasked, `T1` the scenario profile's policy,
/// `T2` = `T1` plus seed-chosen extra `Deny` rules. Because the mask is
/// a deterministic per-read transform of the same underlying bytes, the
/// set of distinct sampled values can only shrink as the policy
/// strengthens — so empirical entropy is non-increasing, extra-denied
/// channels drop to exactly zero, and channels with the *same* effective
/// action must stay byte-identical.
///
/// # Errors
///
/// A [`Violation`] naming the channel and broken relation.
pub fn mask_monotonic(sc: &Scenario) -> Result<(), Violation> {
    const V: &str = "mask-monotonic";
    let mut k = kernel(sc);
    let env = k
        .create_container_env("probe")
        .map_err(|e| Violation::new(V, format!("probe container env: {e:?}")))?;
    let _ = k.spawn(ProcessSpec::new("probe-svc", models::web_service(0.3)).in_container(&env));

    let t1 = sc.profile.mask_policy();
    // Seed-chosen extra denials, prepended so they win rule matching.
    let mut rng = StdRng::seed_from_u64(sc.seed ^ 0x0d0_dead_ca5e);
    let mut extra: Vec<&str> = Vec::new();
    while extra.len() < 3 {
        let ch = PROBE_CHANNELS[rng.random_range(0..PROBE_CHANNELS.len())];
        if !extra.contains(&ch) {
            extra.push(ch);
        }
    }
    let mut t2_rules: Vec<MaskRule> = extra
        .iter()
        .map(|p| MaskRule {
            pattern: (*p).to_string(),
            action: MaskAction::Deny,
        })
        .collect();
    t2_rules.extend(t1.rules().iter().cloned());
    let tiers = [
        MaskPolicy::none(),
        t1.clone(),
        MaskPolicy::from_rules(t2_rules),
    ];
    let views: Vec<View> = tiers
        .iter()
        .map(|p| View::container(env.ns, env.cgroups).with_policy(p.clone()))
        .collect();

    let fs = PseudoFs::new();
    // samples[tier][channel] -> one rendered string (or error marker)
    // per sample point.
    let mut samples: Vec<Vec<Vec<String>>> =
        vec![vec![Vec::new(); PROBE_CHANNELS.len()]; tiers.len()];
    for _ in 0..8 {
        k.advance_secs(3);
        for (ci, ch) in PROBE_CHANNELS.iter().enumerate() {
            for (ti, view) in views.iter().enumerate() {
                let s = match fs.read(&k, view, ch) {
                    Ok(bytes) => bytes,
                    Err(e) => format!("<{e:?}>"),
                };
                samples[ti][ci].push(s);
            }
        }
    }

    for (ci, ch) in PROBE_CHANNELS.iter().enumerate() {
        let h: Vec<f64> = (0..tiers.len())
            .map(|ti| entropy_of(&samples[ti][ci]))
            .collect();
        for ti in 1..tiers.len() {
            // Equal effective action ⇒ the bytes themselves must match.
            if tiers[ti].action_for(ch) == tiers[ti - 1].action_for(ch)
                && samples[ti][ci] != samples[ti - 1][ci]
            {
                return Err(Violation::new(
                    V,
                    format!(
                        "{ch}: tiers {} and {ti} share a mask action but render different bytes",
                        ti - 1
                    ),
                ));
            }
            if h[ti] > h[ti - 1] + 1e-9 {
                return Err(Violation::new(
                    V,
                    format!(
                        "{ch}: entropy rose from {:.4} to {:.4} bits when the policy strengthened (tier {} -> {ti})",
                        h[ti - 1], h[ti], ti - 1,
                    ),
                ));
            }
        }
        if extra.contains(ch) {
            if samples[2][ci].iter().any(|s| !s.starts_with('<')) {
                return Err(Violation::new(
                    V,
                    format!("{ch}: denied by tier 2 but a read still returned bytes"),
                ));
            }
            if h[2] > 1e-12 {
                return Err(Violation::new(
                    V,
                    format!("{ch}: denied channel has nonzero entropy {:.6}", h[2]),
                ));
            }
        }
    }
    Ok(())
}

/// Transcript channels probed from inside a live instance each step.
const TRANSCRIPT_CHANNELS: &[&str] = &[
    "/proc/stat",
    "/proc/meminfo",
    "/proc/loadavg",
    "/proc/net/dev",
    "/proc/self/cgroup",
];

/// Runs the scenario's tenant-lifecycle transcript on coalescing hosts,
/// or on tick-stepped ones (on the eager reference path when `eager`),
/// and digests every observable byte (and error) into one FNV-1a value.
fn transcript_digest(sc: &Scenario, coalesce: bool, eager: bool) -> u64 {
    transcript_digest_with(
        sc,
        coalesce,
        eager,
        sc.detector.then(DetectorConfig::default),
    )
}

/// [`transcript_digest`] with the detector chosen explicitly (the
/// detector-soundness oracle compares a passive tap against no tap).
/// The digest folds in the detector's verdict and policy-update logs —
/// the enforcement surface that must be byte-identical across modes —
/// but not its observation counters, so a never-flagging detector
/// digests identically to none at all.
fn transcript_digest_with(
    sc: &Scenario,
    coalesce: bool,
    eager: bool,
    det: Option<DetectorConfig>,
) -> u64 {
    let mut cfg = cloud_config(sc, coalesce)
        .hosts(sc.hosts)
        .without_background();
    if let Some(d) = det {
        cfg = cfg.detector(d);
    }
    if eager {
        cfg = cfg.eager_advance();
    }
    let mut cloud = Cloud::new(cfg, sc.seed);
    if sc.faults {
        cloud.install_faults(&FaultPlan::standard(sc.seed));
    }

    let mut rng = StdRng::seed_from_u64(sc.seed ^ 0x007c_a95c_11b7);
    let mut digest = FNV1A_OFFSET;
    let mut live: Vec<(InstanceId, usize)> = Vec::new();
    let mut launched = 0u32;
    let fold = |digest: &mut u64, s: &str| *digest = fnv1a(*digest, s.as_bytes());

    for step in 0..sc.transcript_steps {
        let roll = rng.random_range(0..100u32);
        if live.is_empty() || roll < 40 {
            let tenant = rng.random_range(0..sc.tenants);
            let vcpus = rng.random_range(1..3u16);
            launched += 1;
            let spec = InstanceSpec::new(format!("i{launched}")).vcpus(vcpus);
            match cloud.launch(&format!("t{tenant}"), spec) {
                Ok(id) => {
                    live.push((id, tenant));
                    fold(&mut digest, &format!("launch t{tenant} {id:?}"));
                }
                Err(e) => fold(&mut digest, &format!("launch t{tenant} <{e:?}>")),
            }
        } else if roll < 55 {
            let (id, _) = live[rng.random_range(0..live.len())];
            let r = cloud.exec(id, &format!("svc-{step}"), models::web_service(0.4));
            fold(&mut digest, &format!("exec {id:?} {r:?}"));
        } else if roll < 70 {
            let (id, _) = live.swap_remove(rng.random_range(0..live.len()));
            let r = cloud.terminate(id);
            fold(&mut digest, &format!("terminate {id:?} {r:?}"));
        } else if roll < 78 {
            let tenant = rng.random_range(0..sc.tenants);
            let r = cloud.terminate_tenant(&format!("t{tenant}"));
            live.retain(|(_, t)| *t != tenant);
            fold(&mut digest, &format!("terminate-tenant t{tenant} {r:?}"));
        }
        cloud.advance_secs(u64::from(rng.random_range(1..4u32)));

        if !live.is_empty() {
            let (id, _) = live[rng.random_range(0..live.len())];
            for ch in TRANSCRIPT_CHANNELS {
                match cloud.read_file(id, ch) {
                    Ok(bytes) => fold(&mut digest, &bytes),
                    Err(e) => fold(&mut digest, &format!("<{e:?}>")),
                }
            }
            match cloud.count_files(id) {
                Ok(files) => fold(&mut digest, &format!("files={files}")),
                Err(e) => fold(&mut digest, &format!("<{e:?}>")),
            }
        }
    }
    if let Some(d) = cloud.detector() {
        for v in d.verdicts() {
            fold(&mut digest, &v.render());
        }
        for u in d.updates() {
            fold(&mut digest, &u.render());
        }
    }
    digest
}

/// Checks that the transcript replayed with `coalesce` (eagerly when
/// `eager`) digests like the scenario's own lazy, own-mode baseline;
/// `label` names the replay in the violation. A replay in the baseline's
/// own configuration would compare a run with itself, so it is a
/// violation too.
fn replay_matches_baseline(
    sc: &Scenario,
    oracle: &'static str,
    label: &str,
    coalesce: bool,
    eager: bool,
) -> Result<(), Violation> {
    if (coalesce, eager) == (sc.coalesce, false) {
        return Err(Violation::new(
            oracle,
            format!("the {label} replay runs in the baseline's own configuration"),
        ));
    }
    let base = transcript_digest(sc, sc.coalesce, false);
    let d = transcript_digest(sc, coalesce, eager);
    if d != base {
        return Err(Violation::new(
            oracle,
            format!("transcript digest diverged with {label}: {base:016x} vs {d:016x}"),
        ));
    }
    Ok(())
}

/// Oracle 2: transcript bytes are invariant across execution modes.
///
/// The same scenario transcript is replayed with the scenario's
/// coalescing draw flipped, so one side always runs the tick-stepped
/// reference; the replay must produce the identical digest, because
/// coalescing is not allowed to change observable bytes.
///
/// # Errors
///
/// A [`Violation`] naming the mode whose digest diverged.
pub fn mode_invariance(sc: &Scenario) -> Result<(), Violation> {
    replay_matches_baseline(
        sc,
        "mode-invariance",
        "coalescing flipped",
        !sc.coalesce,
        false,
    )
}

/// Oracle: the lazy fleet calendar is invisible.
///
/// The same scenario transcript is replayed on the eager reference path,
/// which steps every host on every advance; the replay must produce the
/// identical digest, because whether quiescent hosts are fast-forwarded
/// lazily or stepped naively is pure mechanism, never observable. The
/// name and its `shard-invariance` label predate the single calendar
/// (the fleet used to be split into shards); they stay because the
/// end-to-end benchmark lists this oracle by name and reports its share.
///
/// # Errors
///
/// A [`Violation`] naming the replay whose digest diverged.
pub fn shard_invariance(sc: &Scenario) -> Result<(), Violation> {
    replay_matches_baseline(sc, "shard-invariance", "eager reference", sc.coalesce, true)
}

/// Oracle 3: peak attack power is monotone in payload-host count.
///
/// Two identical clouds, identical diurnal load, one with `n-1` and one
/// with `n` co-resident payload hosts running the continuous power
/// virus: the larger deployment must reach at least the smaller one's
/// peak aggregate power (small absolute tolerance for float summation).
///
/// # Errors
///
/// A [`Violation`] with both measured peaks if the relation fails.
pub fn power_monotone(sc: &Scenario) -> Result<(), Violation> {
    const V: &str = "power-monotone";
    let hi = sc.attackers.min(sc.hosts);
    let lo = hi - 1;
    let run = |payload_hosts: usize| -> Result<Option<f64>, Violation> {
        let cfg = cloud_config(sc, sc.coalesce).hosts(sc.hosts);
        let mut cloud = Cloud::new(cfg, sc.seed);
        let mut campaign = match AttackCampaign::deploy(
            &mut cloud,
            AttackStrategy::Continuous,
            payload_hosts,
            "attacker",
        ) {
            Ok(c) => c,
            Err(CloudError::CapacityExhausted) => return Ok(None),
            Err(e) => {
                return Err(Violation::new(V, format!("deploy failed: {e:?}")));
            }
        };
        let mut trace = DiurnalTrace::flat(sc.demand, sc.seed);
        match campaign.run(&mut cloud, &mut trace, 0, 20, None) {
            Ok(outcome) => Ok(Some(outcome.peak_w)),
            Err(e) => Err(Violation::new(V, format!("campaign run failed: {e:?}"))),
        }
    };
    let (Some(peak_lo), Some(peak_hi)) = (run(lo)?, run(hi)?) else {
        // Fleet too small for even the observer set; vacuously fine.
        return Ok(());
    };
    if peak_hi < peak_lo - 1.0 {
        return Err(Violation::new(
            V,
            format!(
                "peak power fell from {peak_lo:.1} W ({lo} payload hosts) to {peak_hi:.1} W ({hi})"
            ),
        ));
    }
    Ok(())
}

/// Reads the full pseudo-fs surface of `kernel` under every given view,
/// each in one [`PseudoFs::walk`] (every listed path, in route-table
/// order, through the same mask, fault and trace checks as a single
/// read), and checks that reading left every subsystem epoch where it
/// was.
fn walk_surfaces(fs: &PseudoFs, kernel: &Kernel, views: &[View]) -> Result<(), Violation> {
    let before = kernel.epochs().total();
    for view in views {
        fs.walk(kernel, view, |_, _| {});
    }
    let after = kernel.epochs().total();
    if before != after {
        return Err(Violation::new(
            "churn-soundness",
            format!("reads bumped epochs: {before} -> {after}"),
        ));
    }
    Ok(())
}

/// Oracle 4: epoch soundness under create–destroy churn.
///
/// One kernel driven by the scenario's churn plan. After teardown events
/// (and periodically), the full pseudo-fs surface under the host view
/// and every live container view is read, and the reads must not bump
/// any epoch; a freshly created container's `/proc/self/cgroup` must
/// name *its* cgroup path (no stale namespace view).
///
/// # Errors
///
/// A [`Violation`] naming the path or relation that broke.
pub fn churn_soundness(sc: &Scenario) -> Result<(), Violation> {
    const V: &str = "churn-soundness";
    let plan = ChurnPlan::new(sc.seed)
        .cycles(sc.churn_cycles.max(6))
        .max_live(3);
    let mut kernel = kernel(sc);
    let mut driver = ChurnDriver::new(plan);
    let fs = PseudoFs::new();

    for cycle in 0..plan.cycles {
        let event = driver.step(&mut kernel);

        if let ChurnEvent::Created(idx) = event {
            // A fresh container must immediately see *its own* cgroup
            // namespace: every hierarchy line renders as the namespace
            // root ("/"). A stale view (another container's cgroup ids)
            // would leak an absolute `/docker/...` path instead.
            let env = &driver.live()[idx].0;
            let view = View::container(env.ns, env.cgroups);
            let cg = fs.read(&kernel, &view, "/proc/self/cgroup").map_err(|e| {
                Violation::new(V, format!("fresh container cgroup read failed: {e:?}"))
            })?;
            if cg.lines().any(|l| !l.ends_with(":/")) {
                return Err(Violation::new(
                    V,
                    format!("fresh container sees a stale cgroup view:\n{cg}"),
                ));
            }
        }

        if matches!(event, ChurnEvent::Destroyed(_)) || cycle % 4 == 3 {
            let mut views = vec![View::host()];
            views.extend(
                driver
                    .live()
                    .iter()
                    .map(|(env, _)| View::container(env.ns, env.cgroups)),
            );
            walk_surfaces(&fs, &kernel, &views)?;
        }
    }

    driver.teardown_all(&mut kernel);
    walk_surfaces(&fs, &kernel, &[View::host()])
}

/// Oracle 5: online detection is sound.
///
/// Two relations, both scenario-independent:
///
/// 1. **Masking monotonicity, online edition.** A probing tenant is
///    driven until the detector flags and masks it; for every probed
///    channel, the empirical entropy of the reads *after* the mask
///    landed must not exceed the entropy of the reads before it. The
///    detector's intervention can only remove information.
/// 2. **Tap invisibility.** A passive detector (thresholds set so it
///    observes everything but never flags) must leave the scenario
///    transcript digest exactly equal to a detector-free run — the
///    inline tap itself is not allowed to perturb a single byte.
///
/// # Errors
///
/// A [`Violation`] naming the channel or digest that broke.
pub fn detector_soundness(sc: &Scenario) -> Result<(), Violation> {
    const V: &str = "detector-soundness";

    // Relation 1: entropy never rises across the masking event.
    let cfg = cloud_config(sc, sc.coalesce)
        .hosts(1)
        .without_background()
        .detector(DetectorConfig::default());
    let mut cloud = Cloud::new(cfg, sc.seed);
    let prober = match cloud.launch("prober", InstanceSpec::new("probe")) {
        Ok(id) => id,
        Err(e) => return Err(Violation::new(V, format!("launch failed: {e:?}"))),
    };
    let channels = [
        "/proc/meminfo",
        "/proc/stat",
        "/proc/timer_list",
        "/proc/loadavg",
        "/proc/uptime",
    ];
    let read_round = |cloud: &mut Cloud, out: &mut Vec<Vec<String>>| {
        for (ci, ch) in channels.iter().enumerate() {
            let s = match cloud.read_file(prober, ch) {
                Ok(bytes) => bytes,
                Err(e) => format!("<{e:?}>"),
            };
            out[ci].push(s);
        }
    };
    let mut pre: Vec<Vec<String>> = vec![Vec::new(); channels.len()];
    let mut post: Vec<Vec<String>> = vec![Vec::new(); channels.len()];
    // Hammer until flagged (8 samples), then keep reading masked (8 more).
    let mut flagged_after = None;
    for s in 0..120u64 {
        let masked = cloud.detector().is_some_and(|d| d.level(0) > 0);
        if !masked {
            read_round(&mut cloud, &mut pre);
        } else {
            if flagged_after.is_none() {
                flagged_after = Some(s);
            }
            read_round(&mut cloud, &mut post);
            if post[0].len() >= pre[0].len() {
                break;
            }
        }
        cloud.advance_secs(1);
    }
    if flagged_after.is_none() {
        return Err(Violation::new(
            V,
            "a full-set 1 Hz prober was never flagged".to_string(),
        ));
    }
    for (ci, ch) in channels.iter().enumerate() {
        let (h_pre, h_post) = (entropy_of(&pre[ci]), entropy_of(&post[ci]));
        if h_post > h_pre + 1e-9 {
            return Err(Violation::new(
                V,
                format!(
                    "{ch}: entropy rose from {h_pre:.4} to {h_post:.4} bits after the \
                     detector masked the tenant"
                ),
            ));
        }
    }

    // Relation 2: a passive tap is byte-invisible.
    let without = transcript_digest_with(sc, sc.coalesce, false, None);
    let passive = transcript_digest_with(sc, sc.coalesce, false, Some(DetectorConfig::passive()));
    if passive != without {
        return Err(Violation::new(
            V,
            format!(
                "a passive detector tap changed the transcript digest: \
                 {without:016x} vs {passive:016x}"
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_oracles_pass_on_a_small_scenario() {
        // Seed 3 derives a compact scenario in this grammar; if the
        // derivation changes, the oracle relations must still hold.
        let sc = Scenario::derive(3);
        assert_eq!(check_all(&sc), Ok(()));
    }

    #[test]
    fn mask_oracle_probes_every_tier() {
        let sc = Scenario::derive(11);
        assert_eq!(mask_monotonic(&sc), Ok(()));
    }

    #[test]
    fn churn_oracle_handles_zero_cycles_scenarios() {
        // churn_cycles may derive to 0; the oracle must still run its
        // floor of six cycles and stay green.
        let mut sc = Scenario::derive(1);
        sc.churn_cycles = 0;
        assert_eq!(churn_soundness(&sc), Ok(()));
    }
}
