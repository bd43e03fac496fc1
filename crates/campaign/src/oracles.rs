//! The campaign's metamorphic oracles.
//!
//! Each oracle checks a relation that must hold for *every* scenario —
//! never a golden output — so the campaign can sweep arbitrary seeds
//! without any committed snapshots:
//!
//! * [`mask_monotonic`] — strengthening the masking policy never
//!   increases a channel's observable entropy.
//! * [`mode_invariance`] — the scenario transcript digest is identical
//!   across coalescing, render-cache, and `--jobs` modes.
//! * [`shard_invariance`] — the transcript digest is identical across
//!   fleet shard counts, worker threads, and the eager reference path.
//! * [`power_monotone`] — the power attack's peak aggregate power is
//!   monotone in the number of co-resident payload hosts.
//! * [`churn_soundness`] — under create/destroy churn, a render-caching
//!   kernel stays byte-identical to an uncached twin, reads never bump
//!   epochs, and fresh containers never see a stale namespace view.
//! * [`detector_soundness`] — masking a flagged tenant never increases
//!   any channel's subsequent empirical entropy, and a passive (never
//!   flagging) detector tap is byte-invisible: its transcript digest
//!   matches a detector-free run exactly.

use std::collections::HashSet;
use std::fmt::Write as _;

use cloudsim::{Cloud, CloudConfig, CloudError, DetectorConfig, InstanceId, InstanceSpec};
use powersim::{AttackCampaign, AttackStrategy, DiurnalTrace};
use pseudofs::{MaskAction, MaskPolicy, MaskRule, PseudoFs, View};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use simkernel::kernel::ProcessSpec;
use simkernel::{ChurnDriver, ChurnEvent, ChurnPlan, FaultPlan, Kernel, RunConfig};
use workloads::models;

use crate::scenario::Scenario;
use crate::{fnv_fold, FNV_OFFSET};

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
    let mut h = FNV_OFFSET;
    fnv_fold(&mut h, s.as_bytes());
    // Keep the bucket key inside f64's exact-integer range; the entropy
    // histogram only needs distinctness, not the full 64 bits.
    (h >> 11) as f64
}

/// The scenario's execution modes: its coalescing and render-cache draws
/// over the caller's configuration. Oracles enter it around every kernel
/// and cloud they build.
fn modes(sc: &Scenario) -> RunConfig {
    RunConfig {
        coalesce: sc.coalesce,
        render_cache: sc.render_cache,
        ..RunConfig::current()
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
    let _run = modes(sc).enter();
    let mut k = Kernel::new(sc.profile.default_machine(), sc.seed);
    let env = k
        .create_container_env("probe")
        .expect("probe container env");
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

/// Runs the scenario's tenant-lifecycle transcript under `run` with
/// `threads` workers (on the eager reference path when `eager`) and
/// digests every observable byte (and error) into one FNV-1a value.
fn transcript_digest(sc: &Scenario, run: RunConfig, threads: usize, eager: bool) -> u64 {
    transcript_digest_with(
        sc,
        run,
        threads,
        eager,
        sc.detector.then(DetectorConfig::default),
    )
}

/// The scenario's own modes and shard count: the baseline every replay
/// is compared against.
fn baseline(sc: &Scenario) -> RunConfig {
    RunConfig {
        shards: sc.shards,
        ..modes(sc)
    }
}

/// [`transcript_digest`] with the detector chosen explicitly (the
/// detector-soundness oracle compares a passive tap against no tap).
/// The digest folds in the detector's verdict and policy-update logs —
/// the enforcement surface that must be byte-identical across modes —
/// but not its observation counters, so a never-flagging detector
/// digests identically to none at all.
fn transcript_digest_with(
    sc: &Scenario,
    run: RunConfig,
    threads: usize,
    eager: bool,
    det: Option<DetectorConfig>,
) -> u64 {
    let mut cfg = {
        let _run = run.enter();
        CloudConfig::new(sc.profile)
            .hosts(sc.hosts)
            .without_background()
    };
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
    let mut digest = FNV_OFFSET;
    let mut live: Vec<(InstanceId, usize)> = Vec::new();
    let mut launched = 0u32;
    let fold = |digest: &mut u64, s: &str| fnv_fold(digest, s.as_bytes());

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
        cloud.advance_secs_threads(u64::from(rng.random_range(1..4u32)), threads);

        if !live.is_empty() {
            let (id, _) = live[rng.random_range(0..live.len())];
            for ch in TRANSCRIPT_CHANNELS {
                match cloud.read_file(id, ch) {
                    Ok(bytes) => fold(&mut digest, &bytes),
                    Err(e) => fold(&mut digest, &format!("<{e:?}>")),
                }
            }
            match cloud.list_files(id) {
                Ok(files) => fold(&mut digest, &format!("files={}", files.len())),
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

/// Oracle 2: transcript bytes are invariant across execution modes.
///
/// The same scenario transcript is replayed with coalescing flipped,
/// render caching flipped, and the worker-thread count changed; every
/// replay must produce the identical digest, because none of those knobs
/// is allowed to change observable bytes.
///
/// # Errors
///
/// A [`Violation`] naming the mode whose digest diverged.
pub fn mode_invariance(sc: &Scenario) -> Result<(), Violation> {
    const V: &str = "mode-invariance";
    let base_run = baseline(sc);
    let base = transcript_digest(sc, base_run, 1, false);
    let (co, rc) = (sc.coalesce, sc.render_cache);
    let flipped = |coalesce: bool, render_cache: bool| RunConfig {
        coalesce,
        render_cache,
        ..base_run
    };
    let runs = [
        ("coalescing flipped", flipped(!co, rc), 1),
        ("render cache flipped", flipped(co, !rc), 1),
        ("jobs=4", base_run, 4),
        ("all flipped, jobs=4", flipped(!co, !rc), 4),
    ];
    for (label, run, threads) in runs {
        let d = transcript_digest(sc, run, threads, false);
        if d != base {
            return Err(Violation::new(
                V,
                format!("transcript digest diverged with {label}: {base:016x} vs {d:016x}"),
            ));
        }
    }
    Ok(())
}

/// Oracle: transcript bytes are invariant across fleet sharding.
///
/// The same scenario transcript is replayed with the shard count forced
/// to one and to more shards than the scenario has hosts, with worker
/// threads raised, and on the eager (calendar-free) reference path; every
/// replay must produce the identical digest, because how the fleet is
/// partitioned — and whether quiescent hosts are fast-forwarded lazily
/// or stepped naively — is pure mechanism, never observable.
///
/// # Errors
///
/// A [`Violation`] naming the sharding whose digest diverged.
pub fn shard_invariance(sc: &Scenario) -> Result<(), Violation> {
    const V: &str = "shard-invariance";
    let base_run = baseline(sc);
    let base = transcript_digest(sc, base_run, 1, false);
    let runs = [
        ("shards=1", 1usize, 1usize, false),
        ("shards=8", 8, 1, false),
        ("shards=8, jobs=4", 8, 4, false),
        ("eager reference", 1, 1, true),
    ];
    for (label, shards, threads, eager) in runs {
        let d = transcript_digest(sc, RunConfig { shards, ..base_run }, threads, eager);
        if d != base {
            return Err(Violation::new(
                V,
                format!("transcript digest diverged with {label}: {base:016x} vs {d:016x}"),
            ));
        }
    }
    Ok(())
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
    let _run = modes(sc).enter();
    let run = |payload_hosts: usize| -> Result<Option<f64>, Violation> {
        let cfg = CloudConfig::new(sc.profile).hosts(sc.hosts);
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

/// Byte-compares the full pseudo-fs surface of two kernels under every
/// given view. Returns the first differing path.
fn compare_surfaces(
    fs: &PseudoFs,
    cached: &Kernel,
    plain: &Kernel,
    views: &[(String, View)],
) -> Result<(), Violation> {
    const V: &str = "churn-soundness";
    for (label, view) in views {
        let la = fs.list(cached, view);
        let lb = fs.list(plain, view);
        if la != lb {
            return Err(Violation::new(
                V,
                format!("{label}: listing differs between cached and uncached kernels"),
            ));
        }
        for path in &la {
            let a = fs.read(cached, view, path);
            let b = fs.read(plain, view, path);
            let same = match (&a, &b) {
                (Ok(x), Ok(y)) => x == y,
                (Err(x), Err(y)) => format!("{x:?}") == format!("{y:?}"),
                _ => false,
            };
            if !same {
                let mut d = format!("{label}: {path} differs under render caching");
                if let (Ok(x), Ok(y)) = (&a, &b) {
                    let _ = write!(d, " ({} vs {} bytes)", x.len(), y.len());
                }
                return Err(Violation::new(V, d));
            }
        }
    }
    Ok(())
}

/// Oracle 4: epoch/cache soundness under create–destroy churn.
///
/// Twin kernels, same seed, same churn plan — one with render caching,
/// one without. After teardown events (and periodically), the full
/// pseudo-fs surface under the host view and every live container view
/// must be byte-identical; reads must never bump epochs; a freshly
/// created container's `/proc/self/cgroup` must name *its* cgroup path
/// (no stale namespace view); and destroyed views are evicted from the
/// render cache as they die.
///
/// # Errors
///
/// A [`Violation`] naming the path or relation that broke.
pub fn churn_soundness(sc: &Scenario) -> Result<(), Violation> {
    const V: &str = "churn-soundness";
    let plan = ChurnPlan::new(sc.seed)
        .cycles(sc.churn_cycles.max(6))
        .max_live(3);
    let twin = |render_cache: bool| {
        let _run = RunConfig {
            render_cache,
            ..modes(sc)
        }
        .enter();
        Kernel::new(sc.profile.default_machine(), sc.seed)
    };
    let (mut cached, mut plain) = (twin(true), twin(false));
    let mut dc = ChurnDriver::new(plan);
    let mut dp = ChurnDriver::new(plan);
    let fs = PseudoFs::new();
    let mut prev_fps: HashSet<u64> = HashSet::new();

    for cycle in 0..plan.cycles {
        let ec = dc.step(&mut cached);
        let ep = dp.step(&mut plain);
        if ec != ep {
            return Err(Violation::new(
                V,
                format!("churn event diverged at cycle {cycle}: {ec:?} vs {ep:?}"),
            ));
        }

        // Evict render-cache entries whose views just died; their
        // fingerprints can never recur (monotone ns/cgroup ids).
        let now_fps: HashSet<u64> = dc
            .live()
            .iter()
            .map(|(env, _)| View::container(env.ns, env.cgroups).fingerprint())
            .collect();
        for fp in prev_fps.difference(&now_fps) {
            cached.render_cache_evict_view(*fp);
        }
        prev_fps = now_fps;

        if let ChurnEvent::Created(idx) = ec {
            // A fresh container must immediately see *its own* cgroup
            // namespace: every hierarchy line renders as the namespace
            // root ("/"). A stale view (another container's cgroup ids)
            // would leak an absolute `/docker/...` path instead. And the
            // caching kernel must agree with the uncached twin byte for
            // byte on the very first read.
            let env = &dc.live()[idx].0;
            let view = View::container(env.ns, env.cgroups);
            let cg = fs.read(&cached, &view, "/proc/self/cgroup").map_err(|e| {
                Violation::new(V, format!("fresh container cgroup read failed: {e:?}"))
            })?;
            if cg.lines().any(|l| !l.ends_with(":/")) {
                return Err(Violation::new(
                    V,
                    format!("fresh container sees a stale cgroup view:\n{cg}"),
                ));
            }
            let cg_plain = fs.read(&plain, &view, "/proc/self/cgroup").map_err(|e| {
                Violation::new(V, format!("uncached twin cgroup read failed: {e:?}"))
            })?;
            if cg != cg_plain {
                return Err(Violation::new(
                    V,
                    "render cache served stale bytes for a fresh container view".to_string(),
                ));
            }
        }

        let probe_now = matches!(ec, ChurnEvent::Destroyed(_)) || cycle % 4 == 3;
        if probe_now {
            let mut views = vec![("host".to_string(), View::host())];
            for (i, (env, _)) in dc.live().iter().enumerate() {
                views.push((
                    format!("container {i}"),
                    View::container(env.ns, env.cgroups),
                ));
            }
            let before = (cached.epochs().total(), plain.epochs().total());
            compare_surfaces(&fs, &cached, &plain, &views)?;
            let after = (cached.epochs().total(), plain.epochs().total());
            if before != after {
                return Err(Violation::new(
                    V,
                    format!("reads bumped epochs: {before:?} -> {after:?}"),
                ));
            }
        }
    }

    dc.teardown_all(&mut cached);
    dp.teardown_all(&mut plain);
    for fp in &prev_fps {
        cached.render_cache_evict_view(*fp);
    }
    compare_surfaces(&fs, &cached, &plain, &[("host".to_string(), View::host())])?;
    Ok(())
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
    let cfg = {
        let _run = modes(sc).enter();
        CloudConfig::new(sc.profile)
            .hosts(1)
            .without_background()
            .detector(DetectorConfig::default())
    };
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
    let without = transcript_digest_with(sc, baseline(sc), 1, false, None);
    let passive =
        transcript_digest_with(sc, baseline(sc), 1, false, Some(DetectorConfig::passive()));
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
