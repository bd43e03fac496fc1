//! Provider-side online leak detector (the defense half of the paper's
//! attack↔defense loop).
//!
//! The paper ranks the Table I pseudo-file channels by how much
//! co-residence and workload signal they leak; this crate watches the
//! *read side* of those channels the way a BEACON-style provider would:
//! every tenant read of a watched channel is fed to the detector inline
//! (a deterministic in-process tap — see [`Detector::observe`]), a
//! per-tenant sliding window accumulates observations in sim-time order,
//! and at every fleet advance the window is scored against seed-stable
//! thresholds:
//!
//! * **read rate** — watched-channel reads per second over the window;
//! * **channel-set entropy** — Shannon entropy of the distribution of
//!   reads across distinct watched channels (a sweeping prober touches
//!   many channels; a benign monitor touches one);
//! * **inter-probe regularity** — the coefficient of variation of the
//!   nonzero gaps between observation timestamps (attack loops poll on a
//!   fixed cadence; organic reads do not).
//!
//! A tenant whose window exceeds the rate floor *and* looks like probing
//! (high channel entropy or machine-regular timing) is flagged and the
//! detector emits a [`PolicyUpdate`]: first a *targeted* mask denying
//! exactly the channels the tenant probed, then — if the tenant keeps
//! probing — a *full* Table I mask. The cloud layer applies updates to
//! the tenant's live containers mid-simulation.
//!
//! # Determinism contract
//!
//! The detector sees only sim-time order: observations arrive from the
//! driver thread in program order with fleet-absolute timestamps, and
//! evaluation runs at advance boundaries after billing. No wall-clock,
//! no thread identity, no iteration over unordered maps — per-tenant
//! state lives in a `BTreeMap` keyed by the dense tenant id. Verdicts,
//! policy-update sequences, and the `detector.*` counters (all
//! [`simtrace::Group::Portable`]) are therefore byte-identical across
//! `--jobs` values and coalescing modes.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use pseudofs::{glob_match, MaskAction, MaskPolicy, MaskRule};

/// The watched Table I channel families. Exact paths for the `/proc`
/// channels, glob families for the `/sys` trees. Per-process
/// (`/proc/self/*`) paths are deliberately absent: they leak only the
/// reader's own state, so polling them is not cross-tenant probing.
pub const WATCHED: &[&str] = &[
    "/proc/cpuinfo",
    "/proc/diskstats",
    "/proc/interrupts",
    "/proc/loadavg",
    "/proc/locks",
    "/proc/meminfo",
    "/proc/modules",
    "/proc/net/arp",
    "/proc/net/dev",
    "/proc/sched_debug",
    "/proc/schedstat",
    "/proc/softirqs",
    "/proc/stat",
    "/proc/fs/ext4/**",
    "/proc/sys/fs/*",
    "/proc/sys/kernel/random/boot_id",
    "/proc/sys/kernel/random/entropy_avail",
    "/proc/sys/kernel/sched_domain/**",
    "/proc/timer_list",
    "/proc/uptime",
    "/proc/version",
    "/proc/vmstat",
    "/proc/zoneinfo",
    "/sys/class/net/**",
    "/sys/class/powercap/**",
    "/sys/class/thermal/**",
    "/sys/devices/system/**",
    "/sys/fs/cgroup/**",
];

/// Which watched pattern covers `path`, if any (index into [`WATCHED`]).
/// Every pattern goes through [`glob_match`], which ignores leading
/// slashes as reads and masks do, so `proc/stat` and `//proc/stat` are
/// watched like `/proc/stat`.
pub fn watched_index(path: &str) -> Option<u16> {
    WATCHED
        .iter()
        .position(|pat| glob_match(pat, path))
        .map(|i| i as u16)
}

/// Seed-stable detection thresholds. The defaults are calibrated so the
/// paper's attack loops (a full Table I sweep each second; a 1 Hz
/// `energy_uj` power monitor) flag within seconds while a benign tenant
/// reading a status file every ten seconds never does.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorConfig {
    /// Sliding-window length, seconds.
    pub window_secs: u64,
    /// Minimum observations in the window before any verdict.
    pub min_reads: u32,
    /// Flag floor: watched reads per second over the window.
    pub rate_per_sec: f64,
    /// Probing shape, path A: channel-set entropy at or above this (bits).
    pub entropy_bits: f64,
    /// Probing shape, path B: coefficient of variation of nonzero
    /// inter-observation gaps at or below this (machine-regular cadence).
    pub regularity_cv: f64,
    /// Flagged evaluations with fresh observations before the targeted
    /// mask escalates to the full Table I mask.
    pub full_mask_strikes: u32,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            window_secs: 30,
            min_reads: 12,
            rate_per_sec: 0.8,
            entropy_bits: 1.0,
            regularity_cv: 0.25,
            full_mask_strikes: 2,
        }
    }
}

impl DetectorConfig {
    /// A detector that observes but can never flag: thresholds at
    /// infinity. The campaign's soundness oracle uses this to prove the
    /// observation tap is invisible — a passive detector's run must
    /// byte-match a detector-free run.
    pub fn passive() -> Self {
        DetectorConfig {
            min_reads: u32::MAX,
            rate_per_sec: f64::INFINITY,
            entropy_bits: f64::INFINITY,
            regularity_cv: -1.0,
            ..DetectorConfig::default()
        }
    }
}

/// Masking escalation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MaskLevel {
    /// Deny exactly the watched channels the tenant probed.
    Targeted,
    /// Deny every watched Table I channel.
    Full,
}

impl MaskLevel {
    /// Stable numeric encoding for trace events and reports
    /// (1 = targeted, 2 = full).
    pub fn as_u8(self) -> u8 {
        match self {
            MaskLevel::Targeted => 1,
            MaskLevel::Full => 2,
        }
    }
}

/// One detection verdict: the feature snapshot that crossed the line.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Fleet-absolute sim time of the evaluation.
    pub t_ns: u64,
    /// The flagged tenant (dense cloud tenant id).
    pub tenant: u32,
    /// The escalation step this verdict triggered.
    pub level: MaskLevel,
    /// Observations in the window.
    pub reads: u32,
    /// Distinct watched channels in the window.
    pub distinct: u32,
    /// Read rate over the window, per second.
    pub rate: f64,
    /// Channel-set entropy, bits.
    pub entropy: f64,
    /// Coefficient of variation of nonzero inter-observation gaps
    /// (`f64::INFINITY` when the window has fewer than two nonzero gaps).
    pub cv: f64,
}

impl Verdict {
    /// Stable one-line rendering (fixed float precision) for byte-compare
    /// tests and reports.
    pub fn render(&self) -> String {
        let cv = if self.cv.is_finite() {
            format!("{:.4}", self.cv)
        } else {
            "inf".to_string()
        };
        format!(
            "flag t={} tenant={} level={} reads={} distinct={} rate={:.4} entropy={:.4} cv={}",
            self.t_ns,
            self.tenant,
            self.level.as_u8(),
            self.reads,
            self.distinct,
            self.rate,
            self.entropy,
            cv,
        )
    }
}

/// A masking-policy update the cloud must apply to every live container
/// of `tenant` (and to any container the tenant launches later).
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyUpdate {
    /// Fleet-absolute sim time the update was emitted.
    pub t_ns: u64,
    /// The tenant to mask.
    pub tenant: u32,
    /// Escalation step.
    pub level: MaskLevel,
    /// Deny patterns, sorted; prepend to the provider's base policy
    /// (first match wins, so these override `Partial` base rules).
    pub deny: Vec<String>,
}

impl PolicyUpdate {
    /// Stable one-line rendering for byte-compare tests and reports.
    pub fn render(&self) -> String {
        format!(
            "mask t={} tenant={} level={} deny=[{}]",
            self.t_ns,
            self.tenant,
            self.level.as_u8(),
            self.deny.join(","),
        )
    }
}

/// The provider's base policy with a tenant's deny patterns prepended.
/// Prepending makes the denials win over any `Partial` rule in the base
/// policy (first match wins).
pub fn composed_policy(base: &MaskPolicy, deny: &[String]) -> MaskPolicy {
    let mut rules: Vec<MaskRule> = deny
        .iter()
        .map(|p| MaskRule {
            pattern: p.clone(),
            action: MaskAction::Deny,
        })
        .collect();
    rules.extend(base.rules().iter().cloned());
    MaskPolicy::from_rules(rules)
}

/// One observation in a tenant's sliding window.
#[derive(Debug, Clone, Copy)]
struct Obs {
    t_ns: u64,
    channel: u16,
}

/// Per-tenant detector state.
#[derive(Debug, Default)]
struct TenantState {
    window: VecDeque<Obs>,
    /// Escalation: 0 unflagged, 1 targeted mask, 2 full mask.
    level: u8,
    /// Flagged evaluations that saw fresh observations.
    strikes: u32,
    /// Observations since the previous evaluation.
    fresh: u32,
    /// Current deny patterns in force (empty below level 1).
    deny: Vec<String>,
}

/// Feature snapshot over one tenant's window.
#[derive(Debug, Clone, Copy)]
struct Features {
    reads: u32,
    distinct: u32,
    rate: f64,
    entropy: f64,
    cv: f64,
}

fn features(window: &VecDeque<Obs>, window_secs: u64) -> Features {
    let reads = window.len() as u32;
    let mut counts: BTreeMap<u16, u32> = BTreeMap::new();
    for o in window {
        *counts.entry(o.channel).or_insert(0) += 1;
    }
    let total = f64::from(reads.max(1));
    let mut entropy = 0.0_f64;
    for &c in counts.values() {
        let p = f64::from(c) / total;
        entropy -= p * p.log2();
    }
    // Nonzero inter-observation gaps: reads issued within one advance
    // boundary share a timestamp and carry no cadence information.
    let mut gaps: Vec<u64> = Vec::new();
    let mut prev: Option<u64> = None;
    for o in window {
        if let Some(p) = prev {
            let g = o.t_ns.saturating_sub(p);
            if g > 0 {
                gaps.push(g);
            }
        }
        prev = Some(o.t_ns);
    }
    let cv = if gaps.len() >= 2 {
        let n = gaps.len() as f64;
        let mean = gaps.iter().map(|&g| g as f64).sum::<f64>() / n;
        let var = gaps
            .iter()
            .map(|&g| {
                let d = g as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        if mean > 0.0 {
            var.sqrt() / mean
        } else {
            f64::INFINITY
        }
    } else {
        f64::INFINITY
    };
    Features {
        reads,
        distinct: counts.len() as u32,
        rate: f64::from(reads) / window_secs.max(1) as f64,
        entropy,
        cv,
    }
}

/// The online detector: per-tenant sliding windows over watched-channel
/// reads, evaluated at fleet advance boundaries.
#[derive(Debug)]
pub struct Detector {
    cfg: DetectorConfig,
    tenants: BTreeMap<u32, TenantState>,
    verdicts: Vec<Verdict>,
    updates: Vec<PolicyUpdate>,
}

impl Detector {
    /// A detector with the given thresholds.
    pub fn new(cfg: DetectorConfig) -> Self {
        Detector {
            cfg,
            tenants: BTreeMap::new(),
            verdicts: Vec::new(),
            updates: Vec::new(),
        }
    }

    /// The thresholds in force.
    pub fn config(&self) -> &DetectorConfig {
        &self.cfg
    }

    /// Feeds one tenant read of `path` at fleet time `t_ns`. Non-watched
    /// paths are ignored; denied reads (masked channels the tenant keeps
    /// probing) count — attempted probing is the strongest signal.
    ///
    /// The cloud calls this inline at the read — on the driver thread, in
    /// program order, with fleet-absolute sim time — never from a worker
    /// thread. Every decision derives from these arguments alone, so the
    /// detector is byte-deterministic across `--jobs` values and
    /// coalescing modes.
    pub fn observe(&mut self, t_ns: u64, tenant: u32, path: &str, denied: bool) {
        let Some(channel) = watched_index(path) else {
            return;
        };
        simtrace::counters::add("detector.observations", 1);
        if denied {
            simtrace::counters::add("detector.denials_observed", 1);
        }
        let st = self.tenants.entry(tenant).or_default();
        st.window.push_back(Obs { t_ns, channel });
        st.fresh += 1;
    }

    /// Scores every tenant's window at fleet time `now_ns` and returns
    /// the newly emitted policy updates, in tenant-id order. Escalation
    /// beyond the targeted mask requires `full_mask_strikes` flagged
    /// evaluations *with fresh observations* — a tenant that stops
    /// probing (backoff) stalls the ladder.
    pub fn evaluate(&mut self, now_ns: u64) -> Vec<PolicyUpdate> {
        let horizon = now_ns.saturating_sub(self.cfg.window_secs.saturating_mul(1_000_000_000));
        let mut out = Vec::new();
        for (&tenant, st) in &mut self.tenants {
            while st.window.front().is_some_and(|o| o.t_ns < horizon) {
                st.window.pop_front();
            }
            if st.level >= 2 {
                st.fresh = 0;
                continue;
            }
            let fresh = std::mem::take(&mut st.fresh);
            if fresh == 0 {
                continue;
            }
            let f = features(&st.window, self.cfg.window_secs);
            let probing = f.reads >= self.cfg.min_reads
                && f.rate >= self.cfg.rate_per_sec
                && (f.entropy >= self.cfg.entropy_bits || f.cv <= self.cfg.regularity_cv);
            if !probing {
                continue;
            }
            st.strikes += 1;
            let (level, deny) = if st.level == 0 {
                let mut deny: Vec<String> = st
                    .window
                    .iter()
                    .map(|o| WATCHED[o.channel as usize].to_string())
                    .collect();
                deny.sort_unstable();
                deny.dedup();
                (MaskLevel::Targeted, deny)
            } else if st.strikes >= self.cfg.full_mask_strikes {
                (
                    MaskLevel::Full,
                    WATCHED.iter().map(|p| (*p).to_string()).collect(),
                )
            } else {
                continue;
            };
            st.level = level.as_u8();
            st.deny.clone_from(&deny);
            self.verdicts.push(Verdict {
                t_ns: now_ns,
                tenant,
                level,
                reads: f.reads,
                distinct: f.distinct,
                rate: f.rate,
                entropy: f.entropy,
                cv: f.cv,
            });
            simtrace::counters::add("detector.flags", 1);
            simtrace::counters::add("detector.policy_updates", 1);
            simtrace::counters::add("detector.rules_emitted", deny.len() as u64);
            out.push(PolicyUpdate {
                t_ns: now_ns,
                tenant,
                level,
                deny,
            });
        }
        self.updates.extend(out.iter().cloned());
        out
    }

    /// The full verdict log, in emission order.
    pub fn verdicts(&self) -> &[Verdict] {
        &self.verdicts
    }

    /// The full policy-update log, in emission order.
    pub fn updates(&self) -> &[PolicyUpdate] {
        &self.updates
    }

    /// A tenant's current escalation level (0 = unflagged).
    pub fn level(&self, tenant: u32) -> u8 {
        self.tenants.get(&tenant).map_or(0, |s| s.level)
    }

    /// The deny patterns currently in force for `tenant`, if flagged.
    /// The cloud applies these to containers the tenant launches *after*
    /// being flagged — masking follows the tenant, not the container.
    pub fn deny_patterns_for(&self, tenant: u32) -> Option<&[String]> {
        self.tenants
            .get(&tenant)
            .filter(|s| s.level > 0)
            .map(|s| s.deny.as_slice())
    }

    /// Deterministic plain-text report: every verdict line followed by
    /// every policy-update line. Byte-identical across execution modes;
    /// the determinism battery compares this string directly.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for v in &self.verdicts {
            let _ = writeln!(out, "{}", v.render());
        }
        for u in &self.updates {
            let _ = writeln!(out, "{}", u.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    fn sweep(det: &mut Detector, tenant: u32, t0: u64, secs: u64, channels: &[&str]) {
        for s in 0..secs {
            for ch in channels {
                det.observe(t0 + s * SEC, tenant, ch, false);
            }
        }
    }

    #[test]
    fn table1_sweep_flags_within_seconds() {
        let mut det = Detector::new(DetectorConfig::default());
        let chans = [
            "/proc/stat",
            "/proc/meminfo",
            "/proc/timer_list",
            "/proc/uptime",
        ];
        let mut flagged_at = None;
        for t in 0..30u64 {
            for ch in chans {
                det.observe(t * SEC, 3, ch, false);
            }
            let ups = det.evaluate((t + 1) * SEC);
            if !ups.is_empty() && flagged_at.is_none() {
                flagged_at = Some(t + 1);
                assert_eq!(ups[0].tenant, 3);
                assert_eq!(ups[0].level, MaskLevel::Targeted);
                assert_eq!(ups[0].deny.len(), 4);
            }
        }
        assert!(flagged_at.is_some_and(|t| t <= 8), "{flagged_at:?}");
        // Continued probing escalates to the full mask.
        assert_eq!(det.level(3), 2);
        assert_eq!(det.updates().last().unwrap().deny.len(), WATCHED.len());
    }

    #[test]
    fn sparse_benign_reads_never_flag() {
        let mut det = Detector::new(DetectorConfig::default());
        for t in 0..600u64 {
            if t % 10 == 0 {
                det.observe(t * SEC, 1, "/proc/meminfo", false);
            }
            assert!(det.evaluate((t + 1) * SEC).is_empty());
        }
        assert_eq!(det.level(1), 0);
        assert!(det.verdicts().is_empty());
    }

    #[test]
    fn backoff_stalls_escalation() {
        let mut det = Detector::new(DetectorConfig::default());
        let chans = [
            "/proc/stat",
            "/proc/meminfo",
            "/proc/uptime",
            "/proc/loadavg",
        ];
        sweep(&mut det, 7, 0, 6, &chans);
        let first = det.evaluate(6 * SEC);
        assert_eq!(first.len(), 1);
        assert_eq!(det.level(7), 1);
        // Silence: evaluations without fresh observations add no strikes.
        for t in 7..40u64 {
            assert!(det.evaluate(t * SEC).is_empty());
        }
        assert_eq!(det.level(7), 1);
    }

    #[test]
    fn passive_detector_never_flags() {
        let mut det = Detector::new(DetectorConfig::passive());
        sweep(&mut det, 2, 0, 120, &["/proc/stat", "/proc/timer_list"]);
        assert!(det.evaluate(120 * SEC).is_empty());
        assert!(det.report().is_empty());
    }

    #[test]
    fn composed_policy_denies_over_partial_base() {
        let base = MaskPolicy::none().partial("/proc/meminfo");
        let p = composed_policy(&base, &["/proc/meminfo".to_string()]);
        assert_eq!(p.action_for("/proc/meminfo"), Some(MaskAction::Deny));
    }

    #[test]
    fn every_spelling_of_a_path_is_watched_alike() {
        for canonical in ["/proc/stat", "/proc/sys/fs/file-nr", "/sys/class/thermal/x"] {
            let want = watched_index(canonical);
            assert!(want.is_some(), "{canonical}");
            let bare = &canonical[1..];
            for odd in [bare.to_string(), format!("//{bare}"), format!("///{bare}")] {
                assert_eq!(watched_index(&odd), want, "{odd}");
            }
        }
    }

    #[test]
    fn a_prober_using_odd_spellings_is_flagged_like_the_canonical_one() {
        let canonical = [
            "/proc/stat",
            "/proc/meminfo",
            "/proc/uptime",
            "/proc/loadavg",
        ];
        let odd = [
            "proc/stat",
            "//proc/meminfo",
            "proc/uptime",
            "///proc/loadavg",
        ];
        let run = |chans: &[&str]| {
            let mut det = Detector::new(DetectorConfig::default());
            for t in 0..30u64 {
                for ch in chans {
                    det.observe(t * SEC, 4, ch, false);
                }
                det.evaluate((t + 1) * SEC);
            }
            (det.level(4), det.report())
        };
        let (level, report) = run(&canonical);
        assert_eq!(level, 2);
        assert_eq!(run(&odd), (level, report));
    }

    #[test]
    fn watched_covers_sys_families_and_skips_self() {
        assert!(watched_index("/sys/class/powercap/intel-rapl:0/energy_uj").is_some());
        assert!(watched_index("/sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq").is_some());
        assert!(watched_index("/proc/self/status").is_none());
        assert!(watched_index("/proc/1234/stat").is_none());
    }
}
