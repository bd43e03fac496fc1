//! Empirical assessment of the co-residence metrics (§III-C).
//!
//! For every channel, the paper defines three capabilities:
//!
//! * **Uniqueness (𝕌)** — the channel's data can uniquely identify a host.
//!   Measured per its [`UniquenessKind`]: static ids must be stable within
//!   a host and distinct across hosts; accumulators must grow monotonically
//!   and sit at host-distinct values; implantable channels must carry an
//!   attacker-chosen signature visible to co-residents only.
//! * **Variation (𝕍)** — the data changes over time (snapshot traces can
//!   be matched between containers). Measured by re-reading over a window.
//! * **Manipulation (𝕄)** — tenants can influence the data: directly
//!   (implanted names/ranges) or indirectly (pin a workload with
//!   `taskset`, watch the channel move). Measured by implantation and by
//!   comparing per-field change rates between an idle and a loaded window.
//!
//! Channels with 𝕍 are additionally ranked by the joint Shannon entropy of
//! Formula (1), computed over a 60-snapshot 1 Hz trace.

use std::collections::BTreeMap;

use serde::Serialize;
use workloads::{Phase, Repeat, WorkloadClass, WorkloadSpec};

use crate::channels::{Channel, ManipulationKind, UniquenessKind};
use crate::lab::{Lab, ReadAttempt};
use crate::parse;

/// Length of the idle observation window (1 Hz snapshots), as in the
/// paper's 60-point MemFree example.
pub const IDLE_WINDOW: usize = 60;
/// Length of the loaded observation window.
pub const LOAD_WINDOW: usize = 20;

/// How much to trust a [`ChannelAssessment`]'s verdict.
///
/// A fault-free campaign yields [`Confidence::Full`] on every channel.
/// Under injected faults the scanner keeps going — retrying transient
/// reads, repairing counter resets, tolerating a vanished channel — but
/// every such accommodation is recorded here, so a verdict resting on
/// degraded evidence is explicitly marked rather than silently wrong.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum Confidence {
    /// Every snapshot read cleanly and no repair was needed.
    Full,
    /// The verdict stands on degraded evidence; `reasons` says why, in a
    /// deterministic order.
    Degraded {
        /// What the scanner had to tolerate or repair.
        reasons: Vec<String>,
    },
}

impl Confidence {
    /// Whether the verdict rests on clean evidence.
    pub fn is_full(&self) -> bool {
        matches!(self, Confidence::Full)
    }
}

/// Result of measuring one channel.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChannelAssessment {
    /// The channel measured.
    pub channel: Channel,
    /// Measured 𝕌.
    pub unique: bool,
    /// Measured 𝕍.
    pub varies: bool,
    /// Measured 𝕄.
    pub manipulation: ManipulationKind,
    /// Joint Shannon entropy over the idle window (bits).
    pub entropy_bits: f64,
    /// For accumulator channels: growth of the tracked counter per second
    /// (used to rank group 3: faster growth = lower duplication chance).
    pub growth_per_sec: f64,
    /// How much of the evidence behind the verdict was clean.
    pub confidence: Confidence,
}

/// One row of the regenerated Table II.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Table2Row {
    /// Rank (1-based).
    pub rank: usize,
    /// Assessment backing the row.
    pub assessment: ChannelAssessment,
}

/// Joint Shannon entropy (Formula 1): treats each numeric field position
/// as an independent variable `X_i` and sums per-field empirical
/// entropies over the snapshots.
pub fn joint_entropy(snapshots: &[Vec<f64>]) -> f64 {
    if snapshots.is_empty() {
        return 0.0;
    }
    let n_fields = snapshots.iter().map(|s| s.len()).min().unwrap_or(0);
    let samples = snapshots.len() as f64;
    let mut total = 0.0;
    for i in 0..n_fields {
        // BTreeMap keeps summation order stable across processes: the
        // per-bucket terms are floats, and float addition in HashMap's
        // randomized iteration order produced run-to-run ULP drift.
        let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
        for snap in snapshots {
            // Bucket by bit pattern of the value (exact-value histogram).
            *counts.entry(snap[i].to_bits()).or_insert(0) += 1;
        }
        let h: f64 = counts
            .values()
            .map(|c| {
                let p = *c as f64 / samples;
                -p * p.log2()
            })
            .sum();
        total += h;
    }
    total
}

/// The heavy pinned workload used for the indirect-manipulation probe
/// (the paper's `taskset` + compute-intensive example, plus IO so the
/// filesystem channels move too).
fn manipulation_load() -> WorkloadSpec {
    WorkloadSpec::new(
        "manip-load",
        WorkloadClass::Mixed,
        vec![Phase {
            duration_ns: 3_600 * 1_000_000_000,
            instructions_per_cycle: 1.6,
            cache_miss_per_kilo_instr: 12.0,
            branch_miss_per_kilo_instr: 3.0,
            fp_ratio: 0.1,
            mem_bytes: 1 << 30,
            syscalls_per_sec: 30_000.0,
            io_bytes_per_sec: 8.0e6,
            cpu_demand: 1.0,
        }],
        Repeat::Forever,
    )
}

/// Streaming per-channel idle-window state: everything the analysis
/// needs, without retaining the window's rendered snapshots. Snapshots
/// are parsed as they are read; only the final one of each host is kept
/// verbatim (for the static-id and accumulator-value comparisons).
#[derive(Debug)]
struct IdleTrace {
    /// Number of adjacent host-0 snapshot pairs that differed. (A static
    /// id changing exactly once is a crash-reboot signature, not
    /// variation; see the analysis.)
    changes: u32,
    /// Parsed numeric fields of every host-0 snapshot, in order.
    fields: Vec<Vec<f64>>,
    /// Scalar series for accumulator channels (empty otherwise).
    acc_series: Vec<f64>,
    /// Final host-0 snapshot.
    last0: String,
    /// Final host-1 snapshot.
    last1: String,
    /// Successful host-0 reads so far (guards the first comparison).
    seen0: u32,
    /// Transient read faults recovered by retry.
    recovered: u32,
    /// Snapshots lost to faults that outlasted the retry budget.
    lost: u32,
    /// The final host-1 snapshot was readable.
    last1_ok: bool,
    /// Masked dependency-epoch sum of host 0's kernel at the last
    /// successful read (the memo key for the epoch skip).
    last_sum: Option<u64>,
    /// Accumulator scalar of the last successful host-0 snapshot.
    last_acc: Option<f64>,
}

impl Default for IdleTrace {
    fn default() -> Self {
        IdleTrace {
            changes: 0,
            fields: Vec::new(),
            acc_series: Vec::new(),
            last0: String::new(),
            last1: String::new(),
            seen0: 0,
            recovered: 0,
            lost: 0,
            last1_ok: true,
            last_sum: None,
            last_acc: None,
        }
    }
}

/// Measures all channels on a lab of at least two hosts.
#[derive(Debug)]
pub struct MetricsAssessor {
    sig: String,
}

/// The accumulator scalar for `ch` in `content`, if `ch` tracks one.
fn acc_scalar(ch: &Channel, content: &str) -> Option<f64> {
    match ch.uniqueness {
        UniquenessKind::Accumulator(Some(i)) => parse::field(content, i),
        UniquenessKind::Accumulator(None) => Some(parse::numeric_sum(content)),
        _ => None,
    }
}

impl MetricsAssessor {
    /// Creates an assessor; `sig` seeds the implanted signature names.
    pub fn new(sig: impl Into<String>) -> Self {
        MetricsAssessor { sig: sig.into() }
    }

    /// Runs the full measurement campaign.
    ///
    /// # Panics
    ///
    /// Panics if the lab has fewer than two hosts (uniqueness needs a
    /// cross-host comparison).
    #[expect(
        clippy::expect_used,
        reason = "implants target the lab's own probe container, which exists by construction; \
            pseudo-fs read faults cannot reach exec/implant"
    )]
    pub fn assess_all(&self, lab: &mut Lab, channels: &[Channel]) -> Vec<ChannelAssessment> {
        assert!(lab.len() >= 2, "uniqueness measurement needs >= 2 hosts");

        // ---- Phase 1: idle observation window on hosts 0 and 1. ----
        // Streamed: each snapshot is rendered into one reused buffer,
        // parsed, folded into the per-channel state, then overwritten.
        // Pseudo-fs reads are pure (they take `&Kernel`), so host 1 —
        // whose trace only contributes its final snapshot — is read once
        // at the end of the window.
        let mut idle: Vec<IdleTrace> = channels.iter().map(|_| IdleTrace::default()).collect();
        // Dependency-epoch mask per channel, from the pseudo-fs route
        // table (unrouted probes conservatively depend on everything).
        let masks: Vec<u32> = channels
            .iter()
            .map(|ch| pseudofs::route_for(ch.probe).map_or(simkernel::dep::ALL, |r| r.deps))
            .collect();
        let mut buf = String::new();
        for snap in 0..IDLE_WINDOW {
            lab.advance_secs(1);
            for (ci, ch) in channels.iter().enumerate() {
                let outcome = lab.read_container_retry(0, ch.probe, &mut buf);
                let t = &mut idle[ci];
                match outcome {
                    ReadAttempt::Clean => {}
                    ReadAttempt::Recovered(_) => t.recovered += 1,
                    ReadAttempt::Failed(_) => {
                        // The snapshot is lost, not fabricated: the window
                        // simply has one fewer observation for this channel.
                        t.lost += 1;
                        if snap + 1 == IDLE_WINDOW {
                            t.last1_ok = matches!(
                                lab.read_container_retry(1, ch.probe, &mut buf),
                                ReadAttempt::Clean | ReadAttempt::Recovered(_)
                            );
                            std::mem::swap(&mut idle[ci].last1, &mut buf);
                        }
                        continue;
                    }
                }
                // Epoch memo: the stamp is taken AFTER the read because a
                // retried read advances the lab mid-probe, so it must
                // reflect the kernel the bytes actually came from. An
                // unchanged dependency sum proves the snapshot is
                // byte-identical to the previous one — unless a fault
                // plan is installed, since distortion changes bytes
                // without any epoch bump. The probe itself always runs
                // (the skip covers only the compare and the re-parse).
                let sum = lab.host(0).kernel.epochs().masked_sum(masks[ci]);
                let provably_same = t.seen0 > 0
                    && t.last_sum == Some(sum)
                    && lab.host(0).kernel.fault_plan().is_none();
                let t = &mut idle[ci];
                if provably_same {
                    simtrace::counters::add("leakscan.epoch_skips", 1);
                    t.seen0 += 1;
                    let prev = t.fields.last().cloned().unwrap_or_default();
                    t.fields.push(prev);
                    if let Some(v) = t.last_acc {
                        t.acc_series.push(v);
                    }
                } else {
                    if t.seen0 > 0 && buf != t.last0 {
                        t.changes += 1;
                    }
                    t.seen0 += 1;
                    t.fields.push(parse::numeric_fields(&buf));
                    let acc = acc_scalar(ch, &buf);
                    if let Some(v) = acc {
                        t.acc_series.push(v);
                    }
                    t.last_acc = acc;
                    std::mem::swap(&mut t.last0, &mut buf);
                }
                t.last_sum = Some(sum);
                if snap + 1 == IDLE_WINDOW {
                    let attempt = lab.read_container_retry(1, ch.probe, &mut buf);
                    let t = &mut idle[ci];
                    t.last1_ok = matches!(attempt, ReadAttempt::Clean | ReadAttempt::Recovered(_));
                    if matches!(attempt, ReadAttempt::Recovered(_)) {
                        t.recovered += 1;
                    }
                    std::mem::swap(&mut t.last1, &mut buf);
                }
            }
        }

        // ---- Phase 2: implantation on host 0. ----
        let sig = format!("lk-{}", self.sig);
        {
            let h = lab.host_mut(0);
            let c = h.container;
            h.runtime
                .exec(
                    &mut h.kernel,
                    c,
                    &format!("{sig}-proc"),
                    workloads::models::sleeper(),
                )
                .expect("signature process");
            h.runtime
                .implant_timer(&mut h.kernel, c, &format!("{sig}-timer"), 1_000_000_000)
                .expect("signature timer");
            h.runtime
                .implant_lock(&mut h.kernel, c, (0x5151_0000, 0x5151_ffff))
                .expect("signature lock");
        }
        lab.advance_secs(1);
        let mut implant_hit: Vec<(bool, bool)> = Vec::with_capacity(channels.len());
        let mut implant_lost: Vec<bool> = vec![false; channels.len()];
        for (ci, ch) in channels.iter().enumerate() {
            let mut hit = [false, false];
            for (host, slot) in hit.iter_mut().enumerate() {
                match lab.read_container_retry(host, ch.probe, &mut buf) {
                    ReadAttempt::Clean | ReadAttempt::Recovered(_) => {
                        *slot = buf.contains(&sig) || buf.contains("1364262912");
                    }
                    ReadAttempt::Failed(_) => implant_lost[ci] = true,
                }
            }
            implant_hit.push((hit[0], hit[1]));
        }

        // ---- Phase 3: loaded window on host 0 (pinned to CPUs 1..=6,
        // leaving CPU 0 as the "untouched" core for the sched_domain
        // control). ----
        let mut load_pids = Vec::new();
        {
            let h = lab.host_mut(0);
            let c = h.container;
            for cpu in 1..=6u16 {
                let pid = h
                    .runtime
                    .exec(&mut h.kernel, c, &format!("ld{cpu}"), manipulation_load())
                    .expect("load process");
                h.kernel.set_affinity(pid, vec![cpu]).expect("pin load");
                load_pids.push(pid);
            }
        }
        let mut loaded_fields: Vec<Vec<Vec<f64>>> = channels
            .iter()
            .map(|_| Vec::with_capacity(LOAD_WINDOW))
            .collect();
        let mut loaded_lost: Vec<u32> = vec![0; channels.len()];
        for _ in 0..LOAD_WINDOW {
            lab.advance_secs(1);
            for (ci, ch) in channels.iter().enumerate() {
                match lab.read_container_retry(0, ch.probe, &mut buf) {
                    ReadAttempt::Clean | ReadAttempt::Recovered(_) => {
                        loaded_fields[ci].push(parse::numeric_fields(&buf));
                    }
                    ReadAttempt::Failed(_) => loaded_lost[ci] += 1,
                }
            }
        }
        {
            let h = lab.host_mut(0);
            for pid in load_pids {
                let _ = h.kernel.kill(pid);
            }
        }

        // ---- Analysis. ----
        channels
            .iter()
            .enumerate()
            .map(|(ci, ch)| {
                self.analyze(
                    ch,
                    &idle[ci],
                    &loaded_fields[ci],
                    implant_hit[ci],
                    implant_lost[ci],
                    loaded_lost[ci],
                )
            })
            .collect()
    }

    fn analyze(
        &self,
        ch: &Channel,
        idle: &IdleTrace,
        loaded_fields: &[Vec<f64>],
        implant: (bool, bool),
        implant_lost: bool,
        loaded_lost: u32,
    ) -> ChannelAssessment {
        // A static id that changed exactly once across the window did not
        // "vary" — its host crash-rebooted and the id rotated. More than
        // one change is genuine variation even for a declared static id.
        let reboot_rotation =
            matches!(ch.uniqueness, UniquenessKind::StaticId) && idle.changes == 1;
        let varies = idle.changes > 0 && !reboot_rotation;
        let idle_fields = &idle.fields;
        let entropy_bits =
            joint_entropy(&idle_fields[idle_fields.len().saturating_sub(IDLE_WINDOW)..]);

        // Uniqueness per declared kind — measured, not assumed.
        let mut resets = 0u32;
        let (unique, growth_per_sec) = match ch.uniqueness {
            UniquenessKind::StaticId => {
                let stable = !varies;
                let distinct = idle.last1_ok && idle.last0 != idle.last1;
                (stable && distinct, 0.0)
            }
            UniquenessKind::Implant => (implant.0 && !implant.1, 0.0),
            UniquenessKind::Accumulator(_) => {
                let (series, repaired_resets) = repair_monotone(&idle.acc_series);
                resets = repaired_resets;
                let monotone = series.windows(2).all(|w| w[1] >= w[0]);
                let grows =
                    series.last().copied().unwrap_or(0.0) > series.first().copied().unwrap_or(0.0);
                let max_step = series
                    .windows(2)
                    .map(|w| w[1] - w[0])
                    .fold(0.0f64, f64::max);
                let v0 = acc_scalar(ch, &idle.last0).unwrap_or(0.0);
                let v1 = acc_scalar(ch, &idle.last1).unwrap_or(0.0);
                let distinct = idle.last1_ok && (v0 - v1).abs() > 10.0 * max_step.max(1.0);
                let rate = if series.len() > 1 {
                    (series[series.len() - 1] - series[0]) / (series.len() - 1) as f64
                } else {
                    0.0
                };
                (monotone && grows && distinct, rate)
            }
            UniquenessKind::None => (false, 0.0),
        };

        // Manipulation: direct via implant; indirect via rate comparison.
        let manipulation = if implant.0 && !implant.1 {
            ManipulationKind::Direct
        } else if rates_differ(idle_fields, loaded_fields) {
            ManipulationKind::Indirect
        } else {
            ManipulationKind::None
        };

        // Confidence: every accommodation the scan made, in a fixed order.
        let mut reasons = Vec::new();
        if idle.recovered > 0 {
            reasons.push(format!(
                "{} transient read fault(s) recovered by retry",
                idle.recovered
            ));
        }
        if idle.lost > 0 {
            reasons.push(format!(
                "{} idle snapshot(s) lost to persistent read faults",
                idle.lost
            ));
        }
        if !idle.last1_ok {
            reasons.push("cross-host comparison snapshot unreadable".to_string());
        }
        if reboot_rotation {
            reasons.push("static id rotated once mid-window (crash-reboot)".to_string());
        }
        if resets > 0 {
            reasons.push(format!("{resets} counter reset(s) repaired (crash-reboot)"));
        }
        if implant_lost {
            reasons.push("implant probe unreadable on at least one host".to_string());
        }
        if loaded_lost > 0 {
            reasons.push(format!(
                "{loaded_lost} loaded snapshot(s) lost to read faults"
            ));
        }
        let confidence = if reasons.is_empty() {
            Confidence::Full
        } else {
            simtrace::counters::add("leakscan.degraded_windows", 1);
            Confidence::Degraded { reasons }
        };

        ChannelAssessment {
            channel: ch.clone(),
            unique,
            varies,
            manipulation,
            entropy_bits,
            growth_per_sec,
            confidence,
        }
    }

    /// Produces the Table II ranking: the uniqueness group first (static
    /// ids, implantables, then accumulators by growth rate), then the
    /// variation-only group ordered by joint entropy, then the rest.
    pub fn rank_table2(&self, assessments: Vec<ChannelAssessment>) -> Vec<Table2Row> {
        let mut unique: Vec<ChannelAssessment> = Vec::new();
        let mut varying: Vec<ChannelAssessment> = Vec::new();
        let mut rest: Vec<ChannelAssessment> = Vec::new();
        for a in assessments {
            if a.unique {
                unique.push(a);
            } else if a.varies {
                varying.push(a);
            } else {
                rest.push(a);
            }
        }
        let group_key = |a: &ChannelAssessment| match a.channel.uniqueness {
            UniquenessKind::StaticId => 0,
            UniquenessKind::Implant => 1,
            UniquenessKind::Accumulator(_) => 2,
            UniquenessKind::None => 3,
        };
        unique.sort_by(|a, b| {
            group_key(a)
                .cmp(&group_key(b))
                .then(b.growth_per_sec.total_cmp(&a.growth_per_sec))
        });
        varying.sort_by(|a, b| b.entropy_bits.total_cmp(&a.entropy_bits));
        unique
            .into_iter()
            .chain(varying)
            .chain(rest)
            .enumerate()
            .map(|(i, assessment)| Table2Row {
                rank: i + 1,
                assessment,
            })
            .collect()
    }
}

/// Stitches crash-reboot resets out of an accumulator series: a sample
/// falling below a tenth of its (non-trivial) predecessor is a counter
/// restart, and everything after it is lifted by the pre-reset value so
/// the repaired series is continuous. Ordinary jitter — small decreases —
/// is deliberately *not* repaired: a genuinely non-monotone channel must
/// keep failing the monotonicity check exactly as it does fault-free.
fn repair_monotone(series: &[f64]) -> (Vec<f64>, u32) {
    let mut out = Vec::with_capacity(series.len());
    let mut offset = 0.0;
    let mut resets = 0u32;
    let mut prev_raw: Option<f64> = None;
    for &v in series {
        if let Some(p) = prev_raw {
            if v < p * 0.1 && p > 100.0 {
                offset += p;
                resets += 1;
            }
        }
        prev_raw = Some(v);
        out.push(v + offset);
    }
    (out, resets)
}

/// Whether per-field change rates differ materially between the idle and
/// loaded windows (the indirect-manipulation signal).
fn rates_differ(idle: &[Vec<f64>], loaded: &[Vec<f64>]) -> bool {
    let mean_step = |trace: &[Vec<f64>], field: usize| -> Option<f64> {
        let vals: Vec<f64> = trace.iter().filter_map(|s| s.get(field).copied()).collect();
        if vals.len() < 2 {
            return None;
        }
        Some(vals.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (vals.len() - 1) as f64)
    };
    let n_fields = idle
        .iter()
        .chain(loaded.iter())
        .map(|s| s.len())
        .min()
        .unwrap_or(0);
    // Use only the tail of the idle window (same length as the loaded
    // window) so long-term drifts don't skew the comparison.
    let idle_tail = &idle[idle.len().saturating_sub(LOAD_WINDOW)..];
    for f in 0..n_fields {
        let (Some(i), Some(l)) = (mean_step(idle_tail, f), mean_step(loaded, f)) else {
            continue;
        };
        if l > i * 1.5 + 0.02 || l * 1.5 + 0.02 < i {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels::{UniquenessKind as U, TABLE2_CHANNELS};

    #[test]
    fn entropy_of_constant_is_zero_and_nonnegative() {
        let constant = vec![vec![5.0, 7.0]; 10];
        assert_eq!(joint_entropy(&constant), 0.0);
        let varying: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64]).collect();
        let h = joint_entropy(&varying);
        assert!(
            (h - 3.0).abs() < 1e-9,
            "8 distinct values = 3 bits, got {h}"
        );
    }

    #[test]
    fn entropy_sums_over_fields() {
        let two_fields: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64, (i % 2) as f64]).collect();
        let h = joint_entropy(&two_fields);
        assert!((h - 3.0).abs() < 1e-9, "2 bits + 1 bit, got {h}");
    }

    #[test]
    fn rates_differ_detects_rate_changes() {
        let idle: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect(); // +1/step
        let loaded: Vec<Vec<f64>> = (0..20).map(|i| vec![(i * 10) as f64]).collect(); // +10/step
        assert!(rates_differ(&idle, &loaded));
        let same: Vec<Vec<f64>> = (100..120).map(|i| vec![i as f64]).collect();
        assert!(!rates_differ(&idle, &same));
    }

    // The full-campaign measurement: the centerpiece assertion that the
    // paper's Table II claims hold in the simulated kernel.
    #[test]
    fn measured_metrics_match_paper_claims() {
        let mut lab = Lab::new(2, 3001);
        let assessor = MetricsAssessor::new("t2");
        let got = assessor.assess_all(&mut lab, TABLE2_CHANNELS);
        for a in &got {
            assert_eq!(
                a.unique,
                a.channel.uniqueness.is_unique(),
                "U mismatch on {}",
                a.channel.glob
            );
            assert_eq!(
                a.varies, a.channel.variation,
                "V mismatch on {}",
                a.channel.glob
            );
            assert_eq!(
                a.manipulation, a.channel.manipulation,
                "M mismatch on {}",
                a.channel.glob
            );
            assert!(
                a.confidence.is_full(),
                "fault-free campaign must be full-confidence on {}: {:?}",
                a.channel.glob,
                a.confidence
            );
        }
    }

    #[test]
    fn repair_monotone_stitches_resets_but_not_jitter() {
        // Crash-reboot: a counter at ~1.7M drops to near zero.
        let series = vec![1000.0, 2000.0, 3000.0, 5.0, 105.0, 205.0];
        let (repaired, resets) = repair_monotone(&series);
        assert_eq!(resets, 1);
        assert!(repaired.windows(2).all(|w| w[1] >= w[0]), "{repaired:?}");
        assert_eq!(
            repaired[3], 3005.0,
            "post-reset samples lift by the pre-reset value"
        );
        // Jitter: small decreases are genuine non-monotonicity, untouched.
        let noisy = vec![100.0, 99.0, 101.0];
        let (kept, r2) = repair_monotone(&noisy);
        assert_eq!(r2, 0);
        assert_eq!(kept, noisy);
    }

    #[test]
    fn ranking_orders_groups_correctly() {
        let mut lab = Lab::new(2, 3002);
        let assessor = MetricsAssessor::new("rank");
        let rows = assessor.rank_table2(assessor.assess_all(&mut lab, TABLE2_CHANNELS));
        assert_eq!(rows.len(), TABLE2_CHANNELS.len());
        // First rows: static ids.
        assert!(matches!(rows[0].assessment.channel.uniqueness, U::StaticId));
        assert!(matches!(rows[1].assessment.channel.uniqueness, U::StaticId));
        // Unique block strictly precedes the variation block.
        let first_non_unique = rows.iter().position(|r| !r.assessment.unique).unwrap();
        assert!(rows[first_non_unique..]
            .iter()
            .all(|r| !r.assessment.unique));
        assert_eq!(
            first_non_unique, 17,
            "17 channels satisfy U, as in the paper"
        );
        // Variation-only block is entropy-sorted.
        let var_block: Vec<f64> = rows[first_non_unique..]
            .iter()
            .filter(|r| r.assessment.varies)
            .map(|r| r.assessment.entropy_bits)
            .collect();
        assert!(var_block.windows(2).all(|w| w[0] >= w[1]), "{var_block:?}");
        // Bottom: the static, non-unique trio.
        let tail: Vec<&str> = rows[rows.len() - 3..]
            .iter()
            .map(|r| r.assessment.channel.glob)
            .collect();
        assert!(tail.contains(&"/proc/modules"));
        assert!(tail.contains(&"/proc/cpuinfo"));
        assert!(tail.contains(&"/proc/version"));
    }
}
