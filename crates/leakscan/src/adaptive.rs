//! Adaptive probing attackers for the attack↔defense loop.
//!
//! The online detector (see the `detector` crate) flags probing tenants
//! and masks their channels mid-run. This module supplies the other side
//! of that arms race: an attacker that *notices* the masking — every
//! strategy here keys off `PermissionDenied` on its own reads, the only
//! provider signal a tenant actually sees — and adapts. Four strategies
//! span the cost/stealth spectrum the detection experiment scores:
//!
//! * [`AttackerMode::Persistent`] — the paper's baseline prober: hammer
//!   the full channel set every second forever. Fastest data collection,
//!   fastest detection.
//! * [`AttackerMode::Backoff`] — exponential backoff once reads start
//!   coming back denied, doubling the quiet gap per denied burst. Trades
//!   read volume for staying under the rate threshold.
//! * [`AttackerMode::Rotate`] — concentrate on one channel and hop to
//!   the next one the moment it is masked. Defeats *targeted* masking
//!   (only probed channels are denied) until the detector escalates to a
//!   full mask.
//! * [`AttackerMode::CovertFallback`] — once masked, abandon pseudo-file
//!   reads entirely and fall back to the Table I timer covert channel:
//!   the prober implants timer signatures (a write path the read-tap
//!   never sees) and a slow-reading accomplice tenant decodes them from
//!   `/proc/timer_list` below the detector's rate floor.
//!
//! Everything is a pure function of the step clock and internal
//! counters — no wall clock, no RNG — so attacker behaviour is
//! byte-deterministic across `--jobs` values and coalescing modes like
//! the rest of the fleet.

use cloudsim::{Cloud, CloudError, InstanceId};
use container_runtime::RuntimeError;
use pseudofs::FsError;
use workloads::models;

/// The channels the attacker works through: a high-entropy slice of
/// Table I mixing memory, scheduler, network, interrupt, and power
/// state. Eight channels at one burst per second sits well above the
/// detector's default rate and entropy thresholds.
pub const PROBE_SET: &[&str] = &[
    "/proc/meminfo",
    "/proc/timer_list",
    "/proc/stat",
    "/proc/loadavg",
    "/proc/uptime",
    "/proc/net/dev",
    "/proc/interrupts",
    "/sys/class/powercap/intel-rapl:0/energy_uj",
];

/// Seconds per covert-channel slot. One timer-list read every two
/// seconds keeps the accomplice at 0.5 reads/s — under the detector's
/// default 0.8/s rate floor, so the decode side stays invisible.
pub const COVERT_SLOT_SECS: u64 = 2;

/// How an attacker responds to being masked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum AttackerMode {
    /// Never adapt; keep probing the full set every second.
    Persistent,
    /// Exponentially back off while bursts come back denied.
    Backoff,
    /// Hop to the next unmasked channel when the current one dies.
    Rotate,
    /// Switch to the timer covert channel once masked.
    CovertFallback,
}

impl AttackerMode {
    /// Short label used in experiment tables and scenario digests.
    pub fn label(self) -> &'static str {
        match self {
            AttackerMode::Persistent => "persistent",
            AttackerMode::Backoff => "backoff",
            AttackerMode::Rotate => "rotate",
            AttackerMode::CovertFallback => "covert-fallback",
        }
    }
}

/// What the campaign cost the attacker and what it yielded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct AttackCost {
    /// Pseudo-file reads attempted.
    pub probes: u64,
    /// Reads rejected with `PermissionDenied`.
    pub denials: u64,
    /// Reads that returned channel bytes.
    pub useful_reads: u64,
    /// Covert-channel bits pushed through the timer medium.
    pub covert_bits: u64,
    /// Covert bits the accomplice failed to decode.
    pub covert_errors: u64,
}

impl AttackCost {
    /// Fraction of attempted probes that were denied (0 when idle).
    pub fn denial_rate(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.denials as f64 / self.probes as f64
        }
    }
}

/// One adaptive attacker: a probing instance, an optional covert
/// accomplice, and the per-mode evasion state machine.
#[derive(Debug)]
pub struct AdaptiveAttacker {
    mode: AttackerMode,
    prober: InstanceId,
    accomplice: Option<InstanceId>,
    cost: AttackCost,
    /// Consecutive denied bursts (Backoff's exponent).
    denied_bursts: u32,
    /// Next step at which Backoff will probe again.
    next_burst_at: u64,
    /// Rotate's index into [`PROBE_SET`].
    channel: usize,
    /// Whether CovertFallback has tripped over to the timer channel.
    covert_active: bool,
    /// Bits sent so far (drives the deterministic payload).
    covert_sent: u64,
}

impl AdaptiveAttacker {
    /// Builds an attacker driving `prober`. `accomplice` is required for
    /// [`AttackerMode::CovertFallback`] to decode anything, and must be
    /// *co-resident* with the prober — `/proc/timer_list` is a per-host
    /// channel, so a decoder on another host sees nothing (check with
    /// [`Cloud::coresident`]). The other modes ignore it.
    pub fn new(mode: AttackerMode, prober: InstanceId, accomplice: Option<InstanceId>) -> Self {
        AdaptiveAttacker {
            mode,
            prober,
            accomplice,
            cost: AttackCost::default(),
            denied_bursts: 0,
            next_burst_at: 0,
            channel: 0,
            covert_active: false,
            covert_sent: 0,
        }
    }

    /// The attacker's strategy.
    pub fn mode(&self) -> AttackerMode {
        self.mode
    }

    /// Cumulative cost/yield ledger.
    pub fn cost(&self) -> AttackCost {
        self.cost
    }

    /// Whether a covert-fallback attacker has given up on direct reads.
    pub fn covert_active(&self) -> bool {
        self.covert_active
    }

    /// Attempts one read, updating the ledger, and reports whether the
    /// provider denied it.
    fn probe(&mut self, cloud: &mut Cloud, path: &str) -> bool {
        self.cost.probes += 1;
        match cloud.read_file(self.prober, path) {
            Ok(_) => {
                self.cost.useful_reads += 1;
                false
            }
            Err(CloudError::Runtime(RuntimeError::Fs(FsError::PermissionDenied(_)))) => {
                self.cost.denials += 1;
                true
            }
            Err(_) => false,
        }
    }

    /// Runs one simulated second of attacker activity. Call once per
    /// second of fleet time, with `now_secs` the fleet clock *before*
    /// this second's `advance_secs(1)`.
    pub fn step(&mut self, cloud: &mut Cloud, now_secs: u64) {
        match self.mode {
            AttackerMode::Persistent => {
                for p in PROBE_SET {
                    self.probe(cloud, p);
                }
            }
            AttackerMode::Backoff => {
                if now_secs < self.next_burst_at {
                    return;
                }
                let mut any_denied = false;
                for p in PROBE_SET {
                    any_denied |= self.probe(cloud, p);
                }
                if any_denied {
                    self.denied_bursts = (self.denied_bursts + 1).min(6);
                    self.next_burst_at = now_secs + (1u64 << self.denied_bursts);
                } else {
                    self.denied_bursts = 0;
                    self.next_burst_at = now_secs + 1;
                }
            }
            AttackerMode::Rotate => {
                // Two reads per second on the active channel; hop on
                // denial. A full lap over a fully-masked set degenerates
                // into a slow scan that keeps paying denials.
                for _ in 0..2 {
                    let p = PROBE_SET[self.channel % PROBE_SET.len()];
                    if self.probe(cloud, p) {
                        self.channel = (self.channel + 1) % PROBE_SET.len();
                    }
                }
            }
            AttackerMode::CovertFallback => {
                if !self.covert_active {
                    let mut any_denied = false;
                    for p in PROBE_SET {
                        any_denied |= self.probe(cloud, p);
                    }
                    if any_denied {
                        self.covert_active = true;
                        // The timer medium needs a live in-container
                        // process to own the implanted signatures.
                        let _ = cloud.exec(self.prober, "cvagent", models::sleeper());
                    }
                    return;
                }
                // Covert regime: one bit per slot. The implant is a
                // write path — invisible to the read-tap — and the
                // accomplice's decode read runs at 1/slot, under the
                // detector's rate floor.
                if !now_secs.is_multiple_of(COVERT_SLOT_SECS) {
                    return;
                }
                let bit = (self.covert_sent.wrapping_mul(0x9E37_79B9) >> 7) & 1;
                let comm = format!("cv{}b{bit}", self.covert_sent);
                let implanted = cloud.implant_timer(self.prober, &comm).is_ok();
                self.cost.covert_bits += 1;
                self.covert_sent += 1;
                let decoded = match self.accomplice {
                    Some(acc) if implanted => {
                        self.cost.probes += 1;
                        match cloud.read_file(acc, "/proc/timer_list") {
                            Ok(body) => {
                                self.cost.useful_reads += 1;
                                body.contains(&comm)
                            }
                            Err(CloudError::Runtime(RuntimeError::Fs(
                                FsError::PermissionDenied(_),
                            ))) => {
                                self.cost.denials += 1;
                                false
                            }
                            Err(_) => false,
                        }
                    }
                    _ => false,
                };
                if !decoded {
                    self.cost.covert_errors += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim::{CloudConfig, CloudProfile, DetectorConfig, InstanceSpec};

    fn cloud(profile: CloudProfile, detect: bool) -> Cloud {
        // One host: the covert accomplice must be co-resident.
        let mut cfg = CloudConfig::new(profile).hosts(1).without_background();
        if detect {
            cfg = cfg.detector(DetectorConfig::default());
        }
        Cloud::new(cfg, 77)
    }

    fn drive(mode: AttackerMode, profile: CloudProfile, secs: u64) -> (AttackCost, bool) {
        let mut cloud = cloud(profile, true);
        let prober = cloud.launch("mallory", InstanceSpec::new("probe")).unwrap();
        let acc = cloud
            .launch("mallory2", InstanceSpec::new("decode"))
            .unwrap();
        let mut atk = AdaptiveAttacker::new(mode, prober, Some(acc));
        for s in 0..secs {
            atk.step(&mut cloud, s);
            cloud.advance_secs(1);
        }
        let flagged = cloud.detector().is_some_and(|d| d.level(0) > 0);
        (atk.cost(), flagged)
    }

    #[test]
    fn persistent_is_flagged_and_keeps_paying_denials() {
        let (cost, flagged) = drive(AttackerMode::Persistent, CloudProfile::CC1, 120);
        assert!(flagged, "persistent prober was never flagged");
        assert!(cost.denials > 0, "mask never produced denials");
        assert!(cost.probes >= 120 * PROBE_SET.len() as u64);
    }

    #[test]
    fn backoff_probes_less_than_persistent_once_masked() {
        let (p, _) = drive(AttackerMode::Persistent, CloudProfile::CC1, 300);
        let (b, _) = drive(AttackerMode::Backoff, CloudProfile::CC1, 300);
        assert!(
            b.probes < p.probes / 2,
            "backoff did not shed load: {} vs {}",
            b.probes,
            p.probes
        );
        assert!(b.denial_rate() < p.denial_rate());
    }

    #[test]
    fn covert_fallback_moves_bits_after_masking() {
        let (c, flagged) = drive(AttackerMode::CovertFallback, CloudProfile::CC1, 300);
        assert!(flagged, "fallback prober was never flagged");
        assert!(c.covert_bits > 0, "covert channel never engaged");
        assert!(
            c.covert_errors < c.covert_bits,
            "no covert bit ever decoded: {c:?}"
        );
    }

    #[test]
    fn covert_channel_is_dead_when_timer_list_is_base_denied() {
        // CC4 denies /proc/timer_list outright, so the accomplice can
        // never read the medium: every bit is an error.
        let (c, _) = drive(AttackerMode::CovertFallback, CloudProfile::CC4, 200);
        assert!(c.covert_bits > 0);
        assert_eq!(c.covert_errors, c.covert_bits);
    }
}
