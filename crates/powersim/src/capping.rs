//! Power capping (§II-C): the defense that *doesn't* stop the attack.
//!
//! "Although host-level power capping for a single server could respond
//! immediately to power surges, the power capping mechanisms at the rack
//! or PDU level still suffer from minute-level delays." This module models
//! both: a per-host RAPL cap that clamps the package immediately, and a
//! rack controller whose feedback loop takes `delay_s` to engage. The
//! experiment shows the paper's point — a short synergistic spike trips
//! the breaker *inside* the rack controller's reaction window, while a
//! hypothetical instant rack cap would have contained it.

use cloudsim::{CloudConfig, CloudError, CloudProfile, HostId, InstanceSpec};
use serde::{Deserialize, Serialize};

use crate::attack::{surge_fleet, SURGE_WINDOW_START};
use crate::facility::{BreakerState, CircuitBreaker};
use crate::trace::DiurnalTrace;

/// A rack/PDU-level capping controller with a reaction delay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RackCapController {
    limit_w: f64,
    delay_s: u64,
    breach_for_s: u64,
    engaged: bool,
    engaged_at_s: Option<u64>,
}

impl RackCapController {
    /// A controller that sheds load once aggregate power has exceeded
    /// `limit_w` continuously for `delay_s` (its telemetry + actuation
    /// latency).
    pub fn new(limit_w: f64, delay_s: u64) -> Self {
        assert!(limit_w > 0.0, "cap must be positive");
        RackCapController {
            limit_w,
            delay_s,
            breach_for_s: 0,
            engaged: false,
            engaged_at_s: None,
        }
    }

    /// The configured limit.
    pub fn limit_w(&self) -> f64 {
        self.limit_w
    }

    /// Whether load shedding is currently active.
    pub fn engaged(&self) -> bool {
        self.engaged
    }

    /// When (seconds into the run) shedding engaged, if it did.
    pub fn engaged_at_s(&self) -> Option<u64> {
        self.engaged_at_s
    }

    /// Feeds one second of aggregate power; returns whether shedding is
    /// active *after* this second.
    pub fn step(&mut self, aggregate_w: f64, now_s: u64) -> bool {
        if aggregate_w > self.limit_w {
            self.breach_for_s += 1;
            if self.breach_for_s >= self.delay_s && !self.engaged {
                self.engaged = true;
                self.engaged_at_s = Some(now_s);
            }
        } else {
            self.breach_for_s = 0;
            // Shedding stays engaged until the operator resets it.
        }
        self.engaged
    }

    /// Operator reset after the event.
    pub fn reset(&mut self) {
        self.engaged = false;
        self.breach_for_s = 0;
        self.engaged_at_s = None;
    }
}

/// Result of the capping-vs-attack experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CappingOutcome {
    /// Seconds at which the breaker tripped, if it did.
    pub breaker_tripped_at_s: Option<f64>,
    /// Seconds at which the rack cap engaged, if it did.
    pub cap_engaged_at_s: Option<u64>,
    /// Peak aggregate power observed, watts.
    pub peak_w: f64,
}

/// Runs the §II-C scenario: benign surge background, a synergistic
/// 3-container power burst fired the moment aggregate power crests above
/// 1,140 W (the attacker's RAPL-timed alignment), a breaker, and a rack
/// cap controller with the given reaction delay. When the controller
/// engages it sheds load by throttling every host's background demand and
/// killing the attack payloads (the facility cutting non-critical load).
///
/// # Errors
///
/// Propagates payload launch and exec failures.
pub fn capping_experiment(
    seed: u64,
    cap_delay_s: u64,
    burst_s: u64,
) -> Result<CappingOutcome, CloudError> {
    let mut cloud = surge_fleet(CloudConfig::new(CloudProfile::CC1), seed);
    let mut trace = DiurnalTrace::paper_week(seed);
    let mut breaker = CircuitBreaker::new(1_190.0).thermal_limit(8.0);
    let mut controller = RackCapController::new(1_150.0, cap_delay_s);

    // Attack payloads: 3 instances × 4 virus processes, initially dormant.
    let mut payloads = Vec::new();
    for p in 0..3 {
        let inst = cloud.launch(
            "attacker",
            InstanceSpec::new(format!("payload-{p}")).vcpus(4),
        )?;
        for i in 0..4 {
            payloads.push((
                inst,
                cloud.exec(inst, &format!("pv-{i}"), workloads::models::sleeper())?,
            ));
        }
    }

    let mut peak: f64 = 0.0;
    let mut tripped = None;
    let mut firing = false;
    let mut fired = false;
    let mut burst_left = 0u64;
    let mut last_aggregate = 0.0f64;
    for t in 0..600u64 {
        if !controller.engaged() {
            trace.apply(&mut cloud, SURGE_WINDOW_START + t);
        }
        // Synergistic alignment: fire once, on the first benign crest.
        if !fired && !controller.engaged() && last_aggregate > 1_140.0 {
            for (inst, pid) in &payloads {
                let _ = cloud.set_process_workload(*inst, *pid, workloads::models::power_virus());
            }
            firing = true;
            fired = true;
            burst_left = burst_s;
        }
        if firing {
            burst_left = burst_left.saturating_sub(1);
            if burst_left == 0 {
                for (inst, pid) in &payloads {
                    let _ = cloud.set_process_workload(*inst, *pid, workloads::models::sleeper());
                }
                firing = false;
            }
        }
        cloud.advance_secs(1);
        let aggregate: f64 = (0..8).map(|h| cloud.host_power_w(HostId(h))).sum();
        last_aggregate = aggregate;
        peak = peak.max(aggregate);

        if breaker.step(aggregate, 1.0) == BreakerState::Tripped && tripped.is_none() {
            tripped = breaker.tripped_at_s();
        }
        let was_engaged = controller.engaged();
        if controller.step(aggregate, t) && !was_engaged {
            // Shedding: throttle all background tenants and cut payloads.
            for h in 0..8 {
                cloud.set_background_demand(HostId(h), 0.05);
            }
            for (inst, pid) in &payloads {
                let _ = cloud.set_process_workload(*inst, *pid, workloads::models::sleeper());
            }
            firing = false;
        }
    }
    Ok(CappingOutcome {
        breaker_tripped_at_s: tripped,
        cap_engaged_at_s: controller.engaged_at_s(),
        peak_w: peak,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controller_waits_its_delay_before_engaging() {
        let mut c = RackCapController::new(1_000.0, 30);
        for t in 0..29 {
            assert!(!c.step(1_100.0, t), "engaged early at {t}");
        }
        assert!(c.step(1_100.0, 29));
        assert_eq!(c.engaged_at_s(), Some(29));
    }

    #[test]
    fn breach_counter_resets_on_dips() {
        let mut c = RackCapController::new(1_000.0, 10);
        for t in 0..8 {
            c.step(1_100.0, t);
        }
        c.step(900.0, 8); // dip resets the integrator
        for t in 9..18 {
            assert!(!c.step(1_100.0, t));
        }
        assert!(c.step(1_100.0, 18));
    }

    #[test]
    fn minute_delay_capping_loses_to_the_spike() {
        // The paper's claim: rack capping with minute-level delay cannot
        // stop a 90 s aligned spike — the breaker goes first.
        let out = capping_experiment(77, 120, 90).unwrap();
        assert!(
            out.breaker_tripped_at_s.is_some(),
            "spike should trip through the slow cap: {out:?}"
        );
        match (out.breaker_tripped_at_s, out.cap_engaged_at_s) {
            (Some(trip), Some(cap)) => assert!(trip < cap as f64, "{out:?}"),
            (Some(_), None) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn instant_capping_would_contain_it() {
        // A (hypothetical) 5 s-reaction rack cap sheds load before the
        // breaker's thermal element accumulates enough heat.
        let out = capping_experiment(77, 5, 90).unwrap();
        assert!(out.cap_engaged_at_s.is_some(), "{out:?}");
        assert!(
            out.breaker_tripped_at_s.is_none(),
            "fast capping should prevent the outage: {out:?}"
        );
    }
}
