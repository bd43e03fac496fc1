//! The three power-attack strategies of Fig. 3 (§IV-A/§IV-B) and the
//! surge-window protocol that runs them ([`calibrate`], [`strike`]).
//!
//! All three control the same "ammunition": payload instances whose
//! processes flip between a dormant sleeper and a power virus. They differ
//! in *when* they fire:
//!
//! * **Continuous** — virus always on: catches every benign crest but is
//!   blatant and, under utilization billing, expensive.
//! * **Periodic** — fire for `burst_s` every `period_s`, blind to the
//!   background (the paper's baseline: 9 launches in 3000 s, ≤ 1280 W).
//! * **Synergistic** — monitor host power through the leaked RAPL channel
//!   and superimpose the burst on benign peaks (the paper: 1359 W with
//!   only two trials), the "insider trading" strategy.

use cloudsim::{Cloud, CloudConfig, CloudError, HostId, InstanceId, InstanceSpec};
use serde::{Deserialize, Serialize};
use simkernel::HostPid;
use workloads::models;

use crate::facility::{BreakerState, CircuitBreaker};
use crate::monitor::RaplMonitor;
use crate::trace::DiurnalTrace;

/// When to fire the payload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AttackStrategy {
    /// Virus on for the whole campaign.
    Continuous,
    /// Fixed schedule: fire `burst_s` every `period_s`.
    Periodic {
        /// Seconds between launches.
        period_s: u64,
        /// Burst length, seconds.
        burst_s: u64,
    },
    /// RAPL-triggered: fire when the attacker's power estimate exceeds
    /// `threshold_w`, with a cooldown between trials.
    Synergistic {
        /// Attacker-side aggregate package-power trigger, watts.
        threshold_w: f64,
        /// Burst length, seconds.
        burst_s: u64,
        /// Minimum seconds between bursts.
        cooldown_s: u64,
    },
}

/// One sample of the campaign's power series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerSample {
    /// Seconds into the campaign.
    pub t_s: u64,
    /// Ground-truth aggregate wall power of the fleet, watts.
    pub aggregate_w: f64,
    /// The attacker's RAPL-derived estimate (package domains only), watts.
    pub attacker_estimate_w: Option<f64>,
    /// Whether the payload was firing this second.
    pub attacking: bool,
}

/// Result of a campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttackOutcome {
    /// 1 Hz power series.
    pub series: Vec<PowerSample>,
    /// Highest aggregate wall power reached, watts.
    pub peak_w: f64,
    /// Number of bursts fired.
    pub trials: u32,
    /// Dollars billed to the attacker over the campaign.
    pub attack_cost_usd: f64,
    /// Seconds at which the rack breaker tripped, if it did.
    pub breaker_tripped_at_s: Option<f64>,
}

impl AttackOutcome {
    /// The synergistic trigger a calibration pass trains: the `pct`th
    /// percentile of the attacker's power estimates (Fig. 3 fires at p97),
    /// clamped to the largest estimate, so p100 is the maximum. `None`
    /// when the run produced no estimate (a masked cloud).
    pub fn trigger_w(&self, pct: usize) -> Option<f64> {
        let mut ests: Vec<f64> = self
            .series
            .iter()
            .filter_map(|s| s.attacker_estimate_w)
            .collect();
        ests.sort_by(f64::total_cmp);
        let i = (ests.len() * pct / 100).min(ests.len().saturating_sub(1));
        ests.get(i).copied()
    }
}

/// A deployed attack: observers on every host, payloads on some.
#[derive(Debug)]
pub struct AttackCampaign {
    /// `None` observes only: a calibration pass.
    strategy: Option<AttackStrategy>,
    observers: Vec<InstanceId>,
    payloads: Vec<(InstanceId, Vec<HostPid>)>,
    monitor: RaplMonitor,
    tenant: String,
}

impl AttackCampaign {
    /// Deploys the attack on `cloud`: one 1-vCPU observer per host (the
    /// RAPL monitors) and one 4-vCPU payload instance on each of the first
    /// `payload_hosts` hosts, each running four dormant virus processes
    /// (the paper's four Prime copies per container).
    ///
    /// # Errors
    ///
    /// Propagates launch failures.
    pub fn deploy(
        cloud: &mut Cloud,
        strategy: AttackStrategy,
        payload_hosts: usize,
        tenant: &str,
    ) -> Result<Self, CloudError> {
        Self::deploy_with(cloud, Some(strategy), payload_hosts, tenant)
    }

    fn deploy_with(
        cloud: &mut Cloud,
        strategy: Option<AttackStrategy>,
        payload_hosts: usize,
        tenant: &str,
    ) -> Result<Self, CloudError> {
        let nhosts = cloud.host_count();
        let mut observers = Vec::new();
        // Spread placement assigns round-robin over least-loaded hosts, so
        // launching exactly one observer per host covers the fleet.
        for h in 0..nhosts {
            observers.push(cloud.launch(tenant, InstanceSpec::new(format!("obs-{h}")).vcpus(1))?);
        }
        let mut payloads = Vec::new();
        for p in 0..payload_hosts.min(nhosts) {
            let inst = cloud.launch(tenant, InstanceSpec::new(format!("payload-{p}")).vcpus(4))?;
            let mut pids = Vec::new();
            for i in 0..4 {
                pids.push(cloud.exec(inst, &format!("virus-{i}"), models::sleeper())?);
            }
            payloads.push((inst, pids));
        }
        Ok(AttackCampaign {
            strategy,
            observers,
            payloads,
            monitor: RaplMonitor::new(),
            tenant: tenant.to_string(),
        })
    }

    fn set_firing(&self, cloud: &mut Cloud, on: bool) -> Result<(), CloudError> {
        let w = if on {
            models::power_virus()
        } else {
            models::sleeper()
        };
        for (inst, pids) in &self.payloads {
            for pid in pids {
                cloud.set_process_workload(*inst, *pid, w.clone())?;
            }
        }
        Ok(())
    }

    /// Runs the campaign for `duration_s` seconds against the benign
    /// `trace` starting at trace time `t0_s`, feeding the rack breaker if
    /// supplied.
    ///
    /// # Errors
    ///
    /// Propagates cloud errors. RAPL-monitor errors on masked clouds abort
    /// a synergistic campaign (the defense working); the other strategies
    /// ignore monitor failures.
    pub fn run(
        &mut self,
        cloud: &mut Cloud,
        trace: &mut DiurnalTrace,
        t0_s: u64,
        duration_s: u64,
        mut breaker: Option<&mut CircuitBreaker>,
    ) -> Result<AttackOutcome, CloudError> {
        let bill_before = cloud.bill(&self.tenant).total_usd();
        let mut series = Vec::with_capacity(duration_s as usize);
        let mut peak_w = 0.0f64;
        let mut trials = 0u32;
        let mut firing = false;
        let mut burst_left = 0u64;
        let mut cooldown_left = 0u64;
        let mut tripped_at = None;

        if matches!(self.strategy, Some(AttackStrategy::Continuous)) {
            self.set_firing(cloud, true)?;
            firing = true;
            trials = 1;
        }

        for t in 0..duration_s {
            trace.apply(cloud, t0_s + t);
            cloud.advance_secs(1);

            let aggregate_w: f64 = (0..cloud.host_count())
                .map(|h| cloud.host_power_w(HostId(h as u32)))
                .sum();
            peak_w = peak_w.max(aggregate_w);

            // The attacker's own view, summed over its observers.
            let mut estimate = Some(0.0f64);
            for obs in &self.observers {
                match self.monitor.sample_watts(cloud, *obs, t as f64) {
                    Ok(Some(w)) => estimate = estimate.map(|e| e + w),
                    Err(e) if matches!(self.strategy, Some(AttackStrategy::Synergistic { .. })) => {
                        return Err(e)
                    }
                    Ok(None) | Err(_) => estimate = None,
                }
            }

            if let Some(b) = breaker.as_deref_mut() {
                if b.step(aggregate_w, 1.0) == BreakerState::Tripped && tripped_at.is_none() {
                    tripped_at = b.tripped_at_s();
                }
            }

            // Strategy bookkeeping for the *next* second.
            match self.strategy {
                None | Some(AttackStrategy::Continuous) => {}
                Some(AttackStrategy::Periodic { period_s, burst_s }) => {
                    if firing {
                        burst_left = burst_left.saturating_sub(1);
                        if burst_left == 0 {
                            self.set_firing(cloud, false)?;
                            firing = false;
                        }
                    } else if period_s > 0 && t % period_s == 0 {
                        self.set_firing(cloud, true)?;
                        firing = true;
                        burst_left = burst_s;
                        trials += 1;
                    }
                }
                Some(AttackStrategy::Synergistic {
                    threshold_w,
                    burst_s,
                    cooldown_s,
                }) => {
                    cooldown_left = cooldown_left.saturating_sub(1);
                    if firing {
                        burst_left = burst_left.saturating_sub(1);
                        if burst_left == 0 {
                            self.set_firing(cloud, false)?;
                            firing = false;
                            cooldown_left = cooldown_s;
                        }
                    } else if cooldown_left == 0 && estimate.is_some_and(|est| est > threshold_w) {
                        self.set_firing(cloud, true)?;
                        firing = true;
                        burst_left = burst_s;
                        trials += 1;
                    }
                }
            }

            series.push(PowerSample {
                t_s: t,
                aggregate_w,
                attacker_estimate_w: estimate,
                attacking: firing,
            });
        }
        if firing {
            self.set_firing(cloud, false)?;
        }

        Ok(AttackOutcome {
            series,
            peak_w,
            trials,
            attack_cost_usd: cloud.bill(&self.tenant).total_usd() - bill_before,
            breaker_tripped_at_s: tripped_at,
        })
    }
}

/// Start of the surge window, seconds into the paper week: inside the
/// day-2 surge plateau, where benign load fluctuates with crests and
/// troughs.
pub const SURGE_WINDOW_START: u64 = 86_400 + 33_000;

/// The surge-window fleet: 8 hosts of `cfg`, warmed up for 2 s.
pub fn surge_fleet(cfg: CloudConfig, seed: u64) -> Cloud {
    let mut cloud = Cloud::new(cfg.hosts(8), seed);
    cloud.advance_secs(2);
    cloud
}

/// A calibration pass: one observer per host of `cloud` (tenant `cal`)
/// and no payload, watching `len_s` seconds of the `trace_seed` paper
/// week from `start_s`. Its estimates train the synergistic trigger
/// ([`AttackOutcome::trigger_w`]).
///
/// # Errors
///
/// Propagates launch and cloud errors; a monitor that cannot read leaves
/// the second without an estimate.
pub fn calibrate(
    mut cloud: Cloud,
    trace_seed: u64,
    start_s: u64,
    len_s: u64,
) -> Result<AttackOutcome, CloudError> {
    let mut campaign = AttackCampaign::deploy_with(&mut cloud, None, 0, "cal")?;
    let mut trace = DiurnalTrace::paper_week(trace_seed);
    campaign.run(&mut cloud, &mut trace, start_s, len_s, None)
}

/// A strike: `strategy` fired from payloads on 3 hosts of `cloud` beside
/// one observer per host (tenant `attacker`), over `len_s` seconds of the
/// `trace_seed` paper week from `start_s`, feeding `breaker` if supplied.
///
/// # Errors
///
/// As [`AttackCampaign::deploy`] and [`AttackCampaign::run`].
pub fn strike(
    mut cloud: Cloud,
    strategy: AttackStrategy,
    trace_seed: u64,
    start_s: u64,
    len_s: u64,
    breaker: Option<&mut CircuitBreaker>,
) -> Result<AttackOutcome, CloudError> {
    let mut campaign = AttackCampaign::deploy(&mut cloud, strategy, 3, "attacker")?;
    let mut trace = DiurnalTrace::paper_week(trace_seed);
    campaign.run(&mut cloud, &mut trace, start_s, len_s, breaker)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim::CloudProfile;

    fn cc1(seed: u64) -> Cloud {
        surge_fleet(CloudConfig::new(CloudProfile::CC1), seed)
    }

    const PERIODIC: AttackStrategy = AttackStrategy::Periodic {
        period_s: 300,
        burst_s: 60,
    };

    #[test]
    fn synergistic_beats_periodic_fig3() {
        // Seed chosen so the day-2 surge plateau has pronounced crests;
        // the qualitative Fig. 3 shape below holds with a wide margin.
        let seed = 43;
        let run =
            |strategy| strike(cc1(seed), strategy, seed, SURGE_WINDOW_START, 3_000, None).unwrap();
        let calibration = calibrate(cc1(seed), seed, SURGE_WINDOW_START, 3_000).unwrap();
        let periodic = run(PERIODIC);
        let synergistic = run(AttackStrategy::Synergistic {
            threshold_w: calibration.trigger_w(97).unwrap(),
            burst_s: 60,
            cooldown_s: 600,
        });

        // Fig. 3's shape: higher spike, far fewer trials, lower cost.
        assert!(
            synergistic.peak_w > periodic.peak_w + 20.0,
            "synergistic {} W vs periodic {} W",
            synergistic.peak_w,
            periodic.peak_w
        );
        assert!(periodic.trials >= 8, "periodic fired {}", periodic.trials);
        assert!(
            synergistic.trials <= 4 && synergistic.trials >= 1,
            "synergistic fired {}",
            synergistic.trials
        );
        assert!(
            synergistic.attack_cost_usd < periodic.attack_cost_usd,
            "cost {} vs {}",
            synergistic.attack_cost_usd,
            periodic.attack_cost_usd
        );
    }

    #[test]
    fn continuous_catches_peaks_but_costs_most() {
        let seed = 101;
        let run =
            |strategy| strike(cc1(seed), strategy, seed, SURGE_WINDOW_START, 1_200, None).unwrap();
        let continuous = run(AttackStrategy::Continuous);
        let periodic = run(PERIODIC);
        assert!(continuous.peak_w >= periodic.peak_w - 1.0);
        assert!(continuous.attack_cost_usd > periodic.attack_cost_usd * 2.0);
    }

    #[test]
    fn payload_bursts_add_power() {
        let mut cloud = cc1(77);
        let mut campaign = AttackCampaign::deploy(
            &mut cloud,
            AttackStrategy::Periodic {
                period_s: 100,
                burst_s: 50,
            },
            3,
            "attacker",
        )
        .unwrap();
        let mut trace = DiurnalTrace::flat(0.1, 77);
        let out = campaign.run(&mut cloud, &mut trace, 0, 200, None).unwrap();
        let on: f64 = out
            .series
            .iter()
            .filter(|s| s.attacking)
            .map(|s| s.aggregate_w)
            .sum::<f64>()
            / out.series.iter().filter(|s| s.attacking).count() as f64;
        let off: f64 = out
            .series
            .iter()
            .filter(|s| !s.attacking)
            .map(|s| s.aggregate_w)
            .sum::<f64>()
            / out.series.iter().filter(|s| !s.attacking).count() as f64;
        // 3 payloads × 4 virus cores ≈ 40 W each (Fig. 4's step height).
        assert!(
            (80.0..220.0).contains(&(on - off)),
            "burst delta {} W",
            on - off
        );
    }

    #[test]
    fn breaker_trips_only_under_the_synergistic_spike() {
        let seed = 77;
        let run = |strategy| {
            let mut breaker = CircuitBreaker::new(1_190.0).thermal_limit(8.0);
            strike(
                cc1(seed),
                strategy,
                seed,
                SURGE_WINDOW_START,
                3_000,
                Some(&mut breaker),
            )
            .unwrap()
        };
        let calibration = calibrate(cc1(seed), seed, SURGE_WINDOW_START, 3_000).unwrap();
        let periodic = run(PERIODIC);
        let synergistic = run(AttackStrategy::Synergistic {
            threshold_w: calibration.trigger_w(97).unwrap(),
            burst_s: 90,
            cooldown_s: 600,
        });
        assert!(
            periodic.breaker_tripped_at_s.is_none(),
            "periodic should not trip the oversubscribed breaker"
        );
        assert!(
            synergistic.breaker_tripped_at_s.is_some(),
            "synergistic should trip: peak {} W",
            synergistic.peak_w
        );
    }

    #[test]
    fn the_tenant_name_touches_only_billing() {
        // A strike runs as `attacker`; the same campaign deployed under
        // another name must produce the same outcome, field by field.
        let strategy = AttackStrategy::Synergistic {
            threshold_w: 540.0,
            burst_s: 90,
            cooldown_s: 300,
        };
        let breaker = || CircuitBreaker::new(1_150.0).thermal_limit(8.0);
        let (mut b1, mut b2) = (breaker(), breaker());
        let window = (SURGE_WINDOW_START, 600);
        let named = strike(cc1(77), strategy, 77, window.0, window.1, Some(&mut b1)).unwrap();
        let renamed = {
            let mut cloud = cc1(77);
            let mut campaign = AttackCampaign::deploy(&mut cloud, strategy, 3, "att").unwrap();
            let mut trace = DiurnalTrace::paper_week(77);
            campaign.run(&mut cloud, &mut trace, window.0, window.1, Some(&mut b2))
        }
        .unwrap();
        assert!(
            named.trials >= 1 && named.attack_cost_usd > 0.0,
            "{named:?}"
        );
        assert!(named.breaker_tripped_at_s.is_some(), "{named:?}");
        assert_eq!(named.series, renamed.series);
        assert_eq!(named.peak_w, renamed.peak_w);
        assert_eq!(named.trials, renamed.trials);
        assert_eq!(named.attack_cost_usd, renamed.attack_cost_usd);
        assert_eq!(named.breaker_tripped_at_s, renamed.breaker_tripped_at_s);
    }

    #[test]
    fn trigger_is_a_clamped_percentile_of_the_estimates() {
        let outcome = |estimates: &[Option<f64>]| AttackOutcome {
            series: estimates
                .iter()
                .enumerate()
                .map(|(t, e)| PowerSample {
                    t_s: t as u64,
                    aggregate_w: 0.0,
                    attacker_estimate_w: *e,
                    attacking: false,
                })
                .collect(),
            peak_w: 0.0,
            trials: 0,
            attack_cost_usd: 0.0,
            breaker_tripped_at_s: None,
        };
        // 100 estimates, 0..99 W in reverse order, and a dropout.
        let mut estimates: Vec<Option<f64>> = (0..100).rev().map(|w| Some(f64::from(w))).collect();
        estimates.insert(40, None);
        let out = outcome(&estimates);
        assert_eq!(out.trigger_w(0), Some(0.0));
        assert_eq!(out.trigger_w(97), Some(97.0));
        assert_eq!(out.trigger_w(100), Some(99.0));
        assert_eq!(outcome(&[]).trigger_w(97), None);
        assert_eq!(outcome(&[None, None]).trigger_w(100), None);
    }
}
