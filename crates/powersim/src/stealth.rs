//! Provider-side detectability of power attacks (§IV-B).
//!
//! The paper's first argument against continuous attacks: "it is not
//! stealthy. To launch a power attack, the attacker needs to run
//! power-intensive workloads. Such behavior has obvious patterns and could
//! be easily detected by cloud providers." This module is that provider:
//! a simple utilization-profile anomaly detector that flags tenants whose
//! CPU usage is implausibly sustained. The synergistic attacker — bursting
//! rarely, and only when everyone else is busy too — slips under it.

use serde::{Deserialize, Serialize};

/// A tenant's per-interval CPU utilization trace, as the provider's
/// metering pipeline sees it (fraction of allotted vCPUs in use).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UtilizationTrace {
    /// Utilization samples in `[0, 1]`, one per metering interval.
    pub samples: Vec<f64>,
}

impl UtilizationTrace {
    /// Builds a trace from an attack campaign's per-second attack state:
    /// the payload consumes its full allotment while firing and nothing
    /// while dormant (observer reads are free).
    pub fn from_attack_series(attacking: &[bool], interval_s: usize) -> Self {
        let samples = attacking
            .chunks(interval_s.max(1))
            .map(|c| c.iter().filter(|a| **a).count() as f64 / c.len() as f64)
            .collect();
        UtilizationTrace { samples }
    }

    /// Mean utilization.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Longest run of consecutive intervals above `level`.
    pub fn longest_high_run(&self, level: f64) -> usize {
        let mut best = 0;
        let mut cur = 0;
        for s in &self.samples {
            if *s > level {
                cur += 1;
                best = best.max(cur);
            } else {
                cur = 0;
            }
        }
        best
    }
}

/// The provider's anomaly thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StealthPolicy {
    /// Flag tenants whose mean utilization exceeds this (sustained-load
    /// profile — a power virus, a miner, a stressor).
    pub mean_threshold: f64,
    /// Flag tenants pegged above 90 % for more than this many consecutive
    /// metering intervals.
    pub max_high_run: usize,
}

impl Default for StealthPolicy {
    fn default() -> Self {
        StealthPolicy {
            mean_threshold: 0.75,
            max_high_run: 20,
        }
    }
}

/// The provider's verdict on a tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StealthVerdict {
    /// Utilization profile looks like ordinary tenant load.
    Unremarkable,
    /// Sustained power-intensive profile: flagged for review.
    Flagged,
}

/// Classifies a tenant's trace.
pub fn classify(trace: &UtilizationTrace, policy: &StealthPolicy) -> StealthVerdict {
    if trace.mean() > policy.mean_threshold || trace.longest_high_run(0.9) > policy.max_high_run {
        StealthVerdict::Flagged
    } else {
        StealthVerdict::Unremarkable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{strike, surge_fleet, AttackStrategy, SURGE_WINDOW_START};
    use cloudsim::{CloudConfig, CloudProfile};

    /// The payload's duty cycle over a 3000 s surge-window strike, in
    /// 60 s metering intervals.
    fn duty(strategy: AttackStrategy) -> UtilizationTrace {
        let fleet = surge_fleet(CloudConfig::new(CloudProfile::CC1), 77);
        let out = strike(fleet, strategy, 77, SURGE_WINDOW_START, 3_000, None).unwrap();
        let attacking: Vec<bool> = out.series.iter().map(|s| s.attacking).collect();
        UtilizationTrace::from_attack_series(&attacking, 60)
    }

    #[test]
    fn continuous_attack_is_flagged_synergistic_is_not() {
        let policy = StealthPolicy::default();
        let continuous = duty(AttackStrategy::Continuous);
        assert_eq!(classify(&continuous, &policy), StealthVerdict::Flagged);
        assert!(continuous.mean() > 0.95);

        // Calibrate a synergistic trigger like the Fig. 3 experiment does.
        let synergistic = duty(AttackStrategy::Synergistic {
            threshold_w: 560.0,
            burst_s: 90,
            cooldown_s: 600,
        });
        assert_eq!(
            classify(&synergistic, &policy),
            StealthVerdict::Unremarkable
        );
        assert!(synergistic.mean() < 0.15, "mean {}", synergistic.mean());
    }

    #[test]
    fn periodic_attack_sits_between() {
        let policy = StealthPolicy::default();
        let periodic = duty(AttackStrategy::Periodic {
            period_s: 300,
            burst_s: 60,
        });
        // Not sustained enough to flag, but costlier and noisier than the
        // synergistic profile (20 % duty vs < 10 %).
        assert_eq!(classify(&periodic, &policy), StealthVerdict::Unremarkable);
        assert!(periodic.mean() > 0.15);
    }

    #[test]
    fn trace_statistics() {
        let t = UtilizationTrace {
            samples: vec![0.0, 1.0, 1.0, 1.0, 0.2, 1.0],
        };
        assert!((t.mean() - 0.7).abs() < 1e-9);
        assert_eq!(t.longest_high_run(0.9), 3);
        let empty = UtilizationTrace { samples: vec![] };
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.longest_high_run(0.5), 0);
    }

    #[test]
    fn from_series_buckets_duty_cycle() {
        let mut attacking = vec![false; 100];
        for a in attacking.iter_mut().take(30) {
            *a = true;
        }
        let t = UtilizationTrace::from_attack_series(&attacking, 10);
        assert_eq!(t.samples.len(), 10);
        assert!((t.mean() - 0.3).abs() < 1e-9);
    }
}
