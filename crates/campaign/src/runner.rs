//! The campaign runner: sweeps seed-derived scenarios across a scoped
//! fan-out with per-scenario panic isolation, and shrinks failures.

use std::panic::{catch_unwind, AssertUnwindSafe};

use simkernel::parallel::par_for_each_mut_threads;

use crate::oracles::{self, Violation};
use crate::outcome::{CampaignOutcome, CampaignReport, Status};
use crate::scenario::{Overrides, Scenario};
use crate::shrink;

/// A test-fixture oracle violation: fires whenever the effective
/// scenario meets every threshold. It exists so the shrinking pipeline
/// can be exercised (and CI-gated) deterministically — the shrinker must
/// land exactly on these thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedViolation {
    /// Fires only when the scenario has at least this many hosts.
    pub min_hosts: usize,
    /// … and at least this many tenants.
    pub min_tenants: usize,
    /// … and at least this many churn cycles.
    pub min_churn: u32,
}

/// What to sweep and how.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Seeds to derive scenarios from.
    pub seeds: Vec<u64>,
    /// Worker threads for the sweep (scenarios are independent).
    pub jobs: usize,
    /// Overrides applied to every scenario (repro / CI pinning).
    pub overrides: Overrides,
    /// Whether to shrink failing scenarios.
    pub shrink: bool,
    /// When set, the real oracles are replaced by this deterministic
    /// fixture (shrinker self-test).
    pub injected: Option<InjectedViolation>,
}

impl CampaignConfig {
    /// A sweep over `count` consecutive seeds starting at `start`.
    pub fn sweep(start: u64, count: usize) -> Self {
        CampaignConfig {
            seeds: (start..start + count as u64).collect(),
            jobs: 1,
            overrides: Overrides::default(),
            shrink: true,
            injected: None,
        }
    }

    /// Sets the worker-thread count.
    #[must_use]
    pub fn jobs(mut self, n: usize) -> Self {
        self.jobs = n.max(1);
        self
    }

    /// Applies `overrides` to every scenario in the sweep.
    #[must_use]
    pub fn overrides(mut self, o: Overrides) -> Self {
        self.overrides = o;
        self
    }

    /// Enables or disables shrinking of failures.
    #[must_use]
    pub fn shrink(mut self, on: bool) -> Self {
        self.shrink = on;
        self
    }

    /// Installs the injected-violation fixture.
    #[must_use]
    pub fn inject(mut self, v: InjectedViolation) -> Self {
        self.injected = Some(v);
        self
    }
}

fn check_scenario(
    seed: u64,
    overrides: &Overrides,
    injected: Option<&InjectedViolation>,
) -> Option<Violation> {
    let sc = Scenario::derive(seed).with(overrides);
    if let Some(inj) = injected {
        return (sc.hosts >= inj.min_hosts
            && sc.tenants >= inj.min_tenants
            && sc.churn_cycles >= inj.min_churn)
            .then(|| {
                Violation::new(
                    "injected",
                    format!(
                        "fixture fired at {}h/{}t churn={}",
                        sc.hosts, sc.tenants, sc.churn_cycles
                    ),
                )
            });
    }
    oracles::check_all(&sc).err()
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs the scenario once with panic isolation: `Ok(None)` green,
/// `Ok(Some(v))` an oracle violation, `Err(msg)` a caught panic.
fn probe(
    seed: u64,
    overrides: &Overrides,
    injected: Option<&InjectedViolation>,
) -> Result<Option<Violation>, String> {
    catch_unwind(AssertUnwindSafe(|| {
        check_scenario(seed, overrides, injected)
    }))
    .map_err(panic_message)
}

/// Runs the campaign: every seed's scenario across `cfg.jobs` lanes,
/// panics caught per scenario, failures shrunk (when enabled) to a
/// minimal seed-plus-overrides with a copy-pasteable repro command.
pub fn run(cfg: &CampaignConfig) -> CampaignReport {
    // Each outcome starts as a pass; the fan-out returns only once every
    // scenario has run and recorded what its probe found.
    let mut outcomes: Vec<CampaignOutcome> = cfg
        .seeds
        .iter()
        .map(|&seed| CampaignOutcome::new(seed, cfg.overrides, Status::Passed))
        .collect();
    let check = |seed: u64, o: &Overrides| -> Option<Violation> {
        match probe(seed, o, cfg.injected.as_ref()) {
            Ok(v) => v,
            Err(msg) => Some(Violation::new("panic", msg)),
        }
    };

    par_for_each_mut_threads(&mut outcomes, cfg.jobs, |outcome| {
        // The catch_unwind lives *inside* the closure: the fan-out
        // re-raises item panics, so isolation must happen first.
        let probed = probe(outcome.seed, &cfg.overrides, cfg.injected.as_ref());
        simtrace::counters::add("campaign.scenarios", 1);
        let initial = match probed {
            Ok(None) => return,
            Ok(Some(v)) => {
                simtrace::counters::add("campaign.violations", 1);
                outcome.status = Status::Violated {
                    oracle: v.oracle.to_string(),
                    detail: v.detail.clone(),
                };
                v
            }
            Err(msg) => {
                simtrace::counters::add("campaign.panics", 1);
                outcome.status = Status::Panicked {
                    message: msg.clone(),
                };
                Violation::new("panic", msg)
            }
        };
        if cfg.shrink {
            let report = shrink::shrink(outcome.seed, cfg.overrides, &initial, &check);
            simtrace::counters::add("campaign.shrink_attempts", report.attempts.into());
            outcome.repro = report.repro.clone();
            outcome.shrink = Some(report);
        }
    });

    CampaignReport { outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injected_violation_is_caught_and_shrunk_to_thresholds() {
        let inj = InjectedViolation {
            min_hosts: 2,
            min_tenants: 2,
            min_churn: 4,
        };
        // Force the starting scenario above every threshold so the
        // fixture fires regardless of what the seed derives.
        let start = Overrides {
            hosts: Some(4),
            tenants: Some(5),
            churn_cycles: Some(20),
            faults: None,
        };
        let report = run(&CampaignConfig {
            seeds: vec![1234],
            jobs: 1,
            overrides: start,
            shrink: true,
            injected: Some(inj),
        });
        let o = &report.outcomes[0];
        assert!(matches!(&o.status, Status::Violated { oracle, .. } if oracle == "injected"));
        let s = o.shrink.as_ref().expect("shrunk");
        let minimal = Scenario::derive(1234).with(&s.minimal);
        assert_eq!(minimal.hosts, 2);
        assert_eq!(minimal.tenants, 2);
        assert_eq!(minimal.churn_cycles, 4);
        assert!(o.repro.contains("--hosts 2"));
        assert!(o.repro.contains("--tenants 2"));
        assert!(o.repro.contains("--churn 4"));
    }

    #[test]
    fn jobs_do_not_change_the_report() {
        let inj = InjectedViolation {
            min_hosts: 3,
            min_tenants: 1,
            min_churn: 0,
        };
        let mk = |jobs| run(&CampaignConfig::sweep(0, 12).jobs(jobs).inject(inj));
        assert_eq!(mk(1), mk(4));
    }
}
