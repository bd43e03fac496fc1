//! Campaign results: per-scenario outcomes and the sweep-level report.

use crate::scenario::{Overrides, Scenario};
use crate::shrink::ShrinkReport;

/// How one scenario ended.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub enum Status {
    /// Every oracle held.
    Passed,
    /// An oracle failed.
    Violated {
        /// Which oracle.
        oracle: String,
        /// What broke.
        detail: String,
    },
    /// The scenario driver panicked (caught; the sweep kept running).
    Panicked {
        /// The panic payload, stringified.
        message: String,
    },
}

/// The structured result of one scenario: always carries the seed and a
/// copy-pasteable repro command, so any failure line is actionable on
/// its own.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct CampaignOutcome {
    /// The scenario's defining seed.
    pub seed: u64,
    /// Overrides in force (empty for a plain sweep).
    pub overrides: Overrides,
    /// One-line derived-dimension summary.
    pub scenario: String,
    /// Pass / violation / panic.
    pub status: Status,
    /// Exact command reproducing this scenario.
    pub repro: String,
    /// Shrinking result, when the scenario failed and shrinking ran.
    pub shrink: Option<ShrinkReport>,
}

impl CampaignOutcome {
    pub(crate) fn new(seed: u64, overrides: Overrides, status: Status) -> Self {
        CampaignOutcome {
            seed,
            overrides,
            scenario: Scenario::derive(seed).with(&overrides).summary(),
            status,
            repro: Scenario::repro_command(seed, &overrides),
            shrink: None,
        }
    }

    /// Whether every oracle held.
    pub fn passed(&self) -> bool {
        matches!(self.status, Status::Passed)
    }
}

/// A whole sweep's results.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct CampaignReport {
    /// Per-scenario outcomes, in seed order.
    pub outcomes: Vec<CampaignOutcome>,
}

impl CampaignReport {
    /// Scenarios where every oracle held.
    pub fn passed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.passed()).count()
    }

    /// Scenarios that failed an oracle.
    pub fn violations(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.status, Status::Violated { .. }))
            .count()
    }

    /// Scenarios whose driver panicked.
    pub fn panics(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.status, Status::Panicked { .. }))
            .count()
    }

    /// Whether the whole sweep is green.
    pub fn all_green(&self) -> bool {
        self.passed() == self.outcomes.len()
    }

    /// Renders the markdown report (sweep table plus a failure section
    /// with repro commands and shrink results).
    pub fn render_md(&self) -> String {
        let mut md = String::new();
        md.push_str("# Campaign sweep\n\n");
        md.push_str(&format!(
            "{} scenarios: {} passed, {} oracle violations, {} panics.\n\n",
            self.outcomes.len(),
            self.passed(),
            self.violations(),
            self.panics(),
        ));
        md.push_str("| seed | scenario | overrides | status |\n");
        md.push_str("|------|----------|-----------|--------|\n");
        for o in &self.outcomes {
            let status = match &o.status {
                Status::Passed => "pass".to_string(),
                Status::Violated { oracle, .. } => format!("VIOLATED ({oracle})"),
                Status::Panicked { .. } => "PANICKED".to_string(),
            };
            md.push_str(&format!(
                "| {} | {} | {} | {} |\n",
                o.seed,
                o.scenario,
                o.overrides.summary(),
                status,
            ));
        }
        let failures: Vec<&CampaignOutcome> =
            self.outcomes.iter().filter(|o| !o.passed()).collect();
        if !failures.is_empty() {
            md.push_str("\n## Failures\n");
            for o in failures {
                md.push_str(&format!("\n### seed {}\n\n", o.seed));
                match &o.status {
                    Status::Violated { oracle, detail } => {
                        md.push_str(&format!("- oracle: `{oracle}`\n- detail: {detail}\n"));
                    }
                    Status::Panicked { message } => {
                        md.push_str(&format!("- panic: {message}\n"));
                    }
                    Status::Passed => {}
                }
                md.push_str(&format!("- repro: `{}`\n", o.repro));
                if let Some(s) = &o.shrink {
                    md.push_str(&format!(
                        "- shrunk after {} attempts to: `{}`\n",
                        s.attempts, s.repro,
                    ));
                }
            }
        }
        md
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_and_renders_failures() {
        let report = CampaignReport {
            outcomes: vec![
                CampaignOutcome::new(1, Overrides::default(), Status::Passed),
                CampaignOutcome::new(
                    2,
                    Overrides::default(),
                    Status::Violated {
                        oracle: "mode-invariance".to_string(),
                        detail: "digest diverged".to_string(),
                    },
                ),
            ],
        };
        assert_eq!(report.passed(), 1);
        assert_eq!(report.violations(), 1);
        assert!(!report.all_green());
        let md = report.render_md();
        assert!(md.contains("VIOLATED (mode-invariance)"));
        assert!(md.contains("--seed 2"));
        // The whole report serializes (the bin writes a JSON companion).
        let json = serde_json::to_string(&report).expect("serializable");
        assert!(json.contains("mode-invariance"));
    }
}
