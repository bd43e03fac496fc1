//! `registry`: the reproduction run (`all --jobs 1`) without its three
//! 1 Hz attack loops. Every other experiment of the registry runs
//! serially, one entry at a time, with the paper's seven-day Fig. 2
//! trace. fig3, stealth and ablations are 85% of a full run and all
//! spend it in `AttackCampaign::run`, which `busy_attack` measures on
//! its own; leaving them out keeps a pass near two seconds, so a run
//! measures seven or more passes instead of one or two.

use containerleaks::experiments::{self, ExperimentFn, ExperimentResult};
use containerleaks::{render_experiments_md, DEFAULT_SEED};

use crate::spans::Spans;
use crate::{fnv, timed_op, Checked, Size, Workload, FNV_OFFSET};

/// Fig. 2 trace length, days (the committed report's setting).
const DAYS: u64 = 7;

/// The committed report the run at the default seed must reproduce.
const REFERENCE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../EXPERIMENTS.md");

/// The attack-loop experiments `busy_attack` stands in for.
const ATTACK_LOOPS: [&str; 3] = ["fig3", "stealth", "ablations"];

/// Entries of the seconds-long smoke size.
const SMOKE: [&str; 2] = ["table1", "fig4"];

/// The registry workload.
#[derive(Debug)]
pub struct Registry {
    seed: u64,
    entries: Vec<(&'static str, ExperimentFn)>,
}

/// One pass's input: the entries to run and the committed report.
#[derive(Debug)]
pub struct Plan {
    entries: Vec<(&'static str, ExperimentFn)>,
    reference: Result<String, String>,
}

/// One pass's results plus the reference they are checked against.
#[derive(Debug)]
pub struct Ran {
    results: Vec<ExperimentResult>,
    reference: Result<String, String>,
}

/// The report's body for one result, without the static appendix: the
/// section the committed report must hold verbatim.
fn section(result: &ExperimentResult, seed: u64) -> String {
    let md = render_experiments_md(std::slice::from_ref(result), seed);
    let start = md.find("\n## ").map_or(0, |i| i + 1);
    let end = md.find("## Appendix").unwrap_or(md.len());
    md[start..end].to_string()
}

impl Workload for Registry {
    type Input = Plan;
    type Output = Ran;

    fn new(seed: u64, size: Size) -> Self {
        let entries = experiments::EXPERIMENTS
            .iter()
            .copied()
            .filter(|(id, _)| match size {
                Size::Full => !ATTACK_LOOPS.contains(id),
                Size::Smoke => SMOKE.contains(id),
            })
            .collect();
        Registry { seed, entries }
    }

    fn setup(&self, _traced: bool) -> Plan {
        Plan {
            entries: self.entries.clone(),
            reference: std::fs::read_to_string(REFERENCE).map_err(|e| format!("{REFERENCE}: {e}")),
        }
    }

    fn run(&self, plan: Plan, ops_ms: &mut Vec<f64>, spans: &mut Spans) -> Ran {
        let mut results = Vec::with_capacity(plan.entries.len());
        for entry in &plan.entries {
            let r = timed_op(ops_ms, || {
                spans.time(format!("core.exp.{}", entry.0), || {
                    experiments::run_entries_with(
                        std::slice::from_ref(entry),
                        self.seed,
                        DAYS,
                        1,
                        |_, _| {},
                    )
                })
            });
            results.extend(r);
        }
        Ran {
            results,
            reference: plan.reference,
        }
    }

    fn check(&self, out: &Ran) -> Checked {
        let mut c = Checked {
            digest: FNV_OFFSET,
            ..Checked::default()
        };
        let reference = match &out.reference {
            Ok(text) => text,
            Err(e) => {
                c.failures.push(e.clone());
                return c;
            }
        };
        // At every seed each experiment runs without error under the
        // section heading the committed report gives it. At the seed the
        // report was generated with, each section is the report's,
        // byte for byte.
        for r in &out.results {
            c.attempted += 1;
            if let Some(e) = &r.error {
                c.failures.push(format!("{}: {e}", r.id));
            }
            if !reference.contains(&format!("\n## {} (`{}`)\n", r.title, r.id)) {
                c.failures
                    .push(format!("{}: heading not in EXPERIMENTS.md", r.id));
            }
            if self.seed == DEFAULT_SEED && !reference.contains(&section(r, self.seed)) {
                c.failures
                    .push(format!("{}: section differs from EXPERIMENTS.md", r.id));
            }
            fnv(&mut c.digest, r.rendered.as_bytes());
        }
        c
    }
}
