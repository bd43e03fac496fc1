//! `campaign`: the scenario fuzzer's oracles. All six metamorphic
//! oracles run on each of forty scenarios, each behind its own panic
//! guard, without stopping at the first violation. The oracles create
//! and destroy containers and namespaces at a high rate beside
//! full-surface pseudo-file reads — the write-beside-read use of the
//! layers `busy_attack` only reads.
//!
//! Scenario `i` keeps the dimensions `Scenario::derive(i)` gives it
//! (fleet size, tenants, churn cycles, transcript steps, modes, ...) and
//! takes its seed — which every random draw inside the oracles comes
//! from — from `--seed`. A window of freshly derived scenarios would
//! swing a pass's cost by about ten percent from one seed to the next
//! (churn cycles alone range over 0..=24); fixing the dimensions keeps
//! the work comparable while the seed still changes every input.
//!
//! Scenario `jobs` is clamped to the CPUs the process may use (one once
//! it is pinned); the mode- and shard-invariance oracles still replay at
//! their own fixed `jobs = 4`, which is part of each oracle's definition.

use std::panic::{catch_unwind, AssertUnwindSafe};

use containerleaks::campaign::oracles;
use containerleaks::campaign::{Scenario, Violation};

use crate::spans::Spans;
use crate::{fnv, splitmix, timed_op, Checked, Size, Workload, FNV_OFFSET};

type Oracle = fn(&Scenario) -> Result<(), Violation>;

/// Scenarios per pass: about thirteen seconds on one CPU of the
/// reference box. The oracles draw everything from the scenario seed,
/// so one scenario's cost moves by about a fifth from seed to seed;
/// forty of them keep a pass's cost within a few percent at every seed.
const SCENARIOS: u64 = 40;

/// Every campaign oracle, in `check_all` order, with its span name.
const ORACLES: [(&str, Oracle); 6] = [
    ("campaign.mask_monotonic", oracles::mask_monotonic),
    ("campaign.mode_invariance", oracles::mode_invariance),
    ("campaign.shard_invariance", oracles::shard_invariance),
    ("campaign.power_monotone", oracles::power_monotone),
    ("campaign.churn_soundness", oracles::churn_soundness),
    ("campaign.detector_soundness", oracles::detector_soundness),
];

/// The campaign workload.
#[derive(Debug)]
pub struct Campaign {
    seed: u64,
    count: u64,
    cores: usize,
}

/// Every oracle's verdict on every scenario, in run order.
#[derive(Debug, Default)]
pub struct Verdicts {
    /// `(scenario seed, oracle, failure)`; `None` when the relation held.
    rows: Vec<(u64, &'static str, Option<String>)>,
}

impl Workload for Campaign {
    type Input = Vec<Scenario>;
    type Output = Verdicts;

    fn new(seed: u64, size: Size) -> Self {
        let count = match size {
            Size::Full => SCENARIOS,
            Size::Smoke => 2,
        };
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        Campaign { seed, count, cores }
    }

    fn setup(&self, _traced: bool) -> Vec<Scenario> {
        let mut state = self.seed;
        (0..self.count)
            .map(|i| {
                let mut sc = Scenario::derive(i);
                sc.seed = splitmix(&mut state);
                sc.jobs = sc.jobs.min(self.cores);
                sc
            })
            .collect()
    }

    fn run(&self, scenarios: Vec<Scenario>, ops_ms: &mut Vec<f64>, spans: &mut Spans) -> Verdicts {
        let mut v = Verdicts::default();
        for sc in &scenarios {
            timed_op(ops_ms, || {
                spans.enter("bench.campaign.scenario");
                for (name, oracle) in ORACLES {
                    let got = spans.time(name, || catch_unwind(AssertUnwindSafe(|| oracle(sc))));
                    let failure = match got {
                        Ok(Ok(())) => None,
                        Ok(Err(violation)) => {
                            Some(format!("{}: {}", violation.oracle, violation.detail))
                        }
                        Err(_) => Some("panicked".to_string()),
                    };
                    v.rows.push((sc.seed, name, failure));
                }
                spans.exit();
            });
        }
        v
    }

    fn check(&self, out: &Verdicts) -> Checked {
        let mut c = Checked {
            digest: FNV_OFFSET,
            ..Checked::default()
        };
        for (seed, oracle, failure) in &out.rows {
            c.attempted += 1;
            fnv(&mut c.digest, &seed.to_le_bytes());
            fnv(&mut c.digest, oracle.as_bytes());
            if let Some(f) = failure {
                fnv(&mut c.digest, f.as_bytes());
                c.failures.push(format!("seed {seed} {oracle}: {f}"));
            }
        }
        c
    }
}
