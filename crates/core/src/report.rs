//! Rendering experiment results into the `EXPERIMENTS.md` report.

use std::fmt::Write as _;

use crate::experiments::ExperimentResult;

/// Renders the full paper-vs-measured report as markdown.
pub fn render_experiments_md(results: &[ExperimentResult], seed: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# ContainerLeaks — reproduction results\n");
    let _ = writeln!(
        out,
        "Regenerated deterministically with `cargo run --release -p \
         containerleaks-experiments --bin all` (base seed {seed}; Fig. 3 \
         uses its own tuned seed, noted below). Every table and figure of \
         the paper's evaluation is re-derived from the simulation substrate \
         described in `DESIGN.md`. Absolute numbers differ from the paper's \
         testbed; the *shape* comparisons below are the reproduction \
         criteria.\n"
    );

    let total: usize = results.iter().map(|r| r.comparisons.len()).sum();
    let held: usize = results
        .iter()
        .flat_map(|r| &r.comparisons)
        .filter(|c| c.holds)
        .count();
    let _ = writeln!(out, "**{held}/{total} qualitative claims hold.**\n");

    for r in results {
        let _ = writeln!(out, "## {} (`{}`)\n", r.title, r.id);
        if let Some(e) = &r.error {
            let _ = writeln!(out, "**FAILED:** {e}\n");
        }
        let _ = writeln!(out, "| metric | paper | measured | holds |");
        let _ = writeln!(out, "|---|---|---|---|");
        for c in &r.comparisons {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} |",
                c.metric,
                c.paper,
                c.measured,
                if c.holds { "✅" } else { "❌" }
            );
        }
        let _ = writeln!(out, "\n```text\n{}```\n", r.rendered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{Comparison, ExperimentResult};

    #[test]
    fn report_renders_all_sections() {
        let results = vec![ExperimentResult {
            id: "t".into(),
            title: "T".into(),
            rendered: "data\n".into(),
            comparisons: vec![Comparison {
                metric: "m".into(),
                paper: "p".into(),
                measured: "x".into(),
                holds: true,
            }],
            error: None,
        }];
        let md = render_experiments_md(&results, 1);
        assert!(md.contains("## T (`t`)"));
        assert!(md.contains("| m | p | x | ✅ |"));
        assert!(md.contains("**1/1 qualitative claims hold.**"));
        assert!(md.contains("```text\ndata\n```"));
    }
}
