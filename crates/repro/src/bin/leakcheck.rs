//! `leakcheck` — the static leakage auditor as a standalone tool.
//!
//! Tokenizes the pseudo-filesystem handler sources, classifies every
//! registered channel on the namespace-blindness lattice, lints the
//! simulation crates for determinism hazards, and (by default) joins
//! the result against a dynamic differential scan to prove the two
//! analyses agree.
//!
//! ```sh
//! cargo run --release -p containerleaks-experiments --bin leakcheck
//! cargo run --release -p containerleaks-experiments --bin leakcheck -- --check
//! cargo run --release -p containerleaks-experiments --bin leakcheck -- --write
//! ```
//!
//! Flags:
//! * `--json`   emit the machine-readable report instead of the table
//! * `--check`  compare against the committed `leakcheck.json` snapshot
//!   and exit non-zero on drift (the `ci.sh` gate)
//! * `--write`  regenerate the committed snapshot in place
//! * `--static-only`  skip the dynamic agreement join
//! * `--deny-missing-dep`  exit non-zero when any route's declared
//!   dependency mask is missing an interprocedurally derived bit (a
//!   proved missing-dependency-bit finding: the bytes can change while
//!   the declared epochs stand still); unreviewed extra bits always warn

use std::process::ExitCode;

use containerleaks::leakcheck;
use containerleaks::leakscan::{agreement, Lab};

const SNAPSHOT: &str = "leakcheck.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let has = |f: &str| args.iter().any(|a| a == f);

    let report = match leakcheck::audit() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("leakcheck: audit failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    if !report.hazards.is_empty() {
        for h in &report.hazards {
            eprintln!(
                "leakcheck: determinism hazard in {}::{}: {}",
                h.file, h.function, h.detail
            );
        }
        return ExitCode::FAILURE;
    }

    for m in &report.flow.missing {
        eprintln!(
            "leakcheck: declared mask for {} ({}) is missing derived \
             dependency bits [{}] — its epochs miss changes to those subsystems",
            m.pattern,
            m.handler,
            m.bits.join(", ")
        );
    }
    for x in report.flow.extra.iter().filter(|x| x.allowed.is_none()) {
        eprintln!(
            "leakcheck: warning: declared mask for {} ({}) carries \
             underivable bits [{}] (needless re-reads; allowlist or tighten)",
            x.pattern,
            x.handler,
            x.bits.join(", ")
        );
    }
    if has("--deny-missing-dep") && !report.flow.missing.is_empty() {
        eprintln!(
            "leakcheck: --deny-missing-dep: {} declared mask(s) missing \
             derived bits",
            report.flow.missing.len()
        );
        return ExitCode::FAILURE;
    }

    if !has("--static-only") {
        let lab = Lab::new(1, containerleaks::DEFAULT_SEED);
        let host = lab.host(0);
        let rows = agreement::check(&host.kernel, &host.container_view(), &report);
        let bad = agreement::disagreements(&rows);
        if !bad.is_empty() {
            for r in &bad {
                eprintln!(
                    "leakcheck: disagreement on {} ({}): static {} predicts \
                     {:?}, scanner saw {:?}",
                    r.path, r.handler, r.static_verdict, r.predicted, r.dynamic
                );
            }
            return ExitCode::FAILURE;
        }
        eprintln!(
            "leakcheck: static and dynamic verdicts agree on {} paths \
             ({} allowlisted)",
            rows.len(),
            rows.iter().filter(|r| r.allowlisted).count()
        );
    }

    let snapshot_path = leakcheck::workspace_root().join(SNAPSHOT);
    if has("--write") {
        if let Err(e) = std::fs::write(&snapshot_path, report.to_json()) {
            eprintln!("leakcheck: write {}: {e}", snapshot_path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("leakcheck: wrote {}", snapshot_path.display());
        return ExitCode::SUCCESS;
    }
    if has("--check") {
        let expected = match std::fs::read_to_string(&snapshot_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!(
                    "leakcheck: read {}: {e} (regenerate with --write)",
                    snapshot_path.display()
                );
                return ExitCode::FAILURE;
            }
        };
        let diff = leakcheck::diff_lines(&expected, &report.to_json());
        if !diff.is_empty() {
            eprintln!(
                "leakcheck: snapshot {} is stale (regenerate with --write \
                 and review the verdict changes):",
                SNAPSHOT
            );
            for d in &diff {
                eprintln!("  {d}");
            }
            return ExitCode::FAILURE;
        }
        eprintln!("leakcheck: snapshot is current");
        return ExitCode::SUCCESS;
    }

    if has("--json") {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.human_table());
    }
    ExitCode::SUCCESS
}
