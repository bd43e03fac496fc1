//! `leakcheck` — the static leakage auditor as a standalone tool.
//!
//! Tokenizes the pseudo-filesystem handler sources, classifies every
//! registered channel on the namespace-blindness lattice, derives each
//! channel's subsystem flow masks from the same analysis, and lints the
//! simulation crates for determinism hazards. A hazard or a declared
//! dependency mask missing a derived bit always exits non-zero.
//! Agreement with the dynamic differential scan is gated by
//! `tests/static_dynamic_agreement.rs`, not here.
//!
//! ```sh
//! cargo run --release -p containerleaks-experiments --bin leakcheck
//! cargo run --release -p containerleaks-experiments --bin leakcheck -- --check
//! cargo run --release -p containerleaks-experiments --bin leakcheck -- --write
//! ```
//!
//! Flags (an unknown one exits 2):
//! * `--json`   emit the machine-readable report instead of the table
//! * `--check`  compare against the committed `leakcheck.json` snapshot
//!   and exit non-zero on drift (the `ci.sh` gate)
//! * `--write`  regenerate the committed snapshot in place

use std::process::ExitCode;

use containerleaks::leakcheck;

const SNAPSHOT: &str = "leakcheck.json";
const FLAGS: &[&str] = &["--json", "--check", "--write"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = args.iter().find(|a| !FLAGS.contains(&a.as_str())) {
        eprintln!(
            "leakcheck: unknown argument `{bad}` (flags: {})",
            FLAGS.join(", ")
        );
        return ExitCode::from(2);
    }
    let has = |f: &str| args.iter().any(|a| a == f);

    let report = match leakcheck::audit() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("leakcheck: audit failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    for h in &report.hazards {
        eprintln!(
            "leakcheck: determinism hazard in {}::{}: {}",
            h.file, h.function, h.detail
        );
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
    if !report.hazards.is_empty() || !report.flow.missing.is_empty() {
        return ExitCode::FAILURE;
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
