//! Runs every experiment and (re)writes `EXPERIMENTS.md` plus its `.json`
//! companion; `--only <id>[,<id>...]` runs a subset (one figure, one
//! table, or a panic repro) and writes no report unless `--out` is given.
//!
//! Flags: see the crate docs (`--seed`, `--days`, `--jobs`, `--only`,
//! `--out`, `--trace`, `--counters`, `--json`, `--coalesce`,
//! `--shards`). Every driver is a pure function of the seed, so the
//! artifacts — the trace included, modulo its mode-exempt group — are
//! byte-identical for any `--jobs` and any execution mode. Exits 1 if
//! any claim fails.

fn main() -> std::process::ExitCode {
    containerleaks_experiments::run_cli(&containerleaks_experiments::EXPERIMENTS)
}
