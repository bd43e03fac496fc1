//! Runs the fault-injection matrix and writes `FAULTS.md` plus its
//! `.json` companion (same CLI as `all`, minus `--days`).
//!
//! Every scenario is a pure function of the seed — fault schedules
//! included — so the artifacts, the trace included, are byte-identical
//! for any `--jobs`. Exits 1 if any claim fails.

fn main() -> std::process::ExitCode {
    containerleaks_experiments::run_cli(&containerleaks_experiments::FAULT_MATRIX)
}
