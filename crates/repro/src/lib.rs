//! The experiment CLI shared by the `all` and `fault_matrix` binaries,
//! plus the `campaign` binary's parser ([`campaign_cli`]) and the report
//! and trace plumbing it reuses.
//!
//! Flags (both binaries): `--seed <u64>` (default
//! [`containerleaks::DEFAULT_SEED`]), `--jobs <n>` worker threads
//! (default = available cores; `--jobs 1` runs in registry order),
//! `--only <id>[,<id>...]` to run a subset of the registry, `--out
//! <path>` for the markdown report (a `.json` companion lands next to
//! it), `--trace <path>` to write the deterministic JSONL trace,
//! `--counters` to print the counter and sim-time profile summary,
//! and `--json` to print each result as JSON instead of text. `all` also
//! takes `--days <n>`, the Fig. 2 trace length (default 7). An unknown
//! flag or a bad value exits 2.
//!
//! Runs always coalesce quiescent ticks; there is no mode flag. The
//! test `tests/mode_matrix.rs` holds every artifact byte-identical
//! across worker counts, and the differential tests (DESIGN §4.9) hold
//! coalescing to its tick-stepped reference.

use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use containerleaks::experiments::{run_entries_with, ExperimentFn};
use containerleaks::simtrace;
use containerleaks::ExperimentResult;

pub mod benchgate;
pub mod campaign_cli;

/// A registry the shared CLI runs.
#[derive(Debug, Clone, Copy)]
pub struct Suite {
    /// The entries, in report order.
    entries: &'static [(&'static str, ExperimentFn)],
    /// The report written when neither `--out` nor `--only` is given.
    default_out: &'static str,
    /// Whether the suite takes `--days` (only the Fig. 2 driver reads it).
    takes_days: bool,
}

/// Every table and figure of the paper, plus the extensions.
pub const EXPERIMENTS: Suite = Suite {
    entries: containerleaks::experiments::EXPERIMENTS,
    default_out: "EXPERIMENTS.md",
    takes_days: true,
};

/// The fault-injection matrix.
pub const FAULT_MATRIX: Suite = Suite {
    entries: containerleaks::FAULT_MATRIX,
    default_out: "FAULTS.md",
    takes_days: false,
};

/// A parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Cli {
    /// Base seed.
    seed: u64,
    /// Fig. 2 trace length in days.
    days: u64,
    /// Worker threads.
    jobs: usize,
    /// The registry subset to run, if not all of it.
    only: Option<Vec<String>>,
    /// Explicit report path.
    out: Option<String>,
    /// JSONL trace path.
    trace: Option<String>,
    /// Print the counter and profile summary.
    counters: bool,
    /// Print results as JSON.
    json: bool,
}

fn value<T: FromStr>(flag: &str, v: Option<&String>, expected: &str) -> Result<T, String> {
    let v = v.ok_or_else(|| format!("{flag} needs a value ({expected})"))?;
    v.parse()
        .map_err(|_| format!("{flag} takes {expected}, got `{v}`"))
}

fn on_off(flag: &str, v: Option<&String>) -> Result<bool, String> {
    match v.map(String::as_str) {
        Some("on") => Ok(true),
        Some("off") => Ok(false),
        _ => Err(format!("{flag} takes `on` or `off`")),
    }
}

impl Cli {
    /// Parses `args` (without the program name) for `suite`.
    ///
    /// # Errors
    ///
    /// A message naming the unknown flag, the bad value, or the unknown
    /// `--only` id.
    fn parse(suite: &Suite, args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            seed: containerleaks::DEFAULT_SEED,
            days: 7,
            jobs: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            only: None,
            out: None,
            trace: None,
            counters: false,
            json: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let f = flag.as_str();
            match f {
                "--seed" => cli.seed = value(f, it.next(), "a u64")?,
                "--days" if suite.takes_days => cli.days = value(f, it.next(), "a day count")?,
                "--jobs" => {
                    cli.jobs = value(f, it.next(), "a worker count ≥ 1")?;
                    if cli.jobs == 0 {
                        return Err("--jobs takes a worker count ≥ 1, got `0`".into());
                    }
                }
                "--only" => {
                    let ids: Vec<String> = value::<String>(f, it.next(), "experiment ids")?
                        .split(',')
                        .map(str::to_string)
                        .collect();
                    if let Some(bad) = ids
                        .iter()
                        .find(|id| !suite.entries.iter().any(|(n, _)| n == id))
                    {
                        let known: Vec<&str> = suite.entries.iter().map(|(n, _)| *n).collect();
                        return Err(format!(
                            "unknown experiment `{bad}` in --only; known: {known:?}"
                        ));
                    }
                    cli.only = Some(ids);
                }
                "--out" => cli.out = Some(value(f, it.next(), "a path")?),
                "--trace" => cli.trace = Some(value(f, it.next(), "a path")?),
                "--counters" => cli.counters = true,
                "--json" => cli.json = true,
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(cli)
    }

    /// Where the markdown report goes: `--out` if given, else nowhere for
    /// an `--only` subset (it must not overwrite the full committed
    /// report), else the suite's default.
    fn report_path(&self, suite: &Suite) -> Option<String> {
        match (&self.out, &self.only) {
            (Some(out), _) => Some(out.clone()),
            (None, Some(_)) => None,
            (None, None) => Some(suite.default_out.to_string()),
        }
    }
}

/// Runs `suite` as the command line asks, prints every result, and
/// writes the report and trace artifacts. The exit code is 0 when every
/// claim holds, 1 when any fails, and 2 on a bad command line.
pub fn run_cli(suite: &Suite) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match Cli::parse(suite, &args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    init_tracing(cli.trace.is_some() || cli.counters);
    let entries: Vec<(&str, ExperimentFn)> = suite
        .entries
        .iter()
        .filter(|(name, _)| {
            cli.only
                .as_ref()
                .is_none_or(|ids| ids.iter().any(|id| id == name))
        })
        .copied()
        .collect();
    let total = entries.len();
    let done = AtomicUsize::new(0);
    let results = run_entries_with(&entries, cli.seed, cli.days, cli.jobs, |_, r| {
        // Progress in completion order; the result vector (and so
        // everything printed or written below) stays in registry order.
        eprintln!(
            "[{}/{total}] {} — {}",
            done.fetch_add(1, Ordering::Relaxed) + 1,
            r.id,
            if r.all_hold() { "ok" } else { "CLAIMS FAILED" }
        );
    });
    for r in &results {
        emit(r, cli.json);
        println!();
    }
    if let Some(out_path) = cli.report_path(suite) {
        let md = containerleaks::render_experiments_md(&results, cli.seed);
        write_report(&out_path, &md, &results);
    }
    finish_tracing(cli.seed, cli.trace.as_deref(), cli.counters);
    ExitCode::from(u8::from(results.iter().any(|r| !r.all_hold())))
}

/// Writes the markdown report `md` to `md_path` and `value`, as pretty
/// JSON, to the `.json` companion beside it, naming each file on stderr.
pub fn write_report(md_path: &str, md: &str, value: &impl serde::Serialize) {
    std::fs::write(md_path, md).expect("write report");
    eprintln!("wrote {md_path}");
    let json_path = format!("{}.json", md_path.trim_end_matches(".md"));
    let json = serde_json::to_string_pretty(value).expect("serializable report");
    std::fs::write(&json_path, json).expect("write json artifact");
    eprintln!("wrote {json_path}");
}

static TRACE_SINK: OnceLock<Arc<simtrace::MemorySink>> = OnceLock::new();

/// Installs the in-memory trace sink when `on`. Must run before the
/// first kernel is built so every event is captured; with `on` false
/// tracing stays disabled and zero-cost.
pub fn init_tracing(on: bool) {
    if !on {
        return;
    }
    let sink = Arc::new(simtrace::MemorySink::new());
    let _ = TRACE_SINK.set(Arc::clone(&sink));
    simtrace::install(sink);
}

/// After the run: writes the JSONL trace artifact to `trace` and/or
/// prints the counter + profile summary.
pub fn finish_tracing(seed: u64, trace: Option<&str>, counters: bool) {
    if let Some(path) = trace {
        let sink = TRACE_SINK.get().expect("init_tracing ran at startup");
        let trace = simtrace::render_jsonl(seed, &sink.drain());
        std::fs::write(path, trace).expect("write trace artifact");
        eprintln!("wrote {path}");
    }
    if counters {
        println!("{}", simtrace::render_summary());
    }
}

/// Prints one experiment result (text or JSON).
fn emit(result: &ExperimentResult, json: bool) {
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(result).expect("serializable")
        );
        return;
    }
    println!("=== {} ===\n", result.title);
    println!("{}", result.rendered);
    println!("{:<48} {:<42} {:<34} holds", "metric", "paper", "measured");
    for c in &result.comparisons {
        println!(
            "{:<48} {:<42} {:<34} {}",
            c.metric,
            c.paper,
            c.measured,
            if c.holds { "yes" } else { "NO" }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(suite: &Suite, args: &[&str]) -> Result<Cli, String> {
        let args: Vec<String> = args.iter().map(|a| (*a).to_string()).collect();
        Cli::parse(suite, &args)
    }

    #[test]
    fn parses_every_flag() {
        let cli = parse(
            &EXPERIMENTS,
            &[
                "--seed",
                "9",
                "--days",
                "2",
                "--jobs",
                "3",
                "--only",
                "fig3,table1",
                "--out",
                "x.md",
                "--trace",
                "t.jsonl",
                "--counters",
                "--json",
            ],
        )
        .unwrap();
        assert_eq!((cli.seed, cli.days, cli.jobs), (9, 2, 3));
        assert_eq!(
            cli.only,
            Some(vec!["fig3".to_string(), "table1".to_string()])
        );
        assert_eq!(cli.out.as_deref(), Some("x.md"));
        assert_eq!(cli.trace.as_deref(), Some("t.jsonl"));
        assert!(cli.counters && cli.json);
    }

    #[test]
    fn defaults_are_the_compiled_ones() {
        let cli = parse(&EXPERIMENTS, &[]).unwrap();
        assert_eq!(cli.seed, containerleaks::DEFAULT_SEED);
        assert_eq!(cli.days, 7);
        assert!(cli.jobs >= 1);
        assert_eq!((cli.only, cli.out, cli.trace), (None, None, None));
        assert!(!cli.counters && !cli.json);
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        for bad in [
            &["--detector", "on"][..],
            &["--bogus"],
            &["--seed", "x"],
            &["--seed"],
            &["--jobs", "0"],
            &["--jobs", "-1"],
            &["--coalesce", "off"],
            &["--coalesce", "yes"],
            &["--render-cache", "off"],
            &["--shards", "8"],
            &["--days", "x"],
            &["--only", "fig3,nope"],
        ] {
            assert!(parse(&EXPERIMENTS, bad).is_err(), "accepted {bad:?}");
        }
        // The fault matrix has no Fig. 2 trace to size, and its own ids.
        assert!(parse(&FAULT_MATRIX, &["--days", "2"]).is_err());
        assert!(parse(&FAULT_MATRIX, &["--only", "fig3"]).is_err());
        assert!(parse(&FAULT_MATRIX, &["--only", "fault_fs"]).is_ok());
    }

    #[test]
    fn only_without_out_writes_no_report() {
        let path = |suite: &Suite, args: &[&str]| parse(suite, args).unwrap().report_path(suite);
        assert_eq!(path(&EXPERIMENTS, &[]).as_deref(), Some("EXPERIMENTS.md"));
        assert_eq!(path(&FAULT_MATRIX, &[]).as_deref(), Some("FAULTS.md"));
        assert_eq!(path(&EXPERIMENTS, &["--only", "table3"]), None);
        assert_eq!(
            path(&EXPERIMENTS, &["--only", "table3", "--out", "t.md"]).as_deref(),
            Some("t.md")
        );
        assert_eq!(
            path(&FAULT_MATRIX, &["--out", "f.md"]).as_deref(),
            Some("f.md")
        );
    }
}
