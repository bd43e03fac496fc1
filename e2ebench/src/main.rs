//! `e2e --workload <name> [--seed <u64>] [--seconds <n>] [--trace 0|1]
//! [--spans <path>] [--out <path>]`
//!
//! Runs one workload and prints every metric as `workload metric value
//! unit`, the quartiles across passes, and — with `--trace 1` — the self
//! time of each span. The last line of standard output is the JSON
//! result: the end-to-end metrics untraced, the per-layer metrics traced.
//! `--out` writes the same JSON to a file; the traced pass's spans go to
//! `--spans` (default `.bench_out/<workload>.spans.jsonl`). Exits 1 when
//! a check fails and 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use containerleaks_e2e::{run, Options, Size, WORKLOADS};

fn usage(msg: &str) -> ExitCode {
    eprintln!("e2e: {msg}");
    eprintln!(
        "usage: e2e --workload <{}> [--seed <u64>] [--seconds <n>] [--trace 0|1] \
         [--spans <path>] [--out <path>]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    containerleaks_e2e::settle_process();
    let mut opts = Options {
        workload: String::new(),
        seed: containerleaks::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        spans_path: None,
    };
    let mut out_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let bad = |what: &str| usage(&format!("{flag} {value:?}: expected {what}"));
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => match value.parse() {
                Ok(s) => opts.seed = s,
                Err(_) => return bad("an unsigned integer"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s.is_finite() && s >= 0.0 => opts.seconds = s,
                _ => return bad("a non-negative number"),
            },
            "--trace" => match value.as_str() {
                "0" => opts.trace = false,
                "1" => opts.trace = true,
                _ => return bad("0 or 1"),
            },
            "--spans" => opts.spans_path = Some(PathBuf::from(value)),
            "--out" => out_path = Some(PathBuf::from(value)),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    if opts.trace && opts.spans_path.is_none() {
        opts.spans_path = Some(PathBuf::from(format!(
            ".bench_out/{}.spans.jsonl",
            opts.workload
        )));
    }
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => return usage(&e),
    };
    for f in &report.failures {
        eprintln!("e2e: check failed: {f}");
    }
    for line in &report.lines {
        println!("{line}");
    }
    let json = report.json();
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
            eprintln!("e2e: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{json}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
