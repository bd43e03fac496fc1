//! Gates a fresh bench run against the committed bench baseline.
//!
//! Usage: `benchcmp --baseline <path> --fresh <path>`. Any other
//! argument exits 2. The rule — a benchmark fails past 1.25x its
//! baseline in calibrated units, or when it went missing, and the lazy
//! fleet calendar must beat its eager reference 5x in the fresh run —
//! lives in [`containerleaks_experiments::benchgate`], where it is
//! unit-tested against fixture reports; this binary only parses its
//! arguments and renders the verdict table. Exits 1 when the gate fails.

use std::process::ExitCode;

use containerleaks_experiments::benchgate::{
    gate, BenchReport, Verdict, EAGER, LAZY, MIN_SPEEDUP, THRESHOLD,
};

const USAGE: &str = "usage: benchcmp --baseline <path> --fresh <path>";

/// Parses `--baseline <path> --fresh <path>`, in either order.
fn parse(args: &[String]) -> Result<(String, String), String> {
    let (mut baseline, mut fresh) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let slot = match flag.as_str() {
            "--baseline" => &mut baseline,
            "--fresh" => &mut fresh,
            _ => return Err(format!("unknown argument `{flag}`")),
        };
        *slot = Some(
            it.next()
                .ok_or_else(|| format!("{flag} takes a path"))?
                .clone(),
        );
    }
    match (baseline, fresh) {
        (Some(b), Some(f)) => Ok((b, f)),
        _ => Err("both --baseline and --fresh are required".to_string()),
    }
}

fn fmt_cu(cu: Option<f64>) -> String {
    cu.map_or_else(|| "-".to_string(), |cu| format!("{cu:.4e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (baseline_path, fresh_path) = match parse(&args) {
        Ok(paths) => paths,
        Err(e) => {
            eprintln!("benchcmp: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (baseline, fresh) = match (
        BenchReport::load(&baseline_path),
        BenchReport::load(&fresh_path),
    ) {
        (Ok(b), Ok(f)) => (b, f),
        (b, f) => {
            for err in [b.err(), f.err()].into_iter().flatten() {
                eprintln!("benchcmp: {err}");
            }
            return ExitCode::FAILURE;
        }
    };
    if baseline.bench_file != fresh.bench_file {
        eprintln!(
            "benchcmp: baseline is `{}`, fresh is `{}` — different bench files",
            baseline.bench_file, fresh.bench_file
        );
        return ExitCode::FAILURE;
    }

    let out = gate(&baseline, &fresh);
    println!(
        "{:<34} {:>12} {:>12} {:>8}  verdict (calibrated units)",
        "benchmark", "baseline", "fresh", "ratio"
    );
    for row in &out.rows {
        let ratio = match (row.baseline_cu, row.fresh_cu) {
            (Some(b), Some(n)) => format!("{:.2}x", n / b),
            _ => "-".to_string(),
        };
        println!(
            "{:<34} {:>12} {:>12} {:>8}  {}",
            row.name,
            fmt_cu(row.baseline_cu),
            fmt_cu(row.fresh_cu),
            ratio,
            match row.verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "REGRESSED",
                Verdict::Missing => "MISSING",
                Verdict::New => "new (no baseline)",
            }
        );
    }
    println!(
        "\n{LAZY} vs {EAGER}: {} faster (required >= {MIN_SPEEDUP}x)",
        out.speedup
            .map_or_else(|| "-".to_string(), |s| format!("{s:.0}x"))
    );

    if out.failed {
        eprintln!(
            "benchcmp: FAIL — a benchmark regressed past {THRESHOLD}x its baseline, \
             went missing, or the lazy calendar fell short of {MIN_SPEEDUP}x"
        );
        ExitCode::FAILURE
    } else {
        println!("benchcmp: ok — every benchmark within {THRESHOLD}x of its baseline");
        ExitCode::SUCCESS
    }
}
