//! Gates a fresh Criterion run against the committed bench baseline.
//!
//! Flags: `--baseline <path>` (default `BENCH_pipelines.json`),
//! `--fresh <path>` (default `target/bench-artifacts/BENCH_pipelines.json`),
//! `--threshold-pct <p>` (default 25), `--floor-ns <n>` (default 20000),
//! and repeatable `--require-speedup <fast>:<slow>:<factor>` demands —
//! each asserts the fresh median of `slow` is at least `factor`× the
//! fresh median of `fast` (e.g. the lazy fleet calendar against its
//! eager reference), failing the gate otherwise.
//!
//! The comparison math — noise-discounted medians, the absolute floor,
//! the hard cap, and the missing/new rules — lives in
//! [`containerleaks_experiments::benchgate`], where it is unit-tested
//! against fixture reports; this binary only parses flags and renders
//! the verdict table.

use std::process::ExitCode;

use containerleaks_experiments::benchgate::{
    check_speedups, gate, BenchReport, SpeedupReq, Verdict, HARD_CAP,
};

fn arg(flag: &str, default: &str) -> String {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2)
        .find(|w| w[0] == flag)
        .map(|w| w[1].clone())
        .unwrap_or_else(|| default.to_string())
}

/// Every value of a repeatable flag, in argv order.
fn args_all(flag: &str) -> Vec<String> {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2)
        .filter(|w| w[0] == flag)
        .map(|w| w[1].clone())
        .collect()
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

fn fmt_opt(ns: Option<f64>) -> String {
    ns.map_or_else(|| "-".to_string(), fmt_ns)
}

fn main() -> ExitCode {
    let baseline_path = arg("--baseline", "BENCH_pipelines.json");
    let fresh_path = arg("--fresh", "target/bench-artifacts/BENCH_pipelines.json");
    let threshold_pct: f64 = arg("--threshold-pct", "25").parse().unwrap_or(25.0);
    let floor_ns: f64 = arg("--floor-ns", "20000").parse().unwrap_or(20_000.0);
    let mut speedups = Vec::new();
    for spec in args_all("--require-speedup") {
        match SpeedupReq::parse(&spec) {
            Ok(req) => speedups.push(req),
            Err(e) => {
                eprintln!("benchcmp: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

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

    let out = gate(&baseline, &fresh, threshold_pct, floor_ns);
    println!(
        "suite noise factor: {:.2}x (discounted before gating; hard cap {HARD_CAP}x)",
        out.noise
    );
    println!(
        "{:<34} {:>12} {:>12} {:>8}  verdict",
        "benchmark", "baseline", "fresh", "ratio"
    );
    for row in &out.rows {
        let ratio = match (row.baseline_ns, row.fresh_ns) {
            (Some(b), Some(n)) => format!("{:.2}x", n / b),
            _ => "-".to_string(),
        };
        println!(
            "{:<34} {:>12} {:>12} {:>8}  {}",
            row.name,
            fmt_opt(row.baseline_ns),
            fmt_opt(row.fresh_ns),
            ratio,
            match row.verdict {
                Verdict::Ok => "ok",
                Verdict::OkMinRescued => "ok (min held)",
                Verdict::Regressed => "REGRESSED",
                Verdict::Missing => "MISSING",
                Verdict::New => "new (no baseline)",
            }
        );
    }

    let mut speedup_failed = false;
    if !speedups.is_empty() {
        println!();
        println!(
            "{:<34} {:>12} {:>12} {:>9}  required",
            "speedup (fresh medians)", "slow", "fast", "achieved"
        );
        for row in check_speedups(&fresh, &speedups) {
            speedup_failed |= !row.ok;
            println!(
                "{:<34} {:>12} {:>12} {:>9}  >= {:.1}x  {}",
                row.req.fast,
                fmt_opt(row.slow_ns),
                fmt_opt(row.fast_ns),
                row.achieved
                    .map_or_else(|| "-".to_string(), |r| format!("{r:.2}x")),
                row.req.factor,
                if row.ok { "ok" } else { "SHORTFALL" }
            );
        }
    }

    if out.failed || speedup_failed {
        if out.failed {
            eprintln!(
                "benchcmp: FAIL — median regression beyond {threshold_pct}% \
                 (+{} floor) or a benchmark went missing",
                fmt_ns(floor_ns)
            );
        }
        if speedup_failed {
            eprintln!("benchcmp: FAIL — a required speedup was not achieved");
        }
        ExitCode::FAILURE
    } else {
        println!("benchcmp: ok — all medians within {threshold_pct}% of baseline");
        ExitCode::SUCCESS
    }
}
