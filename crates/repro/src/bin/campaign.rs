//! Seed-derived scenario campaign fuzzer.
//!
//! Sweeps whole scenarios — fleet size, tenant mix, churn rate, fault
//! plan, masking profile, execution mode — each derived from a single
//! seed, and checks the metamorphic oracles (masking monotonicity, mode
//! invariance, power monotonicity, churn soundness). Failing scenarios
//! are shrunk to a minimal seed-plus-overrides and reported with a
//! copy-pasteable repro command.
//!
//! Flags: `--seeds <n>` scenarios to sweep (default 16) starting at
//! `--seed-start <u64>` (default 0), or `--seed <u64>` for exactly one
//! scenario; `--hosts/--tenants/--churn <n>` and `--faults <on|off>`
//! pin dimensions (how a shrunk repro is replayed); `--jobs <n>` worker
//! threads (default 1); `--no-shrink` disables failure shrinking;
//! `--inject <hosts,tenants,churn>` replaces the real oracles with the
//! deterministic threshold fixture (shrinker self-test); `--out <path>`
//! writes the markdown report plus a `.json` companion; `--trace <path>`
//! and `--counters` work as on `all`. The report is
//! byte-identical for any `--jobs` value. Exits 1 unless every scenario
//! passes every oracle.

use std::io::Write as _;

use containerleaks::campaign::{CampaignConfig, InjectedViolation, Overrides, Status};

fn arg(args: &[String], name: &str) -> Option<String> {
    args.windows(2).find(|w| w[0] == name).map(|w| w[1].clone())
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    arg(args, name).map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("{name} takes a number, got `{v}`");
            std::process::exit(2);
        })
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let trace = arg(&args, "--trace");
    let counters = args.iter().any(|a| a == "--counters");
    containerleaks_experiments::init_tracing(trace.is_some() || counters);

    let overrides = Overrides {
        hosts: parse(&args, "--hosts"),
        tenants: parse(&args, "--tenants"),
        churn_cycles: parse(&args, "--churn"),
        faults: arg(&args, "--faults").map(|v| match v.as_str() {
            "on" => true,
            "off" => false,
            other => {
                eprintln!("--faults takes `on` or `off`, got `{other}`");
                std::process::exit(2);
            }
        }),
    };
    let seed_start: u64 = parse(&args, "--seed-start").unwrap_or(0);
    let count: usize = parse(&args, "--seeds").unwrap_or(16);
    let mut cfg = match parse::<u64>(&args, "--seed") {
        Some(seed) => CampaignConfig::sweep(seed, 1),
        None => CampaignConfig::sweep(seed_start, count),
    };
    cfg = cfg
        .jobs(parse(&args, "--jobs").unwrap_or(1))
        .overrides(overrides)
        .shrink(!args.iter().any(|a| a == "--no-shrink"));
    if let Some(spec) = arg(&args, "--inject") {
        let parts: Vec<&str> = spec.split(',').collect();
        let num = |i: usize| -> u64 {
            parts
                .get(i)
                .and_then(|p| p.parse().ok())
                .unwrap_or_else(|| {
                    eprintln!("--inject takes `hosts,tenants,churn`, got `{spec}`");
                    std::process::exit(2);
                })
        };
        cfg = cfg.inject(InjectedViolation {
            min_hosts: num(0) as usize,
            min_tenants: num(1) as usize,
            min_churn: num(2) as u32,
        });
    }

    let report = containerleaks::campaign::run(&cfg);
    for o in &report.outcomes {
        match &o.status {
            Status::Passed => eprintln!("seed {:>6}  ok    {}", o.seed, o.scenario),
            Status::Violated { oracle, detail } => {
                eprintln!("seed {:>6}  VIOLATED {oracle}: {detail}", o.seed);
                eprintln!("             repro: {}", o.repro);
            }
            Status::Panicked { message } => {
                eprintln!("seed {:>6}  PANICKED: {message}", o.seed);
                eprintln!("             repro: {}", o.repro);
            }
        }
    }
    eprintln!(
        "{} scenarios: {} passed, {} violations, {} panics",
        report.outcomes.len(),
        report.passed(),
        report.violations(),
        report.panics(),
    );

    if let Some(out_path) = arg(&args, "--out") {
        let md = report.render_md();
        let mut f = std::fs::File::create(&out_path).expect("create report file");
        f.write_all(md.as_bytes()).expect("write report");
        eprintln!("wrote {out_path}");
        let json_path = format!("{}.json", out_path.trim_end_matches(".md"));
        let json = serde_json::to_string_pretty(&report).expect("serializable report");
        std::fs::write(&json_path, json).expect("write json artifact");
        eprintln!("wrote {json_path}");
    }
    containerleaks_experiments::finish_tracing(seed_start, trace.as_deref(), counters);
    if !report.all_green() {
        std::process::exit(1);
    }
}
