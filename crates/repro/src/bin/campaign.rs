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
//! passes every oracle, and 2 on an unknown flag or a bad value.

use std::io::Write as _;
use std::process::ExitCode;

use containerleaks::campaign::Status;
use containerleaks_experiments::campaign_cli::CampaignCli;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let CampaignCli {
        config: cfg,
        seed_start,
        out,
        trace,
        counters,
    } = match CampaignCli::parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    containerleaks_experiments::init_tracing(trace.is_some() || counters);

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

    if let Some(out_path) = out {
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
    ExitCode::from(u8::from(!report.all_green()))
}
