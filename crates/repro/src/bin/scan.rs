//! `scan` — the ContainerLeaks detector as a standalone tool.
//!
//! Boots a simulated testbed (host + unprivileged container), runs the
//! cross-validation scan, classifies every pseudo file, assesses the
//! co-residence metrics for the known channel inventory, and emits the
//! masking policy that would close the leaks.
//!
//! ```sh
//! cargo run --release -p containerleaks-experiments --bin scan
//! cargo run --release -p containerleaks-experiments --bin scan -- --machine cloud --metrics --harden
//! ```
//!
//! Flags:
//! * `--seed <u64>`    deterministic seed (default 1729)
//! * `--machine <m>`   `testbed` (default), `cloud`, `small`, `legacy`
//! * `--metrics`       also run the (slower) U/V/M measurement campaign
//! * `--harden`        emit the generated masking policy
//! * `--json`          machine-readable output

use containerleaks::leakscan::{
    ChannelClass, CrossValidator, Hardener, Lab, MetricsAssessor, TABLE2_CHANNELS,
};
use containerleaks::simkernel::MachineConfig;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed = match args.windows(2).find(|w| w[0] == "--seed") {
        Some(w) => w[1].parse().unwrap_or_else(|_| {
            eprintln!("--seed takes a u64, got `{}`", w[1]);
            std::process::exit(2);
        }),
        None => containerleaks::DEFAULT_SEED,
    };
    let machine = match args
        .windows(2)
        .find(|w| w[0] == "--machine")
        .map(|w| w[1].as_str())
    {
        Some("cloud") => MachineConfig::cloud_server(),
        Some("small") => MachineConfig::small_server(),
        Some("legacy") => MachineConfig::legacy_server_no_rapl(),
        _ => MachineConfig::testbed_i7_6700(),
    };
    let want_metrics = args.iter().any(|a| a == "--metrics");
    let want_harden = args.iter().any(|a| a == "--harden");
    let json = args.iter().any(|a| a == "--json");

    let n_hosts = if want_metrics { 2 } else { 1 };
    let mut lab = Lab::with_machine(n_hosts, seed, machine);
    let findings = {
        let host = lab.host(0);
        CrossValidator::new().scan(&host.kernel, &host.container_view())
    };

    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&findings).expect("serializable findings")
        );
    } else {
        let count = |c: ChannelClass| findings.iter().filter(|f| f.class == c).count();
        println!("ContainerLeaks scan — seed {seed}");
        println!(
            "{} files examined: {} LEAKING, {} namespaced, {} masked, {} partial\n",
            findings.len(),
            count(ChannelClass::Leaking),
            count(ChannelClass::Namespaced),
            count(ChannelClass::Masked),
            count(ChannelClass::PartiallyMasked),
        );
        println!("leaking channels (host state readable from the container):");
        for f in findings.iter().filter(|f| f.class == ChannelClass::Leaking) {
            println!("  LEAK  {}", f.path);
        }
    }

    if want_metrics {
        eprintln!("\nrunning U/V/M measurement campaign (~80 simulated seconds)...");
        let assessor = MetricsAssessor::new(format!("scan-{seed}"));
        let rows = assessor.rank_table2(assessor.assess_all(&mut lab, TABLE2_CHANNELS));
        println!("\nco-residence capability ranking:");
        println!("{:>4}  {:<52} U V M", "rank", "channel");
        for r in &rows {
            let a = &r.assessment;
            println!(
                "{:>4}  {:<52} {} {} {}",
                r.rank,
                a.channel.glob,
                if a.unique { "●" } else { "○" },
                if a.varies { "●" } else { "○" },
                match a.manipulation {
                    containerleaks::leakscan::ManipulationKind::Direct => "●",
                    containerleaks::leakscan::ManipulationKind::Indirect => "◐",
                    containerleaks::leakscan::ManipulationKind::None => "○",
                },
            );
        }
    }

    if want_harden {
        let host = lab.host(0);
        let (policy, report) = Hardener::new().harden(&host.kernel, &host.container_view());
        println!(
            "\ngenerated masking policy ({} leaks → {}):",
            report.leaks_before, report.leaks_after
        );
        for rule in policy.rules() {
            println!("  {:?} {}", rule.action, rule.pattern);
        }
    }
}
