//! Tier-1 gate: the static source auditor (`leakcheck`) and the dynamic
//! differential scanner (`leakscan::CrossValidator`) must reach the same
//! verdict on every modeled channel, modulo the documented allowlist.
//!
//! The two analyses share no code path: one tokenizes handler sources,
//! the other renders files through two views and diffs bytes. Agreement
//! is therefore real cross-validation — a classifier regression on
//! either side breaks this test.

use containerleaks::leakcheck;
use containerleaks::leakscan::agreement;
use containerleaks::leakscan::{ChannelClass, Lab};
use containerleaks::pseudofs::ROUTES;
use containerleaks::DEFAULT_SEED;

fn joined_rows(seed: u64) -> Vec<agreement::Agreement> {
    let report = leakcheck::audit().expect("static audit succeeds");
    let lab = Lab::new(1, seed);
    let h = lab.host(0);
    agreement::check(&h.kernel, &h.container_view(), &report)
}

/// The paper's highest-rate probes; all nine must be statically
/// classified as unrouted and dynamically observed leaking.
const HOT_PROBES: [&str; 9] = [
    "/proc/meminfo",
    "/proc/stat",
    "/proc/uptime",
    "/proc/loadavg",
    "/proc/interrupts",
    "/proc/softirqs",
    "/proc/schedstat",
    "/proc/sched_debug",
    "/proc/timer_list",
];

#[test]
fn hot_probe_channels_agree_as_leaking() {
    let report = leakcheck::audit().expect("static audit succeeds");
    let rows = joined_rows(97);
    for probe in HOT_PROBES {
        let ch = report
            .channels
            .iter()
            .find(|c| c.pattern == probe)
            .unwrap_or_else(|| panic!("{probe} not audited"));
        assert_ne!(
            ch.verdict, "view-routed",
            "{probe} must be statically unrouted"
        );
        let row = rows
            .iter()
            .find(|r| r.path == probe)
            .unwrap_or_else(|| panic!("{probe} not scanned"));
        assert_eq!(row.dynamic, ChannelClass::Leaking, "{probe}");
        assert!(row.agrees, "{probe}");
    }
}

/// Full-tree agreement: every path the scanner classifies joins a
/// registry channel whose static verdict predicts the dynamic class, on
/// a lab host at the default seed and at a second one.
#[test]
fn full_tree_static_dynamic_agreement() {
    for seed in [DEFAULT_SEED, 97] {
        assert_full_tree_agreement(seed);
    }
}

fn assert_full_tree_agreement(seed: u64) {
    let rows = joined_rows(seed);
    assert!(
        rows.len() > 60,
        "seed {seed}: join covers the modeled tree, got {} rows",
        rows.len()
    );
    let bad = agreement::disagreements(&rows);
    assert!(
        bad.is_empty(),
        "seed {seed}: static/dynamic disagreements:\n{}",
        bad.iter()
            .map(|r| {
                format!(
                    "  {} ({}): static {} predicts {:?}, scanner saw {:?}",
                    r.path, r.handler, r.static_verdict, r.predicted, r.dynamic
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The allowlist stays minimal and exercised.
    assert_eq!(agreement::ALLOWLIST.len(), 1);
    assert!(rows
        .iter()
        .any(|r| r.allowlisted && r.predicted != r.dynamic));
}

/// Registry completeness, from the static side: every audited channel
/// resolved to a handler, and the audit's channel count matches the
/// registry (the audit reads its channel list from `ROUTES` and errors
/// when a route's handler is missing from the analyzed sources).
#[test]
fn audit_covers_the_whole_registry() {
    let report = leakcheck::audit().expect("static audit succeeds");
    assert_eq!(report.channels.len(), ROUTES.len());
    for c in &report.channels {
        assert!(
            !c.verdict.is_empty() && c.handler.contains("::"),
            "{c:?} malformed"
        );
    }
    // Determinism lint: there is no allowlist, so any finding fails.
    assert!(
        report.hazards.is_empty(),
        "determinism hazards: {:?}",
        report.hazards
    );
}
