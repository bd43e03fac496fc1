//! The determinism mode matrix: every artifact a run leaves — the
//! markdown report, its JSON companion, the trace events, the counters
//! and the sim-time profile — must not depend on the worker count.
//!
//! Rows, each compared in full with its suite's `--jobs 1` reference run:
//! - the experiment registry at jobs 4; the reference must also
//!   reproduce the committed `EXPERIMENTS.md`/`.json` byte for byte,
//!   with every claim holding;
//! - the fault matrix at jobs 4;
//! - the 16-seed campaign sweep at jobs 4, every scenario green.
//!
//! Coalescing is held to its tick-stepped reference by the differential
//! tests (`tests/coalescing.rs` and the rest, DESIGN §4.9), not here.
//! A failure names the first differing line, the first divergent trace
//! record as (scope, seq, `t_ns`, kind), or the counter or phase.
//!
//! Own integration-test binary: it installs the process-wide trace sink
//! (as `trace_golden.rs` does) and reads each row's counter and profile
//! totals as the difference of snapshots taken around it, so nothing
//! else may run in this process. Release only: a debug build takes
//! about a minute.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::Arc;

use containerleaks::campaign::{self, CampaignConfig};
use containerleaks::experiments::{run_entries_with, ExperimentFn, EXPERIMENTS};
use containerleaks::simtrace::{self, counters, profile, MemorySink, TimedEvent};
use containerleaks::{DEFAULT_SEED, FAULT_MATRIX};

/// Everything one row leaves behind.
struct Artifacts {
    md: String,
    json: String,
    events: BTreeMap<String, Vec<TimedEvent>>,
    /// Counter name → this row's total; zero totals left out.
    counters: BTreeMap<String, u64>,
    /// Phase → (sim ns, events) for this row; all-zero phases left out.
    profile: BTreeMap<&'static str, (u64, u64)>,
}

fn counter_totals() -> BTreeMap<String, u64> {
    counters::snapshot()
        .into_iter()
        .map(|e| (e.name, e.value))
        .collect()
}

fn profile_totals() -> BTreeMap<&'static str, (u64, u64)> {
    profile::snapshot()
        .into_iter()
        .map(|e| (e.phase, (e.sim_ns, e.events)))
        .collect()
}

/// Runs `row` (which returns its markdown and JSON) and captures its
/// trace events and its own counter and profile totals.
fn capture(sink: &MemorySink, row: impl FnOnce() -> (String, String)) -> Artifacts {
    let (counters0, profile0) = (counter_totals(), profile_totals());
    let (md, json) = row();
    let counters = counter_totals()
        .into_iter()
        .filter_map(|(name, v)| {
            let d = v - counters0.get(&name).copied().unwrap_or(0);
            (d > 0).then_some((name, d))
        })
        .collect();
    let profile = profile_totals()
        .into_iter()
        .filter_map(|(phase, (ns, n))| {
            let (ns0, n0) = profile0.get(phase).copied().unwrap_or_default();
            let d = (ns - ns0, n - n0);
            (d != (0, 0)).then_some((phase, d))
        })
        .collect();
    Artifacts {
        md,
        json,
        events: sink.drain(),
        counters,
        profile,
    }
}

/// One suite run as `all`/`fault_matrix` runs it, rendered as they write
/// it. Every claim must hold: the CLI would exit 1 otherwise.
fn suite(entries: &[(&str, ExperimentFn)], jobs: usize) -> (String, String) {
    let results = run_entries_with(entries, DEFAULT_SEED, 7, jobs, |_, _| {});
    let failed: Vec<&str> = results
        .iter()
        .filter(|r| !r.all_hold())
        .map(|r| r.id.as_str())
        .collect();
    assert!(
        failed.is_empty(),
        "jobs {jobs}: claims failed in {failed:?}"
    );
    (
        containerleaks::render_experiments_md(&results, DEFAULT_SEED),
        serde_json::to_string_pretty(&results).expect("serializable results"),
    )
}

/// The 16-seed campaign sweep as the `campaign` binary runs it.
fn sweep(jobs: usize) -> (String, String) {
    let report = campaign::run(&CampaignConfig::sweep(0, 16).jobs(jobs));
    assert!(report.all_green(), "jobs {jobs}:\n{}", report.render_md());
    (
        report.render_md(),
        serde_json::to_string_pretty(&report).expect("serializable report"),
    )
}

/// The first position (1-based) where the two sequences differ, with
/// both items as `show` renders them (`None`: that side has ended).
fn first_diff<T: PartialEq>(
    mut a: impl Iterator<Item = T>,
    mut b: impl Iterator<Item = T>,
    show: impl Fn(Option<T>) -> String,
) -> Option<String> {
    for n in 1.. {
        match (a.next(), b.next()) {
            (None, None) => return None,
            (x, y) if x == y => {}
            (x, y) => return Some(format!("{n}:\n  {}\n  {}", show(x), show(y))),
        }
    }
    unreachable!()
}

/// The first line where `a` and `b` differ; a missing trailing newline
/// counts as a difference.
fn first_line_diff(a: &str, b: &str) -> Option<String> {
    first_diff(a.split_inclusive('\n'), b.split_inclusive('\n'), |l| {
        format!("{l:?}")
    })
}

/// The records of `a`, in trace order.
fn records(a: &BTreeMap<String, Vec<TimedEvent>>) -> impl Iterator<Item = (&str, &TimedEvent)> {
    a.iter()
        .flat_map(|(scope, evs)| evs.iter().map(move |ev| (scope.as_str(), ev)))
}

/// A trace record as (scope, seq, `t_ns`, kind), then in full.
fn describe(r: Option<(&str, &TimedEvent)>) -> String {
    match r {
        Some((scope, ev)) => format!(
            "({scope}, seq {}, t_ns {}, {}) {:?}",
            ev.seq,
            ev.t_ns,
            ev.event.kind(),
            ev.event
        ),
        None => "end of trace".to_string(),
    }
}

/// Every key whose value differs between `a` and `b`, as
/// `key: a vs b` (absent where a side lacks it).
fn map_diffs<K: Ord + Debug, V: PartialEq + Debug>(
    a: &BTreeMap<K, V>,
    b: &BTreeMap<K, V>,
) -> Vec<String> {
    let show = |v: Option<&V>| v.map_or("absent".to_string(), |v| format!("{v:?}"));
    let mut keys: Vec<&K> = a.keys().chain(b.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .filter(|k| a.get(k) != b.get(k))
        .map(|k| format!("{k:?}: {} vs {}", show(a.get(k)), show(b.get(k))))
        .collect()
}

/// Holds `run` to `reference`: byte-identical markdown and JSON, the
/// same trace records, counters and profile.
fn assert_matches(row: &str, reference: &Artifacts, run: &Artifacts) {
    eprintln!("mode matrix: {row}");
    if let Some(d) = first_line_diff(&reference.md, &run.md) {
        panic!("{row}: the markdown report differs from the reference at line {d}");
    }
    if let Some(d) = first_line_diff(&reference.json, &run.json) {
        panic!("{row}: the JSON report differs from the reference at line {d}");
    }
    if let Some(d) = first_diff(records(&reference.events), records(&run.events), describe) {
        panic!("{row}: the trace diverges from the reference at record {d}");
    }
    let counters = map_diffs(&reference.counters, &run.counters);
    assert!(
        counters.is_empty(),
        "{row}: counters differ from the reference: {counters:#?}"
    );
    let phases = map_diffs(&reference.profile, &run.profile);
    assert!(
        phases.is_empty(),
        "{row}: profile phases (sim ns, events) differ from the reference: {phases:#?}"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: takes about a minute in debug"
)]
fn artifacts_are_identical_across_worker_counts() {
    let sink = Arc::new(MemorySink::new());
    simtrace::install(Arc::clone(&sink) as Arc<dyn simtrace::TraceSink>);

    let reference = capture(&sink, || suite(EXPERIMENTS, 1));
    for (name, committed, produced) in [
        (
            "EXPERIMENTS.md",
            include_str!("../EXPERIMENTS.md"),
            &reference.md,
        ),
        (
            "EXPERIMENTS.json",
            include_str!("../EXPERIMENTS.json"),
            &reference.json,
        ),
    ] {
        if let Some(d) = first_line_diff(committed, produced) {
            panic!("registry --jobs 1 does not reproduce the committed {name} at line {d}");
        }
    }
    let row = capture(&sink, || suite(EXPERIMENTS, 4));
    assert_matches("registry, jobs 4", &reference, &row);
    // Free the registry's events (most of the peak memory) before the
    // next suite's reference is built.
    drop((reference, row));

    let reference = capture(&sink, || suite(FAULT_MATRIX, 1));
    let row = capture(&sink, || suite(FAULT_MATRIX, 4));
    assert_matches("fault matrix, jobs 4", &reference, &row);
    drop((reference, row));

    let reference = capture(&sink, || sweep(1));
    let row = capture(&sink, || sweep(4));
    assert_matches("campaign sweep, jobs 4", &reference, &row);
}
