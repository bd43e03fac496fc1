//! The determinism mode matrix: every artifact a run leaves — the
//! markdown report, its JSON companion, the trace events, the counters
//! and the sim-time profile — must not depend on the worker count or on
//! tick coalescing.
//!
//! Rows, each compared with its suite's `--jobs 1` reference run:
//! - the experiment registry at jobs 4, and at jobs 4 with coalescing
//!   off; the reference must also reproduce the committed
//!   `EXPERIMENTS.md`/`.json` byte for byte, with every claim holding;
//! - the fault matrix at jobs 4;
//! - the 16-seed campaign sweep at jobs 4, every scenario green.
//!
//! Only the coalescing-off row drops [`Group::ModeExempt`] records (the
//! quiescent tick shape and the fleet calendar's bookkeeping), and it
//! must show that at least one of them differs from the reference, or
//! the exemption would hide nothing and the row could pass by accident.
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
use containerleaks::simkernel::RunConfig;
use containerleaks::simtrace::{self, counters, profile, Group, MemorySink, TimedEvent};
use containerleaks::{DEFAULT_SEED, FAULT_MATRIX};

/// Everything one row leaves behind.
struct Artifacts {
    md: String,
    json: String,
    events: BTreeMap<String, Vec<TimedEvent>>,
    /// Counter name → (this row's total, group); zero totals left out.
    counters: BTreeMap<String, (u64, Group)>,
    /// Phase → (sim ns, events) for this row; all-zero phases left out.
    profile: BTreeMap<&'static str, (u64, u64)>,
}

fn counter_totals() -> BTreeMap<String, (u64, Group)> {
    counters::snapshot()
        .into_iter()
        .map(|e| (e.name, (e.value, e.group)))
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
        .filter_map(|(name, (v, group))| {
            let d = v - counters0.get(&name).map_or(0, |c| c.0);
            (d > 0).then_some((name, (d, group)))
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
fn suite(entries: &[(&str, ExperimentFn)], jobs: usize, mode: RunConfig) -> (String, String) {
    let results = {
        let _mode = mode.enter();
        run_entries_with(entries, DEFAULT_SEED, 7, jobs, |_, _| {})
    };
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

/// The records of `a` whose group `keep` accepts, in trace order.
fn records(
    a: &BTreeMap<String, Vec<TimedEvent>>,
    keep: impl Fn(Group) -> bool,
) -> impl Iterator<Item = (&str, &TimedEvent)> {
    a.iter()
        .flat_map(|(scope, evs)| evs.iter().map(move |ev| (scope.as_str(), ev)))
        .filter(move |(_, ev)| keep(ev.event.group()))
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

fn counters_in(a: &Artifacts, keep: impl Fn(Group) -> bool) -> BTreeMap<&str, u64> {
    a.counters
        .iter()
        .filter(|(_, (_, g))| keep(*g))
        .map(|(name, (v, _))| (name.as_str(), *v))
        .collect()
}

/// Holds `run` to `reference`: byte-identical markdown and JSON, the
/// same trace records, counters and profile. With `drop_exempt`, the
/// mode-exempt records are left out of the compare but at least one of
/// them must differ.
fn assert_matches(row: &str, reference: &Artifacts, run: &Artifacts, drop_exempt: bool) {
    eprintln!("mode matrix: {row}");
    if let Some(d) = first_line_diff(&reference.md, &run.md) {
        panic!("{row}: the markdown report differs from the reference at line {d}");
    }
    if let Some(d) = first_line_diff(&reference.json, &run.json) {
        panic!("{row}: the JSON report differs from the reference at line {d}");
    }
    let compared = |g: Group| !drop_exempt || g == Group::Portable;
    if let Some(d) = first_diff(
        records(&reference.events, compared),
        records(&run.events, compared),
        describe,
    ) {
        panic!("{row}: the trace diverges from the reference at record {d}");
    }
    let counters = map_diffs(
        &counters_in(reference, compared),
        &counters_in(run, compared),
    );
    assert!(
        counters.is_empty(),
        "{row}: counters differ from the reference: {counters:#?}"
    );
    let phases = map_diffs(&reference.profile, &run.profile);
    assert!(
        phases.is_empty(),
        "{row}: profile phases (sim ns, events) differ from the reference: {phases:#?}"
    );
    if drop_exempt {
        let exempt = |g: Group| g == Group::ModeExempt;
        let differs = first_diff(
            records(&reference.events, exempt),
            records(&run.events, exempt),
            describe,
        )
        .is_some()
            || counters_in(reference, exempt) != counters_in(run, exempt);
        assert!(
            differs,
            "{row}: no mode-exempt record differs from the reference, so dropping \
             them hides nothing and this row cannot tell the modes apart"
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: takes about a minute in debug"
)]
fn artifacts_are_identical_across_worker_counts_and_coalescing_modes() {
    let sink = Arc::new(MemorySink::new());
    simtrace::install(Arc::clone(&sink) as Arc<dyn simtrace::TraceSink>);
    let coalescing_off = RunConfig { coalesce: false };

    let reference = capture(&sink, || suite(EXPERIMENTS, 1, RunConfig::DEFAULT));
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
    let row = capture(&sink, || suite(EXPERIMENTS, 4, RunConfig::DEFAULT));
    assert_matches("registry, jobs 4", &reference, &row, false);
    let row = capture(&sink, || suite(EXPERIMENTS, 4, coalescing_off));
    assert_matches("registry, jobs 4, coalescing off", &reference, &row, true);
    // Free the registry's events (most of the peak memory) before the
    // next suite's reference is built.
    drop((reference, row));

    let reference = capture(&sink, || suite(FAULT_MATRIX, 1, RunConfig::DEFAULT));
    let row = capture(&sink, || suite(FAULT_MATRIX, 4, RunConfig::DEFAULT));
    assert_matches("fault matrix, jobs 4", &reference, &row, false);
    drop((reference, row));

    let reference = capture(&sink, || sweep(1));
    let row = capture(&sink, || sweep(4));
    assert_matches("campaign sweep, jobs 4", &reference, &row, false);
}
