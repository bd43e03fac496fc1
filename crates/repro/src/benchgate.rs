//! The calibrated median gate behind the `benchcmp` binary.
//!
//! The bench harness times every sample against a fixed calibration
//! kernel (compute-shaped, or a memory-latency walk for a group that
//! walks a large heap) and reports each benchmark's `median_cu`: the
//! median of its per-sample ratios of sample time to kernel time. A
//! shared box's speed drifts by tens of percent between runs, and code
//! shaped like the kernel drifts with it, so the ratio can be compared
//! against a baseline recorded at another time where absolute
//! nanoseconds cannot.
//!
//! One rule applies to every benchmark: it fails when its fresh
//! `median_cu` exceeds the baseline's by more than [`THRESHOLD`]. A
//! benchmark in the baseline but missing from the fresh run fails; one
//! only in the fresh run passes, as there is nothing to compare. One
//! same-run requirement rides along: the lazy fleet calendar
//! ([`LAZY`]) must beat its eager reference ([`EAGER`]) by at least
//! [`MIN_SPEEDUP`] in the fresh run, so a stale baseline can neither
//! grant nor revoke that speedup. The eager reference also answers to
//! its baseline, like every other benchmark.

use std::collections::BTreeMap;

use serde::Deserialize;

/// The slice of each benchmark's statistics the gate compares. The
/// report also carries `median_ns` and `samples`; the derive ignores
/// fields it is not asked for.
#[derive(Debug, Clone, Deserialize)]
pub struct BenchStats {
    /// Median of the per-sample (time / calibration kernel time) ratios.
    pub median_cu: f64,
}

/// The `BENCH_<file>.json` report shape.
#[derive(Debug, Deserialize)]
pub struct BenchReport {
    /// Which bench file produced the report (e.g. `pipelines`).
    pub bench_file: String,
    /// `group -> bench -> stats`.
    pub groups: BTreeMap<String, BTreeMap<String, BenchStats>>,
}

impl BenchReport {
    /// Parses a report from its JSON text.
    ///
    /// # Errors
    ///
    /// Fails with a human-readable message when the text is not a valid
    /// report.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        serde_json::from_str(text).map_err(|e| format!("cannot parse bench report: {e}"))
    }

    /// Loads and parses a report file.
    ///
    /// # Errors
    ///
    /// Fails when the file is unreadable or not a valid report.
    pub fn load(path: &str) -> Result<BenchReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        BenchReport::parse(&text)
    }

    /// Flattens `group/bench -> median_cu`; names are unique per file.
    pub fn medians(&self) -> BTreeMap<String, f64> {
        self.groups
            .values()
            .flat_map(|benches| benches.iter().map(|(name, s)| (name.clone(), s.median_cu)))
            .collect()
    }
}

/// A benchmark fails when its fresh `median_cu` exceeds this many times
/// the baseline's.
pub const THRESHOLD: f64 = 1.25;

/// The lazy-calendar benchmark the same-run requirement holds ahead.
pub const LAZY: &str = "fleet_10k_week";

/// The eager reference [`LAZY`] must beat.
pub const EAGER: &str = "fleet_10k_week_eager";

/// Minimum fresh `median_cu` ratio of [`EAGER`] over [`LAZY`].
pub const MIN_SPEEDUP: f64 = 5.0;

/// What the gate decided about one benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within [`THRESHOLD`] of the baseline.
    Ok,
    /// Beyond [`THRESHOLD`] — fails the gate.
    Regressed,
    /// In the baseline but absent from the fresh run — fails the gate.
    Missing,
    /// In the fresh run only; passes, there is nothing to compare.
    New,
}

/// One benchmark's comparison row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Benchmark name (unique within the bench file).
    pub name: String,
    /// Baseline `median_cu`, absent for [`Verdict::New`].
    pub baseline_cu: Option<f64>,
    /// Fresh `median_cu`, absent for [`Verdict::Missing`].
    pub fresh_cu: Option<f64>,
    /// The gate's decision.
    pub verdict: Verdict,
}

/// The whole gate evaluation.
#[derive(Debug)]
pub struct Outcome {
    /// Per-benchmark rows: baseline order, then new benchmarks.
    pub rows: Vec<Row>,
    /// The fresh [`EAGER`] / [`LAZY`] ratio, absent when either side is
    /// missing from the fresh run (which fails the gate).
    pub speedup: Option<f64>,
    /// True when any row is `Regressed` or `Missing`, or the speedup is
    /// absent or below [`MIN_SPEEDUP`].
    pub failed: bool,
}

/// Evaluates the gate.
pub fn gate(baseline: &BenchReport, fresh: &BenchReport) -> Outcome {
    let base = baseline.medians();
    let new = fresh.medians();
    let mut rows: Vec<Row> = base
        .iter()
        .map(|(name, &b)| {
            let fresh_cu = new.get(name).copied();
            let verdict = match fresh_cu {
                None => Verdict::Missing,
                Some(n) if n > THRESHOLD * b => Verdict::Regressed,
                Some(_) => Verdict::Ok,
            };
            Row {
                name: name.clone(),
                baseline_cu: Some(b),
                fresh_cu,
                verdict,
            }
        })
        .collect();
    rows.extend(
        new.iter()
            .filter(|(name, _)| !base.contains_key(*name))
            .map(|(name, &n)| Row {
                name: name.clone(),
                baseline_cu: None,
                fresh_cu: Some(n),
                verdict: Verdict::New,
            }),
    );
    let speedup = match (new.get(LAZY), new.get(EAGER)) {
        (Some(&lazy), Some(&eager)) if lazy > 0.0 => Some(eager / lazy),
        _ => None,
    };
    let failed = rows
        .iter()
        .any(|r| matches!(r.verdict, Verdict::Regressed | Verdict::Missing))
        || !speedup.is_some_and(|s| s >= MIN_SPEEDUP);
    Outcome {
        rows,
        speedup,
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a one-group report from `(name, median_cu)` pairs.
    fn report(medians: &[(&str, f64)]) -> BenchReport {
        let benches: Vec<String> = medians
            .iter()
            .map(|(name, cu)| format!("\"{name}\":{{\"median_cu\":{cu}}}"))
            .collect();
        let text = format!(
            "{{\"bench_file\":\"pipelines\",\"groups\":{{\"g\":{{{}}}}}}}",
            benches.join(",")
        );
        BenchReport::parse(&text).expect("fixture parses")
    }

    /// A report holding `rows` plus a lazy/eager pair that meets the
    /// speedup requirement.
    fn with_pair(rows: &[(&str, f64)]) -> BenchReport {
        let mut all = rows.to_vec();
        all.extend([(LAZY, 1.0), (EAGER, 10.0)]);
        report(&all)
    }

    fn verdict_of(out: &Outcome, name: &str) -> Verdict {
        out.rows
            .iter()
            .find(|r| r.name == name)
            .expect("row present")
            .verdict
    }

    #[test]
    fn parses_the_real_report_shape_ignoring_extra_stats() {
        let r = BenchReport::parse(
            r#"{"bench_file":"pipelines",
                "groups":{"pipelines":{"table1_scan":{"median_ns": 651631.3,
                "median_cu": 1.1845e1, "samples": 10}}}}"#,
        )
        .expect("parses with extra fields");
        assert_eq!(r.medians()["table1_scan"], 11.845);
    }

    #[test]
    fn threshold_is_twenty_five_percent_in_calibrated_units() {
        let base = with_pair(&[("a", 2.0), ("b", 2.0)]);
        let out = gate(&base, &with_pair(&[("a", 2.48), ("b", 2.52)]));
        assert_eq!(verdict_of(&out, "a"), Verdict::Ok, "1.24x passes");
        assert_eq!(verdict_of(&out, "b"), Verdict::Regressed, "1.26x fails");
        assert!(out.failed);
        assert!(!gate(&base, &with_pair(&[("a", 2.48), ("b", 0.5)])).failed);
    }

    #[test]
    fn a_missing_row_fails_and_a_new_row_passes() {
        let base = with_pair(&[("a", 1.0), ("gone", 1.0)]);
        let out = gate(&base, &with_pair(&[("a", 1.0)]));
        assert_eq!(verdict_of(&out, "gone"), Verdict::Missing);
        assert!(out.failed);
        let out = gate(
            &base,
            &with_pair(&[("a", 1.0), ("gone", 1.0), ("added", 9e9)]),
        );
        assert_eq!(verdict_of(&out, "added"), Verdict::New);
        assert!(!out.failed, "{out:?}");
    }

    #[test]
    fn the_lazy_calendar_must_beat_its_eager_reference_five_times() {
        let base = with_pair(&[]);
        let meets = gate(&base, &report(&[(LAZY, 1.0), (EAGER, 5.0)]));
        assert_eq!(meets.speedup, Some(5.0));
        assert!(!meets.failed, "{meets:?}");
        // Both rows within the threshold of the baseline, but the pair
        // falls short.
        let short = gate(&base, &report(&[(LAZY, 1.2), (EAGER, 5.9)]));
        assert!(short.rows.iter().all(|r| r.verdict == Verdict::Ok));
        assert!(short.failed, "{short:?}");
    }

    #[test]
    fn the_eager_reference_is_held_to_its_baseline_too() {
        // A slower eager path only widens the pair's margin; its own
        // baseline still catches it.
        let out = gate(&with_pair(&[]), &report(&[(LAZY, 1.0), (EAGER, 12.6)]));
        assert_eq!(verdict_of(&out, EAGER), Verdict::Regressed);
        assert!(out.failed, "{out:?}");
    }

    #[test]
    fn a_pair_with_a_missing_side_fails() {
        for fresh in [report(&[(LAZY, 1.0)]), report(&[(EAGER, 10.0)])] {
            let out = gate(&report(&[]), &fresh);
            assert_eq!(out.speedup, None);
            assert!(out.failed, "{out:?}");
        }
    }
}
