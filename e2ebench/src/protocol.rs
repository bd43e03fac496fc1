//! The run protocol shared by every workload, and the metrics it reports.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use containerleaks::simtrace::{self, TimedEvent, TraceSink};

use crate::busy_attack::BusyAttack;
use crate::calib::{Calibrator, Stretch};
use crate::campaign::Campaign;
use crate::fleet_churn::FleetChurn;
use crate::registry::Registry;
use crate::spans::{SelfTime, Spans};
use crate::stats::{median, percentile, quartiles, spread, tail_level};
use crate::{json, probe, Checked, Size, Workload, END_TO_END, PER_LAYER, WORKLOADS};

/// Set-up is timed back to back, each input dropped before the next is
/// built and calibration chunks run between them, until there are
/// `MIN_SETUPS` samples and `SETUP_MIN_S` seconds have passed (or there
/// are `MAX_SETUPS`). Timing the set-up that each pass does instead
/// would catch it on whatever heap the previous pass left.
const MIN_SETUPS: usize = 9;
const MAX_SETUPS: usize = 10_000;
const SETUP_MIN_S: f64 = 0.3;

/// A `setup_s` spread or median difference under this many seconds is
/// within the bound whatever its share: sub-millisecond set-ups (deriving
/// forty scenarios, reading one file) vary by tens of percent from run
/// to run, and nobody waits for them.
const SETUP_FLOOR_S: f64 = 0.005;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Timed passes start until this many seconds have elapsed (at least
    /// one pass runs).
    pub seconds: f64,
    /// Report per-layer metrics from a read probe and a traced pass
    /// instead of the end-to-end metrics.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Where the traced pass's spans are written as JSONL.
    pub spans_path: Option<PathBuf>,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Operations and checks attempted over every pass.
    pub attempted: u64,
    /// Why each failed check failed.
    pub failures: Vec<String>,
    /// Every metric measured: name, value, unit.
    pub all_metrics: Vec<(String, f64, String)>,
    /// The metrics this mode reports: every end-to-end metric untraced,
    /// every per-layer metric traced.
    pub metrics: Vec<(String, f64, String)>,
    /// Human-readable lines: every metric, quartiles, span self times.
    pub lines: Vec<String>,
}

impl Report {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(name),
                json::number(*value),
                json::string(unit)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted,
            self.failures.len()
        )
    }
}

/// Runs the workload `opts` names.
///
/// # Errors
///
/// An unknown workload name.
pub fn run(opts: &Options) -> Result<Report, String> {
    Ok(match opts.workload.as_str() {
        "registry" => drive::<Registry>(opts),
        "busy_attack" => drive::<BusyAttack>(opts),
        "fleet_churn" => drive::<FleetChurn>(opts),
        "campaign" => drive::<Campaign>(opts),
        other => {
            return Err(format!(
                "unknown workload {other:?}; known: {}",
                WORKLOADS.join(", ")
            ))
        }
    })
}

/// One pass's measurements.
#[derive(Debug)]
struct Pass {
    /// Wall time, calibration chunks excluded: as measured, and scaled
    /// to the reference speed.
    wall: Stretch,
    ops_ms: Vec<f64>,
    checked: Checked,
}

fn pass<W: Workload>(w: &W, calib: &mut Calibrator, spans: &mut Spans) -> Pass {
    let input = w.setup(spans.enabled());
    let mut ops_ms = Vec::new();
    calib.start();
    spans.enter("bench.pass");
    let out = w.run(input, &mut ops_ms, spans);
    spans.exit();
    Pass {
        wall: calib.stop().stretch(),
        ops_ms,
        checked: w.check(&out),
    }
}

/// Counts the events every traced kernel flushes and drops them, so a
/// long traced pass holds no more than one kernel's buffer at a time.
#[derive(Debug, Default)]
struct CountingSink {
    events: AtomicU64,
}

impl TraceSink for CountingSink {
    fn flush(&self, _scope: &str, events: Vec<TimedEvent>) {
        self.events
            .fetch_add(events.len() as u64, Ordering::Relaxed);
    }
}

/// The process's sink, installed on first use (a process installs one
/// sink for good; every later traced pass reuses it).
fn sink() -> Arc<CountingSink> {
    static SINK: OnceLock<Arc<CountingSink>> = OnceLock::new();
    SINK.get_or_init(|| {
        let s = Arc::new(CountingSink::default());
        simtrace::install(s.clone());
        s
    })
    .clone()
}

fn counters() -> BTreeMap<String, u64> {
    simtrace::counters::snapshot()
        .into_iter()
        .map(|e| (e.name, e.value))
        .collect()
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Accumulates metrics and the human-readable lines describing them.
struct Out {
    workload: String,
    metrics: BTreeMap<&'static str, f64>,
    lines: Vec<String>,
}

impl Out {
    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Quartiles of one metric's per-pass samples; flags a spread wider
    /// than the metric's bound unless the interquartile range is under
    /// `floor` (same unit as the samples).
    fn quartiles(&mut self, name: &str, samples: &[f64], bound: f64, floor: f64) {
        let [q1, med, q3] = quartiles(samples);
        let s = spread(samples);
        let verdict = if s <= bound {
            "ok"
        } else if q3 - q1 < floor {
            "ok(under-floor)"
        } else {
            "WIDE"
        };
        self.lines.push(format!(
            "{} {name} quartiles q1={q1:.6} median={med:.6} q3={q3:.6} n={} spread={s:.4} bound={bound} {verdict}",
            self.workload,
            samples.len()
        ));
    }
}

/// Set-up times as measured (calibration chunks taken out), and the
/// slowdown the chunks saw.
fn setup_times<W: Workload>(w: &W, calib: &mut Calibrator) -> (Vec<f64>, f64) {
    calib.start();
    let start = Instant::now();
    let mut spans = Vec::new();
    while spans.len() < MIN_SETUPS
        || (spans.len() < MAX_SETUPS && start.elapsed().as_secs_f64() < SETUP_MIN_S)
    {
        let t = Instant::now();
        let input = w.setup(false);
        spans.push((t, Instant::now()));
        drop(input);
    }
    let window = calib.stop();
    let samples = spans
        .iter()
        .map(|&(a, b)| ((b - a) - window.chunk_time(a, b)).as_secs_f64())
        .collect();
    (samples, window.stretch().slowdown())
}

fn drive<W: Workload>(opts: &Options) -> Report {
    let mut calib = Calibrator::spawn();
    // The untimed warm-up runs the smoke-size input: code, allocator and
    // calibration thread warm up without paying for a full pass.
    let warm = pass(
        &W::new(opts.seed, Size::Smoke),
        &mut calib,
        &mut Spans::off(),
    )
    .checked;
    let (mut attempted, mut failures) = (warm.attempted, warm.failures);

    let w = W::new(opts.seed, opts.size);
    let mut timed = Vec::new();
    let start = Instant::now();
    while timed.is_empty() || start.elapsed().as_secs_f64() < opts.seconds {
        timed.push(pass(&w, &mut calib, &mut Spans::off()));
    }
    let (raw_setups, setup_slowdown) = setup_times(&w, &mut calib);

    let mut out = Out {
        workload: opts.workload.clone(),
        metrics: BTreeMap::new(),
        lines: Vec::new(),
    };
    // Times as measured, and scaled to the reference speed (the metrics).
    let raw_walls: Vec<f64> = timed.iter().map(|p| p.wall.measured_s).collect();
    let walls: Vec<f64> = timed.iter().map(|p| p.wall.scaled_s).collect();
    let setups: Vec<f64> = raw_setups.iter().map(|s| s / setup_slowdown).collect();
    for p in &timed {
        out.lines.push(format!(
            "{} pass measured_s={:.6} slowdown={:.4} wall_s={:.6}",
            opts.workload,
            p.wall.measured_s,
            p.wall.slowdown(),
            p.wall.scaled_s
        ));
    }
    let chunks = calib.samples();
    out.lines.push(format!(
        "{} measured wall_s={:.6} setup_s={:.6} setup_slowdown={setup_slowdown:.4} \
         calibration chunks={} median_s={:.9}",
        opts.workload,
        median(&raw_walls),
        median(&raw_setups),
        chunks.len(),
        median(&chunks)
    ));
    out.put("setup_s", median(&setups));
    out.put("wall_s", median(&walls));
    out.put("peak_rss_mb", peak_rss_mb());
    for (name, samples, floor) in [("setup_s", &setups, SETUP_FLOOR_S), ("wall_s", &walls, 0.0)] {
        let bound = END_TO_END
            .iter()
            .find(|m| m.0 == name)
            .map_or(f64::NAN, |m| m.2);
        out.quartiles(name, samples, bound, floor);
    }
    // Operation latencies are reported here, not as metrics: `registry`
    // and `busy_attack` complete too few operations per run for a tail
    // percentile, and `registry`'s median operation is a millisecond-long
    // experiment whose time is mostly noise.
    let ops: Vec<f64> = timed
        .iter()
        .flat_map(|p| p.ops_ms.iter().copied())
        .collect();
    let tail = match tail_level(ops.len()) {
        Some(q) => format!("p{}={:.6}", q * 100.0, percentile(&ops, q)),
        None => "none".to_string(),
    };
    out.lines.push(format!(
        "{} ops_ms n={} per_pass={} p50={:.6} tail(>=10 beyond)={tail}",
        opts.workload,
        ops.len(),
        timed.first().map_or(0, |p| p.ops_ms.len()),
        percentile(&ops, 0.5)
    ));
    let mut checks: Vec<Checked> = timed.into_iter().map(|p| p.checked).collect();
    if opts.trace {
        traced(
            &w,
            opts,
            &mut calib,
            median(&walls),
            &mut out,
            &mut checks,
            &mut failures,
        );
    }

    // Every full-size pass, traced included, must reproduce the first.
    let reference = checks[0].digest;
    for (i, c) in checks.iter().enumerate() {
        attempted += c.attempted + u64::from(i > 0);
        failures.extend(c.failures.iter().cloned());
        if c.digest != reference {
            failures.push(format!(
                "pass {i}: output digest differs from the first timed pass"
            ));
        }
    }
    let fail_ratio = failures.len() as f64 / attempted as f64;
    out.lines.push(format!(
        "{} fail_ratio {fail_ratio} ratio (failed {} of {attempted})",
        opts.workload,
        failures.len()
    ));

    let unit_of = |name: &str| {
        END_TO_END
            .iter()
            .map(|&(n, u, _)| (n, u))
            .chain(PER_LAYER)
            .find(|&(n, _)| n == name)
            .map_or("", |(_, u)| u)
    };
    let all_metrics: Vec<(String, f64, String)> = out
        .metrics
        .iter()
        .map(|(&n, &v)| (n.to_string(), v, unit_of(n).to_string()))
        .collect();
    let mut lines: Vec<String> = all_metrics
        .iter()
        .map(|(n, v, u)| format!("{} {n} {v} {u}", opts.workload))
        .collect();
    lines.append(&mut out.lines);
    let reported: Vec<&str> = if opts.trace {
        PER_LAYER.iter().map(|&(n, _)| n).collect()
    } else {
        END_TO_END.iter().map(|&(n, _, _)| n).collect()
    };
    let metrics = reported
        .into_iter()
        .map(|n| {
            (
                n.to_string(),
                out.metrics.get(n).copied().unwrap_or(f64::NAN),
                unit_of(n).to_string(),
            )
        })
        .collect();
    Report {
        attempted,
        failures,
        all_metrics,
        metrics,
        lines,
    }
}

/// The per-layer half: the read probe, then one traced pass with spans
/// around each layer call and simtrace's counters switched on.
fn traced<W: Workload>(
    w: &W,
    opts: &Options,
    calib: &mut Calibrator,
    untraced_wall_s: f64,
    out: &mut Out,
    checks: &mut Vec<Checked>,
    failures: &mut Vec<String>,
) {
    // Read latencies are scaled to the reference speed like pass times.
    calib.start();
    let probed = probe::run(opts.seed);
    let slowdown = calib.stop().stretch().slowdown();
    match probed {
        Ok(p) => {
            out.put("cloudsim.read_file.rapl_miss_us", p.rapl_miss_us / slowdown);
            out.put("cloudsim.read_file.rapl_hit_us", p.rapl_hit_us / slowdown);
            out.put("cloudsim.read_file.enoent_us", p.enoent_us / slowdown);
            out.put(
                "cloudsim.read_file.proc_stat_miss_us",
                p.proc_stat_miss_us / slowdown,
            );
        }
        Err(e) => failures.push(e),
    }

    let sink = sink();
    let events_before = sink.events.load(Ordering::Relaxed);
    let before = counters();
    let mut spans = Spans::on();
    let p = {
        let _scope = simtrace::scope(&opts.workload);
        pass(w, calib, &mut spans)
    };
    let after = counters();
    let delta = |name: &str| {
        after.get(name).copied().unwrap_or(0) as f64 - before.get(name).copied().unwrap_or(0) as f64
    };
    for (name, unit) in PER_LAYER {
        if unit == "count" && name != "cloudsim.launch_refused" {
            out.put(name, delta(name));
        }
    }
    let (hit, miss) = (delta("pseudofs.cache_hit"), delta("pseudofs.cache_miss"));
    out.put(
        "pseudofs.cache_hit_ratio",
        if hit + miss > 0.0 {
            hit / (hit + miss)
        } else {
            0.0
        },
    );
    out.put("cloudsim.launch_refused", p.checked.refused as f64);
    out.put(
        "simtrace.overhead_frac",
        p.wall.scaled_s / untraced_wall_s - 1.0,
    );

    let root_s = spans
        .spans()
        .first()
        .map_or(f64::NAN, |s| (s.end_ns - s.start_ns) as f64 * 1e-9);
    let st = spans.self_times();
    shares(&st, root_s, out);
    for (name, t) in &st {
        out.lines.push(format!(
            "{} span {name} self_s={:.6} calls={} share={:.4}",
            opts.workload,
            t.self_s,
            t.calls,
            t.self_s / root_s
        ));
    }
    out.lines.push(format!(
        "{} traced measured_s={:.6} slowdown={:.4} wall_s={:.6} events={}",
        opts.workload,
        p.wall.measured_s,
        p.wall.slowdown(),
        p.wall.scaled_s,
        sink.events.load(Ordering::Relaxed) - events_before
    ));
    if let Some(path) = &opts.spans_path {
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::File::create(path))
            .and_then(|f| spans.write_jsonl(std::io::BufWriter::new(f), &opts.workload, "traced"));
        if let Err(e) = written {
            failures.push(format!("writing {}: {e}", path.display()));
        }
    }
    checks.push(p.checked);
}

/// Shares of the traced pass's wall time: one per `*.share` metric.
/// `core.exp.other` and `campaign.other_oracles` take every span of
/// their layer that no metric of its own names; `bench.self` takes the
/// benchmark's own spans.
fn shares(st: &BTreeMap<String, SelfTime>, root_s: f64, out: &mut Out) {
    let named: Vec<&str> = PER_LAYER
        .iter()
        .filter_map(|(n, _)| n.strip_suffix(".share"))
        .collect();
    let sum = |pred: &dyn Fn(&str) -> bool| -> f64 {
        st.iter()
            .filter(|(n, _)| pred(n))
            .fold(0.0, |acc, (_, t)| acc + t.self_s)
            / root_s
    };
    for (metric, _) in PER_LAYER {
        let Some(span) = metric.strip_suffix(".share") else {
            continue;
        };
        let value = match span {
            "bench.self" => sum(&|n| n.starts_with("bench.")),
            "core.exp.other" => sum(&|n| n.starts_with("core.exp.") && !named.contains(&n)),
            "campaign.other_oracles" => sum(&|n| n.starts_with("campaign.") && !named.contains(&n)),
            _ => sum(&|n| n == span),
        };
        out.put(metric, value);
    }
}
