//! Seeded, schedule-driven fault injection.
//!
//! The paper's measurements ran against live commercial clouds where
//! channels disappear mid-scan, counters reset on crash-reboots, and
//! sensor telemetry is noisy. A [`FaultPlan`] reproduces those conditions
//! deterministically: every fault is a *time window* precomputed from a
//! seed, and every fault decision is a pure function of (plan, elapsed
//! simulated time, path), so a faulted run is exactly as reproducible as a
//! clean one — `--jobs 1` and `--jobs 4` stay byte-identical because no
//! fault decision depends on wall time, thread scheduling, or mutable
//! shared state.
//!
//! Fault classes:
//!
//! * **Transient pseudo-fs read faults** ([`FsFaultKind`]): a window
//!   during which reads of a seeded subset of paths fail with `EIO` or a
//!   truncated (short) read. Readers that retry after the window has
//!   passed succeed — which is what makes bounded retry-with-backoff in
//!   the scanner meaningful.
//! * **Crash-reboots**: instants at which the kernel rotates its boot id,
//!   resets its uptime clock, and zeroes its monotone hardware counters
//!   (RAPL energy, cpuidle residency) — see
//!   [`Kernel::advance`](crate::Kernel::advance).
//! * **Sensor faults** ([`SensorFaultKind`]): RAPL/coretemp dropout
//!   (reads fail), thermal saturation (DTS pegged at its ceiling), and
//!   energy-counter quantization jitter (coarser counter steps).
//! * **Clock skew**: windows during which `/proc/uptime` is shifted by a
//!   bounded offset, modeling unsynchronized clocks across hosts.
//!
//! Plan times are *relative to installation*
//! ([`Kernel::install_faults`](crate::Kernel::install_faults)), so a plan
//! built for a 10-minute horizon works the same on a freshly booted
//! kernel and on a fleet host fast-forwarded through 20 days of uptime.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::time::NANOS_PER_SEC;

/// How a pseudo-fs read fails inside a transient fault window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsFaultKind {
    /// The read fails outright (`EIO`).
    Eio,
    /// The read returns fewer bytes than the file holds; the simulation
    /// surfaces this as an error rather than fabricating partial data.
    ShortRead,
}

/// How a hardware sensor misbehaves inside a sensor fault window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SensorFaultKind {
    /// The sensor file is unreadable for the window's duration.
    Dropout,
    /// Thermal sensors report their saturation ceiling (a stuck DTS).
    Saturation,
    /// Energy counters are quantized to a coarse step (firmware
    /// truncation), adding deterministic quantization jitter to deltas.
    QuantizationJitter,
}

/// The sensor family a path belongs to, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SensorClass {
    /// RAPL `energy_uj` counters under `/sys/class/powercap`.
    Energy,
    /// coretemp / thermal-zone temperature inputs.
    Temp,
}

#[derive(Debug, Clone, Copy)]
struct FsWindow {
    start_ns: u64,
    end_ns: u64,
    path_salt: u64,
    kind: FsFaultKind,
}

#[derive(Debug, Clone, Copy)]
struct SensorWindow {
    start_ns: u64,
    end_ns: u64,
    kind: SensorFaultKind,
}

#[derive(Debug, Clone, Copy)]
struct SkewWindow {
    start_ns: u64,
    end_ns: u64,
    skew_ns: i64,
}

/// A deterministic fault schedule. Build one with [`FaultPlan::builder`]
/// or take the canonical all-classes plan from [`FaultPlan::standard`],
/// then install it with [`Kernel::install_faults`](crate::Kernel::install_faults).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    fs: Vec<FsWindow>,
    sensors: Vec<SensorWindow>,
    skews: Vec<SkewWindow>,
    reboots_ns: Vec<u64>,
}

impl FaultPlan {
    /// Starts building a plan whose window placement derives from `seed`.
    pub fn builder(seed: u64) -> FaultPlanBuilder {
        // Domain-separation constant: keeps the fault schedule decorrelated
        // from the kernel's own seed-derived streams.
        const PLAN_SALT: u64 = 0xfa17_0001_dead_beef;
        FaultPlanBuilder {
            rng: StdRng::seed_from_u64(seed ^ PLAN_SALT),
            horizon_ns: 600 * NANOS_PER_SEC,
            plan: FaultPlan::default(),
        }
    }

    /// The canonical all-classes plan used by the fault-matrix tests and
    /// the CI byte-compare: transient read faults, sensor faults, clock
    /// skew, and one crash-reboot mid-horizon.
    pub fn standard(seed: u64) -> FaultPlan {
        FaultPlan::builder(seed)
            .horizon_secs(300)
            .transient_reads(6)
            .sensor_faults(6)
            .clock_skew(2)
            .reboot_at_secs(150)
            .build()
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.fs.is_empty()
            && self.sensors.is_empty()
            && self.skews.is_empty()
            && self.reboots_ns.is_empty()
    }

    /// Number of scheduled crash-reboots.
    pub fn reboot_count(&self) -> usize {
        self.reboots_ns.len()
    }

    /// The read fault active for `path` at `rel_ns` nanoseconds after
    /// plan installation, if any. Sensor dropout surfaces here as
    /// [`FsFaultKind::Eio`] on the affected sensor paths.
    pub fn fs_fault(&self, rel_ns: u64, path: &str) -> Option<FsFaultKind> {
        for w in &self.fs {
            if w.start_ns <= rel_ns && rel_ns < w.end_ns && path_hit(w.path_salt, path) {
                return Some(w.kind);
            }
        }
        if sensor_class(path).is_some() {
            for s in &self.sensors {
                if s.kind == SensorFaultKind::Dropout && s.start_ns <= rel_ns && rel_ns < s.end_ns {
                    return Some(FsFaultKind::Eio);
                }
            }
        }
        None
    }

    /// The value-distorting sensor fault active for `path` at `rel_ns`,
    /// if any: [`SensorFaultKind::Saturation`] for temperature paths,
    /// [`SensorFaultKind::QuantizationJitter`] for energy counters.
    /// Dropout is reported via [`FaultPlan::fs_fault`] instead.
    pub fn sensor_transform(&self, rel_ns: u64, path: &str) -> Option<SensorFaultKind> {
        let class = sensor_class(path)?;
        for s in &self.sensors {
            if s.start_ns <= rel_ns && rel_ns < s.end_ns {
                match (s.kind, class) {
                    (SensorFaultKind::Saturation, SensorClass::Temp) => {
                        return Some(SensorFaultKind::Saturation)
                    }
                    (SensorFaultKind::QuantizationJitter, SensorClass::Energy) => {
                        return Some(SensorFaultKind::QuantizationJitter)
                    }
                    _ => {}
                }
            }
        }
        None
    }

    /// The clock-skew offset (nanoseconds, possibly negative) applied to
    /// uptime reads at `rel_ns`. Zero outside every skew window.
    pub fn clock_skew_ns(&self, rel_ns: u64) -> i64 {
        for w in &self.skews {
            if w.start_ns <= rel_ns && rel_ns < w.end_ns {
                return w.skew_ns;
            }
        }
        0
    }

    /// Whether a crash-reboot is scheduled in `(rel_a, rel_b]`.
    pub fn reboot_in(&self, rel_a: u64, rel_b: u64) -> bool {
        self.reboots_ns.iter().any(|&r| rel_a < r && r <= rel_b)
    }

    /// The first scheduled crash-reboot strictly after `rel_ns`, if any.
    pub fn next_reboot_after(&self, rel_ns: u64) -> Option<u64> {
        self.reboots_ns.iter().copied().find(|&r| r > rel_ns)
    }

    /// The next instant strictly after `rel_ns` at which *any* fault state
    /// changes: a window of any class opening or closing, or a reboot.
    /// Between two consecutive such events every fault query is constant
    /// in time, which is what lets a quiescent kernel coalesce straight to
    /// the horizon without changing any fault decision.
    pub fn next_event_after(&self, rel_ns: u64) -> Option<u64> {
        let fs = self.fs.iter().flat_map(|w| [w.start_ns, w.end_ns]);
        let sensors = self.sensors.iter().flat_map(|w| [w.start_ns, w.end_ns]);
        let skews = self.skews.iter().flat_map(|w| [w.start_ns, w.end_ns]);
        let reboots = self.reboots_ns.iter().copied();
        fs.chain(sensors)
            .chain(skews)
            .chain(reboots)
            .filter(|&t| t > rel_ns)
            .min()
    }
}

/// Builder for [`FaultPlan`]; every window's placement is drawn from the
/// builder's seeded RNG, so equal seeds yield equal plans.
#[derive(Debug)]
pub struct FaultPlanBuilder {
    rng: StdRng,
    horizon_ns: u64,
    plan: FaultPlan,
}

impl FaultPlanBuilder {
    /// Sets the scheduling horizon (seconds after installation) within
    /// which seeded windows are placed. Default: 600 s.
    #[must_use]
    pub fn horizon_secs(mut self, secs: u64) -> Self {
        self.horizon_ns = secs.max(1) * NANOS_PER_SEC;
        self
    }

    /// Adds `n` transient read-fault windows (1–3 s each, alternating
    /// `EIO` and short reads), each hitting a seeded ~third of paths.
    #[must_use]
    pub fn transient_reads(mut self, n: usize) -> Self {
        for i in 0..n {
            let (start_ns, end_ns) = self.window(1, 3);
            self.plan.fs.push(FsWindow {
                start_ns,
                end_ns,
                path_salt: self.rng.random(),
                kind: if i % 2 == 0 {
                    FsFaultKind::Eio
                } else {
                    FsFaultKind::ShortRead
                },
            });
        }
        self
    }

    /// Adds `n` sensor-fault windows (2–6 s each), cycling through
    /// dropout, saturation, and quantization jitter.
    #[must_use]
    pub fn sensor_faults(mut self, n: usize) -> Self {
        const KINDS: [SensorFaultKind; 3] = [
            SensorFaultKind::Dropout,
            SensorFaultKind::Saturation,
            SensorFaultKind::QuantizationJitter,
        ];
        for i in 0..n {
            let (start_ns, end_ns) = self.window(2, 6);
            self.plan.sensors.push(SensorWindow {
                start_ns,
                end_ns,
                kind: KINDS[i % KINDS.len()],
            });
        }
        self
    }

    /// Adds `n` clock-skew windows (5–20 s each) shifting uptime reads by
    /// ±0.5–2 s.
    #[must_use]
    pub fn clock_skew(mut self, n: usize) -> Self {
        for i in 0..n {
            let (start_ns, end_ns) = self.window(5, 20);
            let magnitude = self.rng.random_range(NANOS_PER_SEC / 2..2 * NANOS_PER_SEC) as i64;
            self.plan.skews.push(SkewWindow {
                start_ns,
                end_ns,
                skew_ns: if i % 2 == 0 { magnitude } else { -magnitude },
            });
        }
        self
    }

    /// Schedules a crash-reboot exactly `secs` after installation.
    #[must_use]
    pub fn reboot_at_secs(mut self, secs: u64) -> Self {
        self.plan.reboots_ns.push(secs.max(1) * NANOS_PER_SEC);
        self.plan.reboots_ns.sort_unstable();
        self
    }

    /// Schedules `n` crash-reboots at seeded instants within the horizon.
    #[must_use]
    pub fn reboots(mut self, n: usize) -> Self {
        for _ in 0..n {
            let at = self
                .rng
                .random_range(NANOS_PER_SEC..self.horizon_ns.max(2 * NANOS_PER_SEC));
            self.plan.reboots_ns.push(at);
        }
        self.plan.reboots_ns.sort_unstable();
        self
    }

    /// Finishes the plan.
    pub fn build(self) -> FaultPlan {
        self.plan
    }

    /// A seeded `[start, end)` window of `min..=max` whole seconds,
    /// placed within the horizon.
    fn window(&mut self, min_secs: u64, max_secs: u64) -> (u64, u64) {
        let dur = self.rng.random_range(min_secs..max_secs + 1) * NANOS_PER_SEC;
        let latest = self.horizon_ns.saturating_sub(dur).max(1);
        let start = self.rng.random_range(0..latest);
        (start, start + dur)
    }
}

/// The deterministic path selector for transient windows: each window's
/// salt picks a stable ~third of all paths. The hash is FNV-1a's shape
/// with a 2^48 + 0x1b3 multiplier, not FNV's 2^40 + 0x1b3, so it is not
/// [`crate::fnv1a`]; every fault schedule's bytes rest on it.
fn path_hit(salt: u64, path: &str) -> bool {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in path.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    (h ^ salt)
        .wrapping_mul(0x2545_f491_4f6c_dd1d)
        .is_multiple_of(3)
}

/// Whether `path` is a hardware-sensor channel (a RAPL `energy_uj`
/// counter or a coretemp/thermal temperature input) — the paths sensor
/// dropout windows turn into `EIO` reads. Public so fault observers can
/// classify an injected `EIO` as sensor dropout vs. a plain fs fault.
pub fn is_sensor_path(path: &str) -> bool {
    sensor_class(path).is_some()
}

fn sensor_class(path: &str) -> Option<SensorClass> {
    if path.starts_with("/sys/class/powercap/") && path.ends_with("/energy_uj") {
        return Some(SensorClass::Energy);
    }
    if (path.contains("/coretemp.") && path.ends_with("_input"))
        || (path.starts_with("/sys/class/thermal/") && path.ends_with("/temp"))
    {
        return Some(SensorClass::Temp);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_build_equal_plans() {
        let a = FaultPlan::standard(42);
        let b = FaultPlan::standard(42);
        // Pure query equivalence over a time sweep stands in for Eq.
        for t in (0..300).map(|s| s * NANOS_PER_SEC) {
            assert_eq!(a.fs_fault(t, "/proc/stat"), b.fs_fault(t, "/proc/stat"));
            assert_eq!(a.clock_skew_ns(t), b.clock_skew_ns(t));
        }
        assert_eq!(a.reboot_count(), b.reboot_count());
    }

    #[test]
    fn queries_are_pure_functions_of_time_and_path() {
        let p = FaultPlan::standard(7);
        let f1 = p.fs_fault(10 * NANOS_PER_SEC, "/proc/meminfo");
        let f2 = p.fs_fault(10 * NANOS_PER_SEC, "/proc/meminfo");
        assert_eq!(f1, f2);
    }

    #[test]
    fn windows_end() {
        let p = FaultPlan::builder(3)
            .horizon_secs(10)
            .transient_reads(50)
            .build();
        // Somewhere a fault fires…
        let fired = (0..10 * NANOS_PER_SEC)
            .step_by(NANOS_PER_SEC as usize / 4)
            .any(|t| p.fs_fault(t, "/proc/uptime").is_some());
        assert!(fired, "50 windows over 10 s should hit /proc/uptime");
        // …and far beyond the horizon nothing does.
        assert_eq!(p.fs_fault(3_600 * NANOS_PER_SEC, "/proc/uptime"), None);
    }

    #[test]
    fn sensor_faults_only_touch_sensor_paths() {
        let p = FaultPlan::builder(9)
            .horizon_secs(5)
            .sensor_faults(30)
            .build();
        for t in (0..5 * NANOS_PER_SEC).step_by(NANOS_PER_SEC as usize / 2) {
            assert_eq!(p.sensor_transform(t, "/proc/meminfo"), None);
            assert_eq!(p.fs_fault(t, "/proc/meminfo"), None);
        }
        let energy = "/sys/class/powercap/intel-rapl:0/energy_uj";
        let any_energy = (0..5 * NANOS_PER_SEC)
            .step_by(NANOS_PER_SEC as usize / 4)
            .any(|t| p.sensor_transform(t, energy).is_some() || p.fs_fault(t, energy).is_some());
        assert!(any_energy, "30 sensor windows over 5 s should hit RAPL");
    }

    #[test]
    fn reboot_scheduling_is_half_open() {
        let p = FaultPlan::builder(1).reboot_at_secs(150).build();
        let r = 150 * NANOS_PER_SEC;
        assert!(p.reboot_in(r - 1, r));
        assert!(!p.reboot_in(r, r + NANOS_PER_SEC));
        assert!(!p.reboot_in(0, r - 1));
    }

    #[test]
    fn next_event_walks_every_window_edge() {
        let p = FaultPlan::standard(42);
        // Walking event-to-event must terminate and visit strictly
        // increasing instants.
        let mut t = 0u64;
        let mut edges = 0usize;
        while let Some(next) = p.next_event_after(t) {
            assert!(next > t);
            t = next;
            edges += 1;
            assert!(edges < 1_000, "event walk must terminate");
        }
        // standard(): 6 fs + 6 sensor + 2 skew windows (2 edges each) and
        // one reboot — edges can coincide, so at most 29, at least a few.
        assert!((2..=29).contains(&edges), "unexpected edge count {edges}");
        // Every fault query is constant between consecutive events.
        let r = 150 * NANOS_PER_SEC;
        assert_eq!(p.next_reboot_after(r - 1), Some(r));
        assert_eq!(p.next_reboot_after(r), None);
    }

    #[test]
    fn skew_is_bounded_and_zero_outside_windows() {
        let p = FaultPlan::builder(5).horizon_secs(60).clock_skew(4).build();
        for t in (0..60 * NANOS_PER_SEC).step_by(NANOS_PER_SEC as usize) {
            let s = p.clock_skew_ns(t);
            assert!(s.unsigned_abs() <= 2 * NANOS_PER_SEC);
        }
        assert_eq!(p.clock_skew_ns(7_200 * NANOS_PER_SEC), 0);
    }
}
