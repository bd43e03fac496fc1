//! End-to-end wall-clock benchmark of the ContainerLeaks reproduction.
//!
//! One process runs one workload, pinned to one CPU: an untimed warm-up
//! pass, then timed passes until the requested seconds have elapsed,
//! and — when asked for per-layer numbers — a read probe and one traced
//! pass. Every pass builds its input afresh from the seed, runs it
//! (timed as the pass's wall time, operation by operation), and checks
//! its output against a reference; set-up is timed separately, back to
//! back. Times are scaled to the reference speed by a calibration thread
//! (the `calib` module). See `README.md` for the workloads, the metrics
//! and the layer each metric belongs to.
//!
//! The benchmark drives only the public APIs of the reproduction's
//! crates; spans are recorded here, around the calls into each layer.

mod busy_attack;
mod calib;
mod campaign;
mod fleet_churn;
mod json;
mod probe;
mod protocol;
mod registry;
mod spans;
mod stats;

use std::time::Instant;

pub use protocol::{run, Options, Report};
use spans::Spans;

/// The workloads, in the order the README describes them.
pub const WORKLOADS: [&str; 4] = ["registry", "busy_attack", "fleet_churn", "campaign"];

/// End-to-end metrics: name, unit and bound. A run flags a metric whose
/// interquartile range over its samples exceeds `bound` times their
/// median. Every workload reports all of them; `BENCHMARK.json` carries
/// the same bounds.
pub const END_TO_END: [(&str, &str, f64); 3] = [
    ("setup_s", "s", 0.25),
    ("wall_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.15),
];

/// Per-layer metrics from the traced pass, the read probe and the
/// simtrace counters, with their units. Every workload reports all of
/// them; a layer a workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    // Share of the traced pass's wall time spent in each layer call.
    ("core.exp.fig2.share", "frac"),
    ("core.exp.rack_attack.share", "frac"),
    ("core.exp.detection.share", "frac"),
    ("core.exp.defense_fleet.share", "frac"),
    ("core.exp.other.share", "frac"),
    ("powersim.rapl_sample.share", "frac"),
    ("powersim.trace_apply.share", "frac"),
    ("cloudsim.advance_secs.share", "frac"),
    ("cloudsim.host_power_w.share", "frac"),
    ("cloudsim.set_process_workload.share", "frac"),
    ("cloudsim.launch.share", "frac"),
    ("cloudsim.terminate.share", "frac"),
    ("cloudsim.bill.share", "frac"),
    ("cloudsim.read_file.share", "frac"),
    ("leakscan.attacker_step.share", "frac"),
    ("campaign.churn_soundness.share", "frac"),
    ("campaign.mode_invariance.share", "frac"),
    ("campaign.shard_invariance.share", "frac"),
    ("campaign.other_oracles.share", "frac"),
    ("bench.self.share", "frac"),
    // Cost of one pseudo-file read through the cloud, untraced probe.
    ("cloudsim.read_file.rapl_miss_us", "us"),
    ("cloudsim.read_file.rapl_hit_us", "us"),
    ("cloudsim.read_file.enoent_us", "us"),
    ("cloudsim.read_file.proc_stat_miss_us", "us"),
    // simtrace counter deltas over the traced pass.
    ("pseudofs.cache_miss", "count"),
    ("pseudofs.cache_hit", "count"),
    ("pseudofs.cache_hit_ratio", "frac"),
    ("kernel.epoch_bump", "count"),
    ("kernel.run_ticks", "count"),
    ("cloud.hosts_advanced", "count"),
    ("cloud.calendar_pops", "count"),
    ("detector.observations", "count"),
    ("detector.flags", "count"),
    ("churn.envs_created", "count"),
    ("cloudsim.launch_refused", "count"),
    // Traced pass wall time over the untraced median, minus one.
    ("simtrace.overhead_frac", "frac"),
];

/// How big a workload's input is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's input.
    Full,
    /// A seconds-long input with the same shape, for tests.
    Smoke,
}

/// The outcome of checking one pass's output.
#[derive(Debug, Default, Clone)]
pub(crate) struct Checked {
    /// Operations and reference checks performed.
    pub attempted: u64,
    /// Why each failed check failed.
    pub failures: Vec<String>,
    /// Digest of the output; every pass of one run must agree on it.
    pub digest: u64,
    /// Requests the system refused by design (a launch on a full fleet),
    /// counted apart from failures.
    pub refused: u64,
}

/// A workload: a fixed input derived from the seed, consumed by a pass.
pub(crate) trait Workload {
    /// The state one pass consumes.
    type Input;
    /// What one pass produces for the check.
    type Output;

    /// The workload at `seed`, at input size `size`.
    fn new(seed: u64, size: Size) -> Self;

    /// Builds one pass's input. `traced` is set for the traced pass,
    /// which may need handles that the untraced library path hides.
    fn setup(&self, traced: bool) -> Self::Input;

    /// The timed section. Pushes each operation's latency in ms to
    /// `ops_ms` and records spans around layer calls into `spans`.
    fn run(&self, input: Self::Input, ops_ms: &mut Vec<f64>, spans: &mut Spans) -> Self::Output;

    /// Checks one pass's output against the workload's reference.
    fn check(&self, out: &Self::Output) -> Checked;
}

/// Runs `f`, appending its latency in milliseconds to `ops_ms`
/// (calibration chunks included).
pub(crate) fn timed_op<T>(ops_ms: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    ops_ms.push(t.elapsed().as_secs_f64() * 1e3);
    out
}

/// Settles the process before anything is measured; call it first thing
/// in `main`, before any thread exists.
///
/// - It pins the process to the CPU it is running on. The simulator
///   sizes its worker pool from the CPUs it may use, so every fleet
///   advance then runs serially on the calling thread: the load comes
///   from one thread, and the timings measure the program rather than
///   how the shared host schedules two threads against each other. The
///   calibration thread shares that CPU, so its chunks pre-empt the
///   workload rather than run beside it, and their time can be taken
///   out of the workload's.
/// - It stops the allocator from handing freed memory back to the
///   kernel. Every pass builds its input afresh and drops it; by default
///   the freed pages go back to the kernel, which on a guest with
///   free-page reporting hands them to the host, and the next pass
///   faults them in again at whatever the host charges at that moment
///   (a 10 000-host `fleet_churn` pass swung between 1.0 and 2.3 s).
///   Kept, the heap is reused warm from pass to pass.
///
/// Both are best effort: on other platforms, or if a call fails, the
/// process runs as it is.
pub fn settle_process() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
            fn sched_getcpu() -> c_int;
            fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
        }
        // SAFETY: `mallopt` only changes allocator tunables, and
        // `sched_setaffinity` reads a `cpu_set_t`-sized (1024-bit) mask
        // that lives across the call. No other thread exists yet.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, c_int::MAX);
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            let cpu = sched_getcpu();
            if (0..1024).contains(&cpu) {
                let mut mask = [0u64; 16];
                mask[cpu as usize / 64] = 1 << (cpu % 64);
                sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
            }
        }
    }
}

/// SplitMix64: the seeded word stream inputs are generated from.
pub(crate) fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a digest `h`.
pub(crate) fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}
