//! Machine-speed calibration.
//!
//! The benchmark's reference box is two vCPUs of a shared host, and their
//! speed drifts: the same pass runs 30–50% slower for seconds to minutes
//! at a time, more than a median over one run can absorb. Timing fixed
//! loops showed which code drifts. A serial chain of multiplies in L1
//! and a pointer chase through DRAM stay within a few percent, while
//! code shaped like the simulator (allocating, hashing, formatting,
//! walking ordered maps) drifts with the workloads.
//!
//! So a calibration thread, pinned with the rest of the process to one
//! CPU, wakes every `CADENCE` while a stretch of workload time is being
//! timed and runs a chunk of exactly that kind of code, pre-empting the
//! workload for about a tenth of a millisecond. The chunks' own time is
//! taken out of the stretch, and the rest is scaled to the reference
//! speed segment by segment: the workload time around each `SEGMENT`
//! consecutive chunks is divided by their median time over `NOMINAL_S`,
//! so a pass that straddles a change of speed is scaled piece by piece,
//! even inside one long library call. A chunk runs its kernel twice and
//! times only the second run, so the caches the workload leaves behind
//! do not reach the timing. The kernel is the benchmark's own code and
//! calls nothing in the reproduction's crates, so no change to them can
//! move it.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::stats::median;

/// The timed kernel's median time at the reference speed, seconds: what
/// it took on the reference box in its usual state.
pub const NOMINAL_S: f64 = 50e-6;
/// Sleep between chunks.
const CADENCE: Duration = Duration::from_millis(5);
/// Chunks per segment.
const SEGMENT: usize = 16;

/// One chunk: when it held the CPU, and its timed kernel's time.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    start: Instant,
    end: Instant,
    kernel_s: f64,
}

/// What the calibration thread and the timing thread share.
#[derive(Debug, Default)]
struct Shared {
    /// Whether a stretch is being timed.
    active: bool,
    quit: bool,
    /// Chunks of the stretch being timed.
    chunks: Vec<Chunk>,
    /// Every timed kernel run so far, seconds.
    samples: Vec<f64>,
}

/// A stretch of workload time: as measured, and scaled to the
/// reference speed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stretch {
    /// Workload time as measured, chunks excluded, seconds.
    pub measured_s: f64,
    /// The same time at the reference speed, seconds.
    pub scaled_s: f64,
}

impl Stretch {
    /// How much slower than the reference the stretch ran.
    pub fn slowdown(&self) -> f64 {
        self.measured_s / self.scaled_s
    }
}

/// A timed stretch and the chunks that ran inside it.
#[derive(Debug)]
pub struct Window {
    start: Instant,
    end: Instant,
    chunks: Vec<Chunk>,
}

impl Window {
    /// Time the chunks held the CPU between `from` and `to`.
    pub fn chunk_time(&self, from: Instant, to: Instant) -> Duration {
        self.chunks
            .iter()
            .map(|c| c.end.min(to).saturating_duration_since(c.start.max(from)))
            .sum()
    }

    /// The window's workload time, measured and scaled segment by
    /// segment. The gap before each chunk belongs to the chunk's
    /// segment; the gap after the last chunk to the last segment.
    pub fn stretch(&self) -> Stretch {
        let mut out = Stretch::default();
        let mut work = Duration::ZERO;
        let mut at = self.start;
        for (i, seg) in self.chunks.chunks(SEGMENT).enumerate() {
            for c in seg {
                work += c.start.saturating_duration_since(at);
                at = c.end;
            }
            if (i + 1) * SEGMENT >= self.chunks.len() {
                work += self.end.saturating_duration_since(at);
            }
            let kernel: Vec<f64> = seg.iter().map(|c| c.kernel_s).collect();
            let measured_s = std::mem::take(&mut work).as_secs_f64();
            out.measured_s += measured_s;
            out.scaled_s += measured_s / (median(&kernel) / NOMINAL_S);
        }
        out
    }
}

/// The calibration thread and the chunks it has run.
#[derive(Debug)]
pub struct Calibrator {
    shared: Arc<Mutex<Shared>>,
    started: Instant,
    thread: Option<JoinHandle<()>>,
}

/// Locks `shared`. Every update to it is a single push or flag write, so
/// the data is valid even after a thread panicked holding the lock.
fn lock(shared: &Mutex<Shared>) -> MutexGuard<'_, Shared> {
    shared
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Calibrator {
    /// Starts the calibration thread, idle until `start`.
    pub fn spawn() -> Self {
        let shared = Arc::new(Mutex::new(Shared::default()));
        let theirs = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("calibration".to_string())
            .spawn(move || calibrate(&theirs))
            .ok();
        Calibrator {
            shared,
            started: Instant::now(),
            thread,
        }
    }

    /// Starts timing a stretch of workload time.
    pub fn start(&mut self) {
        let mut s = lock(&self.shared);
        s.chunks.clear();
        s.active = true;
        self.started = Instant::now();
    }

    /// Ends the stretch `start` began. No chunk is running once this
    /// returns. A stretch too short to hold a chunk runs one here.
    pub fn stop(&mut self) -> Window {
        let mut s = lock(&self.shared);
        let end = Instant::now();
        s.active = false;
        let mut chunks = std::mem::take(&mut s.chunks);
        if chunks.is_empty() {
            let mut kernel = Kernel::new();
            let c = kernel.chunk();
            s.samples.push(c.kernel_s);
            chunks.push(Chunk {
                start: end,
                end,
                kernel_s: c.kernel_s,
            });
        }
        Window {
            start: self.started,
            end,
            chunks,
        }
    }

    /// The timed kernel's time in every chunk so far, seconds.
    pub fn samples(&self) -> Vec<f64> {
        lock(&self.shared).samples.clone()
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        lock(&self.shared).quit = true;
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The calibration thread: a chunk every `CADENCE` while a stretch is
/// timed. The lock is held through each chunk, so `stop` waits for one
/// in flight.
fn calibrate(shared: &Mutex<Shared>) {
    let mut kernel = Kernel::new();
    kernel.chunk();
    loop {
        std::thread::sleep(CADENCE);
        let mut s = lock(shared);
        if s.quit {
            return;
        }
        if s.active {
            let c = kernel.chunk();
            s.samples.push(c.kernel_s);
            s.chunks.push(c);
        }
    }
}

/// The calibration kernel and its random state.
#[derive(Debug)]
struct Kernel {
    state: u64,
}

impl Kernel {
    fn new() -> Self {
        Kernel {
            state: 0x2545_f491_4f6c_dd1d,
        }
    }

    /// xorshift64.
    fn next(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }

    /// Formatted keys in a hash map, looked up again; an ordered map with
    /// inserts and removals; numbers rendered and parsed back.
    fn run(&mut self) -> u64 {
        let mut acc = 0u64;
        let mut names: HashMap<String, u64> = HashMap::new();
        let mut key = String::new();
        for i in 0..48u64 {
            key.clear();
            let _ = write!(key, "/sys/class/powercap/intel-rapl:{}/energy_uj", i % 12);
            let v = self.next();
            *names.entry(key.clone()).or_default() += v;
        }
        for i in 0..48u64 {
            key.clear();
            let _ = write!(key, "/sys/class/powercap/intel-rapl:{}/energy_uj", i % 16);
            acc = acc.wrapping_add(names.get(&key).copied().unwrap_or(i));
        }
        let mut tree: BTreeMap<u64, f64> = BTreeMap::new();
        for _ in 0..96 {
            let k = self.next() % 256;
            let w = (k as f64).sqrt() * 1.5;
            if tree.insert(k, w).is_some() {
                tree.remove(&(k / 2));
            }
            key.clear();
            let _ = write!(key, "{w:.3} {k}");
            acc = acc.wrapping_add(
                key.split(' ')
                    .nth(1)
                    .and_then(|s| s.parse::<u64>().ok())
                    .unwrap_or(0),
            );
        }
        acc.wrapping_add(tree.values().map(|w| *w as u64).sum::<u64>())
    }

    /// One chunk: the kernel untimed, then timed.
    fn chunk(&mut self) -> Chunk {
        let start = Instant::now();
        black_box(self.run());
        let t = Instant::now();
        black_box(self.run());
        let end = Instant::now();
        Chunk {
            start,
            end,
            kernel_s: (end - t).as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(start_ms: u64, len_ms: u64, kernel_s: f64, origin: Instant) -> Chunk {
        Chunk {
            start: origin + Duration::from_millis(start_ms),
            end: origin + Duration::from_millis(start_ms + len_ms),
            kernel_s,
        }
    }

    #[test]
    fn each_segment_is_scaled_by_its_own_chunks() {
        let t0 = Instant::now();
        // 16 chunks at twice the nominal time, each after 9 ms of work,
        // then one at the nominal time and 5 ms of work after it.
        let mut chunks: Vec<Chunk> = (0..16)
            .map(|i| chunk(10 * i + 9, 1, 2.0 * NOMINAL_S, t0))
            .collect();
        chunks.push(chunk(169, 1, NOMINAL_S, t0));
        let w = Window {
            start: t0,
            end: t0 + Duration::from_millis(175),
            chunks,
        };
        let s = w.stretch();
        assert!((s.measured_s - 0.158).abs() < 1e-9, "{s:?}");
        // 144 ms at half speed, then 9 + 5 ms at full speed.
        assert!((s.scaled_s - (0.072 + 0.014)).abs() < 1e-9, "{s:?}");
        let half = w.chunk_time(
            t0 + Duration::from_micros(9_500),
            t0 + Duration::from_millis(20),
        );
        assert_eq!(half, Duration::from_micros(1_500));
    }

    #[test]
    fn a_stretch_is_timed_without_its_chunks() {
        let mut c = Calibrator::spawn();
        c.start();
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(40) {
            black_box(t.elapsed());
        }
        let w = c.stop();
        let s = w.stretch();
        assert!(!w.chunks.is_empty());
        let busy = w.chunk_time(w.start, w.end).as_secs_f64();
        let total = (w.end - w.start).as_secs_f64();
        assert!((s.measured_s + busy - total).abs() < 1e-6, "{s:?}");
        assert!(s.scaled_s > 0.0, "{s:?}");
        assert_eq!(c.samples().len(), w.chunks.len());
    }
}
