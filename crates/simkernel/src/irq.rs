//! Interrupt and softirq accounting (`/proc/interrupts`, `/proc/softirqs`).
//!
//! Both files are global, un-namespaced kernel tables — top-ranked leakage
//! channels in the paper (variation + indirect manipulation: a tenant can
//! pin load to a core and watch that core's timer/rescheduling counts from
//! another container).

use rand::rngs::StdRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};

use crate::sched::CpuTickLoad;
use crate::time::NANOS_PER_SEC;

/// One interrupt line.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IrqLine {
    /// Label in the first column (`0`, `LOC`, `RES`, ...).
    pub label: String,
    /// Chip/handler description.
    pub description: String,
    /// Per-CPU counts.
    pub per_cpu: Vec<u64>,
}

/// Softirq kinds, in `/proc/softirqs` order.
pub const SOFTIRQ_NAMES: [&str; 10] = [
    "HI", "TIMER", "NET_TX", "NET_RX", "BLOCK", "IRQ_POLL", "TASKLET", "SCHED", "HRTIMER", "RCU",
];

// Fixed table positions from `IrqState::new`, for the quiescent path
// (the tick destructures the table; its reference indexes the rest).
const LINE_TIMER0: usize = 0;
const LINE_LOC: usize = 5;
const SOFT_TIMER: usize = 1;
const SOFT_SCHED: usize = 7;
const SOFT_HRTIMER: usize = 8;
const SOFT_RCU: usize = 9;

/// Interrupt/softirq state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IrqState {
    lines: [IrqLine; 9],
    softirqs: [Vec<u64>; SOFTIRQ_NAMES.len()],
    ncpus: usize,
    hz: u32,
    total_interrupts: u64,
}

impl IrqState {
    /// Creates the interrupt table for `ncpus` CPUs at tick rate `hz`.
    pub fn new(ncpus: usize, hz: u32) -> Self {
        let mk = |label: &str, desc: &str| IrqLine {
            label: label.to_string(),
            description: desc.to_string(),
            per_cpu: vec![0; ncpus],
        };
        IrqState {
            lines: [
                mk("0", "IR-IO-APIC    2-edge      timer"),
                mk("8", "IR-IO-APIC    8-edge      rtc0"),
                mk("16", "IR-PCI-MSI 327680-edge    ahci[0000:00:17.0]"),
                mk("24", "IR-PCI-MSI 409600-edge    eth0"),
                mk("NMI", "Non-maskable interrupts"),
                mk("LOC", "Local timer interrupts"),
                mk("RES", "Rescheduling interrupts"),
                mk("CAL", "Function call interrupts"),
                mk("TLB", "TLB shootdowns"),
            ],
            softirqs: std::array::from_fn(|_| vec![0; ncpus]),
            ncpus,
            hz,
            total_interrupts: 0,
        }
    }

    /// The interrupt lines.
    pub fn lines(&self) -> &[IrqLine] {
        &self.lines
    }

    /// Softirq counts, indexed `[kind][cpu]` like [`SOFTIRQ_NAMES`].
    pub fn softirqs(&self) -> &[Vec<u64>] {
        &self.softirqs
    }

    /// Total hardware interrupts since boot (`/proc/stat intr`).
    pub fn total_interrupts(&self) -> u64 {
        self.total_interrupts
    }

    /// One tick of interrupt traffic derived from load.
    ///
    /// Draws, in order: per CPU, the local-timer then the rescheduling
    /// jitter; the NMI count; then per CPU, the RCU then the tasklet
    /// jitter. A `#[cfg(test)]` reference tick pins the result.
    pub fn tick(&mut self, dt_ns: u64, load: &[CpuTickLoad], switches: u64, rng: &mut StdRng) {
        let dt_s = dt_ns as f64 / NANOS_PER_SEC as f64;
        let ncpus = self.ncpus;
        let per_cpu_switches = switches / ncpus.max(1) as u64;
        let hz_dt = f64::from(self.hz) * dt_s;
        // The timer-driven counts (the local-timer rate, full HZ while
        // busy and ~1/8 when tickless-idle, and the function calls) of a
        // CPU's busy time; CPUs with equal busy time share them.
        let mut memo: Option<(u64, (u64, u64))> = None;
        let mut timer_counts = |busy_ns: u64| match memo {
            Some((b, counts)) if b == busy_ns => counts,
            _ => {
                let busy = (busy_ns as f64 / dt_ns as f64).min(1.0);
                let counts = (
                    (hz_dt * (0.125 + 0.875 * busy)) as u64,
                    (busy * 40.0 * dt_s) as u64,
                );
                memo = Some((busy_ns, counts));
                counts
            }
        };
        // Each row's CPU lanes, taken once for the whole tick.
        let [timer0, _rtc, ahci, eth0, nmi, loc, res, cal, tlb] = &mut self.lines;
        let loc = &mut loc.per_cpu[..ncpus];
        let res = &mut res.per_cpu[..ncpus];
        let cal = &mut cal.per_cpu[..ncpus];
        let tlb = &mut tlb.per_cpu[..ncpus];
        let ahci = &mut ahci.per_cpu[..ncpus];
        let eth0 = &mut eth0.per_cpu[..ncpus];
        let mut added = 0u64;

        for cpu in 0..ncpus {
            let l = load.get(cpu).copied().unwrap_or_default();
            let (n_timer, n_cal) = timer_counts(l.busy_ns);
            let n_loc = n_timer + rng.random_range(0..3);
            let n_res = per_cpu_switches / 3 + rng.random_range(0..2);
            let n_tlb = (l.cache_misses / 2_000_000).min(10_000);
            loc[cpu] += n_loc;
            res[cpu] += n_res;
            cal[cpu] += n_cal;
            tlb[cpu] += n_tlb;
            added += n_loc + n_res + n_cal + n_tlb;
            if l.io_bytes > 0 {
                let n = l.io_bytes / 65_536 + 1;
                ahci[cpu] += n;
                added += n;
            }
            if l.syscalls > 1_000 {
                let n = l.syscalls / 500;
                eth0[cpu] += n;
                added += n;
            }
        }
        // Legacy timer and RTC tick slowly on CPU0 only.
        let n_timer0 = u64::from(dt_s >= 1.0);
        let n_nmi = rng.random_range(0..2);
        if let Some(c) = timer0.per_cpu.first_mut() {
            *c += n_timer0;
        }
        if let Some(c) = nmi.per_cpu.first_mut() {
            *c += n_nmi;
        }
        self.total_interrupts += added + n_timer0 + n_nmi;

        let [_hi, timer, net_tx, net_rx, block, _poll, tasklet, sched, hrtimer, rcu] =
            &mut self.softirqs;
        let timer = &mut timer[..ncpus];
        let sched = &mut sched[..ncpus];
        let rcu = &mut rcu[..ncpus];
        let hrtimer = &mut hrtimer[..ncpus];
        let block = &mut block[..ncpus];
        let net_rx = &mut net_rx[..ncpus];
        let net_tx = &mut net_tx[..ncpus];
        let tasklet = &mut tasklet[..ncpus];
        for cpu in 0..ncpus {
            let l = load.get(cpu).copied().unwrap_or_default();
            let (n_timer, _) = timer_counts(l.busy_ns);
            timer[cpu] += n_timer;
            sched[cpu] += per_cpu_switches / 2 + (n_timer / 4);
            rcu[cpu] += n_timer / 2 + rng.random_range(0..5);
            hrtimer[cpu] += n_timer / 50;
            if l.io_bytes > 0 {
                block[cpu] += l.io_bytes / 65_536 + 1;
            }
            if l.syscalls > 1_000 {
                net_rx[cpu] += l.syscalls / 400;
                net_tx[cpu] += l.syscalls / 800;
            }
            tasklet[cpu] += rng.random_range(0..3);
        }
    }

    /// Copies the interrupt total into `anchor`. No count moves while an
    /// anchor is live but by [`IrqState::idle_eval`] — only
    /// [`IrqState::tick`] writes them, and a run tick drops the anchor
    /// first.
    pub(crate) fn capture_idle(&self, anchor: &mut IrqAnchor) {
        anchor.total_interrupts = self.total_interrupts;
    }

    /// The local-timer and legacy-timer interrupts each CPU (the legacy
    /// ones CPU 0 alone) takes over `rel_ns` of a quiescent span.
    fn idle_timer_counts(&self, rel_ns: u64) -> (u64, u64) {
        let rel_s = rel_ns as f64 / NANOS_PER_SEC as f64;
        let loc = (f64::from(self.hz) * rel_s * 0.125) as u64;
        (loc, rel_ns / NANOS_PER_SEC)
    }

    /// Jump-evaluates the table to `rel_ns` past `anchor` with every CPU
    /// idle.
    ///
    /// Mirrors [`IrqState::tick`] at zero load with the random terms
    /// dropped: only the tickless-idle local-timer rate, the 1 Hz legacy
    /// timer on CPU 0, and the timer-driven softirq families advance;
    /// everything else stays frozen at the anchor. A closed form of
    /// `(anchor, rel_ns)`, so the result never depends on step size.
    ///
    /// Each advancing count holds its anchor value plus what the
    /// `applied_ns` already evaluated added; that is taken off before
    /// `rel_ns`'s counts go on, which rebuilds the closed form exactly
    /// without a copy of the anchor values.
    pub(crate) fn idle_eval(&mut self, anchor: &IrqAnchor, applied_ns: u64, rel_ns: u64) {
        let (loc, legacy) = self.idle_timer_counts(rel_ns);
        let (loc_applied, legacy_applied) = self.idle_timer_counts(applied_ns);
        for c in &mut self.lines[LINE_LOC].per_cpu {
            *c = *c - loc_applied + loc;
        }
        if let Some(c) = self.lines[LINE_TIMER0].per_cpu.first_mut() {
            *c = *c - legacy_applied + legacy;
        }
        let ncpus = self.lines[LINE_LOC].per_cpu.len() as u64;
        self.total_interrupts = anchor.total_interrupts + loc * ncpus + legacy;

        for (idx, per) in IDLE_SOFTIRQS {
            let (add, applied) = (loc / per, loc_applied / per);
            for c in &mut self.softirqs[idx] {
                *c = *c - applied + add;
            }
        }
    }
}

/// The softirq rows a quiescent span advances, each with how many
/// local-timer interrupts raise one of its softirqs.
const IDLE_SOFTIRQS: [(usize, u64); 4] = [
    (SOFT_TIMER, 1),
    (SOFT_SCHED, 4),
    (SOFT_HRTIMER, 50),
    (SOFT_RCU, 2),
];

/// What a quiescent span's interrupt counts evolve from: the total. The
/// per-CPU counts are rebuilt from the state (see
/// [`IrqState::idle_eval`]).
#[derive(Debug, Default)]
pub(crate) struct IrqAnchor {
    pub(crate) total_interrupts: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    const LINE_AHCI: usize = 2;
    const LINE_ETH0: usize = 3;
    const LINE_NMI: usize = 4;
    const LINE_RES: usize = 6;
    const LINE_CAL: usize = 7;
    const LINE_TLB: usize = 8;
    const SOFT_NET_TX: usize = 2;
    const SOFT_NET_RX: usize = 3;
    const SOFT_BLOCK: usize = 4;
    const SOFT_TASKLET: usize = 6;

    // The reference quiescent evaluation: the closed form read from a
    // full clone of the table, as the idle anchor held it before the lean
    // capture.
    impl IrqState {
        pub(crate) fn idle_eval_reference(&mut self, anchor: &IrqState, rel_ns: u64) {
            let rel_s = rel_ns as f64 / NANOS_PER_SEC as f64;
            let loc = (f64::from(self.hz) * rel_s * 0.125) as u64;
            let legacy = rel_ns / NANOS_PER_SEC;

            for (line, base) in self.lines.iter_mut().zip(anchor.lines.iter()) {
                line.per_cpu.clone_from(&base.per_cpu);
            }
            let mut added = 0;
            if loc > 0 {
                for c in &mut self.lines[LINE_LOC].per_cpu {
                    *c += loc;
                    added += loc;
                }
            }
            if legacy > 0 {
                self.lines[LINE_TIMER0].per_cpu[0] += legacy;
                added += legacy;
            }
            self.total_interrupts = anchor.total_interrupts + added;

            for (idx, soft) in self.softirqs.iter_mut().enumerate() {
                soft.clone_from(&anchor.softirqs[idx]);
                let add = match idx {
                    SOFT_TIMER => loc,
                    SOFT_SCHED => loc / 4,
                    SOFT_RCU => loc / 2,
                    SOFT_HRTIMER => loc / 50,
                    _ => 0,
                };
                if add > 0 {
                    for c in soft.iter_mut() {
                        *c += add;
                    }
                }
            }
        }
    }

    // The plain tick the fast [`IrqState::tick`] must match byte for byte:
    // every count goes through a bounds-checked `line_add`/`soft_add`.
    impl IrqState {
        pub(crate) fn tick_reference(
            &mut self,
            dt_ns: u64,
            load: &[CpuTickLoad],
            switches: u64,
            rng: &mut StdRng,
        ) {
            let dt_s = dt_ns as f64 / NANOS_PER_SEC as f64;
            let ncpus = self.ncpus;
            let per_cpu_switches = switches / ncpus.max(1) as u64;

            for cpu in 0..ncpus {
                let l = load.get(cpu).copied().unwrap_or_default();
                let busy_frac = (l.busy_ns as f64 / dt_ns as f64).min(1.0);
                // Local timer: full HZ while busy, ~1/8 when tickless-idle.
                let loc = (f64::from(self.hz) * dt_s * (0.125 + 0.875 * busy_frac)) as u64
                    + rng.random_range(0..3);
                self.line_add(LINE_LOC, cpu, loc);
                self.line_add(LINE_RES, cpu, per_cpu_switches / 3 + rng.random_range(0..2));
                self.line_add(LINE_CAL, cpu, (busy_frac * 40.0 * dt_s) as u64);
                self.line_add(LINE_TLB, cpu, (l.cache_misses / 2_000_000).min(10_000));
                if l.io_bytes > 0 {
                    self.line_add(LINE_AHCI, cpu, l.io_bytes / 65_536 + 1);
                }
                if l.syscalls > 1_000 {
                    self.line_add(LINE_ETH0, cpu, l.syscalls / 500);
                }
            }
            // Legacy timer and RTC tick slowly on CPU0 only.
            self.line_add(LINE_TIMER0, 0, u64::from(dt_s >= 1.0));
            self.line_add(LINE_NMI, 0, rng.random_range(0..2));

            for cpu in 0..ncpus {
                let l = load.get(cpu).copied().unwrap_or_default();
                let busy_frac = (l.busy_ns as f64 / dt_ns as f64).min(1.0);
                let timer = (f64::from(self.hz) * dt_s * (0.125 + 0.875 * busy_frac)) as u64;
                self.soft_add(SOFT_TIMER, cpu, timer);
                self.soft_add(SOFT_SCHED, cpu, per_cpu_switches / 2 + (timer / 4));
                self.soft_add(SOFT_RCU, cpu, timer / 2 + rng.random_range(0..5));
                self.soft_add(SOFT_HRTIMER, cpu, timer / 50);
                if l.io_bytes > 0 {
                    self.soft_add(SOFT_BLOCK, cpu, l.io_bytes / 65_536 + 1);
                }
                if l.syscalls > 1_000 {
                    self.soft_add(SOFT_NET_RX, cpu, l.syscalls / 400);
                    self.soft_add(SOFT_NET_TX, cpu, l.syscalls / 800);
                }
                self.soft_add(SOFT_TASKLET, cpu, rng.random_range(0..3));
            }
        }

        fn line_add(&mut self, idx: usize, cpu: usize, n: u64) {
            if n == 0 {
                return;
            }
            if cpu < self.lines[idx].per_cpu.len() {
                self.lines[idx].per_cpu[cpu] += n;
            }
            self.total_interrupts += n;
        }

        fn soft_add(&mut self, idx: usize, cpu: usize, n: u64) {
            if n == 0 {
                return;
            }
            if cpu < self.softirqs[idx].len() {
                self.softirqs[idx][cpu] += n;
            }
        }
    }

    #[test]
    fn near_twin_loads_leave_the_reference_ticks_bytes() {
        let mut fast = IrqState::new(16, 250);
        let mut plain = fast.clone();
        let (mut rf, mut rp) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
        for secs in [1, 30, 1] {
            let dt = secs * NANOS_PER_SEC;
            let loads = CpuTickLoad::near_twins(dt);
            fast.tick(dt, &loads, 700, &mut rf);
            plain.tick_reference(dt, &loads, 700, &mut rp);
            let json = |s: &IrqState| serde_json::to_string(s).expect("table serializes");
            assert_eq!(json(&fast), json(&plain), "after a {secs} s tick");
            assert_eq!(rf.random::<u64>(), rp.random::<u64>());
        }
    }

    fn busy(ncpus: usize, dt: u64) -> Vec<CpuTickLoad> {
        vec![
            CpuTickLoad {
                busy_ns: dt,
                instructions: 1_000_000_000,
                cache_misses: 10_000_000,
                syscalls: 5_000,
                io_bytes: 1 << 20,
                tasks_ran: 2,
                ..CpuTickLoad::default()
            };
            ncpus
        ]
    }

    #[test]
    fn busy_cpu_gets_full_hz_timer_ticks() {
        let mut irq = IrqState::new(2, 250);
        let mut rng = StdRng::seed_from_u64(1);
        irq.tick(NANOS_PER_SEC, &busy(2, NANOS_PER_SEC), 100, &mut rng);
        let loc = irq.lines().iter().find(|l| l.label == "LOC").unwrap();
        assert!(
            (240..=260).contains(&loc.per_cpu[0]),
            "LOC {}",
            loc.per_cpu[0]
        );
    }

    #[test]
    fn idle_cpu_ticks_slower() {
        let mut irq = IrqState::new(1, 250);
        let mut rng = StdRng::seed_from_u64(2);
        irq.tick(NANOS_PER_SEC, &[CpuTickLoad::default()], 0, &mut rng);
        let loc = irq.lines().iter().find(|l| l.label == "LOC").unwrap();
        assert!(loc.per_cpu[0] < 60, "tickless idle LOC {}", loc.per_cpu[0]);
    }

    #[test]
    fn io_drives_block_softirqs_and_ahci() {
        let mut irq = IrqState::new(1, 250);
        let mut rng = StdRng::seed_from_u64(3);
        irq.tick(NANOS_PER_SEC, &busy(1, NANOS_PER_SEC), 10, &mut rng);
        let block_idx = SOFTIRQ_NAMES.iter().position(|s| *s == "BLOCK").unwrap();
        assert!(irq.softirqs()[block_idx][0] > 0);
        let ahci = irq.lines().iter().find(|l| l.label == "16").unwrap();
        assert!(ahci.per_cpu[0] > 0);
    }

    #[test]
    fn totals_accumulate() {
        let mut irq = IrqState::new(4, 250);
        let mut rng = StdRng::seed_from_u64(4);
        irq.tick(NANOS_PER_SEC, &busy(4, NANOS_PER_SEC), 400, &mut rng);
        let t1 = irq.total_interrupts();
        irq.tick(NANOS_PER_SEC, &busy(4, NANOS_PER_SEC), 400, &mut rng);
        assert!(irq.total_interrupts() > t1);
    }

    #[test]
    fn pinned_load_is_visible_per_cpu() {
        // The indirect-manipulation channel: load on CPU 3 shows up in that
        // CPU's column only.
        let mut irq = IrqState::new(4, 250);
        let mut rng = StdRng::seed_from_u64(5);
        let mut load = vec![CpuTickLoad::default(); 4];
        load[3] = busy(1, NANOS_PER_SEC)[0];
        irq.tick(NANOS_PER_SEC, &load, 0, &mut rng);
        let loc = irq.lines().iter().find(|l| l.label == "LOC").unwrap();
        assert!(loc.per_cpu[3] > loc.per_cpu[0] * 3);
    }
}
