//! Fair-share fluid scheduler with per-CPU accounting.
//!
//! Rather than simulating individual context switches (prohibitively slow
//! for the paper's week-long power traces), each tick divides every CPU's
//! capacity among the runnable tasks assigned to it, weighted by their
//! demand — the fluid limit of CFS. All the accounting the leakage channels
//! need falls out: per-CPU busy/idle/user/system time (`/proc/stat`),
//! run/wait time (`/proc/schedstat`), runqueue contents and vruntime
//! (`/proc/sched_debug`), context-switch estimates (`ctxt`), and the
//! 1/5/15-minute load averages (`/proc/loadavg`).

use rand::rngs::StdRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};

use crate::cgroup::{CgroupForest, CgroupId, PerfCounters};
use crate::process::{HostPid, ProcState, Process, ProcessTable};
use crate::time::{DecayMemo, NANOS_PER_SEC};
use workloads::Phase;

/// Default CFS scheduling period used for context-switch estimation.
const SCHED_PERIOD_NS: u64 = 10_000_000;

/// The 1/5/15-minute load-average windows, seconds.
const LOADAVG_WINDOWS_S: [f64; 3] = [60.0, 300.0, 900.0];

/// Per-CPU scheduler accounting.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct CpuSchedStats {
    /// Nanoseconds executing user code.
    pub user_ns: u64,
    /// Nanoseconds executing kernel code on behalf of tasks.
    pub system_ns: u64,
    /// Nanoseconds idle.
    pub idle_ns: u64,
    /// Nanoseconds idle while IO was pending.
    pub iowait_ns: u64,
    /// Context switches performed by this CPU.
    pub switches: u64,
    /// schedstat: total time tasks ran on this CPU.
    pub run_time_ns: u64,
    /// schedstat: total time tasks waited on this CPU's runqueue.
    pub wait_time_ns: u64,
    /// schedstat: number of timeslices handed out.
    pub timeslices: u64,
    /// `max_newidle_lb_cost` of this CPU's scheduling domain — fluctuates
    /// with load-balancing activity (a variation-only channel in Table II).
    pub max_newidle_lb_cost_ns: u64,
}

/// What one tick of scheduling produced on one CPU (consumed by the power
/// and interrupt models).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTickLoad {
    /// Nanoseconds the CPU was busy this tick.
    pub busy_ns: u64,
    /// Retired instructions this tick.
    pub instructions: u64,
    /// Cache misses this tick.
    pub cache_misses: u64,
    /// Branch misses this tick.
    pub branch_misses: u64,
    /// Floating-point instructions this tick.
    pub fp_instructions: u64,
    /// Number of distinct tasks that ran this tick.
    pub tasks_ran: u32,
    /// Syscalls issued this tick.
    pub syscalls: u64,
    /// IO bytes issued this tick.
    pub io_bytes: u64,
}

/// Result of one scheduler tick across the machine.
#[derive(Debug, Clone, Default)]
pub struct TickReport {
    /// Per-CPU load aggregates.
    pub per_cpu: Vec<CpuTickLoad>,
    /// Processes that finished their workload this tick.
    pub exited: Vec<HostPid>,
    /// Context switches performed this tick (whole machine).
    pub switches: u64,
    /// Processes still runnable when the tick ends (the reaped excluded).
    pub runnable: usize,
    /// Whether a task's resident memory moved this tick: one ran into a
    /// phase with another footprint, or finished. When it stays false,
    /// every process's RSS is what it was as the tick began.
    pub rss_moved: bool,
}

/// Reusable buffers for [`Scheduler::tick_into`]. Week-long traces run
/// millions of ticks; keeping these across ticks takes every per-tick
/// allocation off the steady-state path.
#[derive(Debug, Default)]
pub struct SchedScratch {
    /// The CPU each runnable task was assigned, in pid order; `None`
    /// when its affinity names no CPU of this machine.
    tasks: Vec<Option<usize>>,
    /// Tasks assigned to each CPU this tick.
    loads: Vec<u32>,
    /// Summed demand of each CPU's tasks, added in pid order.
    demand: Vec<f64>,
    /// Nanoseconds each CPU ran tasks this tick.
    busy: Vec<u64>,
    /// The load-average decays, one per window of [`LOADAVG_WINDOWS_S`].
    decays: [DecayMemo; 3],
    /// Cgroup charges not yet applied.
    charge: PendingCharge,
}

/// The cgroup charges of a run of consecutive tasks that share their
/// cpuacct and perf_event cgroups, applied in one walk up each hierarchy.
/// Charges are integer sums, so batching them changes no total.
#[derive(Debug, Default)]
struct PendingCharge {
    /// The run's (cpuacct, perf_event) cgroups; `None` when empty.
    owner: Option<(CgroupId, CgroupId)>,
    ns_per_cpu: Vec<u64>,
    perf: PerfCounters,
}

impl PendingCharge {
    fn add(
        &mut self,
        cgroups: &mut CgroupForest,
        owner: (CgroupId, CgroupId),
        cpu: usize,
        ran_ns: u64,
        delta: &PerfCounters,
    ) {
        if self.owner != Some(owner) {
            self.flush(cgroups);
            self.owner = Some(owner);
        }
        self.ns_per_cpu[cpu] += ran_ns;
        self.perf.add(delta);
    }

    fn flush(&mut self, cgroups: &mut CgroupForest) {
        if let Some((cpuacct, perf_event)) = self.owner.take() {
            cgroups.charge_cpus(cpuacct, &self.ns_per_cpu);
            cgroups.charge_perf(perf_event, &self.perf);
            self.ns_per_cpu.fill(0);
            self.perf = PerfCounters::default();
        }
    }
}

/// Cycles retired in `ran_ns` at `freq_hz`: `ran_ns * freq_hz / 1e9`
/// rounded down, exactly, without 128-bit division.
fn cycles(ran_ns: u64, freq_hz: u64) -> u64 {
    let (secs, sub_ns) = (ran_ns / NANOS_PER_SEC, ran_ns % NANOS_PER_SEC);
    match sub_ns.checked_mul(freq_hz) {
        Some(sub) => secs.wrapping_mul(freq_hz).wrapping_add(sub / NANOS_PER_SEC),
        None => (u128::from(ran_ns) * u128::from(freq_hz) / u128::from(NANOS_PER_SEC)) as u64,
    }
}

/// What one task's share of a tick comes to: everything
/// [`Scheduler::run_task`] charges that does not depend on the process
/// itself. A pure function of [`TaskKey`], the tick length and the clock
/// frequency.
#[derive(Debug, Clone, Copy)]
struct TaskMath {
    ran_ns: u64,
    waited_ns: u64,
    perf: PerfCounters,
    fp_instructions: u64,
    syscalls: u64,
    io_bytes: u64,
    utime: u64,
    stime: u64,
}

impl TaskMath {
    /// The share of a task in `phase` on a CPU whose tasks demand
    /// `total_demand` in all, over `dt_ns` at `freq_hz`; `None` when it
    /// gets no time.
    fn new(phase: &Phase, total_demand: f64, dt_ns: u64, freq_hz: u64) -> Option<Self> {
        let scale = if total_demand > 1.0 {
            1.0 / total_demand
        } else {
            1.0
        };
        let ran_ns = (dt_ns as f64 * phase.cpu_demand * scale) as u64;
        if ran_ns == 0 {
            return None;
        }
        let waited_ns = if total_demand > 1.0 {
            ((dt_ns as f64 * phase.cpu_demand) as u64).saturating_sub(ran_ns)
        } else {
            0
        };

        let cycles = cycles(ran_ns, freq_hz);
        let instructions = (cycles as f64 * phase.instructions_per_cycle) as u64;
        let cache_misses = (instructions as f64 * phase.cache_miss_per_kilo_instr / 1000.0) as u64;
        let branch_misses =
            (instructions as f64 * phase.branch_miss_per_kilo_instr / 1000.0) as u64;
        let fp_instructions = (instructions as f64 * phase.fp_ratio) as u64;
        let syscalls = (phase.syscalls_per_sec * ran_ns as f64 / NANOS_PER_SEC as f64) as u64;
        let io_bytes = (phase.io_bytes_per_sec * ran_ns as f64 / NANOS_PER_SEC as f64) as u64;

        // User/system split: syscall-heavy phases spend more in the kernel.
        let sys_frac = (phase.syscalls_per_sec * 1.5e-6).clamp(0.005, 0.35);
        let stime = (ran_ns as f64 * sys_frac) as u64;
        Some(TaskMath {
            ran_ns,
            waited_ns,
            perf: PerfCounters {
                instructions,
                cache_misses,
                branch_misses,
                cycles,
            },
            fp_instructions,
            syscalls,
            io_bytes,
            utime: ran_ns - stime,
            stime,
        })
    }
}

/// Every input [`TaskMath::new`] reads but the two a [`TaskMemo`] is built
/// with: the seven phase fields, bit for bit, and the CPU's total demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TaskKey {
    phase: [u64; 7],
    total_demand: u64,
}

impl TaskKey {
    fn new(phase: &Phase, total_demand: f64) -> Self {
        TaskKey {
            phase: [
                phase.cpu_demand,
                phase.instructions_per_cycle,
                phase.cache_miss_per_kilo_instr,
                phase.branch_miss_per_kilo_instr,
                phase.fp_ratio,
                phase.syscalls_per_sec,
                phase.io_bytes_per_sec,
            ]
            .map(f64::to_bits),
            total_demand: total_demand.to_bits(),
        }
    }
}

/// The last [`TaskMath`] one tick computed, by key. A memo lives for one
/// tick of one scheduler and holds that tick's length and the clock
/// frequency, so its key need not. Services started from one spec share
/// a phase and, spread one per CPU, a CPU's total demand, so consecutive
/// tasks mostly repeat a key. It draws nothing, and a hit returns exactly
/// what a recomputation would.
struct TaskMemo {
    dt_ns: u64,
    freq_hz: u64,
    last: Option<(TaskKey, Option<TaskMath>)>,
}

impl TaskMemo {
    fn new(dt_ns: u64, freq_hz: u64) -> Self {
        TaskMemo {
            dt_ns,
            freq_hz,
            last: None,
        }
    }

    fn get(&mut self, phase: &Phase, total_demand: f64) -> Option<&TaskMath> {
        let key = TaskKey::new(phase, total_demand);
        if !matches!(self.last, Some((k, _)) if k == key) {
            let math = TaskMath::new(phase, total_demand, self.dt_ns, self.freq_hz);
            self.last = Some((key, math));
        }
        self.last.as_ref().and_then(|(_, math)| math.as_ref())
    }
}

/// The least-loaded CPU while step 1 assigns tasks: the minimum load and
/// the lowest CPU carrying it, kept current as loads grow one task at a
/// time, so an unpinned task reads its CPU without scanning them all.
#[derive(Debug, Default)]
struct LeastLoaded {
    min: u32,
    first: usize,
}

impl LeastLoaded {
    /// Assigns one more task to `cpu`. Loads only grow, so the minimum
    /// moves on to the next CPU still at it, or rises by one once none is.
    fn bump(&mut self, loads: &mut [u32], cpu: usize) {
        loads[cpu] += 1;
        if cpu != self.first {
            return;
        }
        let min = self.min;
        match loads[cpu + 1..].iter().position(|&l| l == min) {
            Some(i) => self.first = cpu + 1 + i,
            None => {
                // Every load is now above `min`, and `cpu`'s is `min + 1`.
                self.min += 1;
                self.first = loads.iter().position(|&l| l == min + 1).unwrap_or(cpu);
            }
        }
    }
}

/// The scheduler.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scheduler {
    percpu: Vec<CpuSchedStats>,
    loadavg: [f64; 3],
    total_switches: u64,
    freq_hz: u64,
}

impl Scheduler {
    /// Creates a scheduler for `ncpus` CPUs at `freq_hz`.
    pub fn new(ncpus: usize, freq_hz: u64) -> Self {
        Scheduler {
            percpu: vec![CpuSchedStats::default(); ncpus],
            loadavg: [0.0; 3],
            total_switches: 0,
            freq_hz,
        }
    }

    /// Per-CPU accounting snapshot.
    pub fn cpu_stats(&self) -> &[CpuSchedStats] {
        &self.percpu
    }

    /// Total context switches since boot.
    pub fn total_switches(&self) -> u64 {
        self.total_switches
    }

    /// The 1/5/15-minute load averages.
    pub fn loadavg(&self) -> [f64; 3] {
        self.loadavg
    }

    /// Runs one tick of length `dt_ns`: divides every CPU's capacity
    /// among its runnable tasks, charges processes and cgroups, reaps
    /// finished `Once` workloads and decays the load averages. Writes the
    /// per-CPU load into `report` and keeps working buffers in `scratch`,
    /// both reused across ticks.
    ///
    /// Draws, in order: per CPU, the housekeeping draw, then the
    /// load-balancer draw on a CPU that has tasks. Every other step is
    /// draw-free, which is what lets one walk over the process table do
    /// all per-task work. A `#[cfg(test)]` reference tick, the per-CPU
    /// then per-task formulation, pins the resulting state byte for byte.
    pub fn tick_into(
        &mut self,
        dt_ns: u64,
        procs: &mut ProcessTable,
        cgroups: &mut CgroupForest,
        rng: &mut StdRng,
        scratch: &mut SchedScratch,
        report: &mut TickReport,
    ) {
        let ncpus = self.percpu.len();
        report.per_cpu.clear();
        report.per_cpu.resize(ncpus, CpuTickLoad::default());
        report.exited.clear();
        report.switches = 0;
        report.rss_moved = false;
        let SchedScratch {
            tasks,
            loads,
            demand,
            busy,
            decays,
            charge,
        } = scratch;
        tasks.clear();
        loads.clear();
        loads.resize(ncpus, 0);
        demand.clear();
        demand.resize(ncpus, 0.0);
        busy.clear();
        busy.resize(ncpus, 0);
        charge.ns_per_cpu.clear();
        charge.ns_per_cpu.resize(ncpus, 0);

        // 1. Assign runnable tasks to CPUs: explicit affinity wins; others
        //    go to the least-loaded candidate, preferring their last CPU.
        //    Each task's demand is summed into its CPU's total in pid
        //    order.
        let mut least = LeastLoaded::default();
        for p in procs.iter().filter(|p| p.state == ProcState::Runnable) {
            let last = p.last_cpu as usize;
            let best = match p.affinity.as_deref() {
                Some(cpus) => cpus
                    .iter()
                    .map(|c| *c as usize)
                    .filter(|c| *c < ncpus)
                    .min_by_key(|&c| (loads[c], usize::from(c != last), c)),
                // The lexicographic minimum of (load, c != last, c) over
                // all CPUs, read off the running cursor.
                None if ncpus == 0 => None,
                None if last < ncpus && loads[last] == least.min => Some(last),
                None => Some(least.first),
            };
            if let Some(cpu) = best {
                least.bump(loads, cpu);
                demand[cpu] += p.cursor.current_phase(&p.workload).cpu_demand;
            }
            tasks.push(best);
        }

        // 2. One walk over the runnable tasks, in the order step 1 saw
        //    them: each gets its share of its CPU by demand, charged to
        //    the process, its cgroups and its CPU (integer adds, so the
        //    walk's order charges what any order would), and a finished
        //    Once workload is reaped.
        //    Tasks that share a phase and a CPU share run the same
        //    arithmetic, so it is computed once per distinct key. A task's
        //    cursor has not moved since step 1, so its phase is re-read.
        let mut runnable = 0;
        if !tasks.is_empty() {
            let mut memo = TaskMemo::new(dt_ns, self.freq_hz);
            let runq = procs.iter_mut().filter(|p| p.state == ProcState::Runnable);
            for (p, &task_cpu) in runq.zip(tasks.iter()) {
                if let Some(cpu) = task_cpu {
                    let phase = p.cursor.current_phase(&p.workload);
                    let mem_bytes = phase.mem_bytes;
                    if let Some(math) = memo.get(phase, demand[cpu]) {
                        self.run_task(p, cpu, math, report);
                        report.rss_moved |=
                            p.cursor.current_phase(&p.workload).mem_bytes != mem_bytes;
                        busy[cpu] += math.ran_ns;
                        let owner = (p.cgroups.cpuacct, p.cgroups.perf_event);
                        charge.add(cgroups, owner, cpu, math.ran_ns, &math.perf);
                    }
                }
                if p.cursor.advance_peek_done(&p.workload) {
                    p.state = ProcState::Exited;
                    report.exited.push(p.host_pid);
                    report.rss_moved = true;
                } else {
                    runnable += 1;
                }
            }
            charge.flush(cgroups);
        }
        report.runnable = runnable;

        // 3. Per CPU: kernel housekeeping (kworkers, RCU, timers) consumes
        //    a small slice of every CPU regardless of user tasks — this is
        //    what makes /proc/stat's system time and /proc/schedstat's run
        //    time accumulate (and diverge across hosts) even when idle.
        for (cpu, stats) in self.percpu.iter_mut().enumerate() {
            let hk = dt_ns / 500 + rng.random_range(0..dt_ns / 2000 + 1);
            stats.system_ns += hk;
            stats.run_time_ns += hk;
            let ntasks = u64::from(loads[cpu]);
            if ntasks == 0 {
                stats.idle_ns += dt_ns;
                continue;
            }
            let busy_ns_total = busy[cpu].min(dt_ns);
            stats.idle_ns += dt_ns - busy_ns_total;
            stats.timeslices += (busy_ns_total / SCHED_PERIOD_NS).max(ntasks);

            // Context-switch estimate: each scheduling period with more than
            // one task costs one switch; single tasks still switch at a low
            // background rate (timer ticks, kworkers).
            let periods = dt_ns / SCHED_PERIOD_NS;
            let switches = if ntasks > 1 {
                periods.max(1) * ntasks
            } else {
                (dt_ns * 30 / NANOS_PER_SEC).max(1)
            };
            stats.switches += switches;
            report.switches += switches;
            report.per_cpu[cpu].tasks_ran = loads[cpu];

            // Load-balancer cost fluctuates with contention plus jitter.
            stats.max_newidle_lb_cost_ns = 4_000 + ntasks * 800 + rng.random_range(0..400);
        }
        self.total_switches += report.switches;

        // 4. Load averages (exponentially-weighted, Linux style).
        let n = runnable as f64;
        for ((avg, memo), window) in self.loadavg.iter_mut().zip(decays).zip(LOADAVG_WINDOWS_S) {
            let decay = memo.get(dt_ns, window);
            *avg = *avg * decay + n * (1.0 - decay);
        }
    }

    /// Runs one task for its share of `cpu` this tick, as `math` worked it
    /// out, charging the process, the CPU and the report.
    fn run_task(&mut self, p: &mut Process, cpu: usize, math: &TaskMath, report: &mut TickReport) {
        let TaskMath {
            ran_ns,
            waited_ns,
            utime,
            stime,
            io_bytes,
            syscalls,
            ..
        } = *math;
        p.utime_ns += utime;
        p.stime_ns += stime;
        p.vruntime_ns += ran_ns;
        p.last_cpu = cpu as u16;
        p.counters.add(&math.perf);
        p.io_read_bytes += io_bytes / 3;
        p.io_write_bytes += io_bytes - io_bytes / 3;
        p.syscalls += syscalls;
        p.cursor.advance(&p.workload, ran_ns);

        let stats = &mut self.percpu[cpu];
        stats.user_ns += utime;
        stats.system_ns += stime;
        stats.run_time_ns += ran_ns;
        stats.wait_time_ns += waited_ns;
        if io_bytes > 0 {
            stats.iowait_ns += (ran_ns / 20).min(1_000_000);
        }

        let load = &mut report.per_cpu[cpu];
        load.busy_ns += ran_ns;
        load.instructions += math.perf.instructions;
        load.cache_misses += math.perf.cache_misses;
        load.branch_misses += math.perf.branch_misses;
        load.fp_instructions += math.fp_instructions;
        load.syscalls += syscalls;
        load.io_bytes += io_bytes;
    }

    /// Copies the lanes [`Scheduler::idle_eval`] cannot rebuild from the
    /// current state into `anchor`: the load averages.
    pub(crate) fn capture_idle(&self, anchor: &mut SchedAnchor) {
        anchor.loadavg = self.loadavg;
    }

    /// Jumps this scheduler to its quiescent-state value `rel_ns` after
    /// `anchor` was captured: no runnable tasks, so every CPU idles apart
    /// from deterministic kernel housekeeping, and the load averages decay
    /// toward zero. Pure in (anchor, rel_ns) and draws no RNG, so any
    /// subdivision of a quiescent span lands on byte-identical state.
    ///
    /// The per-CPU times are integers that only this evaluation moves
    /// while the span lasts, so each holds its anchor value plus the
    /// housekeeping of the `applied_ns` already evaluated: taking that
    /// off and adding `rel_ns`'s gives the closed form exactly, without a
    /// copy of the anchor values.
    pub(crate) fn idle_eval(&mut self, anchor: &SchedAnchor, applied_ns: u64, rel_ns: u64) {
        let (hk, hk_applied) = (rel_ns / 500, applied_ns / 500);
        for cur in &mut self.percpu {
            cur.system_ns = cur.system_ns - hk_applied + hk;
            cur.run_time_ns = cur.run_time_ns - hk_applied + hk;
            cur.idle_ns = cur.idle_ns - applied_ns + rel_ns;
        }
        let rel_s = rel_ns as f64 / NANOS_PER_SEC as f64;
        for (i, window) in LOADAVG_WINDOWS_S.iter().enumerate() {
            self.loadavg[i] = anchor.loadavg[i] * (-rel_s / window).exp();
        }
    }
}

/// The scheduler lanes a quiescent span evolves from that the current
/// state cannot give back: the load averages, whose decay is a float
/// product. The per-CPU times are rebuilt from the state (see
/// [`Scheduler::idle_eval`]); the other stats only move in a run tick,
/// which ends the span.
#[derive(Debug, Default)]
pub(crate) struct SchedAnchor {
    loadavg: [f64; 3],
}

/// Extension used by the scheduler to check completion without advancing.
trait CursorPeek {
    fn advance_peek_done(&self, spec: &workloads::WorkloadSpec) -> bool;
}

impl CursorPeek for workloads::PhaseCursor {
    fn advance_peek_done(&self, spec: &workloads::WorkloadSpec) -> bool {
        matches!(spec.repeat(), workloads::Repeat::Once)
            && self.consumed_cpu_ns() >= spec.pass_duration_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cgroup::CgroupKind;

    // The reference quiescent evaluation: the closed form read from a
    // full clone of the scheduler, as the idle anchor held it before the
    // lean capture.
    impl Scheduler {
        pub(crate) fn idle_eval_reference(&mut self, anchor: &Scheduler, rel_ns: u64) {
            let hk = rel_ns / 500;
            for (cur, base) in self.percpu.iter_mut().zip(anchor.percpu.iter()) {
                cur.clone_from(base);
                cur.system_ns += hk;
                cur.run_time_ns += hk;
                cur.idle_ns += rel_ns;
            }
            let rel_s = rel_ns as f64 / NANOS_PER_SEC as f64;
            for (i, window) in [60.0f64, 300.0, 900.0].iter().enumerate() {
                self.loadavg[i] = anchor.loadavg[i] * (-rel_s / window).exp();
            }
            self.total_switches = anchor.total_switches;
        }
    }
    use crate::ns::NamespaceRegistry;
    use crate::process::{CgroupMembership, Process};
    use rand::SeedableRng;
    use workloads::{models, PhaseCursor};

    // The plain tick the fast [`Scheduler::tick_into`] must match byte for
    // byte: step 1 assigns tasks to per-CPU run queues, step 2 walks CPUs
    // then their tasks, looking each process up to charge it, and the reap
    // and the load average each scan the table again.
    impl Scheduler {
        /// The reference tick; `report.runnable` comes from a table scan.
        pub(crate) fn tick_reference(
            &mut self,
            dt_ns: u64,
            procs: &mut ProcessTable,
            cgroups: &mut CgroupForest,
            rng: &mut StdRng,
            report: &mut TickReport,
        ) {
            let ncpus = self.percpu.len();
            report.per_cpu.clear();
            report.per_cpu.resize(ncpus, CpuTickLoad::default());
            report.exited.clear();
            report.switches = 0;

            // 1. Assign runnable tasks to CPUs, recording each task's
            //    demand and the Once workloads step 3 may need to reap.
            let mut assignment: Vec<Vec<(HostPid, f64)>> = vec![Vec::new(); ncpus];
            let mut loads = vec![0u32; ncpus];
            let mut once_candidates = Vec::new();
            for p in procs.iter().filter(|p| p.state == ProcState::Runnable) {
                if matches!(p.workload.repeat(), workloads::Repeat::Once) {
                    once_candidates.push(p.host_pid);
                }
                let last = p.last_cpu as usize;
                let best = match p.affinity.as_deref() {
                    Some(cpus) => cpus
                        .iter()
                        .map(|c| *c as usize)
                        .filter(|c| *c < ncpus)
                        .min_by_key(|&c| (loads[c], usize::from(c != last), c)),
                    None => (0..ncpus).min_by_key(|&c| (loads[c], usize::from(c != last), c)),
                };
                let Some(best) = best else { continue };
                loads[best] += 1;
                let demand = p.cursor.current_phase(&p.workload).cpu_demand;
                assignment[best].push((p.host_pid, demand));
            }

            // 2. Divide each CPU's capacity among its tasks by demand.
            for (cpu, tasks) in assignment.iter().enumerate() {
                let hk = dt_ns / 500 + rng.random_range(0..dt_ns / 2000 + 1);
                self.percpu[cpu].system_ns += hk;
                self.percpu[cpu].run_time_ns += hk;
                if tasks.is_empty() {
                    self.percpu[cpu].idle_ns += dt_ns;
                    continue;
                }
                let total_demand: f64 = tasks.iter().map(|(_, d)| d).sum();
                let scale = if total_demand > 1.0 {
                    1.0 / total_demand
                } else {
                    1.0
                };
                let mut busy_ns_total = 0u64;
                for (pid, demand) in tasks.iter() {
                    let ran_ns = (dt_ns as f64 * demand * scale) as u64;
                    if ran_ns == 0 {
                        continue;
                    }
                    busy_ns_total += ran_ns;
                    let waited_ns = if total_demand > 1.0 {
                        ((dt_ns as f64 * demand) as u64).saturating_sub(ran_ns)
                    } else {
                        0
                    };
                    self.account_task(*pid, cpu, ran_ns, waited_ns, procs, cgroups, report);
                }
                let busy_ns_total = busy_ns_total.min(dt_ns);
                let stats = &mut self.percpu[cpu];
                stats.idle_ns += dt_ns - busy_ns_total;
                stats.timeslices += (busy_ns_total / SCHED_PERIOD_NS).max(tasks.len() as u64);
                let periods = dt_ns / SCHED_PERIOD_NS;
                let switches = if tasks.len() > 1 {
                    periods.max(1) * tasks.len() as u64
                } else {
                    (dt_ns * 30 / NANOS_PER_SEC).max(1)
                };
                stats.switches += switches;
                report.switches += switches;
                report.per_cpu[cpu].tasks_ran = tasks.len() as u32;
                stats.max_newidle_lb_cost_ns =
                    4_000 + tasks.len() as u64 * 800 + rng.random_range(0..400);
            }
            self.total_switches += report.switches;

            // 3. Reap processes whose Once workloads completed.
            for pid in &once_candidates {
                if let Some(p) = procs.get(*pid) {
                    if p.cursor.advance_peek_done(&p.workload) {
                        report.exited.push(*pid);
                    }
                }
            }
            for pid in &report.exited {
                if let Some(p) = procs.get_mut(*pid) {
                    p.state = ProcState::Exited;
                }
            }

            // 4. Load averages (exponentially-weighted, Linux style).
            report.runnable = procs.runnable();
            let n = report.runnable as f64;
            let dt_s = dt_ns as f64 / NANOS_PER_SEC as f64;
            for (i, window) in [60.0f64, 300.0, 900.0].iter().enumerate() {
                let decay = (-dt_s / window).exp();
                self.loadavg[i] = self.loadavg[i] * decay + n * (1.0 - decay);
            }
        }

        #[allow(clippy::too_many_arguments)]
        fn account_task(
            &mut self,
            pid: HostPid,
            cpu: usize,
            ran_ns: u64,
            waited_ns: u64,
            procs: &mut ProcessTable,
            cgroups: &mut CgroupForest,
            report: &mut TickReport,
        ) {
            let freq = self.freq_hz;
            let p = procs.get_mut(pid).expect("task exists");
            let phase = p.cursor.current_phase(&p.workload).clone();

            let cycles = (ran_ns as u128 * freq as u128 / NANOS_PER_SEC as u128) as u64;
            let instructions = (cycles as f64 * phase.instructions_per_cycle) as u64;
            let cache_misses =
                (instructions as f64 * phase.cache_miss_per_kilo_instr / 1000.0) as u64;
            let branch_misses =
                (instructions as f64 * phase.branch_miss_per_kilo_instr / 1000.0) as u64;
            let fp_instructions = (instructions as f64 * phase.fp_ratio) as u64;
            let syscalls = (phase.syscalls_per_sec * ran_ns as f64 / NANOS_PER_SEC as f64) as u64;
            let io_bytes = (phase.io_bytes_per_sec * ran_ns as f64 / NANOS_PER_SEC as f64) as u64;

            let sys_frac = (phase.syscalls_per_sec * 1.5e-6).clamp(0.005, 0.35);
            let stime = (ran_ns as f64 * sys_frac) as u64;
            let utime = ran_ns - stime;

            p.utime_ns += utime;
            p.stime_ns += stime;
            p.vruntime_ns += ran_ns;
            p.last_cpu = cpu as u16;
            let delta = PerfCounters {
                instructions,
                cache_misses,
                branch_misses,
                cycles,
            };
            p.counters.add(&delta);
            p.io_read_bytes += io_bytes / 3;
            p.io_write_bytes += io_bytes - io_bytes / 3;
            p.syscalls += syscalls;
            p.cursor.advance(&p.workload, ran_ns);
            let cg = p.cgroups;

            cgroups.charge_cpu(cg.cpuacct, cpu, ran_ns);
            cgroups.charge_perf(cg.perf_event, &delta);

            let stats = &mut self.percpu[cpu];
            stats.user_ns += utime;
            stats.system_ns += stime;
            stats.run_time_ns += ran_ns;
            stats.wait_time_ns += waited_ns;
            if io_bytes > 0 {
                stats.iowait_ns += (ran_ns / 20).min(1_000_000);
            }

            let load = &mut report.per_cpu[cpu];
            load.busy_ns += ran_ns;
            load.instructions += instructions;
            load.cache_misses += cache_misses;
            load.branch_misses += branch_misses;
            load.fp_instructions += fp_instructions;
            load.syscalls += syscalls;
            load.io_bytes += io_bytes;
        }
    }

    impl CpuTickLoad {
        /// Sixteen per-CPU loads in base/twin pairs: each twin changes
        /// exactly one field of the base, one pair per field, so a
        /// per-load memo whose key missed a field it reads would hand a
        /// twin its base's result.
        pub(crate) fn near_twins(dt_ns: u64) -> Vec<CpuTickLoad> {
            let base = CpuTickLoad {
                busy_ns: dt_ns / 2,
                instructions: 1_000_000_000,
                cache_misses: 10_000_000,
                branch_misses: 4_000_000,
                fp_instructions: 30_000_000,
                tasks_ran: 1,
                syscalls: 5_000,
                io_bytes: 1 << 20,
            };
            let twins = [
                CpuTickLoad {
                    busy_ns: dt_ns * 3 / 4,
                    ..base
                },
                CpuTickLoad {
                    instructions: 3_000_000_000,
                    ..base
                },
                CpuTickLoad {
                    cache_misses: 30_000_000,
                    ..base
                },
                CpuTickLoad {
                    branch_misses: 9_000_000,
                    ..base
                },
                CpuTickLoad {
                    fp_instructions: 90_000_000,
                    ..base
                },
                CpuTickLoad {
                    tasks_ran: 2,
                    ..base
                },
                CpuTickLoad {
                    syscalls: 9_000,
                    ..base
                },
                CpuTickLoad {
                    io_bytes: 3 << 20,
                    ..base
                },
            ];
            twins.into_iter().flat_map(|twin| [base, twin]).collect()
        }
    }

    struct Fixture {
        sched: Scheduler,
        procs: ProcessTable,
        cgroups: CgroupForest,
        rng: StdRng,
        scratch: SchedScratch,
    }

    fn fixture(ncpus: usize) -> Fixture {
        Fixture {
            sched: Scheduler::new(ncpus, 2_000_000_000),
            procs: ProcessTable::new(),
            cgroups: CgroupForest::new(ncpus),
            rng: StdRng::seed_from_u64(7),
            scratch: SchedScratch::default(),
        }
    }

    fn tick(f: &mut Fixture, dt_ns: u64) -> TickReport {
        let mut report = TickReport::default();
        f.sched.tick_into(
            dt_ns,
            &mut f.procs,
            &mut f.cgroups,
            &mut f.rng,
            &mut f.scratch,
            &mut report,
        );
        report
    }

    fn spawn(
        f: &mut Fixture,
        name: &str,
        w: workloads::WorkloadSpec,
        affinity: Option<Vec<u16>>,
    ) -> HostPid {
        let reg = NamespaceRegistry::new("h");
        let pid = f.procs.allocate_pid();
        f.procs.insert(Process {
            host_pid: pid,
            name: name.into(),
            ns: reg.host_set(),
            ns_pid: pid.0,
            cgroups: CgroupMembership {
                cpuacct: f.cgroups.root(CgroupKind::Cpuacct),
                perf_event: f.cgroups.root(CgroupKind::PerfEvent),
                net_prio: f.cgroups.root(CgroupKind::NetPrio),
                memory: f.cgroups.root(CgroupKind::Memory),
            },
            workload: w,
            cursor: PhaseCursor::new(),
            affinity,
            state: ProcState::Runnable,
            start_ns: 0,
            utime_ns: 0,
            stime_ns: 0,
            vruntime_ns: 0,
            counters: PerfCounters::default(),
            last_cpu: 0,
            io_read_bytes: 0,
            io_write_bytes: 0,
            syscalls: 0,
        });
        pid
    }

    #[test]
    fn single_task_uses_one_cpu_fully() {
        let mut f = fixture(2);
        let pid = spawn(&mut f, "prime", models::prime(), None);
        let dt = NANOS_PER_SEC;
        let r = tick(&mut f, dt);
        let busy: u64 = r.per_cpu.iter().map(|c| c.busy_ns).sum();
        assert!(busy >= dt * 99 / 100, "busy {busy} < {dt}");
        let p = f.procs.get(pid).unwrap();
        assert!(p.cpu_time_ns() >= dt * 99 / 100);
        // One CPU busy, the other idle.
        let idles: Vec<u64> = f.sched.cpu_stats().iter().map(|c| c.idle_ns).collect();
        assert!(idles.iter().any(|i| *i >= dt * 99 / 100));
    }

    #[test]
    fn cpu_time_is_conserved_under_contention() {
        // 4 full-demand tasks pinned on 1 CPU share it equally.
        let mut f = fixture(1);
        let pids: Vec<HostPid> = (0..4)
            .map(|i| spawn(&mut f, &format!("t{i}"), models::prime(), Some(vec![0])))
            .collect();
        let dt = NANOS_PER_SEC;
        let r = tick(&mut f, dt);
        let busy = r.per_cpu[0].busy_ns;
        assert!(busy <= dt, "cannot exceed capacity");
        assert!(busy >= dt * 95 / 100);
        for pid in pids {
            let t = f.procs.get(pid).unwrap().cpu_time_ns();
            let share = dt / 4;
            assert!(
                (t as i64 - share as i64).unsigned_abs() < share / 10,
                "unfair share: {t} vs {share}"
            );
        }
    }

    #[test]
    fn affinity_is_respected() {
        let mut f = fixture(4);
        let pid = spawn(&mut f, "pinned", models::prime(), Some(vec![3]));
        let r = tick(&mut f, NANOS_PER_SEC);
        assert!(r.per_cpu[3].busy_ns > 0);
        assert_eq!(r.per_cpu[0].busy_ns, 0);
        assert_eq!(f.procs.get(pid).unwrap().last_cpu(), 3);
    }

    #[test]
    fn tasks_spread_across_cpus() {
        let mut f = fixture(4);
        for i in 0..4 {
            spawn(&mut f, &format!("t{i}"), models::prime(), None);
        }
        let r = tick(&mut f, NANOS_PER_SEC);
        for c in 0..4 {
            assert!(
                r.per_cpu[c].busy_ns > NANOS_PER_SEC * 9 / 10,
                "cpu {c} underused"
            );
        }
    }

    #[test]
    fn instructions_scale_with_ipc() {
        let mut f = fixture(2);
        spawn(&mut f, "prime", models::prime(), Some(vec![0]));
        spawn(&mut f, "mcf", models::mcf(), Some(vec![1]));
        let r = tick(&mut f, NANOS_PER_SEC);
        // prime IPC 2.4 vs mcf IPC 0.35: ~7x instruction difference.
        assert!(r.per_cpu[0].instructions > r.per_cpu[1].instructions * 5);
        // mcf cache-miss rate vastly higher per instruction.
        let prime_rate = r.per_cpu[0].cache_misses as f64 / r.per_cpu[0].instructions as f64;
        let mcf_rate = r.per_cpu[1].cache_misses as f64 / r.per_cpu[1].instructions as f64;
        assert!(mcf_rate > prime_rate * 50.0);
    }

    #[test]
    fn once_workloads_exit() {
        let mut f = fixture(1);
        // 120-second benchmark on one CPU.
        let pid = spawn(&mut f, "bzip2", models::bzip2(), None);
        let mut exited = false;
        for _ in 0..125 {
            let r = tick(&mut f, NANOS_PER_SEC);
            if r.exited.contains(&pid) {
                exited = true;
                break;
            }
        }
        assert!(exited, "benchmark never finished");
        assert_eq!(f.procs.get(pid).unwrap().state(), ProcState::Exited);
    }

    #[test]
    fn loadavg_rises_toward_runnable_count() {
        let mut f = fixture(2);
        for i in 0..4 {
            spawn(&mut f, &format!("t{i}"), models::prime(), None);
        }
        for _ in 0..120 {
            tick(&mut f, NANOS_PER_SEC);
        }
        let [one, five, fifteen] = f.sched.loadavg();
        assert!(one > 3.0, "1-min load {one} too low");
        assert!(
            one > five && five > fifteen,
            "windows should lag: {one} {five} {fifteen}"
        );
    }

    #[test]
    fn contended_cpu_accumulates_wait_time() {
        let mut f = fixture(1);
        spawn(&mut f, "a", models::prime(), None);
        spawn(&mut f, "b", models::prime(), None);
        tick(&mut f, NANOS_PER_SEC);
        assert!(f.sched.cpu_stats()[0].wait_time_ns > 0);
        assert!(f.sched.total_switches() > 0);
    }

    #[test]
    fn partial_demand_leaves_idle_time() {
        let mut f = fixture(1);
        spawn(&mut f, "web", models::web_service(0.25), None);
        let r = tick(&mut f, NANOS_PER_SEC);
        let busy = r.per_cpu[0].busy_ns as f64 / NANOS_PER_SEC as f64;
        assert!((busy - 0.25).abs() < 0.05, "busy {busy}");
    }

    #[test]
    fn cgroup_charging_happens() {
        let mut f = fixture(1);
        spawn(&mut f, "t", models::prime(), None);
        let root_perf = f.cgroups.root(CgroupKind::PerfEvent);
        f.cgroups.set_perf_monitoring(root_perf, true).unwrap();
        tick(&mut f, NANOS_PER_SEC);
        let root_acct = f.cgroups.root(CgroupKind::Cpuacct);
        assert!(f.cgroups.cpuacct_usage_ns(root_acct).unwrap() > 0);
        assert!(f.cgroups.perf_counters(root_perf).unwrap().instructions > 0);
    }
}
