//! The kernel: composition of every subsystem plus the tick loop.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cgroup::{CgroupForest, CgroupId, CgroupKind};
use crate::config::MachineConfig;
use crate::epoch::{dep, SubsystemEpochs};
use crate::error::KernelError;
use crate::faults::{FaultPlan, FsFaultKind, SensorFaultKind};
use crate::fsstate::{FsAnchor, FsState, LockKind};
use crate::hw::{Hardware, HwAnchor, PowerModelParams, PowerSnapshot, RaplDomains};
use crate::irq::{IrqAnchor, IrqState};
use crate::mem::{MemAnchor, MemoryState};
use crate::net::NetState;
use crate::ns::{NamespaceRegistry, NamespaceSet};
use crate::perf::{PerfOverheadCosts, PerfSubsystem};
use crate::process::{CgroupMembership, HostPid, ProcState, Process, ProcessTable};
use crate::sched::{SchedAnchor, SchedScratch, Scheduler, TickReport};
use crate::syscost::SysCosts;
use crate::time::{Clock, NANOS_PER_SEC};
use crate::timers::TimerList;
use simtrace::TraceEvent;
use workloads::{PhaseCursor, WorkloadSpec};

/// Default simulation tick: 1 s (coarse enough for week-long traces, fine
/// enough for 1 Hz channel snapshots).
pub const DEFAULT_TICK_NS: u64 = NANOS_PER_SEC;

/// Subsystems that evolve while the host is quiescent: the clock plus
/// every closed-form idle evaluation in [`Kernel::quiescent_step`]
/// (cgroup included — the anchor capture re-aggregates per-cgroup RSS),
/// and timers, whose expiries refresh against the advanced clock.
const IDLE_BUMP: u32 = dep::CLOCK
    | dep::SCHED
    | dep::HW
    | dep::IRQ
    | dep::MEM
    | dep::FS
    | dep::NET
    | dep::TIMERS
    | dep::CGROUP;

/// Subsystems a run tick can mutate: everything the idle set touches
/// plus the process table and the aggregate syscall/IO counters. The
/// namespace registry is the only subsystem no tick path writes.
const RUN_BUMP: u32 = IDLE_BUMP | dep::PROCESS | dep::STATS;

/// Everything needed to run processes inside one container: its namespace
/// set, per-hierarchy cgroups, and the host-side veth interface its NET
/// namespace is wired to.
#[derive(Debug, Clone)]
pub struct ContainerEnv {
    /// The container's namespaces.
    pub ns: NamespaceSet,
    /// The container's cgroups (one per hierarchy).
    pub cgroups: CgroupMembership,
    /// Name of the host-side veth device created for this container.
    pub veth: String,
    /// The cgroup path component (`/docker/<name>`), shared with the
    /// container's cgroup nodes and its cgroup namespace root.
    pub cgroup_path: Arc<str>,
}

/// Specification for spawning a process.
#[derive(Debug, Clone)]
pub struct ProcessSpec {
    name: String,
    workload: WorkloadSpec,
    ns: Option<NamespaceSet>,
    cgroups: Option<CgroupMembership>,
    affinity: Option<Vec<u16>>,
}

impl ProcessSpec {
    /// Creates a spec for a host process running `workload`.
    pub fn new(name: impl Into<String>, workload: WorkloadSpec) -> Self {
        ProcessSpec {
            name: name.into(),
            workload,
            ns: None,
            cgroups: None,
            affinity: None,
        }
    }

    /// Places the process in the given namespaces (default: host set).
    pub fn namespaces(mut self, ns: NamespaceSet) -> Self {
        self.ns = Some(ns);
        self
    }

    /// Places the process in the given cgroups (default: hierarchy roots).
    pub fn cgroups(mut self, cg: CgroupMembership) -> Self {
        self.cgroups = Some(cg);
        self
    }

    /// Pins the process to the given CPUs (`taskset`).
    pub fn affinity(mut self, cpus: Vec<u16>) -> Self {
        self.affinity = Some(cpus);
        self
    }

    /// Places the process inside a container environment (namespaces and
    /// cgroups in one step).
    pub fn in_container(self, env: &ContainerEnv) -> Self {
        self.namespaces(env.ns).cgroups(env.cgroups)
    }
}

/// Aggregate counters exposed via `/proc/stat`-style channels.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelStats {
    /// Total syscalls issued since boot.
    pub total_syscalls: u64,
    /// Total block-IO bytes since boot.
    pub total_io_bytes: u64,
}

/// The simulated kernel.
#[derive(Debug)]
pub struct Kernel {
    cfg: MachineConfig,
    clock: Clock,
    rng: StdRng,
    seed: u64,
    ns: NamespaceRegistry,
    cgroups: CgroupForest,
    procs: ProcessTable,
    sched: Scheduler,
    hw: Hardware,
    mem: MemoryState,
    irq: IrqState,
    fs: FsState,
    net: NetState,
    timers: TimerList,
    perf: PerfSubsystem,
    stats: KernelStats,
    tick_ns: u64,
    syscost: SysCosts,
    /// Each hierarchy's `/docker` cgroup, indexed by [`CgroupKind::index`];
    /// created by the first container env.
    docker_parents: [Option<CgroupId>; 4],
    container_seq: u32,
    scratch: TickScratch,
    /// Nanoseconds of simulated lifetime; unlike the clock, this is
    /// monotone across crash-reboots and anchors fault-plan windows.
    lifetime_ns: u64,
    faults: Option<InstalledFaults>,
    reboots: u32,
    coalesce: bool,
    idle_anchor: IdleAnchor,
    /// Per-subsystem dirty epochs; bumped by every mutating entry point.
    epochs: SubsystemEpochs,
    /// Trace-event buffer; `Some` only when tracing is enabled and this
    /// kernel was built inside a `simtrace::scope`.
    tracer: Option<simtrace::KernelTracer>,
}

/// The subsystem lanes at the instant a quiescent span began. While no
/// process is runnable, every subsystem evolves as a pure closed-form
/// function of (anchor, elapsed-since-anchor), so both the coalesced and
/// the per-tick advance evaluate the same functions at the same final
/// instant — that is what makes the two modes byte-identical. Any
/// mutation that ends quiescence (spawn, resume, lock, uuid read, …)
/// invalidates the anchor.
///
/// The anchor holds only numeric lanes the `idle_eval`s read, never
/// labels, names or locks, and its buffers live as long as the kernel:
/// a capture overwrites them in place, so no capture after a host's first
/// allocates. Of those lanes it copies only the floats, whose products
/// cannot be taken back exactly, and a few scalars. The integer counters
/// a span advances (per-CPU times, idle residencies, interrupt counts,
/// traffic) stay in the state: only the evaluation moves them while the
/// span lasts, so each holds its anchor value plus the closed-form gain
/// over `applied_ns`, and the next evaluation takes that gain off and
/// adds its own.
#[derive(Debug, Default)]
struct IdleAnchor {
    /// Whether the lanes below describe the current quiescent span.
    live: bool,
    since_boot_ns: u64,
    /// The span time the state already includes: 0 at the capture, then
    /// each evaluation's `rel_ns`.
    applied_ns: u64,
    sched: SchedAnchor,
    hw: HwAnchor,
    mem: MemAnchor,
    irq: IrqAnchor,
    fs: FsAnchor,
    rss_total: u64,
    nprocs: usize,
    /// The reference anchor: full subsystem clones (see the tests).
    #[cfg(test)]
    reference: Option<Box<tests::CloneAnchor>>,
}

impl IdleAnchor {
    /// Ends the current quiescent span: the next quiescent step captures
    /// afresh.
    fn invalidate(&mut self) {
        self.live = false;
        #[cfg(test)]
        {
            self.reference = None;
        }
    }
}

/// A fault plan plus the lifetime instant it was installed at; plan
/// windows are relative to that instant, so a plan built for a short
/// horizon works on a host already fast-forwarded through weeks of uptime.
#[derive(Debug)]
struct InstalledFaults {
    base_ns: u64,
    plan: FaultPlan,
}

/// Per-kernel buffers reused across ticks so the steady-state tick path
/// performs no heap allocation. Pure scratch: holds no simulation state
/// that outlives a tick except the memoized RSS aggregation below.
#[derive(Debug)]
struct TickScratch {
    report: TickReport,
    sched: SchedScratch,
    /// Per-memory-cgroup RSS of the last aggregation, sorted by id.
    by_cgroup: Vec<(CgroupId, u64)>,
    /// The memory hierarchy's root, which also receives the total.
    mem_root: CgroupId,
    /// Process-table epoch at the last RSS aggregation, if still valid.
    mem_epoch: Option<u64>,
    /// Whether the forest was lent out mutably ([`Kernel::cgroups_mut`])
    /// since the last aggregation: the borrower may have written a memory
    /// usage the memo does not hold, so a busy tick must not keep it.
    cgroups_lent: bool,
    /// Total RSS from that aggregation.
    rss_total: u64,
}

impl TickScratch {
    fn new(mem_root: CgroupId) -> Self {
        TickScratch {
            report: TickReport::default(),
            sched: SchedScratch::default(),
            by_cgroup: Vec::new(),
            mem_root,
            mem_epoch: None,
            cgroups_lent: false,
            rss_total: 0,
        }
    }
}

impl Kernel {
    /// Boots a kernel on the given machine with a deterministic seed,
    /// with event-horizon coalescing on (see [`Kernel::tick_stepped`] for
    /// the per-tick reference).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`MachineConfig::validate`] — configurations
    /// are experiment-definition inputs, so this is a programming error.
    pub fn new(cfg: MachineConfig, seed: u64) -> Self {
        cfg.validate().expect("invalid machine configuration");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_c0de_0001);
        let ncpus = cfg.cpus as usize;
        let ns = NamespaceRegistry::new(&cfg.hostname);
        let net = NetState::new();
        let cgroups = CgroupForest::new(ncpus);
        let fs = FsState::new(&cfg.disks, &mut rng);
        let hw = Hardware::new(
            ncpus,
            cfg.packages as usize,
            cfg.freq_hz,
            cfg.has_rapl,
            cfg.has_coretemp,
            PowerModelParams::default(),
        );
        Kernel {
            clock: Clock::new(cfg.boot_wall_secs),
            sched: Scheduler::new(ncpus, cfg.freq_hz),
            mem: MemoryState::new(cfg.mem_bytes, cfg.swap_bytes, cfg.numa_nodes),
            irq: IrqState::new(ncpus, cfg.hz),
            timers: TimerList::new(),
            perf: PerfSubsystem::new(),
            procs: ProcessTable::new(),
            stats: KernelStats::default(),
            tick_ns: DEFAULT_TICK_NS,
            syscost: SysCosts::default(),
            docker_parents: [None; 4],
            container_seq: 0,
            scratch: TickScratch::new(cgroups.root(CgroupKind::Memory)),
            lifetime_ns: 0,
            faults: None,
            reboots: 0,
            coalesce: true,
            idle_anchor: IdleAnchor::default(),
            epochs: SubsystemEpochs::default(),
            tracer: simtrace::tracer_for_new_kernel(),
            seed,
            cfg,
            rng,
            ns,
            cgroups,
            hw,
            fs,
            net,
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }
    /// The seed this kernel booted with.
    pub fn seed(&self) -> u64 {
        self.seed
    }
    /// The virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }
    /// The namespace registry.
    pub fn namespaces(&self) -> &NamespaceRegistry {
        &self.ns
    }
    /// Mutable namespace registry (used by the container runtime).
    pub fn namespaces_mut(&mut self) -> &mut NamespaceRegistry {
        self.idle_anchor.invalidate();
        self.bump_epochs(dep::NS);
        &mut self.ns
    }
    /// The cgroup forest.
    pub fn cgroups(&self) -> &CgroupForest {
        &self.cgroups
    }
    /// Mutable cgroup forest.
    pub fn cgroups_mut(&mut self) -> &mut CgroupForest {
        self.idle_anchor.invalidate();
        self.scratch.cgroups_lent = true;
        self.bump_epochs(dep::CGROUP);
        &mut self.cgroups
    }
    /// The scheduler (accounting views).
    pub fn sched(&self) -> &Scheduler {
        &self.sched
    }
    /// Hardware state (RAPL, temps, cpuidle).
    pub fn hw(&self) -> &Hardware {
        &self.hw
    }
    /// RAPL counters.
    pub fn rapl(&self) -> &RaplDomains {
        self.hw.rapl()
    }
    /// Memory state.
    pub fn mem(&self) -> &MemoryState {
        &self.mem
    }
    /// Interrupt state.
    pub fn irq(&self) -> &IrqState {
        &self.irq
    }
    /// VFS state (locks, counters, entropy, boot id).
    pub fn fs(&self) -> &FsState {
        &self.fs
    }
    /// Mutable VFS state (uuid reads consume RNG).
    pub fn fs_mut(&mut self) -> (&mut FsState, &mut StdRng) {
        self.idle_anchor.invalidate();
        self.bump_epochs(dep::FS);
        (&mut self.fs, &mut self.rng)
    }
    /// Network state.
    pub fn net(&self) -> &NetState {
        &self.net
    }
    /// Timer list.
    pub fn timers(&self) -> &TimerList {
        &self.timers
    }
    /// Perf-event subsystem.
    pub fn perf(&self) -> &PerfSubsystem {
        &self.perf
    }
    /// Kernel-operation cost table.
    pub fn syscost(&self) -> &SysCosts {
        &self.syscost
    }
    /// Aggregate counters.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }
    /// A process by host pid.
    pub fn process(&self, pid: HostPid) -> Option<&Process> {
        self.procs.get(pid)
    }
    /// All live processes, pid-ordered.
    pub fn processes(&self) -> impl Iterator<Item = &Process> {
        self.procs.iter()
    }
    /// Number of live processes.
    pub fn process_count(&self) -> usize {
        self.procs.len()
    }
    /// Most recently allocated pid.
    pub fn last_pid(&self) -> u32 {
        self.procs.last_pid()
    }
    /// Total forks since boot.
    pub fn total_forks(&self) -> u64 {
        self.procs.total_forks()
    }
    /// Power drawn over the last tick.
    pub fn last_power(&self) -> &PowerSnapshot {
        self.hw.last_power()
    }
    /// Wall power in watts over the last tick.
    pub fn wall_watts(&self) -> f64 {
        self.hw.last_power().wall_w
    }
    /// Boot id.
    pub fn boot_id(&self) -> &str {
        self.fs.boot_id()
    }
    /// Aggregate idle nanoseconds over all CPUs (`/proc/uptime` field 2).
    pub fn total_idle_ns(&self) -> u64 {
        self.sched.cpu_stats().iter().map(|c| c.idle_ns).sum()
    }
    /// This kernel's trace-event buffer, when tracing is active and the
    /// kernel was built inside a [`simtrace::scope`]. Consumers above the
    /// kernel (pseudo-fs, monitors) emit their events through this.
    pub fn tracer(&self) -> Option<&simtrace::KernelTracer> {
        self.tracer.as_ref()
    }

    // ------------------------------------------------------------------
    // Dirty epochs
    // ------------------------------------------------------------------

    /// The per-subsystem dirty epochs.
    pub fn epochs(&self) -> &SubsystemEpochs {
        &self.epochs
    }

    /// Advances the epochs named in `mask`. Called by every mutating
    /// entry point; bump placement is mode-invariant (one bump per
    /// mutation or per `advance` call, never per tick), so epoch values
    /// are identical across `--jobs` values and coalescing modes.
    fn bump_epochs(&mut self, mask: u32) {
        self.epochs.bump(mask);
        // Mode-exempt: the fleet calendar's lazy fast-forward path folds
        // what the eager path spreads over many `advance` calls into one
        // covering call, so the *number* of bumps (unlike every epoch
        // comparison outcome) legitimately differs across stepping modes.
        simtrace::counters::add_exempt("kernel.epoch_bump", u64::from(mask.count_ones()));
    }

    /// Records a *live* masking-policy swap on a container view: dirties
    /// the subsystem epochs in `deps` (the union of the dependency masks
    /// of every route whose mask treatment changed). Consumers that
    /// memoized epoch sums before the swap (the fleet calendar's sync
    /// check, a cross-validation host snapshot) see them move and
    /// re-read, so none can keep pre-swap bytes as current.
    pub fn note_policy_swap(&mut self, deps: u32) {
        if deps != 0 {
            self.bump_epochs(deps & dep::ALL);
        }
        simtrace::counters::add("kernel.policy_swaps", 1);
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Installs a fault plan. Plan windows are relative to *now*: the
    /// current lifetime instant becomes the plan's time origin.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.idle_anchor.invalidate();
        if let Some(tr) = &self.tracer {
            tr.emit(
                self.lifetime_ns,
                TraceEvent::FaultsInstalled {
                    reboots: plan.reboot_count() as u32,
                },
            );
        }
        simtrace::counters::add("faults.plans_installed", 1);
        self.faults = Some(InstalledFaults {
            base_ns: self.lifetime_ns,
            plan,
        });
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(|f| &f.plan)
    }

    /// Nanoseconds of simulated lifetime (monotone across crash-reboots,
    /// unlike [`Clock::since_boot_ns`]).
    pub fn lifetime_ns(&self) -> u64 {
        self.lifetime_ns
    }

    /// Crash-reboots this kernel has gone through.
    pub fn reboot_count(&self) -> u32 {
        self.reboots
    }

    /// Whether any process is currently runnable. A runnable kernel must
    /// be stepped through every interval (its state is load-dependent);
    /// only quiescent kernels may be fast-forwarded lazily.
    pub fn has_runnable(&self) -> bool {
        self.procs.runnable() > 0
    }

    /// The earliest pending observable event, as an absolute lifetime
    /// instant strictly after now: the next fault-plan window edge, the
    /// next scheduled crash-reboot, or the next one-shot timer expiry.
    /// `None` when nothing is pending — a quiescent kernel with an empty
    /// horizon evolves in closed form indefinitely, which is what lets
    /// the fleet calendar skip it entirely between external operations.
    pub fn next_event_horizon_ns(&self) -> Option<u64> {
        let mut horizon: Option<u64> = None;
        let mut fold = |candidate: u64| {
            horizon = Some(horizon.map_or(candidate, |h: u64| h.min(candidate)));
        };
        if let Some(f) = &self.faults {
            let rel = self.lifetime_ns.saturating_sub(f.base_ns);
            if let Some(r) = f.plan.next_reboot_after(rel) {
                fold(f.base_ns + r);
            }
            if let Some(e) = f.plan.next_event_after(rel) {
                fold(f.base_ns + e);
            }
        }
        let now = self.clock.since_boot_ns();
        if let Some(e) = self.timers.next_event_after(now) {
            fold(self.lifetime_ns + (e - now));
        }
        horizon
    }

    /// The read fault currently active for `path`, per the installed
    /// plan. `None` when no plan is installed or no window covers now.
    pub fn read_fault(&self, path: &str) -> Option<FsFaultKind> {
        let f = self.faults.as_ref()?;
        f.plan
            .fs_fault(self.lifetime_ns.saturating_sub(f.base_ns), path)
    }

    /// The value-distorting sensor fault currently active for `path`
    /// (saturation / quantization jitter); dropout surfaces through
    /// [`Kernel::read_fault`] instead.
    pub fn sensor_fault(&self, path: &str) -> Option<SensorFaultKind> {
        let f = self.faults.as_ref()?;
        f.plan
            .sensor_transform(self.lifetime_ns.saturating_sub(f.base_ns), path)
    }

    /// The clock-skew offset currently applied to uptime reads, in
    /// nanoseconds (zero without an active skew window).
    pub fn uptime_skew_ns(&self) -> i64 {
        match &self.faults {
            Some(f) => f
                .plan
                .clock_skew_ns(self.lifetime_ns.saturating_sub(f.base_ns)),
            None => 0,
        }
    }

    // ------------------------------------------------------------------
    // Time
    // ------------------------------------------------------------------

    /// Sets the tick quantum (clamped to `[1 ms, 60 s]`).
    pub fn set_tick_ns(&mut self, tick_ns: u64) {
        self.tick_ns = tick_ns.clamp(1_000_000, 60 * NANOS_PER_SEC);
    }

    /// The tick-stepped reference: this kernel with event-horizon
    /// coalescing off, so a quiescent host walks its idle time one tick
    /// quantum at a time instead of jumping to its next event horizon.
    /// The two produce byte-identical state; the stepped kernel is the
    /// plain baseline the differential tests hold coalescing to, and is
    /// far slower on idle hosts.
    #[must_use]
    pub fn tick_stepped(mut self) -> Self {
        self.coalesce = false;
        self
    }

    /// Whether event-horizon coalescing is enabled on this kernel: false
    /// only on a [`Kernel::tick_stepped`] reference.
    pub fn coalescing(&self) -> bool {
        self.coalesce
    }

    /// Advances virtual time by `dt_ns`. While at least one process is
    /// runnable the classic fixed-quantum tick loop runs; while the host
    /// is quiescent (no runnable process) time moves in closed form along
    /// idle-anchor spans — one span per event horizon when coalescing
    /// is on, one per tick quantum when off, with identical results.
    pub fn advance(&mut self, dt_ns: u64) {
        self.advance_with(dt_ns, Kernel::tick_once, Kernel::quiescent_step);
    }

    /// [`Kernel::advance`] with `tick` as the run tick and `quiet` as the
    /// quiescent step. The runnable count is taken once, then from each
    /// tick's report: quiescent steps and reboots never change a
    /// process's state.
    fn advance_with(
        &mut self,
        mut dt_ns: u64,
        tick: impl Fn(&mut Kernel, u64),
        quiet: impl Fn(&mut Kernel, u64),
    ) {
        // Tick-shape accounting is accumulated locally (cheap u64 adds)
        // and published in one batch after the loop, so tracing costs a
        // single `enabled()` check per advance call, not per tick.
        let mut run_ns = 0u64;
        let mut run_ticks = 0u64;
        let mut switches = 0u64;
        let mut idle_ns = 0u64;
        let mut spans = 0u64;
        let mut stepped = 0u64;
        let mut runnable = self.procs.runnable();
        while dt_ns > 0 {
            if runnable == 0 {
                let step = self.quiescent_step_size(dt_ns, self.coalesce);
                if step > self.tick_ns {
                    // A multi-tick jump to the event horizon; exists only
                    // with coalescing on, so both the count and the event
                    // are mode-exempt.
                    spans += 1;
                    if let Some(tr) = &self.tracer {
                        tr.emit(
                            self.lifetime_ns,
                            TraceEvent::CoalescedSpan {
                                from_ns: self.lifetime_ns,
                                to_ns: self.lifetime_ns + step,
                            },
                        );
                    }
                } else {
                    stepped += 1;
                }
                quiet(self, step);
                idle_ns += step;
                dt_ns -= step;
            } else {
                self.idle_anchor.invalidate();
                let step = dt_ns.min(self.tick_ns);
                tick(self, step);
                runnable = self.scratch.report.runnable;
                run_ns += step;
                run_ticks += 1;
                switches += self.scratch.report.switches;
                dt_ns -= step;
            }
        }
        // One bump per advance call — not per tick or span — keyed on the
        // *shape* of the elapsed interval (any run time / any idle time),
        // which is identical across coalescing modes and worker counts.
        // Sound because reads hold `&Kernel` and cannot interleave with
        // this `&mut self` method.
        if run_ticks > 0 {
            self.bump_epochs(RUN_BUMP);
        }
        if idle_ns > 0 {
            self.bump_epochs(IDLE_BUMP);
        }
        if simtrace::enabled() {
            if run_ticks > 0 {
                simtrace::counters::add("kernel.run_ticks", run_ticks);
                simtrace::counters::add("sched.switches", switches);
                simtrace::profile::record("run", run_ns, switches);
            }
            if idle_ns > 0 {
                simtrace::counters::add("kernel.quiescent_ns", idle_ns);
                simtrace::profile::record("idle", idle_ns, 0);
            }
            if spans > 0 {
                simtrace::counters::add_exempt("kernel.quiescent_spans", spans);
            }
            if stepped > 0 {
                simtrace::counters::add_exempt("kernel.quiescent_stepped_ticks", stepped);
            }
        }
    }

    /// Advances by whole seconds.
    pub fn advance_secs(&mut self, secs: u64) {
        self.advance(secs * NANOS_PER_SEC);
    }

    /// Fast-forwards an idle machine through `secs` seconds in closed
    /// form: the quiescent-span machinery with coalescing forced on, so
    /// days of uptime cost a handful of span evaluations. Used to give
    /// fleet hosts realistic, distinct uptimes (days to months) without
    /// simulating every second. Only meaningful right after boot, before
    /// processes are spawned.
    ///
    /// # Panics
    ///
    /// Panics if processes are already running — fast-forward is a boot
    /// time convenience, not a scheduler bypass.
    pub fn fast_forward_boot(&mut self, secs: u64) {
        assert!(
            self.procs.is_empty(),
            "fast_forward_boot only valid on an idle machine"
        );
        let mut remaining = secs * NANOS_PER_SEC;
        while remaining > 0 {
            let step = self.quiescent_step_size(remaining, true);
            self.quiescent_step(step);
            remaining -= step;
        }
        if secs > 0 {
            self.bump_epochs(IDLE_BUMP);
        }
        if simtrace::enabled() && secs > 0 {
            // Pre-experiment uptime; always coalesced, so mode-invariant.
            simtrace::counters::add("kernel.fastforward_ns", secs * NANOS_PER_SEC);
            simtrace::profile::record("idle", secs * NANOS_PER_SEC, 0);
        }
    }

    /// How far the next quiescent span may run: the remaining budget,
    /// capped at the event horizon. A scheduled crash-reboot caps the span
    /// in *both* modes (the reboot must fire at its exact instant); with
    /// coalescing off the tick quantum caps it too; with coalescing on the
    /// horizon is the earliest of the next one-shot timer expiry and the
    /// next fault-plan event. Periodic timers never cap a span — their
    /// re-arming is phase-preserving at any later instant.
    fn quiescent_step_size(&self, remaining_ns: u64, coalesce: bool) -> u64 {
        let mut step = if coalesce {
            remaining_ns
        } else {
            remaining_ns.min(self.tick_ns)
        };
        if let Some(f) = &self.faults {
            let rel = self.lifetime_ns.saturating_sub(f.base_ns);
            if let Some(r) = f.plan.next_reboot_after(rel) {
                step = step.min(r - rel);
            }
            if coalesce {
                if let Some(e) = f.plan.next_event_after(rel) {
                    step = step.min(e - rel);
                }
            }
        }
        if coalesce {
            let now = self.clock.since_boot_ns();
            if let Some(e) = self.timers.next_event_after(now) {
                step = step.min(e - now);
            }
        }
        step.max(1)
    }

    /// One quiescent span: every subsystem jumps to its closed-form state
    /// at `anchor + rel`, where `rel` is the total quiescent time since
    /// the anchor was captured. No RNG is drawn — idle evolution is
    /// deterministic by construction, which is what keeps arbitrary span
    /// subdivisions byte-identical.
    fn quiescent_step(&mut self, step_ns: u64) {
        if !self.idle_anchor.live {
            self.capture_idle_anchor();
        }
        self.clock.advance(step_ns);
        let before = self.lifetime_ns;
        self.lifetime_ns += step_ns;
        let anchor = &self.idle_anchor;
        let rel_ns = self.clock.since_boot_ns() - anchor.since_boot_ns;

        let applied_ns = anchor.applied_ns;
        self.sched.idle_eval(&anchor.sched, applied_ns, rel_ns);
        self.hw.idle_eval(&anchor.hw, applied_ns, rel_ns);
        self.irq.idle_eval(&anchor.irq, applied_ns, rel_ns);
        let intr_delta = self.irq.total_interrupts() - anchor.irq.total_interrupts;
        self.mem.idle_eval(&anchor.mem, rel_ns, anchor.rss_total);
        self.fs
            .idle_eval(&anchor.fs, rel_ns, anchor.nprocs, intr_delta);
        self.net.idle_eval(applied_ns, rel_ns);
        self.idle_anchor.applied_ns = rel_ns;
        self.timers.refresh(self.clock.since_boot_ns());

        if self.reboot_due(before) {
            self.crash_reboot();
            self.idle_anchor.invalidate();
        }
    }

    /// Captures the idle anchor at the current instant into its kept
    /// buffers.
    fn capture_idle_anchor(&mut self) {
        self.refresh_rss_memo();
        let a = &mut self.idle_anchor;
        a.live = true;
        a.since_boot_ns = self.clock.since_boot_ns();
        a.applied_ns = 0;
        self.sched.capture_idle(&mut a.sched);
        self.hw.capture_idle(&mut a.hw);
        self.mem.capture_idle(&mut a.mem);
        self.irq.capture_idle(&mut a.irq);
        a.fs = self.fs.capture_idle();
        a.rss_total = self.scratch.rss_total;
        a.nprocs = self.procs.len();
    }

    /// Whether the installed fault plan schedules a crash-reboot in the
    /// lifetime interval `(before, now]`.
    fn reboot_due(&self, before: u64) -> bool {
        self.faults.as_ref().is_some_and(|f| {
            f.plan.reboot_in(
                before.saturating_sub(f.base_ns),
                self.lifetime_ns.saturating_sub(f.base_ns),
            )
        })
    }

    /// Re-aggregates per-cgroup and total RSS if the process table changed
    /// since the last aggregation (see the memo note in [`Kernel::tick_once`]).
    fn refresh_rss_memo(&mut self) {
        let epoch = self.procs.epoch();
        if self.scratch.mem_epoch == Some(epoch) {
            return;
        }
        let by_cgroup = &mut self.scratch.by_cgroup;
        by_cgroup.clear();
        let mut rss_total = 0u64;
        for p in self.procs.iter() {
            if p.state() != ProcState::Exited {
                let rss = p.rss_bytes();
                rss_total += rss;
                let cg = p.cgroups().memory;
                match by_cgroup.binary_search_by_key(&cg, |&(id, _)| id) {
                    Ok(i) => by_cgroup[i].1 += rss,
                    Err(i) => by_cgroup.insert(i, (cg, rss)),
                }
            }
        }
        for &(cg, bytes) in by_cgroup.iter() {
            self.cgroups.set_memory_usage(cg, bytes);
        }
        self.cgroups
            .set_memory_usage(self.scratch.mem_root, rss_total);
        self.scratch.rss_total = rss_total;
        self.scratch.mem_epoch = Some(epoch);
        self.scratch.cgroups_lent = false;
    }

    /// One run tick. Draws, in order: sched, hw, mem, irq, fs, net (each
    /// subsystem's own order is documented on its `tick`).
    fn tick_once(&mut self, dt_ns: u64) {
        let memo_held = self.scratch.mem_epoch == Some(self.procs.epoch());
        self.sched.tick_into(
            dt_ns,
            &mut self.procs,
            &mut self.cgroups,
            &mut self.rng,
            &mut self.scratch.sched,
            &mut self.scratch.report,
        );
        let report = &self.scratch.report;

        self.hw.tick(dt_ns, &report.per_cpu, &mut self.rng);

        let mut syscalls = 0u64;
        let mut io_bytes = 0u64;
        for c in &report.per_cpu {
            syscalls += c.syscalls;
            io_bytes += c.io_bytes;
        }
        self.stats.total_syscalls += syscalls;
        self.stats.total_io_bytes += io_bytes;

        // Memory: per-cgroup RSS sums and the global total. The pass is
        // memoized on the process-table epoch: when nothing was spawned,
        // killed, or mutated since the last aggregation, every per-process
        // RSS is unchanged and the cgroup usages already hold the right
        // values. The scheduler's walk moves the epoch on every busy tick,
        // but a process's RSS is its current phase's footprint, so a tick
        // that moved no task to another footprint and reaped none leaves
        // the aggregation valid: the memo carries over to the new epoch.
        if memo_held && !report.rss_moved && !self.scratch.cgroups_lent {
            self.scratch.mem_epoch = Some(self.procs.epoch());
        }
        self.refresh_rss_memo();
        self.mem
            .tick(dt_ns, self.scratch.rss_total, io_bytes, &mut self.rng);

        let report = &self.scratch.report;
        let intr_before = self.irq.total_interrupts();
        self.irq
            .tick(dt_ns, &report.per_cpu, report.switches, &mut self.rng);
        let intr_delta = self.irq.total_interrupts() - intr_before;

        self.fs.tick(
            dt_ns,
            self.procs.len(),
            syscalls,
            io_bytes,
            intr_delta,
            &mut self.rng,
        );
        self.net.tick(dt_ns, syscalls, &mut self.rng);

        self.clock.advance(dt_ns);
        self.timers.refresh(self.clock.since_boot_ns());

        let mut exited = std::mem::take(&mut self.scratch.report.exited);
        for pid in exited.drain(..) {
            self.cleanup_process(pid);
        }
        self.scratch.report.exited = exited;

        let before = self.lifetime_ns;
        self.lifetime_ns += dt_ns;
        if self.reboot_due(before) {
            self.crash_reboot();
        }
    }

    /// A crash-reboot: uptime restarts, the boot id rotates, and the
    /// monotone hardware counters (RAPL energy, cpuidle residency) zero.
    /// Processes survive — the model is a fast kernel restart with service
    /// supervision restoring the workload within the downtime window, so
    /// detectors observing the host see exactly the counter discontinuities
    /// a real crash-reboot produces.
    fn crash_reboot(&mut self) {
        const DOWNTIME_SECS: u64 = 2;
        self.clock.reboot(DOWNTIME_SECS);
        self.fs.rotate_boot_id(&mut self.rng);
        self.hw.reset_monotone_counters();
        self.reboots += 1;
        if let Some(tr) = &self.tracer {
            tr.emit(self.lifetime_ns, TraceEvent::Reboot { boot: self.reboots });
        }
        simtrace::counters::add("faults.reboots", 1);
        simtrace::profile::record("reboot", DOWNTIME_SECS * NANOS_PER_SEC, 1);
    }

    // ------------------------------------------------------------------
    // Processes
    // ------------------------------------------------------------------

    /// Spawns a process per `spec`.
    ///
    /// # Errors
    ///
    /// * [`KernelError::OutOfMemory`] if the workload's initial footprint
    ///   does not fit.
    /// * [`KernelError::NoSuchCpu`] for affinity outside the topology.
    /// * Namespace errors if the spec's PID namespace is invalid.
    pub fn spawn(&mut self, spec: ProcessSpec) -> Result<HostPid, KernelError> {
        let rss = spec.workload.phases()[0].mem_bytes;
        if !self.mem.can_admit(rss) {
            return Err(KernelError::OutOfMemory {
                requested: rss,
                available: self.mem.available_bytes(),
            });
        }
        if let Some(cpus) = &spec.affinity {
            for c in cpus {
                if *c >= self.cfg.cpus {
                    return Err(KernelError::NoSuchCpu(*c));
                }
            }
        }
        let ns = spec.ns.unwrap_or_else(|| self.ns.host_set());
        let cgroups = spec.cgroups.unwrap_or(CgroupMembership {
            cpuacct: self.cgroups.root(CgroupKind::Cpuacct),
            perf_event: self.cgroups.root(CgroupKind::PerfEvent),
            net_prio: self.cgroups.root(CgroupKind::NetPrio),
            memory: self.cgroups.root(CgroupKind::Memory),
        });
        self.idle_anchor.invalidate();
        let host_pid = self.procs.allocate_pid();
        let ns_pid = self.ns.allocate_pid(ns.pid, host_pid)?;
        if let Some(tr) = &self.tracer {
            tr.emit(
                self.lifetime_ns,
                TraceEvent::SchedSpawn {
                    pid: host_pid.0,
                    comm: spec.name.clone(),
                },
            );
        }
        simtrace::counters::add("sched.spawns", 1);
        self.timers
            .arm_sched_timer(host_pid, &spec.name, self.clock.since_boot_ns());
        self.procs.insert(Process {
            host_pid,
            name: spec.name,
            ns,
            ns_pid,
            cgroups,
            workload: spec.workload,
            cursor: PhaseCursor::new(),
            affinity: spec.affinity,
            state: ProcState::Runnable,
            start_ns: self.clock.since_boot_ns(),
            utime_ns: 0,
            stime_ns: 0,
            vruntime_ns: 0,
            counters: Default::default(),
            last_cpu: 0,
            io_read_bytes: 0,
            io_write_bytes: 0,
            syscalls: 0,
        });
        self.bump_epochs(dep::PROCESS | dep::NS | dep::TIMERS);
        Ok(host_pid)
    }

    /// Spawns a host-namespace process (convenience).
    ///
    /// # Errors
    ///
    /// See [`Kernel::spawn`].
    pub fn spawn_host_process(
        &mut self,
        name: &str,
        workload: WorkloadSpec,
    ) -> Result<HostPid, KernelError> {
        self.spawn(ProcessSpec::new(name, workload))
    }

    /// Kills a process, releasing pids, locks and timers.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchProcess`] if `pid` is not live.
    pub fn kill(&mut self, pid: HostPid) -> Result<(), KernelError> {
        if self.procs.get(pid).is_none() {
            return Err(KernelError::NoSuchProcess(pid));
        }
        self.cleanup_process(pid);
        Ok(())
    }

    fn cleanup_process(&mut self, pid: HostPid) {
        self.idle_anchor.invalidate();
        if let Some(p) = self.procs.remove(pid) {
            self.ns.release_pid(p.ns.pid, pid);
            if let Some(tr) = &self.tracer {
                tr.emit(self.lifetime_ns, TraceEvent::SchedExit { pid: pid.0 });
            }
            simtrace::counters::add("sched.exits", 1);
        }
        self.fs.drop_locks_of(pid);
        self.timers.drop_timers_of(pid);
        self.bump_epochs(dep::PROCESS | dep::NS | dep::FS | dep::TIMERS);
    }

    /// Changes a process's CPU affinity (`taskset`).
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchProcess`] / [`KernelError::NoSuchCpu`].
    pub fn set_affinity(&mut self, pid: HostPid, cpus: Vec<u16>) -> Result<(), KernelError> {
        for c in &cpus {
            if *c >= self.cfg.cpus {
                return Err(KernelError::NoSuchCpu(*c));
            }
        }
        self.idle_anchor.invalidate();
        match self.procs.get_mut(pid) {
            Some(p) => {
                p.affinity = Some(cpus);
                self.bump_epochs(dep::PROCESS);
                Ok(())
            }
            None => Err(KernelError::NoSuchProcess(pid)),
        }
    }

    /// Pauses (SIGSTOP) a process.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchProcess`].
    pub fn pause(&mut self, pid: HostPid) -> Result<(), KernelError> {
        self.idle_anchor.invalidate();
        match self.procs.get_mut(pid) {
            Some(p) => {
                p.state = ProcState::Sleeping;
                if let Some(tr) = &self.tracer {
                    tr.emit(self.lifetime_ns, TraceEvent::SchedPause { pid: pid.0 });
                }
                simtrace::counters::add("sched.pauses", 1);
                self.bump_epochs(dep::PROCESS | dep::SCHED);
                Ok(())
            }
            None => Err(KernelError::NoSuchProcess(pid)),
        }
    }

    /// Resumes (SIGCONT) a paused process.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchProcess`].
    pub fn resume(&mut self, pid: HostPid) -> Result<(), KernelError> {
        self.idle_anchor.invalidate();
        match self.procs.get_mut(pid) {
            Some(p) => {
                if p.state == ProcState::Sleeping {
                    p.state = ProcState::Runnable;
                    if let Some(tr) = &self.tracer {
                        tr.emit(self.lifetime_ns, TraceEvent::SchedResume { pid: pid.0 });
                    }
                    simtrace::counters::add("sched.resumes", 1);
                    self.bump_epochs(dep::PROCESS | dep::SCHED);
                }
                Ok(())
            }
            None => Err(KernelError::NoSuchProcess(pid)),
        }
    }

    /// Swaps the workload of a live process (attack phase changes).
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchProcess`].
    pub fn set_workload(
        &mut self,
        pid: HostPid,
        workload: WorkloadSpec,
    ) -> Result<(), KernelError> {
        self.idle_anchor.invalidate();
        match self.procs.get_mut(pid) {
            Some(p) => {
                p.workload = workload;
                p.cursor = PhaseCursor::new();
                self.bump_epochs(dep::PROCESS);
                Ok(())
            }
            None => Err(KernelError::NoSuchProcess(pid)),
        }
    }

    /// Retargets the CPU demand of a live process's workload in place,
    /// without replacing the spec or resetting its phase cursor — the
    /// cheap path fleet drivers use to follow a utilization trace across
    /// thousands of simulated intervals.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchProcess`].
    pub fn set_workload_demand(&mut self, pid: HostPid, demand: f64) -> Result<(), KernelError> {
        self.idle_anchor.invalidate();
        match self.procs.get_mut(pid) {
            Some(p) => {
                p.workload.set_uniform_cpu_demand(demand);
                self.bump_epochs(dep::PROCESS);
                Ok(())
            }
            None => Err(KernelError::NoSuchProcess(pid)),
        }
    }

    // ------------------------------------------------------------------
    // Containers
    // ------------------------------------------------------------------

    /// Creates the kernel-side environment for a container: a fresh
    /// namespace set, one cgroup per hierarchy under `/docker/<name>`, and
    /// a host-side veth device.
    ///
    /// # Errors
    ///
    /// Propagates cgroup-creation failures.
    pub fn create_container_env(&mut self, name: &str) -> Result<ContainerEnv, KernelError> {
        self.idle_anchor.invalidate();
        self.container_seq += 1;
        let uid_base = 100_000 + self.container_seq * 65_536;
        let cgroup_path: Arc<str> = Arc::from(format!("/docker/{name}"));
        let ns =
            self.ns
                .create_container_set(name, Arc::clone(&cgroup_path), (0, uid_base, 65_536));

        let veth = self.net.create_veth(&mut self.rng);

        let mut ids = [CgroupId(0); 4];
        for kind in CgroupKind::ALL {
            let parent = match self.docker_parents[kind.index()] {
                Some(p) => p,
                None => {
                    let root = self.cgroups.root(kind);
                    let p = self.cgroups.create_child(root, "docker")?;
                    self.docker_parents[kind.index()] = Some(p);
                    p
                }
            };
            ids[kind.index()] = self
                .cgroups
                .create_child_at(parent, Arc::clone(&cgroup_path))?;
        }
        self.bump_epochs(dep::NS | dep::NET | dep::CGROUP);
        Ok(ContainerEnv {
            ns,
            cgroups: CgroupMembership {
                cpuacct: ids[CgroupKind::Cpuacct.index()],
                perf_event: ids[CgroupKind::PerfEvent.index()],
                net_prio: ids[CgroupKind::NetPrio.index()],
                memory: ids[CgroupKind::Memory.index()],
            },
            veth,
            cgroup_path,
        })
    }

    /// Tears down a container environment: kills remaining member
    /// processes, removes its cgroups and veth device.
    ///
    /// # Errors
    ///
    /// Propagates cgroup-removal failures.
    pub fn destroy_container_env(&mut self, env: &ContainerEnv) -> Result<(), KernelError> {
        self.idle_anchor.invalidate();
        let members: Vec<HostPid> = self
            .procs
            .iter()
            .filter(|p| p.ns == env.ns)
            .map(|p| p.host_pid)
            .collect();
        for pid in members {
            self.cleanup_process(pid);
        }
        let _ = self
            .perf
            .detach_cgroup(&mut self.cgroups, env.cgroups.perf_event);
        for id in [
            env.cgroups.cpuacct,
            env.cgroups.perf_event,
            env.cgroups.net_prio,
            env.cgroups.memory,
        ] {
            self.cgroups.remove(id)?;
        }
        self.net.remove_device(&env.veth);
        // Teardown must also unwind the seven namespaces (the registry
        // would otherwise grow without bound under container churn). The
        // veth leaves no net_prio entry behind: a group holds only the
        // priorities set in it, so a name-colliding future veth renders
        // at priority 0.
        self.ns.remove_container_set(&env.ns);
        self.bump_epochs(dep::NS | dep::NET | dep::CGROUP);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Manipulation primitives (what a tenant can do from user space)
    // ------------------------------------------------------------------

    /// Arms a user timer with an attacker-chosen comm (timer_list
    /// signature implantation).
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchProcess`].
    pub fn add_user_timer(
        &mut self,
        pid: HostPid,
        comm: &str,
        interval_ns: u64,
    ) -> Result<(), KernelError> {
        if self.procs.get(pid).is_none() {
            return Err(KernelError::NoSuchProcess(pid));
        }
        self.idle_anchor.invalidate();
        if let Some(tr) = &self.tracer {
            tr.emit(
                self.lifetime_ns,
                TraceEvent::TimerArmed {
                    pid: pid.0,
                    comm: comm.to_string(),
                },
            );
        }
        self.timers
            .arm_user_timer(pid, comm, self.clock.since_boot_ns(), interval_ns.max(1));
        self.bump_epochs(dep::TIMERS);
        Ok(())
    }

    /// Takes a file lock on behalf of `pid` (locks signature implantation).
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchProcess`].
    pub fn flock(
        &mut self,
        pid: HostPid,
        kind: LockKind,
        range: (u64, u64),
    ) -> Result<String, KernelError> {
        if self.procs.get(pid).is_none() {
            return Err(KernelError::NoSuchProcess(pid));
        }
        self.idle_anchor.invalidate();
        self.bump_epochs(dep::FS);
        Ok(self.fs.add_lock(pid, kind, range))
    }

    /// Enables power-namespace-style perf monitoring on a container's
    /// perf_event cgroup.
    ///
    /// # Errors
    ///
    /// Propagates cgroup errors.
    pub fn attach_perf_monitoring(&mut self, cgroup: CgroupId) -> Result<(), KernelError> {
        self.idle_anchor.invalidate();
        self.bump_epochs(dep::CGROUP);
        let ncpus = self.cfg.cpus;
        self.perf.attach_cgroup(
            &mut self.cgroups,
            cgroup,
            ncpus,
            PerfOverheadCosts::default(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    use proptest::prelude::*;
    use rand::RngExt;
    use workloads::{models, Phase, Repeat, WorkloadClass};

    // The reference tick: [`Kernel::tick_once`] as it was before the fast
    // paths, calling each subsystem's `#[cfg(test)]` reference tick and
    // aggregating RSS through a `HashMap`. The property below drives a fast
    // kernel and a reference kernel through the same script and demands
    // byte-identical state.
    impl Kernel {
        fn refresh_rss_memo_reference(&mut self) {
            let epoch = self.procs.epoch();
            if self.scratch.mem_epoch == Some(epoch) {
                return;
            }
            let mut hashed: HashMap<CgroupId, u64> = HashMap::new();
            let mut rss_total = 0u64;
            for p in self.procs.iter() {
                if p.state() != ProcState::Exited {
                    let rss = p.rss_bytes();
                    rss_total += rss;
                    *hashed.entry(p.cgroups().memory).or_insert(0) += rss;
                }
            }
            for (cg, bytes) in hashed.iter() {
                self.cgroups.set_memory_usage(*cg, *bytes);
            }
            let mem_root = self.cgroups.root(CgroupKind::Memory);
            self.cgroups.set_memory_usage(mem_root, rss_total);
            self.scratch.rss_total = rss_total;
            self.scratch.mem_epoch = Some(epoch);
        }

        fn tick_once_reference(&mut self, dt_ns: u64) {
            self.sched.tick_reference(
                dt_ns,
                &mut self.procs,
                &mut self.cgroups,
                &mut self.rng,
                &mut self.scratch.report,
            );
            let report = &self.scratch.report;

            self.hw
                .tick_reference(dt_ns, &report.per_cpu, &mut self.rng);

            let mut syscalls = 0u64;
            let mut io_bytes = 0u64;
            for c in &report.per_cpu {
                syscalls += c.syscalls;
                io_bytes += c.io_bytes;
            }
            self.stats.total_syscalls += syscalls;
            self.stats.total_io_bytes += io_bytes;

            if self.procs.runnable() > 0 {
                self.scratch.mem_epoch = None;
            }
            self.refresh_rss_memo_reference();
            self.mem
                .tick(dt_ns, self.scratch.rss_total, io_bytes, &mut self.rng);

            let report = &self.scratch.report;
            let intr_before = self.irq.total_interrupts();
            self.irq
                .tick_reference(dt_ns, &report.per_cpu, report.switches, &mut self.rng);
            let intr_delta = self.irq.total_interrupts() - intr_before;

            self.fs.tick(
                dt_ns,
                self.procs.len(),
                syscalls,
                io_bytes,
                intr_delta,
                &mut self.rng,
            );
            self.net.tick_reference(dt_ns, syscalls, &mut self.rng);

            self.clock.advance(dt_ns);
            self.timers.refresh(self.clock.since_boot_ns());

            let mut exited = std::mem::take(&mut self.scratch.report.exited);
            for pid in exited.drain(..) {
                self.cleanup_process(pid);
            }
            self.scratch.report.exited = exited;

            let before = self.lifetime_ns;
            self.lifetime_ns += dt_ns;
            let reboot_due = self.faults.as_ref().is_some_and(|f| {
                f.plan.reboot_in(
                    before.saturating_sub(f.base_ns),
                    self.lifetime_ns.saturating_sub(f.base_ns),
                )
            });
            if reboot_due {
                self.crash_reboot();
            }
        }

        /// Advances by `secs` with the fast or the reference run tick.
        fn drive(&mut self, secs: u64, reference: bool) {
            if reference {
                self.advance_with(
                    secs * NANOS_PER_SEC,
                    Kernel::tick_once_reference,
                    Kernel::quiescent_step,
                );
            } else {
                self.advance_secs(secs);
            }
        }

        /// Every piece of state a tick writes, serialized, plus the next
        /// draw of the kernel's RNG. The process table's memo epoch is
        /// left out: it counts mutable accesses, not simulated state.
        fn tick_state(&mut self) -> Vec<String> {
            let mut parts = self.state();
            parts.push(format!("next draw {}", self.rng.random::<u64>()));
            parts
        }

        /// [`Kernel::tick_state`] without the RNG draw.
        fn state(&self) -> Vec<String> {
            let json = |v: &dyn Fn() -> Result<String, serde_json::Error>| {
                v().unwrap_or_else(|e| format!("unserializable: {e:?}"))
            };
            let procs: Vec<&Process> = self.procs.iter().collect();
            vec![
                json(&|| serde_json::to_string(&self.sched)),
                json(&|| serde_json::to_string(&self.hw)),
                json(&|| serde_json::to_string(&self.irq)),
                json(&|| serde_json::to_string(&self.mem)),
                json(&|| serde_json::to_string(&self.fs)),
                json(&|| serde_json::to_string(&self.net)),
                json(&|| serde_json::to_string(&procs)),
                json(&|| serde_json::to_string(&self.cgroups)),
                json(&|| serde_json::to_string(&self.timers)),
                format!(
                    "clock {:?} lifetime {} reboots {} stats {:?} forks {} last pid {}",
                    self.clock,
                    self.lifetime_ns,
                    self.reboots,
                    self.stats,
                    self.procs.total_forks(),
                    self.procs.last_pid(),
                ),
            ]
        }

        /// One quiescent span on the reference anchor: full clones of
        /// every subsystem, captured whenever the lean anchor would be
        /// and evaluated by each subsystem's reference closed form.
        fn quiescent_step_reference(&mut self, step_ns: u64) {
            let anchor = match self.idle_anchor.reference.take() {
                Some(a) => a,
                None => {
                    self.refresh_rss_memo();
                    Box::new(CloneAnchor {
                        since_boot_ns: self.clock.since_boot_ns(),
                        sched: self.sched.clone(),
                        hw: self.hw.clone(),
                        mem: self.mem.clone(),
                        irq: self.irq.clone(),
                        fs: self.fs.clone(),
                        net: self.net.clone(),
                        rss_total: self.scratch.rss_total,
                        nprocs: self.procs.len(),
                    })
                }
            };
            self.clock.advance(step_ns);
            let before = self.lifetime_ns;
            self.lifetime_ns += step_ns;
            let rel_ns = self.clock.since_boot_ns() - anchor.since_boot_ns;

            self.sched.idle_eval_reference(&anchor.sched, rel_ns);
            self.hw.idle_eval_reference(&anchor.hw, rel_ns);
            self.irq.idle_eval_reference(&anchor.irq, rel_ns);
            let intr_delta = self.irq.total_interrupts() - anchor.irq.total_interrupts();
            self.mem
                .idle_eval_reference(&anchor.mem, rel_ns, anchor.rss_total);
            self.fs
                .idle_eval_reference(&anchor.fs, rel_ns, anchor.nprocs, intr_delta);
            self.net.idle_eval_reference(&anchor.net, rel_ns);
            self.timers.refresh(self.clock.since_boot_ns());

            if self.reboot_due(before) {
                self.crash_reboot();
                self.idle_anchor.invalidate();
            } else {
                self.idle_anchor.reference = Some(anchor);
            }
        }
    }

    /// The reference idle anchor: a full clone of every subsystem an idle
    /// span evolves, as the anchor held them before the lean capture.
    #[derive(Debug)]
    pub(super) struct CloneAnchor {
        since_boot_ns: u64,
        sched: Scheduler,
        hw: Hardware,
        mem: MemoryState,
        irq: IrqState,
        fs: FsState,
        net: NetState,
        rss_total: u64,
        nprocs: usize,
    }

    /// A `Once` workload of `secs` CPU-seconds whose first half is
    /// syscall- and IO-heavy; it exits mid-run.
    fn short_job(secs: u64, demand: f64) -> WorkloadSpec {
        let io = Phase {
            duration_ns: (secs / 2).max(1) * NANOS_PER_SEC,
            instructions_per_cycle: 0.9,
            cache_miss_per_kilo_instr: 6.0,
            branch_miss_per_kilo_instr: 7.0,
            fp_ratio: 0.1,
            mem_bytes: 96 << 20,
            syscalls_per_sec: 40_000.0,
            io_bytes_per_sec: 3.0e7,
            cpu_demand: demand,
        };
        let compute = Phase {
            duration_ns: secs.div_ceil(2) * NANOS_PER_SEC,
            instructions_per_cycle: 2.1,
            cache_miss_per_kilo_instr: 0.5,
            fp_ratio: 0.4,
            mem_bytes: 160 << 20,
            syscalls_per_sec: 80.0,
            io_bytes_per_sec: 0.0,
            ..io
        };
        WorkloadSpec::new(
            "short-job",
            WorkloadClass::Mixed,
            vec![io, compute],
            Repeat::Once,
        )
    }

    /// A one-phase service, or with `field` in 1..=7 its near twin: the
    /// same phase with exactly one of the seven fields a task's share of a
    /// tick reads changed, in the order of the scheduler's memo key.
    fn twin(field: usize) -> WorkloadSpec {
        let mut phase = models::web_service(0.3).phases()[0].clone();
        match field {
            1 => phase.cpu_demand = 0.2,
            2 => phase.instructions_per_cycle = 1.3,
            3 => phase.cache_miss_per_kilo_instr = 6.0,
            4 => phase.branch_miss_per_kilo_instr = 7.0,
            5 => phase.fp_ratio = 0.05,
            6 => phase.syscalls_per_sec = 30_000.0,
            7 => phase.io_bytes_per_sec = 3.0e6,
            _ => {}
        }
        WorkloadSpec::new(
            format!("twin-{field}"),
            WorkloadClass::Mixed,
            vec![phase],
            Repeat::Forever,
        )
    }

    fn workload(choice: usize) -> WorkloadSpec {
        match choice {
            0 => models::prime(),
            1 => models::web_service(0.35),
            2 => models::batch_pipeline(),
            3 => short_job(4, 1.0),
            4 => short_job(9, 0.6),
            5 => models::stress_vm(),
            6 => models::mcf(),
            7 => models::sleeper(),
            _ => twin(choice - 8),
        }
    }

    /// One process of a script: (workload, where it runs, affinity).
    type Spawn = (usize, usize, usize);

    /// Boots a kernel and runs the script on it with the fast or the
    /// reference tick, returning its final tick state. With `retick`, the
    /// tick length switches between 1 s and 30 s after the first span.
    #[allow(clippy::too_many_arguments)]
    fn run_script(
        seed: u64,
        machine: usize,
        tick_secs: u64,
        retick: bool,
        containers: usize,
        spawns: &[Spawn],
        reboot: bool,
        spans: (u64, u64, u64),
        reference: bool,
    ) -> Vec<String> {
        let cfg = match machine {
            0 => MachineConfig::small_server(),
            1 => MachineConfig::testbed_i7_6700(),
            _ => MachineConfig::cloud_server(),
        };
        let ncpus = cfg.cpus;
        let mut k = Kernel::new(cfg, seed);
        k.set_tick_ns(tick_secs * NANOS_PER_SEC);
        let (a, b, c) = spans;
        let later_secs = if retick { 31 - tick_secs } else { tick_secs };
        if reboot {
            let horizon = a * tick_secs + (b + c) * later_secs;
            k.install_faults(
                FaultPlan::builder(seed)
                    .horizon_secs(horizon)
                    .reboot_at_secs(horizon / 2)
                    .build(),
            );
        }
        let envs: Vec<ContainerEnv> = (0..containers)
            .map(|i| {
                k.create_container_env(&format!("c{i}"))
                    .unwrap_or_else(|e| panic!("container env: {e}"))
            })
            .collect();
        // Perf monitoring on one container makes the perf charges count.
        if let Some(env) = envs.first() {
            k.attach_perf_monitoring(env.cgroups.perf_event)
                .unwrap_or_else(|e| panic!("perf monitoring: {e}"));
        }
        let mut pids = Vec::new();
        for (i, &(w, place, aff)) in spawns.iter().enumerate() {
            let mut spec = ProcessSpec::new(format!("p{i}"), workload(w));
            if let Some(env) = envs.get(place) {
                spec = spec.in_container(env);
            }
            // Valid affinities go through the API; out-of-range CPUs can
            // only reach the scheduler from inside the kernel.
            let (valid, raw): (Option<Vec<u16>>, Option<Vec<u16>>) = match aff {
                1 => (Some(vec![0]), None),
                2 => (Some(vec![ncpus - 1]), None),
                3 => (Some(vec![0, 1.min(ncpus - 1)]), None),
                4 => (None, Some(vec![ncpus + 3])),
                5 => (None, Some(vec![ncpus, 0])),
                _ => (None, None),
            };
            if let Some(cpus) = valid {
                spec = spec.affinity(cpus);
            }
            let Ok(pid) = k.spawn(spec) else { continue };
            if let (Some(cpus), Some(p)) = (raw, k.procs.get_mut(pid)) {
                p.affinity = Some(cpus);
            }
            pids.push(pid);
        }
        k.drive(a * tick_secs, reference);
        k.set_tick_ns(later_secs * NANOS_PER_SEC);
        let paused = pids.first().copied();
        if let Some(pid) = paused {
            let _ = k.pause(pid);
        }
        if let Some(&pid) = pids.get(1) {
            let _ = k.set_workload_demand(pid, 0.45);
        }
        k.drive(b * later_secs, reference);
        if let Some(pid) = paused {
            let _ = k.resume(pid);
        }
        k.drive(c * later_secs, reference);
        k.tick_state()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 40 } else { 256 }))]
        #[test]
        fn fast_tick_leaves_the_reference_ticks_bytes(
            seed in 0u64..1_000_000,
            machine in 0usize..3,
            coarse in 0usize..3,
            retick in 0usize..2,
            containers in 0usize..4,
            spawns in proptest::collection::vec((0usize..16, 0usize..4, 0usize..7), 1..14),
            reboot in 0usize..2,
            spans in (1u64..12, 0u64..8, 1u64..12),
        ) {
            // 1 s ticks mostly; a third of the cases start on 30 s ticks,
            // and half switch tick length after the first span.
            let tick_secs = if coarse == 0 { 30 } else { 1 };
            let run = |reference| {
                run_script(
                    seed,
                    machine,
                    tick_secs,
                    retick == 1,
                    containers,
                    &spawns,
                    reboot == 1,
                    spans,
                    reference,
                )
            };
            let (fast, plain) = (run(false), run(true));
            for (i, (f, p)) in fast.iter().zip(&plain).enumerate() {
                prop_assert_eq!(f, p, "state part {} diverged", i);
            }
        }
    }

    /// The tick's memos against near twins: every key field of the
    /// scheduler's memo, and the hardware and interrupt per-CPU memos'
    /// load fields a service can move alone, each differ between two
    /// lookups in a row while everything else matches. The fast tick
    /// must still leave the reference's bytes.
    #[test]
    fn near_twin_services_leave_the_reference_ticks_bytes() {
        // On a 16-CPU cloud server, in pid order: a base service packed
        // on CPU 0 with prime (total demand 1.3) and then one alone on
        // CPU 1, so the two differ in total demand only; base/twin pairs
        // on CPUs 2-13, each twin changing one phase field (past the IPC
        // twin, the pair's loads differ in cache misses, branch misses,
        // FP instructions, syscalls or IO alone); a base and its demand
        // twin sharing CPU 15; and CPU 14 idle beside a busy CPU 13. The
        // hardware tests pin loads differing in busy time or instructions
        // alone.
        let mut spawns = vec![(8, 0, 1), (8, 0, 0)];
        for field in 2..=7 {
            spawns.extend([(8, 0, 0), (8 + field, 0, 0)]);
        }
        spawns.extend([(8, 0, 2), (9, 0, 2), (0, 0, 1)]);
        for (tick_secs, retick) in [(1, false), (30, false), (1, true), (30, true)] {
            let run = |reference| {
                run_script(
                    7,
                    2,
                    tick_secs,
                    retick,
                    1,
                    &spawns,
                    false,
                    (3, 2, 3),
                    reference,
                )
            };
            let (fast, plain) = (run(false), run(true));
            for (i, (f, p)) in fast.iter().zip(&plain).enumerate() {
                assert_eq!(f, p, "state part {i} diverged at {tick_secs} s ticks");
            }
        }
    }

    /// A `Forever` service that crosses between two short phases every few
    /// seconds of CPU; with `same_rss` both phases have one footprint, so
    /// a crossing moves no RSS.
    fn cycler(same_rss: bool) -> WorkloadSpec {
        let base = models::web_service(0.3).phases()[0].clone();
        let first = Phase {
            duration_ns: 2 * NANOS_PER_SEC,
            cpu_demand: 0.9,
            ..base
        };
        let second = Phase {
            duration_ns: 3 * NANOS_PER_SEC,
            instructions_per_cycle: 0.7,
            mem_bytes: if same_rss {
                first.mem_bytes
            } else {
                3 * first.mem_bytes
            },
            ..first.clone()
        };
        WorkloadSpec::new(
            format!("cycler-{same_rss}"),
            WorkloadClass::Mixed,
            vec![first, second],
            Repeat::Forever,
        )
    }

    /// The RSS memo against the reference tick, which re-aggregates on
    /// every busy tick, compared after every tick: services crossing
    /// phases with and without a new footprint mid-run, a job that exits,
    /// a cgroup borrower writing a memory usage between advances, and a
    /// spawn and a kill; and one-phase services alone, whose RSS never
    /// moves, so the memo outlives every tick but the borrower's.
    #[test]
    fn phase_crossings_leave_the_reference_ticks_bytes() {
        let mixed = || {
            vec![
                cycler(false),
                cycler(true),
                models::web_service(0.3),
                short_job(9, 0.6),
                models::batch_pipeline(),
            ]
        };
        let steady = || vec![models::web_service(0.3), models::web_service(0.2)];
        let scenarios: [&dyn Fn() -> Vec<WorkloadSpec>; 2] = [&mixed, &steady];
        for (jobs, tick_secs) in scenarios.iter().flat_map(|j| [(j, 1), (j, 30)]) {
            let run = |reference: bool| {
                let mut k = Kernel::new(MachineConfig::cloud_server(), 5);
                k.set_tick_ns(tick_secs * NANOS_PER_SEC);
                let env = k
                    .create_container_env("c")
                    .unwrap_or_else(|e| panic!("container env: {e}"));
                let mut pids = Vec::new();
                for (i, w) in jobs().into_iter().enumerate() {
                    let spec = ProcessSpec::new(format!("p{i}"), w);
                    let spec = if i % 2 == 0 {
                        spec.in_container(&env)
                    } else {
                        spec
                    };
                    pids.push(k.spawn(spec).unwrap_or_else(|e| panic!("spawn: {e}")));
                }
                let mut states = Vec::new();
                for round in 0..4u64 {
                    for _ in 0..7 {
                        k.drive(tick_secs, reference);
                        states.push(k.state());
                    }
                    match round {
                        0 => k
                            .cgroups_mut()
                            .set_memory_usage(env.cgroups.memory, 7 << 20),
                        1 => {
                            let _ = k.kill(pids[1]);
                        }
                        _ => {
                            let _ = k.spawn(ProcessSpec::new("late", cycler(false)));
                        }
                    }
                }
                states.push(k.tick_state());
                states
            };
            let (fast, plain) = (run(false), run(true));
            for (i, (f, p)) in fast.iter().zip(&plain).enumerate() {
                assert_eq!(f, p, "state {i} diverged at {tick_secs} s ticks");
            }
        }
    }

    /// One step of an anchor script: `(op, a, b)`, decoded by
    /// [`apply_anchor_op`].
    type AnchorOp = (u8, u64, u64);

    /// Live container envs and pids of one anchor-script kernel.
    #[derive(Default)]
    struct Tenants {
        envs: Vec<ContainerEnv>,
        pids: Vec<HostPid>,
        created: u32,
    }

    /// Applies one script step to `k`. Advances run through the lean
    /// anchor, or with `reference`, through the clone anchor; everything
    /// else is the same public API call on both kernels.
    fn apply_anchor_op(k: &mut Kernel, t: &mut Tenants, (op, a, b): AnchorOp, reference: bool) {
        let pick = |n: usize| (a % n.max(1) as u64) as usize;
        match op {
            0 => {
                t.created += 1;
                let env = k
                    .create_container_env(&format!("c{}", t.created))
                    .unwrap_or_else(|e| panic!("container env: {e}"));
                t.envs.push(env);
            }
            1 if !t.envs.is_empty() => {
                let env = t.envs.remove(pick(t.envs.len()));
                k.destroy_container_env(&env)
                    .unwrap_or_else(|e| panic!("destroy env: {e}"));
            }
            2 => {
                let mut spec = ProcessSpec::new(format!("p{a}"), workload(pick(8)));
                if let Some(env) = t.envs.get((b % (t.envs.len() as u64 + 1)) as usize) {
                    spec = spec.in_container(env);
                }
                if let Ok(pid) = k.spawn(spec) {
                    t.pids.push(pid);
                }
            }
            3 if !t.pids.is_empty() => {
                let _ = k.kill(t.pids.remove(pick(t.pids.len())));
            }
            4 if !t.pids.is_empty() => {
                let _ = k.pause(t.pids[pick(t.pids.len())]);
            }
            5 if !t.pids.is_empty() => {
                let _ = k.resume(t.pids[pick(t.pids.len())]);
            }
            6 if !t.pids.is_empty() => {
                let interval = (b % 120 + 1) * NANOS_PER_SEC;
                let _ = k.add_user_timer(t.pids[pick(t.pids.len())], &format!("sig-{b}"), interval);
            }
            7 => k.set_tick_ns(
                [
                    250_000_000,
                    NANOS_PER_SEC,
                    5 * NANOS_PER_SEC,
                    30 * NANOS_PER_SEC,
                ][pick(4)],
            ),
            8 => {
                // A batch of paused processes: a quiescent host whose
                // process count moves the file-handle closed form.
                for i in 0..pick(12) + 1 {
                    let spec = ProcessSpec::new(format!("idle{i}"), models::sleeper());
                    if let Ok(pid) = k.spawn(spec) {
                        let _ = k.pause(pid);
                        t.pids.push(pid);
                    }
                }
            }
            9.. => {
                // Quiescent hosts may jump up to two hours; busy ones
                // tick through at most a minute.
                let cap = if k.has_runnable() { 60 } else { 7_200 };
                let ns = (a % cap) * NANOS_PER_SEC + b % NANOS_PER_SEC;
                let ns = ns.max(1);
                if reference {
                    k.advance_with(ns, Kernel::tick_once, Kernel::quiescent_step_reference);
                } else {
                    k.advance(ns);
                }
            }
            _ => {}
        }
    }

    /// What the anchor test compares after each advance: every piece of
    /// kernel state the pseudo-files render from, the namespaces of the
    /// host and of every live env, and the wrapped RAPL counters.
    fn anchor_state(k: &Kernel, t: &Tenants) -> Vec<String> {
        let mut parts = k.state();
        parts.push(format!("epochs {:?}", k.epochs()));
        let mut sets = vec![k.ns.host_set()];
        sets.extend(t.envs.iter().map(|e| e.ns));
        let ns: Vec<String> = sets
            .iter()
            .flat_map(|set| crate::ns::NamespaceKind::ALL.map(|kind| set.of(kind)))
            .map(|id| format!("{id} {:?}", k.ns.get(id)))
            .collect();
        parts.push(format!("ns {} {ns:?}", k.ns.len()));
        let rapl = k.rapl();
        let counters: Vec<(u64, u64, u64)> = (0..rapl.package_count())
            .map(|p| {
                (
                    rapl.package_energy_uj(p),
                    rapl.core_energy_uj(p),
                    rapl.dram_energy_uj(p),
                )
            })
            .collect();
        parts.push(format!("rapl {counters:?} power {:?}", k.last_power()));
        parts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 12 } else { 256 }))]
        #[test]
        fn lean_anchor_leaves_the_clone_anchors_bytes(
            seed in 0u64..1_000_000,
            machine in 0usize..3,
            coalesce in 0usize..2,
            faults in 0usize..3,
            ops in proptest::collection::vec((0u8..13, 0u64..u64::MAX, 0u64..u64::MAX), 1..40),
        ) {
            let boot = || {
                let cfg = match machine {
                    0 => MachineConfig::small_server(),
                    1 => MachineConfig::testbed_i7_6700(),
                    _ => MachineConfig::cloud_server(),
                };
                let mut k = Kernel::new(cfg, seed);
                if coalesce == 0 {
                    k = k.tick_stepped();
                }
                // A crash-reboot (and, in the standard plan, read, sensor
                // and skew windows that cap coalesced spans).
                match faults {
                    1 => k.install_faults(
                        FaultPlan::builder(seed).horizon_secs(7_200).reboots(2).build(),
                    ),
                    2 => k.install_faults(FaultPlan::standard(seed)),
                    _ => {}
                }
                k
            };
            let (mut lean, mut clone) = (boot(), boot());
            let (mut lt, mut ct) = (Tenants::default(), Tenants::default());
            for (i, &op) in ops.iter().enumerate() {
                apply_anchor_op(&mut lean, &mut lt, op, false);
                apply_anchor_op(&mut clone, &mut ct, op, true);
                if op.0 >= 9 {
                    let (l, c) = (anchor_state(&lean, &lt), anchor_state(&clone, &ct));
                    for (part, (l, c)) in l.iter().zip(&c).enumerate() {
                        prop_assert_eq!(l, c, "op {} ({:?}): state part {} diverged", i, op, part);
                    }
                }
            }
        }
    }

    fn kernel() -> Kernel {
        Kernel::new(MachineConfig::small_server(), 1)
    }

    #[test]
    fn boot_and_idle_advance() {
        let mut k = kernel();
        k.advance_secs(10);
        assert!((k.clock().uptime_secs() - 10.0).abs() < 1e-9);
        assert!(k.total_idle_ns() > 9 * NANOS_PER_SEC);
        assert!(k.wall_watts() > 30.0);
    }

    #[test]
    fn spawn_runs_and_consumes_power() {
        let mut k = kernel();
        k.advance_secs(2);
        let idle_w = k.wall_watts();
        let pid = k.spawn_host_process("prime", models::prime()).unwrap();
        k.advance_secs(5);
        assert!(k.wall_watts() > idle_w + 3.0);
        let p = k.process(pid).unwrap();
        assert!(p.cpu_time_ns() > 4 * NANOS_PER_SEC);
        assert!(p.counters().instructions > 0);
    }

    #[test]
    fn spawn_rejects_oversized_workload() {
        let mut k = kernel();
        let w = workloads::WorkloadSpec::new(
            "huge",
            workloads::WorkloadClass::MemoryBound,
            vec![workloads::Phase {
                mem_bytes: 1 << 40,
                ..workloads::Phase::quiescent(NANOS_PER_SEC)
            }],
            workloads::Repeat::Forever,
        );
        assert!(matches!(
            k.spawn_host_process("huge", w),
            Err(KernelError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn spawn_rejects_bad_affinity() {
        let mut k = kernel();
        let spec = ProcessSpec::new("x", models::prime()).affinity(vec![99]);
        assert!(matches!(k.spawn(spec), Err(KernelError::NoSuchCpu(99))));
    }

    #[test]
    fn kill_cleans_up_locks_timers_pids() {
        let mut k = kernel();
        let pid = k.spawn_host_process("victim", models::prime()).unwrap();
        k.add_user_timer(pid, "sig-123", NANOS_PER_SEC).unwrap();
        k.flock(pid, LockKind::FlockWrite, (0, 100)).unwrap();
        assert!(k.timers().contains_comm("sig-123"));
        assert_eq!(k.fs().locks().len(), 1);
        k.kill(pid).unwrap();
        assert!(k.process(pid).is_none());
        assert!(!k.timers().contains_comm("sig-123"));
        assert!(k.fs().locks().is_empty());
        assert!(matches!(k.kill(pid), Err(KernelError::NoSuchProcess(_))));
    }

    #[test]
    fn container_env_has_fresh_namespaces_and_cgroups() {
        let mut k = kernel();
        let env = k.create_container_env("c1").unwrap();
        assert_ne!(env.ns.pid, k.namespaces().host_set().pid);
        // One path, formatted once: the env's, each hierarchy's node's
        // (its `/docker` parent's path, `/` and the name) and the cgroup
        // namespace root.
        let cg = env.cgroups;
        for id in [cg.cpuacct, cg.perf_event, cg.net_prio, cg.memory] {
            let node = k.cgroups().node(id).unwrap();
            let parent = k.cgroups().node(node.parent().unwrap()).unwrap();
            assert_eq!(node.path(), format!("{}/c1", parent.path()));
            assert_eq!(node.path(), "/docker/c1");
        }
        assert_eq!(&*env.cgroup_path, "/docker/c1");
        assert_eq!(
            k.namespaces().cgroup_root(env.ns.cgroup),
            Some("/docker/c1")
        );
        assert!(k.net().devices().iter().any(|d| d.name == env.veth));

        // Container process gets pid 1 inside.
        let pid = k
            .spawn(ProcessSpec::new("app", models::prime()).in_container(&env))
            .unwrap();
        assert_eq!(k.process(pid).unwrap().ns_pid(), 1);
    }

    #[test]
    fn destroy_container_env_reaps_everything() {
        let mut k = kernel();
        let env = k.create_container_env("c1").unwrap();
        let pid = k
            .spawn(ProcessSpec::new("app", models::prime()).in_container(&env))
            .unwrap();
        k.advance_secs(1);
        k.destroy_container_env(&env).unwrap();
        assert!(k.process(pid).is_none());
        assert!(k.cgroups().node(env.cgroups.cpuacct).is_none());
        assert!(!k.net().devices().iter().any(|d| d.name == env.veth));
    }

    #[test]
    fn container_cpuacct_accumulates_only_its_work() {
        let mut k = kernel();
        let env1 = k.create_container_env("c1").unwrap();
        let env2 = k.create_container_env("c2").unwrap();
        k.spawn(ProcessSpec::new("busy", models::prime()).in_container(&env1))
            .unwrap();
        k.advance_secs(3);
        let u1 = k.cgroups().cpuacct_usage_ns(env1.cgroups.cpuacct).unwrap();
        let u2 = k.cgroups().cpuacct_usage_ns(env2.cgroups.cpuacct).unwrap();
        assert!(u1 > 2 * NANOS_PER_SEC);
        assert_eq!(u2, 0);
    }

    #[test]
    fn pause_and_resume_control_cpu_use() {
        let mut k = kernel();
        let pid = k.spawn_host_process("p", models::prime()).unwrap();
        k.advance_secs(1);
        let t1 = k.process(pid).unwrap().cpu_time_ns();
        k.pause(pid).unwrap();
        k.advance_secs(2);
        let t2 = k.process(pid).unwrap().cpu_time_ns();
        assert_eq!(t1, t2);
        k.resume(pid).unwrap();
        k.advance_secs(1);
        assert!(k.process(pid).unwrap().cpu_time_ns() > t2);
    }

    #[test]
    fn determinism_same_seed_same_evolution() {
        let run = |seed: u64| {
            let mut k = Kernel::new(MachineConfig::small_server(), seed);
            k.spawn_host_process("w", models::stress_vm()).unwrap();
            k.advance_secs(10);
            (
                k.rapl().package_energy_uj(0),
                k.mem().free_bytes(),
                k.boot_id().to_string(),
                k.sched().total_switches(),
            )
        };
        assert_eq!(run(7), run(7));
        let (e1, _, b1, _) = run(7);
        let (e2, _, b2, _) = run(8);
        assert_ne!(b1, b2, "boot ids must differ across hosts");
        assert_ne!(e1, e2, "energy trajectories should differ across hosts");
    }

    #[test]
    fn set_workload_switches_behaviour() {
        let mut k = kernel();
        let pid = k
            .spawn_host_process("morph", models::web_service(0.05))
            .unwrap();
        k.advance_secs(2);
        let low_w = k.wall_watts();
        k.set_workload(pid, models::power_virus()).unwrap();
        k.advance_secs(3);
        assert!(k.wall_watts() > low_w + 5.0);
    }

    #[test]
    fn multi_phase_workloads_change_behaviour_over_time() {
        // The batch pipeline's parse phase is syscall/IO heavy; its
        // compute phase is not — the kernel's per-interval aggregates
        // must reflect the transition.
        let mut k = kernel();
        let pid = k
            .spawn_host_process("batch", models::batch_pipeline())
            .unwrap();
        k.advance_secs(10); // inside the parse phase
        let s1 = k.stats();
        let io1 = k.process(pid).unwrap().io_bytes().0;
        k.advance_secs(30); // parse done (~25 s at 0.8 demand), well into compute
        k.advance_secs(10);
        let s2_before = k.stats();
        let io2_before = k.process(pid).unwrap().io_bytes().0;
        k.advance_secs(10); // pure compute interval
        let s2 = k.stats();
        let syscall_rate_parse = s1.total_syscalls as f64 / 10.0;
        let syscall_rate_compute = (s2.total_syscalls - s2_before.total_syscalls) as f64 / 10.0;
        assert!(
            syscall_rate_parse > syscall_rate_compute * 20.0,
            "parse {syscall_rate_parse}/s vs compute {syscall_rate_compute}/s"
        );
        let io_compute = k.process(pid).unwrap().io_bytes().0 - io2_before;
        assert!(io1 > 0, "parse phase reads input");
        assert_eq!(io_compute, 0, "compute phase does no IO");
    }

    #[test]
    fn tick_granularity_does_not_change_the_physics() {
        // The fluid model's promise: energy and CPU accounting are
        // rate-based, so coarse ticks (used for week-long traces) agree
        // with fine ticks to within the noise term.
        let run = |tick_ns: u64| -> (f64, u64) {
            let mut k = Kernel::new(MachineConfig::small_server(), 99);
            k.set_tick_ns(tick_ns);
            let pid = k.spawn_host_process("w", models::stress_small()).unwrap();
            k.advance_secs(60);
            (
                k.rapl().raw(0).unwrap().package_uj,
                k.process(pid).unwrap().cpu_time_ns(),
            )
        };
        let (e_fine, cpu_fine) = run(NANOS_PER_SEC);
        let (e_coarse, cpu_coarse) = run(10 * NANOS_PER_SEC);
        let energy_drift = (e_fine - e_coarse).abs() / e_fine;
        assert!(energy_drift < 0.02, "energy drift {energy_drift}");
        assert_eq!(cpu_fine, cpu_coarse, "cpu accounting must be exact");
    }

    #[test]
    fn uptime_and_stat_sources_progress() {
        let mut k = kernel();
        k.spawn_host_process("w", models::prime()).unwrap();
        k.advance_secs(5);
        assert!(k.irq().total_interrupts() > 0);
        assert!(k.sched().total_switches() > 0);
        assert!(k.sched().loadavg()[0] > 0.05);
        assert!(k.stats().total_syscalls > 0);
        assert_eq!(k.clock().wall_secs(), k.config().boot_wall_secs + 5);
    }
}
