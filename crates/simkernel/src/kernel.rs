//! The kernel: composition of every subsystem plus the tick loop.

use std::collections::HashMap;
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cgroup::{CgroupForest, CgroupId, CgroupKind};
use crate::config::MachineConfig;
use crate::epoch::{dep, CacheEntry, CachePayload, RenderCache, SubsystemEpochs};
use crate::error::KernelError;
use crate::faults::{FaultPlan, FsFaultKind, SensorFaultKind};
use crate::fsstate::{FsState, LockKind};
use crate::hw::{Hardware, PowerModelParams, PowerSnapshot, RaplDomains};
use crate::irq::IrqState;
use crate::mem::MemoryState;
use crate::net::NetState;
use crate::ns::{NamespaceRegistry, NamespaceSet};
use crate::perf::{PerfOverheadCosts, PerfSubsystem};
use crate::process::{CgroupMembership, HostPid, ProcState, Process, ProcessTable};
use crate::run::RunConfig;
use crate::sched::{SchedScratch, Scheduler, TickReport};
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

/// Outcome of a render-cache probe (see [`Kernel::render_cache_get`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RenderHit {
    /// Dependency epochs unchanged: the cached rendered bytes, shared —
    /// a hit is a refcount bump, the caller decides whether to copy.
    Fresh(std::sync::Arc<String>),
    /// The view's policy denies this path. Policy is hashed into the
    /// view fingerprint, so a deny verdict never goes stale.
    Denied,
    /// An entry exists but a dependency epoch advanced: the bytes are
    /// stale, yet the entry still proves the path is *not* denied for
    /// this view (a deny would have been cached as `Denied`).
    Stale,
}

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
    /// The cgroup path component (`/docker/<name>`).
    pub cgroup_path: String,
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
    docker_parents: HashMap<CgroupKind, CgroupId>,
    container_seq: u32,
    scratch: TickScratch,
    /// Nanoseconds of simulated lifetime; unlike the clock, this is
    /// monotone across crash-reboots and anchors fault-plan windows.
    lifetime_ns: u64,
    faults: Option<InstalledFaults>,
    reboots: u32,
    coalesce: bool,
    idle_anchor: Option<IdleAnchor>,
    /// Per-subsystem dirty epochs; bumped by every mutating entry point.
    epochs: SubsystemEpochs,
    /// Rendered pseudo-file cache guarded by the epochs above. Behind a
    /// mutex (not a `RefCell`) so `Kernel` stays `Sync` for the worker
    /// pool; contention is nil — readers hold `&Kernel` exclusively per
    /// host.
    render_cache: Mutex<RenderCache>,
    render_caching: bool,
    /// Trace-event buffer; `Some` only when tracing is enabled and this
    /// kernel was built inside a `simtrace::scope`.
    tracer: Option<simtrace::KernelTracer>,
}

/// A snapshot of the subsystem state at the instant a quiescent span
/// began. While no process is runnable, every subsystem evolves as a pure
/// closed-form function of (anchor, elapsed-since-anchor), so both the
/// coalesced and the per-tick advance evaluate the same functions at the
/// same final instant — that is what makes the two modes byte-identical.
/// Any mutation that ends quiescence (spawn, resume, lock, uuid read, …)
/// drops the anchor.
#[derive(Debug)]
struct IdleAnchor {
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
#[derive(Debug, Default)]
struct TickScratch {
    report: TickReport,
    sched: SchedScratch,
    by_cgroup: HashMap<CgroupId, u64>,
    /// Process-table epoch at the last RSS aggregation, if still valid.
    mem_epoch: Option<u64>,
    /// Total RSS from that aggregation.
    rss_total: u64,
}

impl Kernel {
    /// Boots a kernel on the given machine with a deterministic seed,
    /// in the execution modes of the current [`RunConfig`].
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`MachineConfig::validate`] — configurations
    /// are experiment-definition inputs, so this is a programming error.
    pub fn new(cfg: MachineConfig, seed: u64) -> Self {
        cfg.validate().expect("invalid machine configuration");
        let run = RunConfig::current();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_c0de_0001);
        let ncpus = cfg.cpus as usize;
        let ns = NamespaceRegistry::new(&cfg.hostname);
        let net = NetState::new();
        let cgroups = CgroupForest::new(ncpus, &net.device_names());
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
            docker_parents: HashMap::new(),
            container_seq: 0,
            scratch: TickScratch::default(),
            lifetime_ns: 0,
            faults: None,
            reboots: 0,
            coalesce: run.coalesce,
            idle_anchor: None,
            epochs: SubsystemEpochs::default(),
            render_cache: Mutex::new(RenderCache::default()),
            render_caching: run.render_cache,
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
        self.idle_anchor = None;
        self.bump_epochs(dep::NS);
        &mut self.ns
    }
    /// The cgroup forest.
    pub fn cgroups(&self) -> &CgroupForest {
        &self.cgroups
    }
    /// Mutable cgroup forest.
    pub fn cgroups_mut(&mut self) -> &mut CgroupForest {
        self.idle_anchor = None;
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
        self.idle_anchor = None;
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
    // Dirty epochs and the render cache
    // ------------------------------------------------------------------

    /// The per-subsystem dirty epochs.
    pub fn epochs(&self) -> &SubsystemEpochs {
        &self.epochs
    }

    /// Whether the pseudofs render cache is enabled on this kernel (the
    /// [`RunConfig`] it was built under). Both settings produce
    /// byte-identical reads; off is an escape hatch for bisecting and for
    /// the CI cached-vs-uncached compare.
    pub fn render_caching(&self) -> bool {
        self.render_caching
    }

    /// The render cache, recovering a poisoned guard: no guard is held
    /// across a render, so a panic elsewhere can only have poisoned a
    /// cache that still holds whole entries.
    fn lock_render_cache(&self) -> std::sync::MutexGuard<'_, RenderCache> {
        match self.render_cache.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Advances the epochs named in `mask`. Called by every mutating
    /// entry point; bump placement is mode-invariant (one bump per
    /// mutation or per `advance` call, never per tick), so epoch values
    /// are identical across `--jobs` and `--coalesce` settings.
    fn bump_epochs(&mut self, mask: u32) {
        self.epochs.bump(mask);
        // Mode-exempt: the fleet calendar's lazy fast-forward path folds
        // what the eager path spreads over many `advance` calls into one
        // covering call, so the *number* of bumps (unlike every epoch
        // comparison outcome) legitimately differs across stepping modes.
        simtrace::counters::add_exempt("kernel.epoch_bump", u64::from(mask.count_ones()));
    }

    /// Records a *live* masking-policy swap on a container view: evicts
    /// every render-cache entry keyed under the superseded view
    /// fingerprint and dirties the subsystem epochs in `deps` (the union
    /// of the dependency masks of every route whose mask treatment
    /// changed). The eviction alone would suffice for reads through the
    /// *new* fingerprint — policy is folded into the fingerprint — but
    /// the epoch bump closes the latent gap for consumers that memoized
    /// epoch sums *before* the swap: their next freshness check misses
    /// and re-renders, so the cache can never serve pre-mask bytes.
    pub fn note_policy_swap(&mut self, old_view_fp: u64, deps: u32) {
        self.render_cache_evict_view(old_view_fp);
        if deps != 0 {
            self.bump_epochs(deps & dep::ALL);
        }
        simtrace::counters::add("kernel.policy_swaps", 1);
    }

    /// Probes the render cache for `(view_fp, path)`. On [`RenderHit::Fresh`]
    /// the returned handle shares the cached bytes; on [`RenderHit::Denied`]
    /// the path is policy-denied for this view; on [`RenderHit::Stale`] an
    /// entry exists but a dependency epoch advanced — the bytes are stale,
    /// yet the path is known not to be denied. `None` when caching is off
    /// or nothing is cached.
    pub fn render_cache_get(&self, view_fp: u64, path: &str) -> Option<RenderHit> {
        if !self.render_caching {
            return None;
        }
        let cache = self.lock_render_cache();
        let entry = cache.get(view_fp, path)?;
        match &entry.payload {
            CachePayload::Denied => Some(RenderHit::Denied),
            CachePayload::Bytes(bytes) => {
                if entry.dep_sum == self.epochs.masked_sum(entry.mask) {
                    Some(RenderHit::Fresh(std::sync::Arc::clone(bytes)))
                } else {
                    Some(RenderHit::Stale)
                }
            }
            CachePayload::Paths(_) => None,
        }
    }

    /// Caches rendered bytes for `(view_fp, path)` under dependency
    /// `mask`. No-op when caching is off.
    pub fn render_cache_store_bytes(
        &self,
        view_fp: u64,
        path: &str,
        mask: u32,
        bytes: &std::sync::Arc<String>,
    ) {
        if !self.render_caching {
            return;
        }
        let entry = CacheEntry {
            mask,
            dep_sum: self.epochs.masked_sum(mask),
            payload: CachePayload::Bytes(std::sync::Arc::clone(bytes)),
        };
        self.lock_render_cache().store(view_fp, path, entry);
    }

    /// Caches a policy-deny verdict for `(view_fp, path)`. Deny entries
    /// carry an empty mask: the verdict depends only on the view's
    /// policy, which is part of the fingerprint. No-op when caching is
    /// off.
    pub fn render_cache_store_denied(&self, view_fp: u64, path: &str) {
        if !self.render_caching {
            return;
        }
        let entry = CacheEntry {
            mask: 0,
            dep_sum: 0,
            payload: CachePayload::Denied,
        };
        self.lock_render_cache().store(view_fp, path, entry);
    }

    /// A fresh cached path list for `(view_fp, key)`, if any — a shared
    /// handle, so a hit is a refcount bump, not a deep clone. Stale list
    /// entries return `None` (they carry no deny information).
    pub fn render_cache_get_paths(
        &self,
        view_fp: u64,
        key: &str,
    ) -> Option<std::sync::Arc<Vec<String>>> {
        if !self.render_caching {
            return None;
        }
        let cache = self.lock_render_cache();
        let entry = cache.get(view_fp, key)?;
        match &entry.payload {
            CachePayload::Paths(paths) if entry.dep_sum == self.epochs.masked_sum(entry.mask) => {
                Some(std::sync::Arc::clone(paths))
            }
            _ => None,
        }
    }

    /// Caches a path list for `(view_fp, key)` under dependency `mask`.
    /// No-op when caching is off.
    pub fn render_cache_store_paths(
        &self,
        view_fp: u64,
        key: &str,
        mask: u32,
        paths: &std::sync::Arc<Vec<String>>,
    ) {
        if !self.render_caching {
            return;
        }
        let entry = CacheEntry {
            mask,
            dep_sum: self.epochs.masked_sum(mask),
            payload: CachePayload::Paths(std::sync::Arc::clone(paths)),
        };
        self.lock_render_cache().store(view_fp, key, entry);
    }

    /// Drops every render-cache entry stored under `view_fp`, returning
    /// the count removed. Container runtimes call this on removal: the
    /// dead container's fingerprint can never recur (fingerprints fold
    /// the monotone namespace/cgroup ids), so its entries would otherwise
    /// sit in the cache forever — unbounded growth under create/destroy
    /// churn. Purely an occupancy operation; rendered bytes are
    /// unaffected.
    pub fn render_cache_evict_view(&self, view_fp: u64) -> usize {
        let evicted = self.lock_render_cache().evict_view(view_fp);
        if evicted > 0 {
            simtrace::counters::add("pseudofs.cache_evicted", evicted as u64);
        }
        evicted
    }

    /// Number of live render-cache entries (occupancy; tests and the
    /// churn driver's growth-bound assertions).
    pub fn render_cache_len(&self) -> usize {
        self.lock_render_cache().len()
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Installs a fault plan. Plan windows are relative to *now*: the
    /// current lifetime instant becomes the plan's time origin.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.idle_anchor = None;
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

    /// Removes any installed fault plan.
    pub fn clear_faults(&mut self) {
        self.idle_anchor = None;
        self.faults = None;
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

    /// Whether event-horizon coalescing is enabled on this kernel (the
    /// [`RunConfig`] it was built under). Both settings produce
    /// byte-identical state; off is an escape hatch for bisecting and for
    /// the CI cross-mode compare.
    pub fn coalescing(&self) -> bool {
        self.coalesce
    }

    /// Advances virtual time by `dt_ns`. While at least one process is
    /// runnable the classic fixed-quantum tick loop runs; while the host
    /// is quiescent (no runnable process) time moves in closed form along
    /// idle-anchor spans — one span per event horizon when coalescing
    /// is on, one per tick quantum when off, with identical results.
    pub fn advance(&mut self, mut dt_ns: u64) {
        // Tick-shape accounting is accumulated locally (cheap u64 adds)
        // and published in one batch after the loop, so tracing costs a
        // single `enabled()` check per advance call, not per tick.
        let mut run_ns = 0u64;
        let mut run_ticks = 0u64;
        let mut switches = 0u64;
        let mut idle_ns = 0u64;
        let mut spans = 0u64;
        let mut stepped = 0u64;
        while dt_ns > 0 {
            if self.procs.runnable() == 0 {
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
                self.quiescent_step(step);
                idle_ns += step;
                dt_ns -= step;
            } else {
                self.idle_anchor = None;
                let step = dt_ns.min(self.tick_ns);
                self.tick_once(step);
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
        let anchor = match self.idle_anchor.take() {
            Some(a) => a,
            None => {
                self.refresh_rss_memo();
                IdleAnchor {
                    since_boot_ns: self.clock.since_boot_ns(),
                    sched: self.sched.clone(),
                    hw: self.hw.clone(),
                    mem: self.mem.clone(),
                    irq: self.irq.clone(),
                    fs: self.fs.clone(),
                    net: self.net.clone(),
                    rss_total: self.scratch.rss_total,
                    nprocs: self.procs.len(),
                }
            }
        };
        self.clock.advance(step_ns);
        let before = self.lifetime_ns;
        self.lifetime_ns += step_ns;
        let rel_ns = self.clock.since_boot_ns() - anchor.since_boot_ns;

        self.sched.idle_eval(&anchor.sched, rel_ns);
        self.hw.idle_eval(&anchor.hw, rel_ns);
        self.irq.idle_eval(&anchor.irq, rel_ns);
        let intr_delta = self.irq.total_interrupts() - anchor.irq.total_interrupts();
        self.mem.idle_eval(&anchor.mem, rel_ns, anchor.rss_total);
        self.fs
            .idle_eval(&anchor.fs, rel_ns, anchor.nprocs, intr_delta);
        self.net.idle_eval(&anchor.net, rel_ns);
        self.timers.refresh(self.clock.since_boot_ns());

        let reboot_due = self.faults.as_ref().is_some_and(|f| {
            f.plan.reboot_in(
                before.saturating_sub(f.base_ns),
                self.lifetime_ns.saturating_sub(f.base_ns),
            )
        });
        if reboot_due {
            self.crash_reboot();
        } else {
            self.idle_anchor = Some(anchor);
        }
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
                *by_cgroup.entry(p.cgroups().memory).or_insert(0) += rss;
            }
        }
        for (cg, bytes) in self.scratch.by_cgroup.iter() {
            self.cgroups.set_memory_usage(*cg, *bytes);
        }
        let mem_root = self.cgroups.root(CgroupKind::Memory);
        self.cgroups.set_memory_usage(mem_root, rss_total);
        self.scratch.rss_total = rss_total;
        self.scratch.mem_epoch = Some(epoch);
    }

    fn tick_once(&mut self, dt_ns: u64) {
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
        // killed, or mutated since the last aggregation and nothing is
        // runnable (so no workload cursor moved), every per-process RSS is
        // unchanged and the cgroup usages already hold the right values.
        if self.procs.runnable() > 0 {
            self.scratch.mem_epoch = None;
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
        self.idle_anchor = None;
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
        self.idle_anchor = None;
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
        self.idle_anchor = None;
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
        self.idle_anchor = None;
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
        self.idle_anchor = None;
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
        self.idle_anchor = None;
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
        self.idle_anchor = None;
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
        self.idle_anchor = None;
        self.container_seq += 1;
        let uid_base = 100_000 + self.container_seq * 65_536;
        let cgroup_path = format!("/docker/{name}");
        let ns = self
            .ns
            .create_container_set(name, &cgroup_path, (0, uid_base, 65_536));

        let veth = self.net.create_veth(&mut self.rng);
        self.cgroups.register_host_iface(&veth);
        let ifaces = self.net.device_names();

        let mut ids = HashMap::new();
        for kind in CgroupKind::ALL {
            let parent = match self.docker_parents.get(&kind) {
                Some(p) => *p,
                None => {
                    let root = self.cgroups.root(kind);
                    let p = self.cgroups.create_child(root, "docker", &ifaces)?;
                    self.docker_parents.insert(kind, p);
                    p
                }
            };
            let id = self.cgroups.create_child(parent, name, &ifaces)?;
            ids.insert(kind, id);
        }
        self.bump_epochs(dep::NS | dep::NET | dep::CGROUP);
        Ok(ContainerEnv {
            ns,
            cgroups: CgroupMembership {
                cpuacct: ids[&CgroupKind::Cpuacct],
                perf_event: ids[&CgroupKind::PerfEvent],
                net_prio: ids[&CgroupKind::NetPrio],
                memory: ids[&CgroupKind::Memory],
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
        self.idle_anchor = None;
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
        // Teardown must also unwind what creation registered elsewhere:
        // the veth's per-cgroup net_prio entries (a name-colliding future
        // veth must start at priority 0, not resurrect this one's) and
        // the seven namespaces (the registry would otherwise grow without
        // bound under container churn).
        self.cgroups.unregister_host_iface(&env.veth);
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
        self.idle_anchor = None;
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
        self.idle_anchor = None;
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
        self.idle_anchor = None;
        self.bump_epochs(dep::CGROUP);
        let ncpus = self.cfg.cpus;
        self.perf.attach_cgroup(
            &mut self.cgroups,
            cgroup,
            ncpus,
            PerfOverheadCosts::default(),
        )
    }

    /// Disables perf monitoring on a cgroup.
    ///
    /// # Errors
    ///
    /// Propagates cgroup errors.
    pub fn detach_perf_monitoring(&mut self, cgroup: CgroupId) -> Result<(), KernelError> {
        self.idle_anchor = None;
        self.bump_epochs(dep::CGROUP);
        self.perf.detach_cgroup(&mut self.cgroups, cgroup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::models;

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
        let node = k.cgroups().node(env.cgroups.cpuacct).unwrap();
        assert_eq!(node.path(), "/docker/c1");
        assert!(k.net().device_names().contains(&env.veth));

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
        assert!(!k.net().device_names().contains(&env.veth));
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
