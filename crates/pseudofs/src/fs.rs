//! Path dispatch and tree enumeration.

use simkernel::{dep, Kernel, RenderHit};

use crate::error::FsError;
use crate::faultfx;
use crate::registry;
use crate::render::{
    proc_basic, proc_irq, proc_kernel, proc_misc, proc_pid, proc_sched, proc_vm, sys_cgroup,
    sys_node, sys_power,
};
use crate::view::{MaskAction, View};

/// Reserved cache key for directory listings — NUL-prefixed so it can
/// never collide with a real path.
const LIST_KEY: &str = "\u{0}list";

/// Subsystems [`PseudoFs::list`] consults: hardware presence and package
/// counts, ext4 partitions, visible pids, and NUMA topology. Pid
/// visibility is read through the namespace registry, and every spawn
/// or kill bumps NS, so the process-table bit is not needed here.
pub const LIST_DEPS: u32 = dep::HW | dep::FS | dep::NS | dep::MEM;

/// The dependency mask to tag a render of `path` with after a cache
/// miss. A stale entry carries the mask it was stored under, so a
/// revalidation never resolves the route again; a cold miss takes the
/// registered route's declared deps, or every subsystem for paths
/// outside the registry (conservative, never stale).
fn miss_deps(hit: Option<RenderHit>, path: &str) -> u32 {
    match hit {
        Some(RenderHit::Stale(deps)) => deps,
        _ => registry::route_for(path).map_or(dep::ALL, |r| r.deps),
    }
}

/// The pseudo filesystem: a stateless router over the kernel's state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PseudoFs;

/// Records a masked-path denial (namespace-filter hit) for the trace.
fn note_denied(k: &Kernel, path: &str) {
    if !simtrace::enabled() {
        return;
    }
    simtrace::counters::add("pseudofs.denied", 1);
    if let Some(tr) = k.tracer() {
        tr.emit(
            k.lifetime_ns(),
            simtrace::TraceEvent::MaskDenied {
                path: path.to_string(),
            },
        );
    }
}

/// Records a successful channel read (per-channel counter + probe-phase
/// profile + event). Probes are instantaneous in sim time, so the probe
/// phase accumulates event counts against zero virtual nanoseconds.
fn note_read(k: &Kernel, path: &str, bytes: usize) {
    if !simtrace::enabled() {
        return;
    }
    simtrace::counters::add_channel("pseudofs.read", path, 1);
    simtrace::profile::record("probe", 0, 1);
    if let Some(tr) = k.tracer() {
        tr.emit(
            k.lifetime_ns(),
            simtrace::TraceEvent::PseudofsRead {
                path: path.to_string(),
                bytes: bytes as u64,
            },
        );
    }
}

/// Outcome of a [`PseudoFs::read_capped`] read against a bounded buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadStatus {
    /// The whole file fit: `len` bytes were written.
    Complete {
        /// Bytes written (the full rendered length).
        len: usize,
    },
    /// The buffer cap was smaller than the file; `written` bytes of a
    /// `total`-byte file were kept. `written <= cap <= total`, with
    /// `written` possibly below the cap to respect a UTF-8 boundary.
    Short {
        /// Bytes actually kept in the buffer.
        written: usize,
        /// Full rendered length of the file.
        total: usize,
    },
}

impl ReadStatus {
    /// Whether the read was cut short by the cap.
    pub fn is_short(&self) -> bool {
        matches!(self, ReadStatus::Short { .. })
    }
}

impl PseudoFs {
    /// Creates the (stateless) filesystem.
    pub fn new() -> Self {
        PseudoFs
    }

    /// Reads `path` in the given view.
    ///
    /// # Errors
    ///
    /// * [`FsError::PermissionDenied`] when the view's masking policy
    ///   denies the path (first-stage defense / cloud hardening).
    /// * [`FsError::NotFound`] for paths outside the modeled tree, absent
    ///   hardware (no RAPL/DTS), or pids invisible to the reader.
    /// * [`FsError::Io`] / [`FsError::Truncated`] when the kernel's
    ///   installed fault plan has an active window covering this path —
    ///   transient: the same read can succeed once the window passes.
    pub fn read(&self, k: &Kernel, view: &View, path: &str) -> Result<String, FsError> {
        // Delegates to `read_into` so both entry points share one
        // cache-coherent path (the hand-written `_into` fast renderers
        // produce the same bytes as their `dispatch` counterparts).
        let mut out = String::new();
        self.read_into(k, view, path, &mut out)?;
        Ok(out)
    }

    /// Reads `path` into `buf`, clearing it first and reusing its
    /// allocation. Scan loops that read thousands of files (the
    /// cross-validator's two-context walk, the Table II metric windows)
    /// use this to avoid a fresh `String` per read; for the hottest
    /// channels the renderer writes straight into `buf`.
    ///
    /// # Errors
    ///
    /// Same as [`PseudoFs::read`]. On error `buf` is left empty.
    pub fn read_into(
        &self,
        k: &Kernel,
        view: &View,
        path: &str,
        buf: &mut String,
    ) -> Result<(), FsError> {
        buf.clear();
        if !k.render_caching() {
            if view.mask_action(path) == Some(MaskAction::Deny) {
                note_denied(k, path);
                return Err(FsError::PermissionDenied(path.to_string()));
            }
            if let Some(e) = faultfx::injected_error(k, path) {
                return Err(e);
            }
            if !self.render_into(k, view, path, buf) {
                return Err(FsError::NotFound(path.to_string()));
            }
            faultfx::distort(k, path, buf);
            note_read(k, path, buf.len());
            return Ok(());
        }

        // Cache consult. Fault effects are applied strictly *after* the
        // cache (errors abort before store; distortion happens on the
        // caller's copy, never the cached bytes), so injected EIO and
        // sensor noise can never poison an entry — the ordering the
        // cached-vs-uncached byte gates depend on.
        let view_fp = view.fingerprint();
        match k.render_cache_get(view_fp, path) {
            Some(RenderHit::Denied) => {
                note_denied(k, path);
                Err(FsError::PermissionDenied(path.to_string()))
            }
            Some(RenderHit::Fresh(bytes)) => {
                simtrace::counters::add("pseudofs.cache_hit", 1);
                if let Some(e) = faultfx::injected_error(k, path) {
                    return Err(e);
                }
                buf.push_str(&bytes);
                faultfx::distort(k, path, buf);
                note_read(k, path, buf.len());
                Ok(())
            }
            hit => {
                simtrace::counters::add("pseudofs.cache_miss", 1);
                // A stale entry still proves this view is not denied the
                // path (denials cache as `Denied` and never expire), so
                // the policy's glob walk is skipped on every revalidation.
                if hit.is_none() && view.mask_action(path) == Some(MaskAction::Deny) {
                    k.render_cache_store_denied(view_fp, path);
                    note_denied(k, path);
                    return Err(FsError::PermissionDenied(path.to_string()));
                }
                if let Some(e) = faultfx::injected_error(k, path) {
                    return Err(e);
                }
                if !self.render_into(k, view, path, buf) {
                    return Err(FsError::NotFound(path.to_string()));
                }
                let rendered = std::sync::Arc::new(buf.clone());
                k.render_cache_store_bytes(view_fp, path, miss_deps(hit, path), &rendered);
                faultfx::distort(k, path, buf);
                note_read(k, path, buf.len());
                Ok(())
            }
        }
    }

    /// Reads `path` as a shared handle: a cache hit costs one refcount
    /// bump and zero byte copies. The differential scanners read both
    /// contexts through this — their inner loop is then hash lookups and
    /// content compares, never body copies. Falls back to an owned
    /// render (wrapped once) when caching is off, the entry is stale, or
    /// an active fault plan distorts this path.
    ///
    /// # Errors
    ///
    /// Same as [`PseudoFs::read`].
    pub fn read_shared(
        &self,
        k: &Kernel,
        view: &View,
        path: &str,
    ) -> Result<std::sync::Arc<String>, FsError> {
        if !k.render_caching() {
            let mut buf = String::new();
            self.read_into(k, view, path, &mut buf)?;
            return Ok(std::sync::Arc::new(buf));
        }
        let view_fp = view.fingerprint();
        match k.render_cache_get(view_fp, path) {
            Some(RenderHit::Denied) => {
                note_denied(k, path);
                Err(FsError::PermissionDenied(path.to_string()))
            }
            Some(RenderHit::Fresh(bytes)) => {
                simtrace::counters::add("pseudofs.cache_hit", 1);
                if let Some(e) = faultfx::injected_error(k, path) {
                    return Err(e);
                }
                let out = if k.fault_plan().is_some() {
                    // Distortion mutates the caller's copy, never the
                    // cached bytes — fall back to an owned body.
                    let mut owned = (*bytes).clone();
                    faultfx::distort(k, path, &mut owned);
                    std::sync::Arc::new(owned)
                } else {
                    bytes
                };
                note_read(k, path, out.len());
                Ok(out)
            }
            hit => {
                simtrace::counters::add("pseudofs.cache_miss", 1);
                if hit.is_none() && view.mask_action(path) == Some(MaskAction::Deny) {
                    k.render_cache_store_denied(view_fp, path);
                    note_denied(k, path);
                    return Err(FsError::PermissionDenied(path.to_string()));
                }
                if let Some(e) = faultfx::injected_error(k, path) {
                    return Err(e);
                }
                let mut buf = String::new();
                if !self.render_into(k, view, path, &mut buf) {
                    return Err(FsError::NotFound(path.to_string()));
                }
                let mut rendered = std::sync::Arc::new(buf);
                k.render_cache_store_bytes(view_fp, path, miss_deps(hit, path), &rendered);
                if k.fault_plan().is_some() {
                    let mut owned = (*rendered).clone();
                    faultfx::distort(k, path, &mut owned);
                    rendered = std::sync::Arc::new(owned);
                }
                note_read(k, path, rendered.len());
                Ok(rendered)
            }
        }
    }

    /// Renders `path` into `buf` (fast `_into` arm when one exists,
    /// otherwise the dispatch table); `false` means the path does not
    /// resolve in this view.
    fn render_into(&self, k: &Kernel, view: &View, path: &str, buf: &mut String) -> bool {
        match path {
            "/proc/meminfo" => proc_basic::meminfo_into(k, view, buf),
            "/proc/stat" => proc_basic::stat_into(k, view, buf),
            "/proc/uptime" => proc_basic::uptime_into(k, view, buf),
            "/proc/loadavg" => proc_basic::loadavg_into(k, view, buf),
            "/proc/interrupts" => proc_irq::interrupts_into(k, view, buf),
            "/proc/softirqs" => proc_irq::softirqs_into(k, view, buf),
            "/proc/schedstat" => proc_sched::schedstat_into(k, view, buf),
            "/proc/sched_debug" => proc_sched::sched_debug_into(k, view, buf),
            "/proc/timer_list" => proc_sched::timer_list_into(k, view, buf),
            _ => match self.dispatch(k, view, path) {
                Some(s) => *buf = s,
                None => return false,
            },
        }
        true
    }

    /// [`PseudoFs::read_into`] against a bounded destination: at most
    /// `cap` bytes are kept in `buf` (cut back to a UTF-8 character
    /// boundary), and the returned [`ReadStatus`] says whether the caller
    /// got the whole file. Never panics, for any `cap` including zero.
    ///
    /// # Errors
    ///
    /// Same as [`PseudoFs::read_into`]. On error `buf` is left empty.
    pub fn read_capped(
        &self,
        k: &Kernel,
        view: &View,
        path: &str,
        buf: &mut String,
        cap: usize,
    ) -> Result<ReadStatus, FsError> {
        self.read_into(k, view, path, buf)?;
        let total = buf.len();
        if total <= cap {
            return Ok(ReadStatus::Complete { len: total });
        }
        let mut cut = cap;
        while cut > 0 && !buf.is_char_boundary(cut) {
            cut -= 1;
        }
        buf.truncate(cut);
        Ok(ReadStatus::Short {
            written: cut,
            total,
        })
    }

    /// Enumerates every readable file path in this view, sorted — the
    /// recursive exploration step of the paper's detection framework.
    /// Deny-masked paths are excluded (they are unreadable in the cloud).
    pub fn list(&self, k: &Kernel, view: &View) -> Vec<String> {
        self.list_shared(k, view).as_ref().clone()
    }

    /// [`PseudoFs::list`] as a shared handle: a cache hit costs one
    /// refcount bump instead of deep-cloning a few hundred path strings.
    /// Scan loops that re-list every pass (the cross-validator, the
    /// metric windows) read through this.
    pub fn list_shared(&self, k: &Kernel, view: &View) -> std::sync::Arc<Vec<String>> {
        if k.render_caching() {
            let view_fp = view.fingerprint();
            if let Some(paths) = k.render_cache_get_paths(view_fp, LIST_KEY) {
                simtrace::counters::add("pseudofs.cache_hit", 1);
                return paths;
            }
            simtrace::counters::add("pseudofs.cache_miss", 1);
            let paths = std::sync::Arc::new(self.list_uncached(k, view));
            k.render_cache_store_paths(view_fp, LIST_KEY, LIST_DEPS, &paths);
            return paths;
        }
        std::sync::Arc::new(self.list_uncached(k, view))
    }

    fn list_uncached(&self, k: &Kernel, view: &View) -> Vec<String> {
        let mut paths = Vec::with_capacity(256);
        let mut push = |p: String| {
            if view.mask_action(&p) != Some(MaskAction::Deny) {
                paths.push(p);
            }
        };

        for p in [
            "/proc/cpuinfo",
            "/proc/meminfo",
            "/proc/stat",
            "/proc/uptime",
            "/proc/version",
            "/proc/loadavg",
            "/proc/interrupts",
            "/proc/softirqs",
            "/proc/schedstat",
            "/proc/sched_debug",
            "/proc/timer_list",
            "/proc/locks",
            "/proc/modules",
            "/proc/zoneinfo",
            "/proc/diskstats",
            "/proc/sys/fs/dentry-state",
            "/proc/sys/fs/inode-nr",
            "/proc/sys/fs/file-nr",
            "/proc/sys/kernel/random/boot_id",
            "/proc/sys/kernel/random/entropy_avail",
            "/proc/sys/kernel/random/uuid",
            "/proc/sys/kernel/hostname",
            "/proc/sys/kernel/osrelease",
            "/proc/self/status",
            "/proc/self/cgroup",
            "/proc/net/dev",
            "/proc/mounts",
            "/proc/net/snmp",
            "/proc/net/tcp",
            "/proc/sys/kernel/pid_max",
            "/proc/sys/kernel/threads-max",
            "/proc/sys/vm/overcommit_memory",
            "/proc/sys/vm/swappiness",
            "/proc/vmstat",
            "/proc/slabinfo",
            "/proc/buddyinfo",
            "/proc/swaps",
            "/proc/partitions",
            "/proc/filesystems",
            "/proc/cgroups",
            "/sys/devices/system/cpu/online",
            "/sys/fs/cgroup/net_prio/net_prio.ifpriomap",
            "/sys/fs/cgroup/net_prio/net_prio.prioidx",
            "/sys/fs/cgroup/cpuacct/cpuacct.usage",
            "/sys/fs/cgroup/cpuacct/cpuacct.usage_percpu",
            "/sys/fs/cgroup/memory/memory.usage_in_bytes",
            "/sys/fs/cgroup/memory/memory.max_usage_in_bytes",
        ] {
            push(p.to_string());
        }

        let ncpus = k.config().cpus as usize;
        for c in 0..ncpus {
            push(format!(
                "/proc/sys/kernel/sched_domain/cpu{c}/domain0/max_newidle_lb_cost"
            ));
            for s in 0..simkernel::hw::IDLE_STATE_NAMES.len() {
                for f in ["name", "usage", "time"] {
                    push(format!(
                        "/sys/devices/system/cpu/cpu{c}/cpuidle/state{s}/{f}"
                    ));
                }
            }
            for f in ["scaling_cur_freq", "cpuinfo_max_freq"] {
                push(format!("/sys/devices/system/cpu/cpu{c}/cpufreq/{f}"));
            }
        }

        for (disk, _) in &k.config().disks {
            push(format!("/sys/block/{disk}/stat"));
        }
        if k.hw().has_coretemp() {
            push("/sys/class/thermal/thermal_zone0/temp".to_string());
        }

        for (part, _) in k.fs().ext4_partitions() {
            push(format!("/proc/fs/ext4/{part}/mb_groups"));
        }

        for (_, ns_pid) in proc_pid::visible_pids(k, view) {
            for f in ["status", "stat", "cmdline", "io", "sched"] {
                push(format!("/proc/{ns_pid}/{f}"));
            }
        }

        if k.rapl().is_present() {
            for p in 0..k.rapl().package_count() {
                for f in ["name", "energy_uj", "max_energy_range_uj"] {
                    push(format!("/sys/class/powercap/intel-rapl:{p}/{f}"));
                }
                for d in 0..2 {
                    for f in ["name", "energy_uj"] {
                        push(format!(
                            "/sys/class/powercap/intel-rapl:{p}/intel-rapl:{p}:{d}/{f}"
                        ));
                    }
                }
            }
        }

        if k.hw().has_coretemp() {
            let per_pkg = k.config().cpus_per_package() as usize;
            for pkg in 0..k.rapl().package_count().max(1) {
                for t in 1..=(per_pkg + 1) {
                    push(format!(
                        "/sys/devices/platform/coretemp.{pkg}/hwmon/hwmon{pkg}/temp{t}_input"
                    ));
                }
            }
        }

        for n in 0..k.mem().numa_nodes() as usize {
            for f in ["numastat", "vmstat", "meminfo"] {
                push(format!("/sys/devices/system/node/node{n}/{f}"));
            }
        }

        paths.sort();
        paths
    }

    /// Lists the immediate children of `dir` in this view — what `ls`
    /// inside the container would show. Directories appear with a
    /// trailing `/`.
    pub fn list_dir(&self, k: &Kernel, view: &View, dir: &str) -> Vec<String> {
        let prefix = format!("{}/", dir.trim_end_matches('/'));
        let mut out: Vec<String> = self
            .list(k, view)
            .into_iter()
            .filter_map(|p| {
                let rest = p.strip_prefix(&prefix)?;
                Some(match rest.split_once('/') {
                    Some((child, _)) => format!("{child}/"),
                    None => rest.to_string(),
                })
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }

    fn dispatch(&self, k: &Kernel, view: &View, path: &str) -> Option<String> {
        match path {
            "/proc/cpuinfo" => return Some(proc_basic::cpuinfo(k, view)),
            "/proc/meminfo" => return Some(proc_basic::meminfo(k, view)),
            "/proc/stat" => return Some(proc_basic::stat(k, view)),
            "/proc/uptime" => return Some(proc_basic::uptime(k, view)),
            "/proc/version" => return Some(proc_basic::version(k, view)),
            "/proc/loadavg" => return Some(proc_basic::loadavg(k, view)),
            "/proc/interrupts" => return Some(proc_irq::interrupts(k, view)),
            "/proc/softirqs" => return Some(proc_irq::softirqs(k, view)),
            "/proc/schedstat" => return Some(proc_sched::schedstat(k, view)),
            "/proc/sched_debug" => return Some(proc_sched::sched_debug(k, view)),
            "/proc/timer_list" => return Some(proc_sched::timer_list(k, view)),
            "/proc/locks" => return Some(proc_sched::locks(k, view)),
            "/proc/modules" => return Some(proc_misc::modules(k, view)),
            "/proc/zoneinfo" => return Some(proc_misc::zoneinfo(k, view)),
            "/proc/diskstats" => return Some(proc_misc::diskstats(k, view)),
            "/proc/sys/fs/dentry-state" => return Some(proc_kernel::dentry_state(k, view)),
            "/proc/sys/fs/inode-nr" => return Some(proc_kernel::inode_nr(k, view)),
            "/proc/sys/fs/file-nr" => return Some(proc_kernel::file_nr(k, view)),
            "/proc/sys/kernel/random/boot_id" => return Some(proc_kernel::boot_id(k, view)),
            "/proc/sys/kernel/random/entropy_avail" => {
                return Some(proc_kernel::entropy_avail(k, view))
            }
            "/proc/sys/kernel/random/uuid" => return Some(proc_kernel::uuid(k, view)),
            "/proc/sys/kernel/hostname" => return Some(proc_kernel::hostname(k, view)),
            "/proc/sys/kernel/osrelease" => return Some(proc_kernel::osrelease(k, view)),
            "/proc/self/status" => return Some(proc_pid::self_status(k, view)),
            "/proc/self/cgroup" => return Some(proc_pid::self_cgroup(k, view)),
            "/proc/net/dev" => return Some(proc_pid::net_dev(k, view)),
            "/proc/mounts" => return Some(proc_pid::mounts(k, view)),
            "/proc/net/snmp" => return Some(proc_pid::net_snmp(k, view)),
            "/proc/net/tcp" => return Some(proc_pid::net_tcp(k, view)),
            "/proc/sys/kernel/pid_max" => return Some(proc_kernel::pid_max(k, view)),
            "/proc/sys/kernel/threads-max" => return Some(proc_kernel::threads_max(k, view)),
            "/proc/sys/vm/overcommit_memory" => {
                return Some(proc_kernel::overcommit_memory(k, view))
            }
            "/proc/sys/vm/swappiness" => return Some(proc_kernel::swappiness(k, view)),
            "/proc/vmstat" => return Some(proc_vm::vmstat(k, view)),
            "/proc/slabinfo" => return Some(proc_vm::slabinfo(k, view)),
            "/proc/buddyinfo" => return Some(proc_vm::buddyinfo(k, view)),
            "/proc/swaps" => return Some(proc_vm::swaps(k, view)),
            "/proc/partitions" => return Some(proc_vm::partitions(k, view)),
            "/proc/filesystems" => return Some(proc_vm::filesystems(k, view)),
            "/proc/cgroups" => return Some(proc_vm::cgroups(k, view)),
            "/sys/devices/system/cpu/online" => return Some(sys_power::cpu_online(k, view)),
            "/sys/fs/cgroup/net_prio/net_prio.ifpriomap" => {
                return Some(sys_cgroup::ifpriomap(k, view))
            }
            "/sys/fs/cgroup/net_prio/net_prio.prioidx" => {
                return Some(sys_cgroup::prioidx(k, view))
            }
            "/sys/fs/cgroup/cpuacct/cpuacct.usage" => {
                return Some(sys_cgroup::cpuacct_usage(k, view))
            }
            "/sys/fs/cgroup/cpuacct/cpuacct.usage_percpu" => {
                return Some(sys_cgroup::cpuacct_usage_percpu(k, view))
            }
            "/sys/fs/cgroup/memory/memory.usage_in_bytes" => {
                return Some(sys_cgroup::memory_usage(k, view))
            }
            "/sys/fs/cgroup/memory/memory.max_usage_in_bytes" => {
                return Some(sys_cgroup::memory_max_usage(k, view))
            }
            _ => {}
        }

        let segs: Vec<&str> = path.trim_start_matches('/').split('/').collect();
        match segs.as_slice() {
            // /proc/sys/kernel/sched_domain/cpu{c}/domain0/max_newidle_lb_cost
            ["proc", "sys", "kernel", "sched_domain", cpu, "domain0", "max_newidle_lb_cost"] => {
                let c: usize = cpu.strip_prefix("cpu")?.parse().ok()?;
                proc_kernel::max_newidle_lb_cost(k, view, c)
            }
            // /proc/fs/ext4/{part}/mb_groups
            ["proc", "fs", "ext4", part, "mb_groups"] => proc_misc::mb_groups(k, view, part),
            // /proc/{pid}/{status,stat,cmdline,io,sched}
            ["proc", pid, file] => {
                let p: u32 = pid.parse().ok()?;
                match *file {
                    "status" => proc_pid::pid_status(k, view, p),
                    "stat" => proc_pid::pid_stat(k, view, p),
                    "cmdline" => proc_pid::pid_cmdline(k, view, p),
                    "io" => proc_pid::pid_io(k, view, p),
                    "sched" => proc_pid::pid_sched(k, view, p),
                    _ => None,
                }
            }
            // /sys/block/{disk}/stat
            ["sys", "block", disk, "stat"] => sys_power::block_stat(k, view, disk),
            // /sys/class/thermal/thermal_zone{z}/temp
            ["sys", "class", "thermal", zone, "temp"] => {
                let z: usize = zone.strip_prefix("thermal_zone")?.parse().ok()?;
                sys_power::thermal_zone_temp(k, view, z)
            }
            // /sys/devices/system/cpu/cpu{c}/cpufreq/{file}
            ["sys", "devices", "system", "cpu", cpu, "cpufreq", file] => {
                let c: usize = cpu.strip_prefix("cpu")?.parse().ok()?;
                match *file {
                    "scaling_cur_freq" => sys_power::cpufreq_cur(k, view, c),
                    "cpuinfo_max_freq" => sys_power::cpufreq_max(k, view, c),
                    _ => None,
                }
            }
            // /sys/class/powercap/intel-rapl:{p}/{file}
            ["sys", "class", "powercap", dom, file] => {
                let p: usize = dom.strip_prefix("intel-rapl:")?.parse().ok()?;
                match *file {
                    "name" => sys_power::rapl_name(k, view, p),
                    "energy_uj" => sys_power::rapl_package_energy(k, view, p),
                    "max_energy_range_uj" => sys_power::rapl_max_range(k, view, p),
                    _ => None,
                }
            }
            // /sys/class/powercap/intel-rapl:{p}/intel-rapl:{p}:{d}/{file}
            ["sys", "class", "powercap", dom, sub, file] => {
                let p: usize = dom.strip_prefix("intel-rapl:")?.parse().ok()?;
                let rest = sub.strip_prefix("intel-rapl:")?;
                let (p2, d) = rest.split_once(':')?;
                if p2.parse::<usize>().ok()? != p {
                    return None;
                }
                let d: usize = d.parse().ok()?;
                match *file {
                    "name" => sys_power::rapl_subdomain_name(k, view, p, d),
                    "energy_uj" => sys_power::rapl_subdomain_energy(k, view, p, d),
                    _ => None,
                }
            }
            // /sys/devices/platform/coretemp.{pkg}/hwmon/hwmon{h}/temp{n}_input
            ["sys", "devices", "platform", ct, "hwmon", _h, temp] => {
                let pkg: usize = ct.strip_prefix("coretemp.")?.parse().ok()?;
                let n: usize = temp
                    .strip_prefix("temp")?
                    .strip_suffix("_input")?
                    .parse()
                    .ok()?;
                sys_power::coretemp(k, view, pkg, n)
            }
            // /sys/devices/system/cpu/cpu{c}/cpuidle/state{s}/{file}
            ["sys", "devices", "system", "cpu", cpu, "cpuidle", state, file] => {
                let c: usize = cpu.strip_prefix("cpu")?.parse().ok()?;
                let s: usize = state.strip_prefix("state")?.parse().ok()?;
                match *file {
                    "name" => sys_power::cpuidle_name(k, view, c, s),
                    "usage" => sys_power::cpuidle_usage(k, view, c, s),
                    "time" => sys_power::cpuidle_time(k, view, c, s),
                    _ => None,
                }
            }
            // /sys/devices/system/node/node{n}/{file}
            ["sys", "devices", "system", "node", node, file] => {
                let n: usize = node.strip_prefix("node")?.parse().ok()?;
                match *file {
                    "numastat" => sys_node::numastat(k, view, n),
                    "vmstat" => sys_node::vmstat(k, view, n),
                    "meminfo" => sys_node::node_meminfo(k, view, n),
                    _ => None,
                }
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::MaskPolicy;
    use simkernel::kernel::ProcessSpec;
    use simkernel::MachineConfig;
    use workloads::models;

    fn kernel() -> Kernel {
        let mut k = Kernel::new(MachineConfig::small_server(), 9);
        let env = k.create_container_env("c1").unwrap();
        k.spawn(ProcessSpec::new("app", models::prime()).in_container(&env))
            .unwrap();
        k.advance_secs(2);
        k
    }

    #[test]
    fn every_listed_path_is_readable() {
        let k = kernel();
        let fs = PseudoFs::new();
        let view = View::host();
        let paths = fs.list(&k, &view);
        assert!(paths.len() > 100, "only {} paths", paths.len());
        for p in &paths {
            let content = fs
                .read(&k, &view, p)
                .unwrap_or_else(|e| panic!("listed path unreadable: {e}"));
            // /proc/locks is legitimately empty when nothing holds a lock.
            if p != "/proc/locks" {
                assert!(!content.is_empty(), "{p} rendered empty");
            }
        }
    }

    #[test]
    fn render_caching_is_invisible_to_reads() {
        // Same kernel evolution with caching on and off: every read —
        // repeated reads included, which hit the cache — and every
        // listing must be byte-identical.
        let snap = |caching: bool| {
            let mut k = kernel();
            k.set_render_caching(caching);
            let fs = PseudoFs::new();
            let v = View::host();
            let mut out = String::new();
            for _ in 0..2 {
                for p in fs.list(&k, &v) {
                    out.push_str(&p);
                    out.push('\n');
                    out.push_str(&fs.read(&k, &v, &p).unwrap());
                }
            }
            k.advance_secs(3);
            for p in fs.list(&k, &v) {
                out.push_str(&fs.read(&k, &v, &p).unwrap());
            }
            out
        };
        assert_eq!(snap(true), snap(false));
    }

    #[test]
    fn cached_deny_still_denies_and_other_views_are_unaffected() {
        let mut k = Kernel::new(MachineConfig::small_server(), 9);
        let env = k.create_container_env("c1").unwrap();
        k.advance_secs(1);
        let fs = PseudoFs::new();
        let denied =
            View::container(env.ns, env.cgroups).with_policy(MaskPolicy::none().deny("/proc/stat"));
        let open = View::container(env.ns, env.cgroups);
        for _ in 0..2 {
            assert!(matches!(
                fs.read(&k, &denied, "/proc/stat"),
                Err(FsError::PermissionDenied(_))
            ));
            // Same namespaces, different policy: distinct fingerprint,
            // so the cached deny cannot leak across views.
            assert!(fs.read(&k, &open, "/proc/stat").is_ok());
            assert!(fs.read(&k, &View::host(), "/proc/stat").is_ok());
        }
    }

    #[test]
    fn listing_is_sorted_and_unique() {
        let k = kernel();
        let fs = PseudoFs::new();
        let paths = fs.list(&k, &View::host());
        let mut sorted = paths.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(paths, sorted);
    }

    #[test]
    fn unknown_paths_not_found() {
        let k = kernel();
        let fs = PseudoFs::new();
        let err = fs
            .read(&k, &View::host(), "/proc/does_not_exist")
            .unwrap_err();
        assert!(matches!(err, FsError::NotFound(_)));
        assert!(fs
            .read(
                &k,
                &View::host(),
                "/sys/class/powercap/intel-rapl:7/energy_uj"
            )
            .is_err());
    }

    #[test]
    fn deny_policy_blocks_read_and_hides_from_listing() {
        let mut k = Kernel::new(MachineConfig::small_server(), 9);
        let env = k.create_container_env("c1").unwrap();
        k.advance_secs(1);
        let fs = PseudoFs::new();
        let view = View::container(env.ns, env.cgroups)
            .with_policy(MaskPolicy::none().deny("/sys/class/powercap/**"));
        let err = fs
            .read(&k, &view, "/sys/class/powercap/intel-rapl:0/energy_uj")
            .unwrap_err();
        assert!(matches!(err, FsError::PermissionDenied(_)));
        assert!(!fs
            .list(&k, &view)
            .iter()
            .any(|p| p.starts_with("/sys/class/powercap")));
        // Host unaffected.
        assert!(fs
            .read(
                &k,
                &View::host(),
                "/sys/class/powercap/intel-rapl:0/energy_uj"
            )
            .is_ok());
    }

    #[test]
    fn rapl_paths_absent_without_hardware() {
        let mut k = Kernel::new(MachineConfig::legacy_server_no_rapl(), 9);
        k.advance_secs(1);
        let fs = PseudoFs::new();
        let paths = fs.list(&k, &View::host());
        assert!(!paths.iter().any(|p| p.contains("powercap")));
        assert!(!paths.iter().any(|p| p.contains("coretemp")));
    }

    #[test]
    fn container_listing_shows_only_its_pids() {
        let mut k = Kernel::new(MachineConfig::small_server(), 9);
        k.spawn_host_process("hostproc", models::web_service(0.1))
            .unwrap();
        let env = k.create_container_env("c1").unwrap();
        k.spawn(ProcessSpec::new("app", models::prime()).in_container(&env))
            .unwrap();
        k.advance_secs(1);
        let fs = PseudoFs::new();
        let cont = View::container(env.ns, env.cgroups);
        let cont_paths = fs.list(&k, &cont);
        assert!(cont_paths.contains(&"/proc/1/status".to_string()));
        let host_paths = fs.list(&k, &View::host());
        let host_pid_dirs = host_paths
            .iter()
            .filter(|p| p.ends_with("/cmdline"))
            .count();
        assert_eq!(host_pid_dirs, 2, "host sees both processes");
        let cont_pid_dirs = cont_paths
            .iter()
            .filter(|p| p.ends_with("/cmdline"))
            .count();
        assert_eq!(cont_pid_dirs, 1, "container sees only its own");
    }

    #[test]
    fn list_dir_shows_children_with_directory_markers() {
        let k = kernel();
        let fs = PseudoFs::new();
        let v = View::host();
        let proc_root = fs.list_dir(&k, &v, "/proc");
        assert!(proc_root.contains(&"uptime".to_string()));
        assert!(proc_root.contains(&"sys/".to_string()));
        assert!(
            proc_root.contains(&"1/".to_string()) || proc_root.iter().any(|e| e.ends_with('/'))
        );
        let random = fs.list_dir(&k, &v, "/proc/sys/kernel/random");
        assert_eq!(random, vec!["boot_id", "entropy_avail", "uuid"]);
        assert!(fs.list_dir(&k, &v, "/nonexistent").is_empty());
        // Trailing slash tolerated.
        assert_eq!(
            fs.list_dir(&k, &v, "/proc/sys/fs/"),
            vec!["dentry-state", "file-nr", "inode-nr"]
        );
    }

    #[test]
    fn dynamic_paths_parse_correctly() {
        let k = kernel();
        let fs = PseudoFs::new();
        let v = View::host();
        assert!(fs
            .read(
                &k,
                &v,
                "/proc/sys/kernel/sched_domain/cpu2/domain0/max_newidle_lb_cost"
            )
            .is_ok());
        assert!(fs.read(&k, &v, "/proc/fs/ext4/sda1/mb_groups").is_ok());
        assert!(fs
            .read(
                &k,
                &v,
                "/sys/class/powercap/intel-rapl:0/intel-rapl:0:1/name"
            )
            .unwrap()
            .contains("dram"));
        assert!(fs
            .read(&k, &v, "/sys/devices/system/cpu/cpu1/cpuidle/state4/name")
            .unwrap()
            .contains("C6"));
        assert!(fs
            .read(&k, &v, "/sys/devices/system/node/node0/numastat")
            .is_ok());
        // Mismatched subdomain package id is rejected.
        assert!(fs
            .read(
                &k,
                &v,
                "/sys/class/powercap/intel-rapl:0/intel-rapl:1:0/name"
            )
            .is_err());
    }
}
