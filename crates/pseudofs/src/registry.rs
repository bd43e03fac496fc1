//! The route table: the one description of the modeled tree.
//!
//! One [`Route`] per channel names the glob it serves, a concrete probe
//! path, its renderer, and the subsystem dependency mask whose dirty
//! epochs advance whenever the rendered bytes can change. The `route!` macro takes the renderer's
//! `module::function` name (relative to [`crate::render`]) and its
//! function pointer from one path, so the name tooling audits is the
//! function that runs.
//!
//! Consumers:
//!
//! * [`PseudoFs`](crate::PseudoFs) resolves every read through
//!   [`route_for`]'s resolver and runs the route's renderer; a path no
//!   route matches does not exist. Its listing takes the exact (`*`-free) patterns as paths;
//! * the `leakcheck` static auditor resolves each route's handler to its
//!   source, classifies the channel's namespace behavior, and checks that
//!   the declared `deps` cover every kernel accessor the handler reads;
//! * tests walk [`ROUTES`] to assert every probe renders and every listed
//!   path is routable.

use std::sync::OnceLock;

use simkernel::{dep, Kernel};

use crate::render;
use crate::view::View;

/// A route's renderer. It writes the file as `view` sees it into `out`,
/// given the text each `*` of the route's pattern matched, in order, and
/// returns `None` when the path names nothing in this view (absent
/// hardware, an invisible pid, a capture that is not an index).
pub type Render = fn(&Kernel, &View, &[&str], &mut String) -> Option<()>;

/// One channel of the modeled tree, as data.
#[derive(Debug, Clone, Copy)]
pub struct Route {
    /// Glob over absolute paths served by this route, in
    /// [`glob_match`](crate::glob_match) syntax with at most one `*` per
    /// segment and no `**`.
    pub pattern: &'static str,
    /// A concrete path matching `pattern` that renders on the default
    /// testbed machine (pid routes assume a container whose init is
    /// visible as pid 1).
    pub probe: &'static str,
    /// Handler function as `module::function`, relative to
    /// [`crate::render`]: the function `render` points at.
    pub handler: &'static str,
    /// The handler itself.
    pub render: Render,
    /// OR of [`simkernel::dep`] bits naming every kernel subsystem the
    /// handler reads. Over-declaring is sound (a consumer comparing
    /// masked epoch sums re-reads needlessly); under-declaring would let
    /// the bytes change while the sum stands still, and is what the
    /// leakcheck missing-dependency lint guards against.
    pub deps: u32,
}

/// Routes are compared by pattern, which is unique in [`ROUTES`]
/// (function pointers have no meaningful equality).
impl PartialEq for Route {
    fn eq(&self, other: &Self) -> bool {
        self.pattern == other.pattern
    }
}

impl Eq for Route {}

/// One [`Route`], its handler name and renderer taken from one
/// `module::function` path under [`crate::render`].
macro_rules! route {
    ($pattern:literal, $probe:literal, $module:ident::$func:ident, $deps:expr $(,)?) => {
        Route {
            pattern: $pattern,
            probe: $probe,
            handler: concat!(stringify!($module), "::", stringify!($func)),
            render: render::$module::$func,
            deps: $deps,
        }
    };
}

/// Every channel of the modeled tree, exact patterns before globs
/// (lookup is first-match-wins).
pub const ROUTES: &[Route] = &[
    // ---- exact /proc arms ----
    route!(
        "/proc/cpuinfo",
        "/proc/cpuinfo",
        proc_basic::cpuinfo,
        dep::HW,
    ),
    route!(
        "/proc/meminfo",
        "/proc/meminfo",
        proc_basic::meminfo,
        dep::MEM | dep::PROCESS | dep::CGROUP,
    ),
    route!(
        "/proc/stat",
        "/proc/stat",
        proc_basic::stat,
        dep::CLOCK | dep::SCHED | dep::IRQ | dep::PROCESS,
    ),
    route!(
        "/proc/uptime",
        "/proc/uptime",
        proc_basic::uptime,
        dep::CLOCK | dep::SCHED,
    ),
    route!("/proc/version", "/proc/version", proc_basic::version, 0),
    route!(
        "/proc/loadavg",
        "/proc/loadavg",
        proc_basic::loadavg,
        dep::SCHED | dep::PROCESS,
    ),
    route!(
        "/proc/interrupts",
        "/proc/interrupts",
        proc_irq::interrupts,
        dep::IRQ,
    ),
    route!(
        "/proc/softirqs",
        "/proc/softirqs",
        proc_irq::softirqs,
        dep::IRQ,
    ),
    route!(
        "/proc/schedstat",
        "/proc/schedstat",
        proc_sched::schedstat,
        dep::SCHED,
    ),
    route!(
        "/proc/sched_debug",
        "/proc/sched_debug",
        proc_sched::sched_debug,
        dep::CLOCK | dep::SCHED | dep::PROCESS,
    ),
    route!(
        "/proc/timer_list",
        "/proc/timer_list",
        proc_sched::timer_list,
        dep::CLOCK | dep::TIMERS,
    ),
    route!("/proc/locks", "/proc/locks", proc_sched::locks, dep::FS),
    route!("/proc/modules", "/proc/modules", proc_misc::modules, 0),
    route!(
        "/proc/zoneinfo",
        "/proc/zoneinfo",
        proc_misc::zoneinfo,
        dep::MEM,
    ),
    route!(
        "/proc/diskstats",
        "/proc/diskstats",
        proc_misc::diskstats,
        dep::STATS,
    ),
    route!(
        "/proc/sys/fs/dentry-state",
        "/proc/sys/fs/dentry-state",
        proc_kernel::dentry_state,
        dep::FS,
    ),
    route!(
        "/proc/sys/fs/inode-nr",
        "/proc/sys/fs/inode-nr",
        proc_kernel::inode_nr,
        dep::FS,
    ),
    route!(
        "/proc/sys/fs/file-nr",
        "/proc/sys/fs/file-nr",
        proc_kernel::file_nr,
        dep::FS,
    ),
    route!(
        "/proc/sys/kernel/random/boot_id",
        "/proc/sys/kernel/random/boot_id",
        proc_kernel::boot_id,
        dep::FS,
    ),
    route!(
        "/proc/sys/kernel/random/entropy_avail",
        "/proc/sys/kernel/random/entropy_avail",
        proc_kernel::entropy_avail,
        dep::FS,
    ),
    route!(
        "/proc/sys/kernel/random/uuid",
        "/proc/sys/kernel/random/uuid",
        proc_kernel::uuid,
        dep::CLOCK | dep::FS,
    ),
    route!(
        "/proc/sys/kernel/hostname",
        "/proc/sys/kernel/hostname",
        proc_kernel::hostname,
        dep::NS,
    ),
    route!(
        "/proc/sys/kernel/osrelease",
        "/proc/sys/kernel/osrelease",
        proc_kernel::osrelease,
        0,
    ),
    route!(
        "/proc/self/status",
        "/proc/self/status",
        proc_pid::self_status,
        dep::NS,
    ),
    route!(
        "/proc/self/cgroup",
        "/proc/self/cgroup",
        proc_pid::self_cgroup,
        dep::NS | dep::CGROUP,
    ),
    route!(
        "/proc/net/dev",
        "/proc/net/dev",
        proc_pid::net_dev,
        dep::CLOCK | dep::NET | dep::NS,
    ),
    route!("/proc/mounts", "/proc/mounts", proc_pid::mounts, dep::NS),
    route!(
        "/proc/net/snmp",
        "/proc/net/snmp",
        proc_pid::net_snmp,
        // Synthetic counters: scale with uptime and salt on the net
        // namespace *id* — no `k.net()` device state reaches the bytes.
        dep::CLOCK | dep::NS,
    ),
    route!(
        "/proc/net/tcp",
        "/proc/net/tcp",
        proc_pid::net_tcp,
        // Rows are derived from the visible process table (ports hash
        // the pid); no `k.net()` device state reaches the bytes.
        dep::NS | dep::PROCESS,
    ),
    route!(
        "/proc/sys/kernel/pid_max",
        "/proc/sys/kernel/pid_max",
        proc_kernel::pid_max,
        0,
    ),
    route!(
        "/proc/sys/kernel/threads-max",
        "/proc/sys/kernel/threads-max",
        proc_kernel::threads_max,
        dep::MEM,
    ),
    route!(
        "/proc/sys/vm/overcommit_memory",
        "/proc/sys/vm/overcommit_memory",
        proc_kernel::overcommit_memory,
        0,
    ),
    route!(
        "/proc/sys/vm/swappiness",
        "/proc/sys/vm/swappiness",
        proc_kernel::swappiness,
        0,
    ),
    route!("/proc/vmstat", "/proc/vmstat", proc_vm::vmstat, dep::MEM),
    route!(
        "/proc/slabinfo",
        "/proc/slabinfo",
        proc_vm::slabinfo,
        dep::MEM | dep::FS | dep::PROCESS,
    ),
    route!(
        "/proc/buddyinfo",
        "/proc/buddyinfo",
        proc_vm::buddyinfo,
        dep::MEM,
    ),
    route!("/proc/swaps", "/proc/swaps", proc_vm::swaps, dep::MEM),
    route!(
        "/proc/partitions",
        "/proc/partitions",
        proc_vm::partitions,
        0,
    ),
    route!(
        "/proc/filesystems",
        "/proc/filesystems",
        proc_vm::filesystems,
        0,
    ),
    route!(
        "/proc/cgroups",
        "/proc/cgroups",
        proc_vm::cgroups,
        dep::CGROUP,
    ),
    // ---- exact /sys arms ----
    route!(
        "/sys/devices/system/cpu/online",
        "/sys/devices/system/cpu/online",
        sys_power::cpu_online,
        0,
    ),
    route!(
        "/sys/fs/cgroup/net_prio/net_prio.ifpriomap",
        "/sys/fs/cgroup/net_prio/net_prio.ifpriomap",
        sys_cgroup::ifpriomap,
        dep::NET | dep::CGROUP,
    ),
    route!(
        "/sys/fs/cgroup/net_prio/net_prio.prioidx",
        "/sys/fs/cgroup/net_prio/net_prio.prioidx",
        sys_cgroup::prioidx,
        dep::CGROUP,
    ),
    route!(
        "/sys/fs/cgroup/cpuacct/cpuacct.usage",
        "/sys/fs/cgroup/cpuacct/cpuacct.usage",
        sys_cgroup::cpuacct_usage,
        dep::CGROUP,
    ),
    route!(
        "/sys/fs/cgroup/cpuacct/cpuacct.usage_percpu",
        "/sys/fs/cgroup/cpuacct/cpuacct.usage_percpu",
        sys_cgroup::cpuacct_usage_percpu,
        dep::CGROUP,
    ),
    route!(
        "/sys/fs/cgroup/memory/memory.usage_in_bytes",
        "/sys/fs/cgroup/memory/memory.usage_in_bytes",
        sys_cgroup::memory_usage,
        dep::CGROUP,
    ),
    route!(
        "/sys/fs/cgroup/memory/memory.max_usage_in_bytes",
        "/sys/fs/cgroup/memory/memory.max_usage_in_bytes",
        sys_cgroup::memory_max_usage,
        dep::CGROUP,
    ),
    // ---- parameterized arms (segment globs) ----
    route!(
        "/proc/sys/kernel/sched_domain/cpu*/domain0/max_newidle_lb_cost",
        "/proc/sys/kernel/sched_domain/cpu0/domain0/max_newidle_lb_cost",
        proc_kernel::max_newidle_lb_cost,
        dep::SCHED,
    ),
    route!(
        "/proc/fs/ext4/*/mb_groups",
        "/proc/fs/ext4/sda1/mb_groups",
        proc_misc::mb_groups,
        dep::FS,
    ),
    route!(
        "/proc/*/status",
        "/proc/1/status",
        proc_pid::pid_status,
        dep::NS | dep::PROCESS,
    ),
    route!(
        "/proc/*/stat",
        "/proc/1/stat",
        proc_pid::pid_stat,
        dep::NS | dep::PROCESS,
    ),
    route!(
        "/proc/*/cmdline",
        "/proc/1/cmdline",
        proc_pid::pid_cmdline,
        dep::NS | dep::PROCESS,
    ),
    route!(
        "/proc/*/io",
        "/proc/1/io",
        proc_pid::pid_io,
        dep::NS | dep::PROCESS,
    ),
    route!(
        "/proc/*/sched",
        "/proc/1/sched",
        proc_pid::pid_sched,
        // cpu_time/vruntime only move under mutations that bump
        // PROCESS; an idle clock advance leaves the bytes unchanged.
        dep::NS | dep::PROCESS,
    ),
    route!(
        "/sys/block/*/stat",
        "/sys/block/sda/stat",
        sys_power::block_stat,
        dep::STATS,
    ),
    route!(
        "/sys/class/thermal/thermal_zone*/temp",
        "/sys/class/thermal/thermal_zone0/temp",
        sys_power::thermal_zone_temp,
        dep::HW,
    ),
    route!(
        "/sys/devices/system/cpu/cpu*/cpufreq/scaling_cur_freq",
        "/sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq",
        sys_power::cpufreq_cur,
        dep::HW,
    ),
    route!(
        "/sys/devices/system/cpu/cpu*/cpufreq/cpuinfo_max_freq",
        "/sys/devices/system/cpu/cpu0/cpufreq/cpuinfo_max_freq",
        sys_power::cpufreq_max,
        dep::HW,
    ),
    route!(
        "/sys/devices/system/cpu/cpu*/cpuidle/state*/name",
        "/sys/devices/system/cpu/cpu0/cpuidle/state0/name",
        sys_power::cpuidle_name,
        dep::HW,
    ),
    route!(
        "/sys/devices/system/cpu/cpu*/cpuidle/state*/usage",
        "/sys/devices/system/cpu/cpu0/cpuidle/state0/usage",
        sys_power::cpuidle_usage,
        dep::HW,
    ),
    route!(
        "/sys/devices/system/cpu/cpu*/cpuidle/state*/time",
        "/sys/devices/system/cpu/cpu0/cpuidle/state0/time",
        sys_power::cpuidle_time,
        dep::HW,
    ),
    route!(
        "/sys/class/powercap/intel-rapl:*/name",
        "/sys/class/powercap/intel-rapl:0/name",
        sys_power::rapl_name,
        dep::HW,
    ),
    route!(
        "/sys/class/powercap/intel-rapl:*/energy_uj",
        "/sys/class/powercap/intel-rapl:0/energy_uj",
        sys_power::rapl_package_energy,
        dep::HW,
    ),
    route!(
        "/sys/class/powercap/intel-rapl:*/max_energy_range_uj",
        "/sys/class/powercap/intel-rapl:0/max_energy_range_uj",
        sys_power::rapl_max_range,
        dep::HW,
    ),
    route!(
        "/sys/class/powercap/intel-rapl:*/intel-rapl:*/name",
        "/sys/class/powercap/intel-rapl:0/intel-rapl:0:0/name",
        sys_power::rapl_subdomain_name,
        dep::HW,
    ),
    route!(
        "/sys/class/powercap/intel-rapl:*/intel-rapl:*/energy_uj",
        "/sys/class/powercap/intel-rapl:0/intel-rapl:0:0/energy_uj",
        sys_power::rapl_subdomain_energy,
        dep::HW,
    ),
    route!(
        "/sys/devices/platform/coretemp.*/hwmon/hwmon*/temp*_input",
        "/sys/devices/platform/coretemp.0/hwmon/hwmon0/temp1_input",
        sys_power::coretemp,
        dep::HW,
    ),
    route!(
        "/sys/devices/system/node/node*/numastat",
        "/sys/devices/system/node/node0/numastat",
        sys_node::numastat,
        dep::MEM,
    ),
    route!(
        "/sys/devices/system/node/node*/vmstat",
        "/sys/devices/system/node/node0/vmstat",
        sys_node::vmstat,
        dep::MEM,
    ),
    route!(
        "/sys/devices/system/node/node*/meminfo",
        "/sys/devices/system/node/node0/meminfo",
        sys_node::node_meminfo,
        dep::MEM,
    ),
];

/// Most `/`-separated segments in a route pattern; deeper paths route
/// nowhere.
const MAX_SEGMENTS: usize = 8;

/// Most `*`s in one route pattern.
const MAX_CAPTURES: usize = 3;

/// One segment of a route pattern, split once.
#[derive(Debug)]
enum Segment {
    /// Matches itself only.
    Literal(&'static str),
    /// `prefix*suffix`, matched by [`glob_match`](crate::glob_match)'s
    /// in-segment rule.
    Wild {
        prefix: &'static str,
        suffix: &'static str,
    },
}

impl Segment {
    fn parse(segment: &'static str) -> Self {
        match segment.split_once('*') {
            None => Segment::Literal(segment),
            Some((prefix, suffix)) => Segment::Wild { prefix, suffix },
        }
    }

    /// The text of a literal segment; `None` for a wildcard.
    fn literal(&self) -> Option<&'static str> {
        match *self {
            Segment::Literal(lit) => Some(lit),
            Segment::Wild { .. } => None,
        }
    }

    /// The run of `seg` this segment's `*` covers, or `""` for a literal;
    /// `None` when `seg` does not match. As in `glob_match`, the suffix
    /// must be the first occurrence after the prefix and end the segment.
    fn capture<'p>(&self, seg: &'p str) -> Option<&'p str> {
        match *self {
            Segment::Literal(lit) => (lit == seg).then_some(""),
            Segment::Wild { prefix, suffix } => {
                let rest = seg.strip_prefix(prefix)?;
                if suffix.is_empty() {
                    return Some(rest);
                }
                let end = rest.find(suffix)?;
                (end + suffix.len() == rest.len()).then(|| &rest[..end])
            }
        }
    }
}

/// A route with its pattern split into segments.
type Compiled = (&'static Route, Vec<Segment>);

/// A path's segment count and first two segments (`""` past its end).
type Key = (usize, &'static str, &'static str);

/// [`ROUTES`] split into segments, and indexed by the first two of them.
#[derive(Debug)]
struct Index {
    /// Every route, in table order.
    routes: Vec<Compiled>,
    /// For each key of a route whose first two segments are literal,
    /// sorted by key: the positions in `routes` of every route that can
    /// match a path with that key — those literal routes and the routes
    /// of the same depth with a wildcard in their first two segments,
    /// merged in table order.
    keyed: Vec<(Key, Vec<usize>)>,
    /// Per segment count, the routes with a wildcard in their first two
    /// segments, in table order: a path whose key no literal route has
    /// can only match one of these.
    wild: [Vec<usize>; MAX_SEGMENTS + 1],
}

/// The route index, built on first use.
fn index() -> &'static Index {
    static INDEX: OnceLock<Index> = OnceLock::new();
    INDEX.get_or_init(|| {
        let routes: Vec<Compiled> = ROUTES
            .iter()
            .map(|r| {
                let segs = r
                    .pattern
                    .trim_start_matches('/')
                    .split('/')
                    .map(Segment::parse)
                    .collect();
                (r, segs)
            })
            .collect();
        // A missing second segment reads as the literal `""`.
        let head = |segs: &[Segment]| {
            let second = segs.get(1).map_or(Some(""), Segment::literal);
            segs[0].literal().zip(second)
        };
        let mut wild: [Vec<usize>; MAX_SEGMENTS + 1] = Default::default();
        let mut keys: Vec<Key> = Vec::new();
        for (i, (_, segs)) in routes.iter().enumerate() {
            match head(segs) {
                Some((a, b)) => keys.push((segs.len(), a, b)),
                None => {
                    if let Some(bucket) = wild.get_mut(segs.len()) {
                        bucket.push(i);
                    }
                }
            }
        }
        keys.sort_unstable();
        keys.dedup();
        let keyed = keys
            .into_iter()
            .map(|key @ (n, a, b)| {
                let fits = |seg: Option<&Segment>, lit: &str| {
                    seg.is_none_or(|s| s.literal().is_none_or(|l| l == lit))
                };
                let candidates = routes
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, segs))| {
                        segs.len() == n && fits(segs.first(), a) && fits(segs.get(1), b)
                    })
                    .map(|(i, _)| i)
                    .collect();
                (key, candidates)
            })
            .collect();
        Index {
            routes,
            keyed,
            wild,
        }
    })
}

/// Splits `path` into its segments, ignoring leading slashes; `None`
/// when it has more than [`MAX_SEGMENTS`].
fn split(path: &str) -> Option<([&str; MAX_SEGMENTS], usize)> {
    let path = path.trim_start_matches('/');
    let mut segs = [""; MAX_SEGMENTS];
    let mut n = 0;
    let mut start = 0;
    for (i, b) in path.bytes().enumerate() {
        if b == b'/' {
            *segs.get_mut(n)? = &path[start..i];
            n += 1;
            start = i + 1;
        }
    }
    *segs.get_mut(n)? = &path[start..];
    Some((segs, n + 1))
}

/// The text each `*` of `pattern` matched in `segs`, in order, if every
/// segment matches. Segments are checked last first: the file name
/// tells most routes of one directory apart.
fn captures<'p>(pattern: &[Segment], segs: &[&'p str]) -> Option<[&'p str; MAX_CAPTURES]> {
    if !pattern
        .iter()
        .zip(segs)
        .rev()
        .all(|(p, seg)| p.capture(seg).is_some())
    {
        return None;
    }
    let mut caps = [""; MAX_CAPTURES];
    let wild = pattern
        .iter()
        .zip(segs)
        .filter(|(p, _)| matches!(p, Segment::Wild { .. }));
    for (slot, (p, seg)) in caps.iter_mut().zip(wild) {
        *slot = p.capture(seg)?;
    }
    Some(caps)
}

/// The route serving `path` and the text each `*` of its pattern
/// matched, in order (unused slots are `""`). First match wins in table
/// order, so the exact `/proc/self/*` routes shadow the pid globs. Paths
/// match as [`glob_match`](crate::glob_match) matches them: leading
/// slashes are ignored. The path's segment count and first two segments
/// pick the candidate routes (a binary search), a literal segment costs
/// one string compare, and nothing allocates.
pub(crate) fn resolve(path: &str) -> Option<(&'static Route, [&str; MAX_CAPTURES])> {
    let (segs, n) = split(path)?;
    let idx = index();
    let key = (n, segs[0], segs[1]);
    let candidates = match idx.keyed.binary_search_by(|(k, _)| k.cmp(&key)) {
        Ok(i) => &idx.keyed[i].1,
        Err(_) => idx.wild.get(n)?,
    };
    candidates.iter().find_map(|&i| {
        let (route, pattern) = &idx.routes[i];
        Some((*route, captures(pattern, &segs[..n])?))
    })
}

/// The route serving `path`, if any: a path reads iff it routes.
pub fn route_for(path: &str) -> Option<&'static Route> {
    resolve(path).map(|(route, _)| route)
}

/// The OR of the dependency masks of every route whose mask treatment
/// differs between `old` and `new` — the subsystem epochs a *live*
/// policy swap must dirty so every epoch-sum consumer re-reads what the
/// swap can have changed. Each route is probed through its concrete
/// representative path, matching how the masking layer evaluates rules.
pub fn changed_mask_deps(old: &crate::MaskPolicy, new: &crate::MaskPolicy) -> u32 {
    let mut deps = 0u32;
    for r in ROUTES {
        if old.action_for(r.probe) != new.action_for(r.probe) {
            deps |= r.deps;
        }
    }
    deps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{glob_match, View};
    use crate::PseudoFs;
    use simkernel::kernel::ProcessSpec;
    use simkernel::{Kernel, MachineConfig};
    use workloads::models;

    fn kernel() -> (Kernel, View) {
        let mut k = Kernel::new(MachineConfig::testbed_i7_6700(), 11);
        let env = k.create_container_env("c1").unwrap();
        k.spawn(ProcessSpec::new("app", models::prime()).in_container(&env))
            .unwrap();
        k.advance_secs(2);
        let view = View::container(env.ns, env.cgroups);
        (k, view)
    }

    #[test]
    fn every_probe_matches_its_own_pattern_and_renders() {
        let (k, container) = kernel();
        let fs = PseudoFs::new();
        let host = View::host();
        for r in ROUTES {
            assert!(
                glob_match(r.pattern, r.probe),
                "probe {} does not match pattern {}",
                r.probe,
                r.pattern
            );
            assert_eq!(
                route_for(r.probe).map(|m| m.handler),
                Some(r.handler),
                "probe {} resolves to a different route",
                r.probe
            );
            // Numeric pid probes use ns pids, which only resolve inside the
            // container's pid namespace (host pids start at 300).
            let view = if r.pattern.starts_with("/proc/*/") {
                &container
            } else {
                &host
            };
            fs.read(&k, view, r.probe)
                .unwrap_or_else(|e| panic!("probe {} unreadable: {e}", r.probe));
        }
    }

    #[test]
    fn every_listed_path_is_routed() {
        let (k, container) = kernel();
        let fs = PseudoFs::new();
        for view in [View::host(), container] {
            for path in fs.list(&k, &view) {
                assert!(route_for(&path).is_some(), "unrouted path {path}");
            }
        }
    }

    #[test]
    fn handlers_are_unique_and_patterns_do_not_duplicate() {
        let mut handlers: Vec<&str> = ROUTES.iter().map(|r| r.handler).collect();
        handlers.sort_unstable();
        let n = handlers.len();
        handlers.dedup();
        assert_eq!(n, handlers.len(), "duplicate handler entries");
        let mut patterns: Vec<&str> = ROUTES.iter().map(|r| r.pattern).collect();
        patterns.sort_unstable();
        let n = patterns.len();
        patterns.dedup();
        assert_eq!(n, patterns.len(), "duplicate patterns");
    }

    #[test]
    fn patterns_split_into_the_segments_the_resolver_handles() {
        for r in ROUTES {
            let segs: Vec<&str> = r.pattern.trim_start_matches('/').split('/').collect();
            assert!(segs.len() <= MAX_SEGMENTS, "{} is too deep", r.pattern);
            assert!(
                r.pattern.matches('*').count() <= MAX_CAPTURES,
                "{} has too many wildcards",
                r.pattern
            );
            for seg in segs {
                assert!(!seg.is_empty(), "{} has an empty segment", r.pattern);
                assert!(seg.matches('*').count() <= 1, "{} segment {seg}", r.pattern);
            }
        }
    }

    #[test]
    fn self_paths_resolve_to_self_handlers_not_pid_globs() {
        assert_eq!(
            route_for("/proc/self/status").unwrap().handler,
            "proc_pid::self_status"
        );
        assert_eq!(
            route_for("/proc/7/status").unwrap().handler,
            "proc_pid::pid_status"
        );
        assert!(route_for("/proc/does_not_exist").is_none());
    }

    #[test]
    fn resolve_captures_each_wildcard_run_in_order() {
        let (r, caps) =
            resolve("/sys/class/powercap/intel-rapl:0/intel-rapl:0:1/energy_uj").unwrap();
        assert_eq!(r.handler, "sys_power::rapl_subdomain_energy");
        assert_eq!(caps, ["0", "0:1", ""]);
        let (r, caps) =
            resolve("/sys/devices/platform/coretemp.1/hwmon/hwmon1/temp3_input").unwrap();
        assert_eq!(r.handler, "sys_power::coretemp");
        assert_eq!(caps, ["1", "1", "3"]);
    }

    /// Every pattern the matcher meets in the tree: the routes, each
    /// provider profile's policy, a generated hardening policy, and edge
    /// cases around `**`, leading/trailing slashes and in-segment `*`.
    fn pattern_corpus() -> Vec<String> {
        let mut patterns: Vec<String> = ROUTES.iter().map(|r| r.pattern.to_string()).collect();
        let mut profiles = vec![cloudsim::CloudProfile::Local];
        profiles.extend(cloudsim::CloudProfile::COMMERCIAL);
        for profile in profiles {
            for rule in profile.mask_policy().rules() {
                patterns.push(rule.pattern.clone());
            }
        }
        let lab = leakscan::Lab::new(1, 7);
        let host = lab.host(0);
        let (policy, _) = leakscan::Hardener::new().harden(&host.kernel, &host.container_view());
        let generated: Vec<&str> = policy.rules().iter().map(|r| r.pattern.as_str()).collect();
        // The testbed leaks under every one of the Hardener's subtrees.
        let subtrees = generated.iter().filter(|p| p.ends_with("/**")).count();
        assert_eq!(subtrees, 11, "{generated:?}");
        patterns.extend(generated.iter().map(|p| p.to_string()));
        for edge in [
            "/proc/sys/**",
            "/proc/**/stat",
            "/**",
            "**",
            "proc/stat",
            "//proc/stat",
            "/proc/stat/",
            "",
            "/",
            "/sys/class/powercap/intel-rapl:*",
            "/sys/class/powercap/*rapl*/energy_uj",
            "/proc/*",
            // `**` matching zero segments after a literal prefix.
            "/sys/class/powercap/**",
            "/sys/class/powercap/intel-rapl:*/**",
            // Empty segments inside the pattern.
            "/proc//stat",
            "/proc//*",
            "/sys//class/powercap/**",
            // Trailing slashes.
            "/proc/sys/",
            "/proc/*/",
            "/sys/class/powercap/**/",
            // Leading stars.
            "*",
            "*/stat",
            "/*/self/status",
            "/*rapl*/**",
            // `/**` at the root and several leading slashes.
            "///**",
            "///proc/sys/**",
            "//sys/class/powercap/intel-rapl:*",
            // First-occurrence binding of an in-segment star.
            "a*b",
            "/proc/timer*list",
        ] {
            patterns.push(edge.to_string());
        }
        patterns
    }

    /// Every path the router meets: probes, both views' listings,
    /// generated pid and RAPL trees, unknown files, and the edge cases.
    fn path_corpus() -> Vec<String> {
        let (k, container) = kernel();
        let fs = PseudoFs::new();
        let mut paths: Vec<String> = ROUTES.iter().map(|r| r.probe.to_string()).collect();
        for view in [View::host(), container] {
            paths.extend(fs.list(&k, &view));
        }
        for pid in 0..64 {
            for file in ["status", "stat", "cmdline", "io", "sched", "environ"] {
                paths.push(format!("/proc/{pid}/{file}"));
            }
        }
        for pkg in 0..8 {
            let dom = format!("/sys/class/powercap/intel-rapl:{pkg}");
            for file in ["name", "energy_uj", "max_energy_range_uj", "unknown"] {
                paths.push(format!("{dom}/{file}"));
            }
            for sub in 0..8 {
                for file in ["name", "energy_uj", "unknown"] {
                    paths.push(format!("{dom}/intel-rapl:{pkg}:{sub}/{file}"));
                }
            }
            paths.push(dom);
        }
        for edge in [
            "/proc/does_not_exist",
            "/sys/class/net/eth0/statistics/rx_bytes",
            "/sys/devices/platform/coretemp.0/hwmon/foo/temp1_input",
            "/sys/devices/platform/coretemp.0/hwmon/hwmon0/temp1_input_input",
            "//proc/1/status",
            "/proc/self/stat",
            "/proc/sys",
            "/proc/sys/",
            "/proc/sys/kernel",
            "proc/stat",
            "//proc/stat",
            "/proc/stat/",
            "",
            "/",
            "//",
            "/proc",
            "/proc/",
            "/sys/class/powercap",
            "/sys/class/powercap/",
            "/sys/class/powercapx",
            "/sys/class/powercap_x/energy_uj",
            "///sys/class/powercap",
            "///proc/stat",
            "/proc//stat",
            "/proc/1//stat",
            "/proc/stat//",
            "///",
            "proc",
            "ab",
            "abab",
            "axb",
            "/proc/timer_list",
            "/proc/timer_list_list",
        ] {
            paths.push(edge.to_string());
        }
        paths
    }

    #[test]
    fn glob_match_agrees_with_the_collecting_reference() {
        let patterns = pattern_corpus();
        let paths = path_corpus();
        for pattern in &patterns {
            for path in paths.iter().chain(&patterns) {
                assert_eq!(
                    glob_match(pattern, path),
                    crate::view::glob_match_reference(pattern, path),
                    "pattern {pattern:?} vs path {path:?}"
                );
            }
        }
        assert!(glob_match("/proc/sys/**", "/proc/sys"));
        assert!(!glob_match("/proc/**/stat", "/proc/1/stat"));
        // The literal prefix stops short of the slash before `**`.
        assert!(glob_match("/sys/class/powercap/**", "/sys/class/powercap"));
        assert!(glob_match("///sys/class/powercap/**", "sys/class/powercap"));
        assert!(!glob_match(
            "/sys/class/powercap/**",
            "/sys/class/powercapx"
        ));
        // An empty pattern segment matches any one segment.
        assert!(glob_match("/proc//stat", "/proc/1/stat"));
        assert!(!glob_match("/proc//stat", "/proc/stat"));
        // A literal after `*` binds to its first occurrence.
        assert!(glob_match("a*b", "axb"));
        assert!(!glob_match("a*b", "abab"));
    }

    #[test]
    fn filtered_route_for_equals_a_full_reference_scan() {
        let patterns = pattern_corpus();
        for path in path_corpus().iter().chain(&patterns) {
            let reference = ROUTES
                .iter()
                .find(|r| crate::view::glob_match_reference(r.pattern, path));
            assert_eq!(route_for(path), reference, "path {path:?}");
        }
    }

    /// The resolver before the index: a linear scan of every route with
    /// the path's segment count, in table order.
    fn resolve_reference(path: &str) -> Option<(&'static Route, [&str; MAX_CAPTURES])> {
        let (segs, n) = split(path)?;
        index()
            .routes
            .iter()
            .filter(|(_, pattern)| pattern.len() == n)
            .find_map(|(route, pattern)| Some((*route, captures(pattern, &segs[..n])?)))
    }

    /// Misspellings of `path` the resolver must treat exactly as the
    /// linear scan does: doubled and trailing slashes, an extra, a
    /// missing and a replaced segment, every file name any route serves
    /// in place of its own, a bogus `hwmon` directory, other pids and
    /// RAPL packages, and depths past [`MAX_SEGMENTS`].
    fn misspellings(path: &str) -> Vec<String> {
        let mut out = vec![
            format!("/{path}"),
            format!("{path}/"),
            format!("{path}/extra"),
            path.trim_start_matches('/').to_string(),
            path.replace("hwmon/hwmon", "hwmon/bogus"),
            path.replace("/hwmon", "/hwmonX"),
            path.replace("intel-rapl:0", "intel-rapl:9"),
            path.replace("/proc/1/", "/proc/4242/"),
            path.replace("/proc/self/", "/proc/1/"),
            path.replace("/proc/", "/proc/1/"),
            format!("{path}{}", "/x".repeat(MAX_SEGMENTS)),
        ];
        if let Some((parent, _)) = path.rsplit_once('/') {
            out.push(parent.to_string());
            out.push(format!("{parent}/unknown"));
            for r in ROUTES {
                let name = r.pattern.rsplit('/').next().unwrap_or_default();
                out.push(format!("{parent}/{}", name.replace('*', "0")));
            }
        }
        out
    }

    #[test]
    fn indexed_resolve_equals_the_linear_scan() {
        let mut cloud = cloudsim::Cloud::new(
            cloudsim::CloudConfig::new(cloudsim::CloudProfile::CC1).hosts(1),
            5,
        );
        let inst = cloud
            .launch("t", cloudsim::InstanceSpec::new("probe"))
            .unwrap();
        cloud.exec(inst, "app", models::prime()).unwrap();
        let listed = cloud.list_files(inst).unwrap();
        assert!(
            listed.len() > 100,
            "CC1 listing too short: {}",
            listed.len()
        );
        let mut paths: Vec<String> = ROUTES.iter().map(|r| r.probe.to_string()).collect();
        paths.extend(listed);
        let mutated: Vec<String> = paths.iter().flat_map(|p| misspellings(p)).collect();
        paths.extend(mutated);
        paths.extend(
            [
                "",
                "/",
                "//",
                "proc",
                "/proc",
                "/sys/class",
                "/a/b/c/d/e/f/g/h/i",
            ]
            .map(String::from),
        );
        let mut routed = 0;
        for path in &paths {
            let fast = resolve(path).map(|(r, caps)| (r.pattern, caps));
            let plain = resolve_reference(path).map(|(r, caps)| (r.pattern, caps));
            assert_eq!(fast, plain, "path {path:?}");
            routed += usize::from(fast.is_some());
        }
        // Both outcomes are exercised: thousands of spellings route, and
        // more do not.
        assert!(
            routed > 10 * ROUTES.len() && routed < paths.len() / 2,
            "{routed} of {}",
            paths.len()
        );
    }

    #[test]
    fn deps_are_within_the_subsystem_bit_range() {
        for r in ROUTES {
            assert_eq!(
                r.deps & !dep::ALL,
                0,
                "{} declares unknown dependency bits",
                r.pattern
            );
        }
    }
}
