//! The route table: the one description of the modeled tree.
//!
//! One [`Route`] per channel declares the paths it serves, as a template
//! and the kernel dimensions its holes range over, its renderer, and the
//! subsystem dependency mask whose dirty epochs advance whenever the
//! rendered bytes can change. The `route!` macro takes the renderer's
//! `module::function` name (relative to [`crate::render`]) and its
//! function pointer from one path, so the name tooling audits is the
//! function that runs.
//!
//! Consumers:
//!
//! * [`PseudoFs`](crate::PseudoFs) resolves every read through
//!   [`route_for`]'s resolver and runs the route's renderer; a path no
//!   route matches does not exist. Its listing and count instantiate
//!   each route's template over its dimensions, and a mask policy judges
//!   each route whole from its template;
//! * the `leakcheck` static auditor resolves each route's handler to its
//!   source, classifies the channel's namespace behavior, and checks that
//!   the declared `deps` cover every kernel accessor the handler reads;
//! * tests walk [`ROUTES`] to assert every route lists an instance, and
//!   every listed path routes back to the route that listed it and
//!   renders.

use std::sync::OnceLock;

use simkernel::{dep, Kernel};

use crate::render;
use crate::view::{MaskPolicy, Reach, View};

/// A route's renderer. It writes the file as `view` sees it into `out`,
/// given, in order, the text each holed segment of the route's template
/// matched between the segment's text before its first hole and after
/// its last (see [`Route::pattern`]), and returns `None` when the path
/// names nothing in this view (absent hardware, an invisible pid, a
/// capture that is not an index).
pub type Render = fn(&Kernel, &View, &[&str], &mut String) -> Option<()>;

/// A kernel dimension a route template's holes range over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dim {
    /// No hole: the dimension of one value.
    One,
    /// Online cpus.
    Cpu,
    /// Idle states, per cpu.
    IdleState,
    /// Block devices, by name.
    Disk,
    /// Thermal zones: one with a digital thermal sensor, else none.
    ThermalZone,
    /// Mounted ext4 partitions, by name.
    Ext4Partition,
    /// The pids the reader's pid namespace numbers.
    Pid,
    /// RAPL packages (none without RAPL).
    RaplPackage,
    /// RAPL subdomains (core and dram), per package.
    RaplDomain,
    /// Coretemp devices, one per package (none without the sensor).
    CoretempPackage,
    /// Coretemp sensors: the package's, then one per core.
    CoretempSensor,
    /// NUMA nodes.
    NumaNode,
}

/// One channel of the modeled tree, as data.
#[derive(Debug, Clone, Copy)]
pub struct Route {
    /// The absolute paths this route serves: a path whose segments may
    /// hold `{0}` and `{1}` holes, each taking every value of its
    /// dimension, so the route's paths and their number come from one
    /// declaration. A template without holes is one path. A segment
    /// may hold both holes (`intel-rapl:{0}:{1}`); the resolver captures
    /// the segment's run from its first hole to its last as one.
    pub template: &'static str,
    /// The dimensions the `{0}` and `{1}` holes range over, in order;
    /// [`Dim::One`] for a hole the template lacks.
    pub dims: [Dim; 2],
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

impl Route {
    /// The glob over absolute paths this route serves, in
    /// [`glob_match`](crate::glob_match) syntax: the template with each
    /// holed segment read as its text before the first hole, a `*`, and
    /// its text after the last, so `intel-rapl:{0}:{1}` reads as
    /// `intel-rapl:*`.
    pub fn pattern(&self) -> String {
        let mut glob = String::with_capacity(self.template.len());
        for (i, seg) in self.template.split('/').enumerate() {
            if i > 0 {
                glob.push('/');
            }
            match lead_trail(seg) {
                Some((lead, trail)) => {
                    glob.push_str(lead);
                    glob.push('*');
                    glob.push_str(trail);
                }
                None => glob.push_str(seg),
            }
        }
        glob
    }
}

/// Routes are compared by template, which is unique in [`ROUTES`]
/// (function pointers have no meaningful equality).
impl PartialEq for Route {
    fn eq(&self, other: &Self) -> bool {
        self.template == other.template
    }
}

impl Eq for Route {}

/// The text of a template segment before its first hole and after its
/// last, or `None` for a segment without holes. Every instance of a
/// holed segment starts with the one and ends with the other; the
/// resolver matches the segment as the glob `lead*trail`.
pub(crate) fn lead_trail(segment: &str) -> Option<(&str, &str)> {
    let (lead, holes) = segment.split_once('{')?;
    let trail = holes.rsplit_once('}').map_or("", |(_, trail)| trail);
    Some((lead, trail))
}

/// One [`Route`], its handler name and renderer taken from one
/// `module::function` path under [`crate::render`]. An exact route
/// omits its dimensions.
macro_rules! route {
    ($template:literal, [$d0:ident, $d1:ident], $module:ident::$func:ident, $deps:expr $(,)?) => {
        Route {
            template: $template,
            dims: [Dim::$d0, Dim::$d1],
            handler: concat!(stringify!($module), "::", stringify!($func)),
            render: render::$module::$func,
            deps: $deps,
        }
    };
    ($template:literal, $module:ident::$func:ident, $deps:expr $(,)?) => {
        route!($template, [One, One], $module::$func, $deps)
    };
}

/// Every channel of the modeled tree, exact templates before holed ones
/// (lookup is first-match-wins, so `/proc/self/status` shadows
/// `/proc/{0}/status`).
pub const ROUTES: &[Route] = &[
    // ---- exact /proc arms ----
    route!("/proc/cpuinfo", proc_basic::cpuinfo, dep::HW),
    route!(
        "/proc/meminfo",
        proc_basic::meminfo,
        dep::MEM | dep::PROCESS | dep::CGROUP,
    ),
    route!(
        "/proc/stat",
        proc_basic::stat,
        dep::CLOCK | dep::SCHED | dep::IRQ | dep::PROCESS,
    ),
    route!("/proc/uptime", proc_basic::uptime, dep::CLOCK | dep::SCHED),
    route!("/proc/version", proc_basic::version, 0),
    route!(
        "/proc/loadavg",
        proc_basic::loadavg,
        dep::SCHED | dep::PROCESS,
    ),
    route!("/proc/interrupts", proc_irq::interrupts, dep::IRQ),
    route!("/proc/softirqs", proc_irq::softirqs, dep::IRQ),
    route!("/proc/schedstat", proc_sched::schedstat, dep::SCHED),
    route!(
        "/proc/sched_debug",
        proc_sched::sched_debug,
        dep::CLOCK | dep::SCHED | dep::PROCESS,
    ),
    route!(
        "/proc/timer_list",
        proc_sched::timer_list,
        dep::CLOCK | dep::TIMERS,
    ),
    route!("/proc/locks", proc_sched::locks, dep::FS),
    route!("/proc/modules", proc_misc::modules, 0),
    route!("/proc/zoneinfo", proc_misc::zoneinfo, dep::MEM),
    route!("/proc/diskstats", proc_misc::diskstats, dep::STATS),
    route!(
        "/proc/sys/fs/dentry-state",
        proc_kernel::dentry_state,
        dep::FS,
    ),
    route!("/proc/sys/fs/inode-nr", proc_kernel::inode_nr, dep::FS),
    route!("/proc/sys/fs/file-nr", proc_kernel::file_nr, dep::FS),
    route!(
        "/proc/sys/kernel/random/boot_id",
        proc_kernel::boot_id,
        dep::FS,
    ),
    route!(
        "/proc/sys/kernel/random/entropy_avail",
        proc_kernel::entropy_avail,
        dep::FS,
    ),
    route!(
        "/proc/sys/kernel/random/uuid",
        proc_kernel::uuid,
        dep::CLOCK | dep::FS,
    ),
    route!("/proc/sys/kernel/hostname", proc_kernel::hostname, dep::NS),
    route!("/proc/sys/kernel/osrelease", proc_kernel::osrelease, 0),
    route!("/proc/self/status", proc_pid::self_status, dep::NS),
    route!(
        "/proc/self/cgroup",
        proc_pid::self_cgroup,
        dep::NS | dep::CGROUP,
    ),
    route!(
        "/proc/net/dev",
        proc_pid::net_dev,
        dep::CLOCK | dep::NET | dep::NS,
    ),
    route!("/proc/mounts", proc_pid::mounts, dep::NS),
    route!(
        "/proc/net/snmp",
        proc_pid::net_snmp,
        // Synthetic counters: scale with uptime and salt on the net
        // namespace *id* — no `k.net()` device state reaches the bytes.
        dep::CLOCK | dep::NS,
    ),
    route!(
        "/proc/net/tcp",
        proc_pid::net_tcp,
        // Rows are derived from the visible process table (ports hash
        // the pid); no `k.net()` device state reaches the bytes.
        dep::NS | dep::PROCESS,
    ),
    route!("/proc/sys/kernel/pid_max", proc_kernel::pid_max, 0),
    route!(
        "/proc/sys/kernel/threads-max",
        proc_kernel::threads_max,
        dep::MEM,
    ),
    route!(
        "/proc/sys/vm/overcommit_memory",
        proc_kernel::overcommit_memory,
        0,
    ),
    route!("/proc/sys/vm/swappiness", proc_kernel::swappiness, 0),
    route!("/proc/vmstat", proc_vm::vmstat, dep::MEM),
    route!(
        "/proc/slabinfo",
        proc_vm::slabinfo,
        dep::MEM | dep::FS | dep::PROCESS,
    ),
    route!("/proc/buddyinfo", proc_vm::buddyinfo, dep::MEM),
    route!("/proc/swaps", proc_vm::swaps, dep::MEM),
    route!("/proc/partitions", proc_vm::partitions, 0),
    route!("/proc/filesystems", proc_vm::filesystems, 0),
    route!("/proc/cgroups", proc_vm::cgroups, dep::CGROUP),
    // ---- exact /sys arms ----
    route!("/sys/devices/system/cpu/online", sys_power::cpu_online, 0),
    route!(
        "/sys/fs/cgroup/net_prio/net_prio.ifpriomap",
        sys_cgroup::ifpriomap,
        dep::NET | dep::CGROUP,
    ),
    route!(
        "/sys/fs/cgroup/net_prio/net_prio.prioidx",
        sys_cgroup::prioidx,
        dep::CGROUP,
    ),
    route!(
        "/sys/fs/cgroup/cpuacct/cpuacct.usage",
        sys_cgroup::cpuacct_usage,
        dep::CGROUP,
    ),
    route!(
        "/sys/fs/cgroup/cpuacct/cpuacct.usage_percpu",
        sys_cgroup::cpuacct_usage_percpu,
        dep::CGROUP,
    ),
    route!(
        "/sys/fs/cgroup/memory/memory.usage_in_bytes",
        sys_cgroup::memory_usage,
        dep::CGROUP,
    ),
    route!(
        "/sys/fs/cgroup/memory/memory.max_usage_in_bytes",
        sys_cgroup::memory_max_usage,
        dep::CGROUP,
    ),
    // ---- parameterized arms (holed templates) ----
    route!(
        "/proc/sys/kernel/sched_domain/cpu{0}/domain0/max_newidle_lb_cost",
        [Cpu, One],
        proc_kernel::max_newidle_lb_cost,
        dep::SCHED,
    ),
    route!(
        "/proc/fs/ext4/{0}/mb_groups",
        [Ext4Partition, One],
        proc_misc::mb_groups,
        dep::FS,
    ),
    route!(
        "/proc/{0}/status",
        [Pid, One],
        proc_pid::pid_status,
        dep::NS | dep::PROCESS,
    ),
    route!(
        "/proc/{0}/stat",
        [Pid, One],
        proc_pid::pid_stat,
        dep::NS | dep::PROCESS,
    ),
    route!(
        "/proc/{0}/cmdline",
        [Pid, One],
        proc_pid::pid_cmdline,
        dep::NS | dep::PROCESS,
    ),
    route!(
        "/proc/{0}/io",
        [Pid, One],
        proc_pid::pid_io,
        dep::NS | dep::PROCESS,
    ),
    route!(
        "/proc/{0}/sched",
        [Pid, One],
        proc_pid::pid_sched,
        // cpu_time/vruntime only move under mutations that bump
        // PROCESS; an idle clock advance leaves the bytes unchanged.
        dep::NS | dep::PROCESS,
    ),
    route!(
        "/sys/block/{0}/stat",
        [Disk, One],
        sys_power::block_stat,
        dep::STATS,
    ),
    route!(
        "/sys/class/thermal/thermal_zone{0}/temp",
        [ThermalZone, One],
        sys_power::thermal_zone_temp,
        dep::HW,
    ),
    route!(
        "/sys/devices/system/cpu/cpu{0}/cpufreq/scaling_cur_freq",
        [Cpu, One],
        sys_power::cpufreq_cur,
        dep::HW,
    ),
    route!(
        "/sys/devices/system/cpu/cpu{0}/cpufreq/cpuinfo_max_freq",
        [Cpu, One],
        sys_power::cpufreq_max,
        dep::HW,
    ),
    route!(
        "/sys/devices/system/cpu/cpu{0}/cpuidle/state{1}/name",
        [Cpu, IdleState],
        sys_power::cpuidle_name,
        dep::HW,
    ),
    route!(
        "/sys/devices/system/cpu/cpu{0}/cpuidle/state{1}/usage",
        [Cpu, IdleState],
        sys_power::cpuidle_usage,
        dep::HW,
    ),
    route!(
        "/sys/devices/system/cpu/cpu{0}/cpuidle/state{1}/time",
        [Cpu, IdleState],
        sys_power::cpuidle_time,
        dep::HW,
    ),
    route!(
        "/sys/class/powercap/intel-rapl:{0}/name",
        [RaplPackage, One],
        sys_power::rapl_name,
        dep::HW,
    ),
    route!(
        "/sys/class/powercap/intel-rapl:{0}/energy_uj",
        [RaplPackage, One],
        sys_power::rapl_package_energy,
        dep::HW | dep::CGROUP,
    ),
    route!(
        "/sys/class/powercap/intel-rapl:{0}/max_energy_range_uj",
        [RaplPackage, One],
        sys_power::rapl_max_range,
        dep::HW,
    ),
    route!(
        "/sys/class/powercap/intel-rapl:{0}/intel-rapl:{0}:{1}/name",
        [RaplPackage, RaplDomain],
        sys_power::rapl_subdomain_name,
        dep::HW,
    ),
    route!(
        "/sys/class/powercap/intel-rapl:{0}/intel-rapl:{0}:{1}/energy_uj",
        [RaplPackage, RaplDomain],
        sys_power::rapl_subdomain_energy,
        dep::HW | dep::CGROUP,
    ),
    route!(
        "/sys/devices/platform/coretemp.{0}/hwmon/hwmon{0}/temp{1}_input",
        [CoretempPackage, CoretempSensor],
        sys_power::coretemp,
        dep::HW,
    ),
    route!(
        "/sys/devices/system/node/node{0}/numastat",
        [NumaNode, One],
        sys_node::numastat,
        dep::MEM,
    ),
    route!(
        "/sys/devices/system/node/node{0}/vmstat",
        [NumaNode, One],
        sys_node::vmstat,
        dep::MEM,
    ),
    route!(
        "/sys/devices/system/node/node{0}/meminfo",
        [NumaNode, One],
        sys_node::node_meminfo,
        dep::MEM,
    ),
];

/// Most `/`-separated segments in a route template; deeper paths route
/// nowhere.
const MAX_SEGMENTS: usize = 8;

/// Most holed segments in one route template.
pub(crate) const MAX_CAPTURES: usize = 3;

/// One segment of a route template, split once.
#[derive(Debug)]
enum Segment {
    /// Matches itself only.
    Literal(&'static str),
    /// A holed segment, matched as the glob `prefix*suffix` (its
    /// [`lead_trail`]) by [`glob_match`](crate::glob_match)'s in-segment
    /// rule.
    Wild {
        prefix: &'static str,
        suffix: &'static str,
    },
}

impl Segment {
    fn parse(segment: &'static str) -> Self {
        match lead_trail(segment) {
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

    /// The run of `seg` this segment's holes cover, or `""` for a literal;
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

/// A route with its template split into segments.
type Compiled = (&'static Route, Vec<Segment>);

/// One piece of a route template, compiled once for the enumerator,
/// which writes a path by walking its template's pieces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Piece {
    /// Literal text.
    Text(&'static str),
    /// A hole: the value that fills it (`0` for `{0}`, `1` for `{1}`),
    /// the capture slot of its segment (the segment's place among the
    /// template's holed segments), and whether an earlier hole of the
    /// same segment opened that capture, so this one only moves its end.
    Hole {
        value: usize,
        capture: usize,
        extends: bool,
    },
}

/// `template` as pieces: literal runs and holes, each hole tagged with
/// the capture it opens or extends. Split at both braces, a template
/// alternates literal text and hole names, literal text first; a hole
/// extends its predecessor's capture unless a `/` lies between them.
fn compile(template: &'static str) -> Vec<Piece> {
    let mut pieces = Vec::new();
    let mut holed = 0;
    let mut same_segment = false;
    let mut parts = template.split(['{', '}']);
    while let Some(text) = parts.next() {
        if !text.is_empty() {
            pieces.push(Piece::Text(text));
        }
        same_segment &= !text.contains('/');
        if let Some(hole) = parts.next() {
            holed += usize::from(!same_segment);
            pieces.push(Piece::Hole {
                value: usize::from(hole == "1"),
                capture: holed - 1,
                extends: same_segment,
            });
            same_segment = true;
        }
    }
    pieces
}

/// A path's segment count and first two segments (`""` past its end).
type Key = (usize, &'static str, &'static str);

/// [`ROUTES`] split into segments, and indexed by the first two of them.
#[derive(Debug)]
struct Index {
    /// Every route, in table order.
    routes: Vec<Compiled>,
    /// Every route's template as [`Piece`]s, in table order.
    templates: Vec<Vec<Piece>>,
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
                    .template
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
            templates: ROUTES.iter().map(|r| compile(r.template)).collect(),
            routes,
            keyed,
            wild,
        }
    })
}

/// Every route's template compiled to [`Piece`]s, in [`ROUTES`] order.
pub(crate) fn templates() -> &'static [Vec<Piece>] {
    &index().templates
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

/// The text each holed segment of `pattern` matched in `segs`, in
/// order, if every segment matches. Segments are checked last first: the
/// file name tells most routes of one directory apart.
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

/// The route serving `path` and the text each holed segment of its
/// template matched, in order (unused slots are `""`). First match wins in table
/// order, so the exact `/proc/self/*` routes shadow the pid routes. Paths
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
/// can differ between `old` and `new` — the subsystem epochs a *live*
/// policy swap must dirty so every epoch-sum consumer re-reads what the
/// swap can have changed. Each route is judged whole from the two
/// policies' verdicts on its template: it is dirtied when they differ
/// or when either may treat the route's instances unalike, which
/// over-dirties at worst.
pub fn changed_mask_deps(old: &MaskPolicy, new: &MaskPolicy) -> u32 {
    ROUTES
        .iter()
        .zip(old.route_reach().iter().zip(new.route_reach()))
        .filter(|(_, (a, b))| a != b || **a == Reach::Maybe || **b == Reach::Maybe)
        .fold(0, |deps, (r, _)| deps | r.deps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{glob_match, MaskPolicy, View};
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
    fn every_route_lists_instances_that_route_back_to_it_and_render() {
        let (k, container) = kernel();
        let fs = PseudoFs::new();
        let mut listed = vec![0usize; ROUTES.len()];
        for view in [View::host(), container] {
            let mut visit = |r: &'static Route, path: &str, caps: &[&str]| {
                // The exact `/proc/self/*` routes shadow no listed pid
                // path, and the enumerator's captures are the resolver's.
                let resolved = resolve(path).map(|(route, caps)| (route, caps.to_vec()));
                assert_eq!(
                    resolved,
                    Some((r, caps.to_vec())),
                    "{path} from {}",
                    r.template
                );
                fs.read(&k, &view, path)
                    .unwrap_or_else(|e| panic!("listed path {path} unreadable: {e}"));
                if let Some(i) = ROUTES.iter().position(|x| x == r) {
                    listed[i] += 1;
                }
            };
            crate::fs::enumerate(&k, &view, Some(&mut visit));
        }
        for (r, n) in ROUTES.iter().zip(listed) {
            assert!(n > 0, "{} lists no instance on the testbed", r.template);
        }
    }

    #[test]
    fn handlers_and_templates_are_unique() {
        let mut handlers: Vec<&str> = ROUTES.iter().map(|r| r.handler).collect();
        handlers.sort_unstable();
        let n = handlers.len();
        handlers.dedup();
        assert_eq!(n, handlers.len(), "duplicate handler entries");
        let mut templates: Vec<&str> = ROUTES.iter().map(|r| r.template).collect();
        templates.sort_unstable();
        let n = templates.len();
        templates.dedup();
        assert_eq!(n, templates.len(), "duplicate templates");
    }

    #[test]
    fn a_compiled_template_tags_each_hole_with_its_segments_capture() {
        let hole = |value, capture, extends| Piece::Hole {
            value,
            capture,
            extends,
        };
        assert_eq!(
            compile("/sys/class/powercap/intel-rapl:{0}/intel-rapl:{0}:{1}/name"),
            [
                Piece::Text("/sys/class/powercap/intel-rapl:"),
                hole(0, 0, false),
                Piece::Text("/intel-rapl:"),
                hole(0, 1, false),
                Piece::Text(":"),
                hole(1, 1, true),
                Piece::Text("/name"),
            ]
        );
        assert_eq!(compile("/proc/stat"), [Piece::Text("/proc/stat")]);
        // A lone `/` between two holes is enough to end the first
        // hole's capture and open a second.
        assert_eq!(
            compile("/a{0}/{1}b"),
            [
                Piece::Text("/a"),
                hole(0, 0, false),
                Piece::Text("/"),
                hole(1, 1, false),
                Piece::Text("b"),
            ]
        );
        // Every route's pieces spell its template back.
        for (r, pieces) in ROUTES.iter().zip(templates()) {
            let spelled: String = pieces
                .iter()
                .map(|p| match *p {
                    Piece::Text(t) => t.to_string(),
                    Piece::Hole { value, .. } => format!("{{{value}}}"),
                })
                .collect();
            assert_eq!(spelled, r.template);
        }
    }

    #[test]
    fn templates_declare_their_holes_within_the_resolver_limits() {
        for r in ROUTES {
            let t = r.template;
            for (i, dim) in r.dims.iter().enumerate() {
                assert_eq!(
                    t.contains(&format!("{{{i}}}")),
                    *dim != Dim::One,
                    "{t}: hole {{{i}}} against {dim:?}"
                );
            }
            let bare = t.replace("{0}", "").replace("{1}", "");
            assert!(
                !bare.contains(['{', '}', '*']),
                "{t} has a stray hole or glob"
            );
            let segs: Vec<&str> = t.trim_start_matches('/').split('/').collect();
            assert!(t.starts_with('/'), "{t} is not absolute");
            assert!(segs.len() <= MAX_SEGMENTS, "{t} is too deep");
            let holed = segs.iter().filter(|s| s.contains('{')).count();
            assert!(holed <= MAX_CAPTURES, "{t} has too many holed segments");
            assert!(!segs.contains(&""), "{t} has an empty segment");
        }
    }

    #[test]
    fn patterns_read_each_holed_segment_as_one_star() {
        let pattern = |t: &str| ROUTES.iter().find(|r| r.template == t).map(Route::pattern);
        let cases = [
            ("/proc/cpuinfo", "/proc/cpuinfo"),
            ("/proc/{0}/status", "/proc/*/status"),
            (
                "/sys/class/powercap/intel-rapl:{0}/intel-rapl:{0}:{1}/energy_uj",
                "/sys/class/powercap/intel-rapl:*/intel-rapl:*/energy_uj",
            ),
            (
                "/sys/devices/platform/coretemp.{0}/hwmon/hwmon{0}/temp{1}_input",
                "/sys/devices/platform/coretemp.*/hwmon/hwmon*/temp*_input",
            ),
        ];
        for (template, glob) in cases {
            assert_eq!(pattern(template).as_deref(), Some(glob));
        }
    }

    #[test]
    fn a_swap_dirties_every_route_whose_instance_it_hides() {
        let none = MaskPolicy::none();
        for (path, deps) in [
            (
                "/sys/devices/system/cpu/cpu1/cpufreq/scaling_cur_freq",
                dep::HW,
            ),
            (
                "/sys/class/powercap/intel-rapl:0/intel-rapl:0:1/energy_uj",
                dep::HW | dep::CGROUP,
            ),
            ("/proc/2/status", dep::PROCESS | dep::NS),
        ] {
            let denied = MaskPolicy::none().deny(path);
            assert_eq!(changed_mask_deps(&none, &denied), deps, "{path}");
            assert_eq!(changed_mask_deps(&denied, &none), deps, "{path}");
        }
        // A rule that decides a route whole dirties that route's deps,
        // and a swap between equal policies dirties nothing.
        let stat = MaskPolicy::none().deny("/proc/stat");
        let stat_deps = route_for("/proc/stat").map_or(0, |r| r.deps);
        assert_eq!(changed_mask_deps(&none, &stat), stat_deps);
        assert_eq!(changed_mask_deps(&stat, &stat.clone()), 0);
        assert_eq!(changed_mask_deps(&none, &none), 0);
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
        let mut patterns: Vec<String> = ROUTES.iter().map(Route::pattern).collect();
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

    /// Every path the router meets: both views' listings, generated pid
    /// and RAPL trees, unknown files, and the edge cases.
    fn path_corpus() -> Vec<String> {
        let (k, container) = kernel();
        let fs = PseudoFs::new();
        let mut paths = Vec::new();
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
                .find(|r| crate::view::glob_match_reference(&r.pattern(), path));
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
                let name = r.template.rsplit('/').next().unwrap_or_default();
                out.push(format!("{parent}/{}", name.replace(['{', '}'], "")));
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
        // The testbed host's listing adds the paths the CC1 mask hides.
        let (k, _) = kernel();
        let mut paths = PseudoFs::new().list(&k, &View::host());
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
            let fast = resolve(path).map(|(r, caps)| (r.template, caps));
            let plain = resolve_reference(path).map(|(r, caps)| (r.template, caps));
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
                r.template
            );
        }
    }
}
