//! The channel registry: a machine-readable export of every dispatch arm.
//!
//! [`PseudoFs::read`](crate::PseudoFs::read) routes paths to handler
//! functions through a `match`; that control flow is opaque to tooling.
//! This module mirrors it as data: one [`Route`] per dispatch arm, naming
//! the glob it serves, a concrete probe path, the handler function
//! (plus the buffer-writing fast path, when one exists) as a
//! `module::function` string relative to [`crate::render`], and the
//! subsystem dependency mask the render cache keys freshness on.
//!
//! Consumers:
//!
//! * the `leakcheck` static auditor resolves each route to its handler's
//!   source and classifies the channel's namespace behavior, then
//!   cross-checks this table against the parsed `fs.rs` dispatch arms so
//!   the two can never drift silently — and lints that each route's
//!   declared `deps` cover every kernel accessor its handler reads;
//! * the pseudofs render cache tags each cached buffer with its route's
//!   `deps` so a read is served from cache only while those subsystem
//!   epochs are unchanged;
//! * tests walk [`ROUTES`] to assert every probe renders and every listed
//!   path is routable.

use simkernel::dep;

use crate::view::glob_match;

/// One path-dispatch arm of [`PseudoFs`](crate::PseudoFs), as data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Glob over absolute paths served by this arm, in
    /// [`glob_match`] syntax.
    pub pattern: &'static str,
    /// A concrete path matching `pattern` that renders on the default
    /// testbed machine (pid routes assume a container whose init is
    /// visible as pid 1).
    pub probe: &'static str,
    /// Handler function as `module::function`, relative to
    /// [`crate::render`].
    pub handler: &'static str,
    /// The hand-written buffer-writing fast-path renderer used by
    /// [`PseudoFs::read_into`](crate::PseudoFs::read_into), if one exists.
    pub fast_into: Option<&'static str>,
    /// OR of [`simkernel::dep`] bits naming every kernel subsystem the
    /// handler reads. Over-declaring is sound (costs a re-render);
    /// under-declaring would serve stale bytes and is what the leakcheck
    /// cache-coherence lint guards against.
    pub deps: u32,
}

const fn route(
    pattern: &'static str,
    probe: &'static str,
    handler: &'static str,
    deps: u32,
) -> Route {
    Route {
        pattern,
        probe,
        handler,
        fast_into: None,
        deps,
    }
}

const fn fast(
    pattern: &'static str,
    probe: &'static str,
    handler: &'static str,
    into: &'static str,
    deps: u32,
) -> Route {
    Route {
        pattern,
        probe,
        handler,
        fast_into: Some(into),
        deps,
    }
}

/// Every dispatch arm of the modeled tree, exact patterns before globs
/// (lookup is first-match-wins, mirroring the `match` order in `fs.rs`).
pub const ROUTES: &[Route] = &[
    // ---- exact /proc arms ----
    route(
        "/proc/cpuinfo",
        "/proc/cpuinfo",
        "proc_basic::cpuinfo",
        dep::HW,
    ),
    fast(
        "/proc/meminfo",
        "/proc/meminfo",
        "proc_basic::meminfo",
        "proc_basic::meminfo_into",
        dep::MEM | dep::PROCESS | dep::CGROUP,
    ),
    fast(
        "/proc/stat",
        "/proc/stat",
        "proc_basic::stat",
        "proc_basic::stat_into",
        dep::CLOCK | dep::SCHED | dep::IRQ | dep::PROCESS,
    ),
    fast(
        "/proc/uptime",
        "/proc/uptime",
        "proc_basic::uptime",
        "proc_basic::uptime_into",
        dep::CLOCK | dep::SCHED,
    ),
    route("/proc/version", "/proc/version", "proc_basic::version", 0),
    fast(
        "/proc/loadavg",
        "/proc/loadavg",
        "proc_basic::loadavg",
        "proc_basic::loadavg_into",
        dep::SCHED | dep::PROCESS,
    ),
    fast(
        "/proc/interrupts",
        "/proc/interrupts",
        "proc_irq::interrupts",
        "proc_irq::interrupts_into",
        dep::IRQ,
    ),
    fast(
        "/proc/softirqs",
        "/proc/softirqs",
        "proc_irq::softirqs",
        "proc_irq::softirqs_into",
        dep::IRQ,
    ),
    fast(
        "/proc/schedstat",
        "/proc/schedstat",
        "proc_sched::schedstat",
        "proc_sched::schedstat_into",
        dep::SCHED,
    ),
    fast(
        "/proc/sched_debug",
        "/proc/sched_debug",
        "proc_sched::sched_debug",
        "proc_sched::sched_debug_into",
        dep::CLOCK | dep::SCHED | dep::PROCESS,
    ),
    fast(
        "/proc/timer_list",
        "/proc/timer_list",
        "proc_sched::timer_list",
        "proc_sched::timer_list_into",
        dep::CLOCK | dep::TIMERS,
    ),
    route("/proc/locks", "/proc/locks", "proc_sched::locks", dep::FS),
    route("/proc/modules", "/proc/modules", "proc_misc::modules", 0),
    route(
        "/proc/zoneinfo",
        "/proc/zoneinfo",
        "proc_misc::zoneinfo",
        dep::MEM,
    ),
    route(
        "/proc/diskstats",
        "/proc/diskstats",
        "proc_misc::diskstats",
        dep::STATS,
    ),
    route(
        "/proc/sys/fs/dentry-state",
        "/proc/sys/fs/dentry-state",
        "proc_kernel::dentry_state",
        dep::FS,
    ),
    route(
        "/proc/sys/fs/inode-nr",
        "/proc/sys/fs/inode-nr",
        "proc_kernel::inode_nr",
        dep::FS,
    ),
    route(
        "/proc/sys/fs/file-nr",
        "/proc/sys/fs/file-nr",
        "proc_kernel::file_nr",
        dep::FS,
    ),
    route(
        "/proc/sys/kernel/random/boot_id",
        "/proc/sys/kernel/random/boot_id",
        "proc_kernel::boot_id",
        dep::FS,
    ),
    route(
        "/proc/sys/kernel/random/entropy_avail",
        "/proc/sys/kernel/random/entropy_avail",
        "proc_kernel::entropy_avail",
        dep::FS,
    ),
    route(
        "/proc/sys/kernel/random/uuid",
        "/proc/sys/kernel/random/uuid",
        "proc_kernel::uuid",
        dep::CLOCK | dep::FS,
    ),
    route(
        "/proc/sys/kernel/hostname",
        "/proc/sys/kernel/hostname",
        "proc_kernel::hostname",
        dep::NS,
    ),
    route(
        "/proc/sys/kernel/osrelease",
        "/proc/sys/kernel/osrelease",
        "proc_kernel::osrelease",
        0,
    ),
    route(
        "/proc/self/status",
        "/proc/self/status",
        "proc_pid::self_status",
        dep::NS,
    ),
    route(
        "/proc/self/cgroup",
        "/proc/self/cgroup",
        "proc_pid::self_cgroup",
        dep::NS | dep::CGROUP,
    ),
    route(
        "/proc/net/dev",
        "/proc/net/dev",
        "proc_pid::net_dev",
        dep::CLOCK | dep::NET | dep::NS,
    ),
    route("/proc/mounts", "/proc/mounts", "proc_pid::mounts", dep::NS),
    route(
        "/proc/net/snmp",
        "/proc/net/snmp",
        "proc_pid::net_snmp",
        // Synthetic counters: scale with uptime and salt on the net
        // namespace *id* — no `k.net()` device state reaches the bytes.
        dep::CLOCK | dep::NS,
    ),
    route(
        "/proc/net/tcp",
        "/proc/net/tcp",
        "proc_pid::net_tcp",
        // Rows are derived from the visible process table (ports hash
        // the pid); no `k.net()` device state reaches the bytes.
        dep::NS | dep::PROCESS,
    ),
    route(
        "/proc/sys/kernel/pid_max",
        "/proc/sys/kernel/pid_max",
        "proc_kernel::pid_max",
        0,
    ),
    route(
        "/proc/sys/kernel/threads-max",
        "/proc/sys/kernel/threads-max",
        "proc_kernel::threads_max",
        dep::MEM,
    ),
    route(
        "/proc/sys/vm/overcommit_memory",
        "/proc/sys/vm/overcommit_memory",
        "proc_kernel::overcommit_memory",
        0,
    ),
    route(
        "/proc/sys/vm/swappiness",
        "/proc/sys/vm/swappiness",
        "proc_kernel::swappiness",
        0,
    ),
    route("/proc/vmstat", "/proc/vmstat", "proc_vm::vmstat", dep::MEM),
    route(
        "/proc/slabinfo",
        "/proc/slabinfo",
        "proc_vm::slabinfo",
        dep::MEM | dep::FS | dep::PROCESS,
    ),
    route(
        "/proc/buddyinfo",
        "/proc/buddyinfo",
        "proc_vm::buddyinfo",
        dep::MEM,
    ),
    route("/proc/swaps", "/proc/swaps", "proc_vm::swaps", dep::MEM),
    route(
        "/proc/partitions",
        "/proc/partitions",
        "proc_vm::partitions",
        0,
    ),
    route(
        "/proc/filesystems",
        "/proc/filesystems",
        "proc_vm::filesystems",
        0,
    ),
    route(
        "/proc/cgroups",
        "/proc/cgroups",
        "proc_vm::cgroups",
        dep::CGROUP,
    ),
    // ---- exact /sys arms ----
    route(
        "/sys/devices/system/cpu/online",
        "/sys/devices/system/cpu/online",
        "sys_power::cpu_online",
        0,
    ),
    route(
        "/sys/fs/cgroup/net_prio/net_prio.ifpriomap",
        "/sys/fs/cgroup/net_prio/net_prio.ifpriomap",
        "sys_cgroup::ifpriomap",
        dep::NET | dep::CGROUP,
    ),
    route(
        "/sys/fs/cgroup/net_prio/net_prio.prioidx",
        "/sys/fs/cgroup/net_prio/net_prio.prioidx",
        "sys_cgroup::prioidx",
        dep::CGROUP,
    ),
    route(
        "/sys/fs/cgroup/cpuacct/cpuacct.usage",
        "/sys/fs/cgroup/cpuacct/cpuacct.usage",
        "sys_cgroup::cpuacct_usage",
        dep::CGROUP,
    ),
    route(
        "/sys/fs/cgroup/cpuacct/cpuacct.usage_percpu",
        "/sys/fs/cgroup/cpuacct/cpuacct.usage_percpu",
        "sys_cgroup::cpuacct_usage_percpu",
        dep::CGROUP,
    ),
    route(
        "/sys/fs/cgroup/memory/memory.usage_in_bytes",
        "/sys/fs/cgroup/memory/memory.usage_in_bytes",
        "sys_cgroup::memory_usage",
        dep::CGROUP,
    ),
    route(
        "/sys/fs/cgroup/memory/memory.max_usage_in_bytes",
        "/sys/fs/cgroup/memory/memory.max_usage_in_bytes",
        "sys_cgroup::memory_max_usage",
        dep::CGROUP,
    ),
    // ---- parameterized arms (segment globs) ----
    route(
        "/proc/sys/kernel/sched_domain/cpu*/domain0/max_newidle_lb_cost",
        "/proc/sys/kernel/sched_domain/cpu0/domain0/max_newidle_lb_cost",
        "proc_kernel::max_newidle_lb_cost",
        dep::SCHED,
    ),
    route(
        "/proc/fs/ext4/*/mb_groups",
        "/proc/fs/ext4/sda1/mb_groups",
        "proc_misc::mb_groups",
        dep::FS,
    ),
    route(
        "/proc/*/status",
        "/proc/1/status",
        "proc_pid::pid_status",
        dep::NS | dep::PROCESS,
    ),
    route(
        "/proc/*/stat",
        "/proc/1/stat",
        "proc_pid::pid_stat",
        dep::NS | dep::PROCESS,
    ),
    route(
        "/proc/*/cmdline",
        "/proc/1/cmdline",
        "proc_pid::pid_cmdline",
        dep::NS | dep::PROCESS,
    ),
    route(
        "/proc/*/io",
        "/proc/1/io",
        "proc_pid::pid_io",
        dep::NS | dep::PROCESS,
    ),
    route(
        "/proc/*/sched",
        "/proc/1/sched",
        "proc_pid::pid_sched",
        // cpu_time/vruntime only move under mutations that bump
        // PROCESS; an idle clock advance leaves the bytes unchanged.
        dep::NS | dep::PROCESS,
    ),
    route(
        "/sys/block/*/stat",
        "/sys/block/sda/stat",
        "sys_power::block_stat",
        dep::STATS,
    ),
    route(
        "/sys/class/thermal/thermal_zone*/temp",
        "/sys/class/thermal/thermal_zone0/temp",
        "sys_power::thermal_zone_temp",
        dep::HW,
    ),
    route(
        "/sys/devices/system/cpu/cpu*/cpufreq/scaling_cur_freq",
        "/sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq",
        "sys_power::cpufreq_cur",
        dep::HW,
    ),
    route(
        "/sys/devices/system/cpu/cpu*/cpufreq/cpuinfo_max_freq",
        "/sys/devices/system/cpu/cpu0/cpufreq/cpuinfo_max_freq",
        "sys_power::cpufreq_max",
        dep::HW,
    ),
    route(
        "/sys/devices/system/cpu/cpu*/cpuidle/state*/name",
        "/sys/devices/system/cpu/cpu0/cpuidle/state0/name",
        "sys_power::cpuidle_name",
        dep::HW,
    ),
    route(
        "/sys/devices/system/cpu/cpu*/cpuidle/state*/usage",
        "/sys/devices/system/cpu/cpu0/cpuidle/state0/usage",
        "sys_power::cpuidle_usage",
        dep::HW,
    ),
    route(
        "/sys/devices/system/cpu/cpu*/cpuidle/state*/time",
        "/sys/devices/system/cpu/cpu0/cpuidle/state0/time",
        "sys_power::cpuidle_time",
        dep::HW,
    ),
    route(
        "/sys/class/powercap/intel-rapl:*/name",
        "/sys/class/powercap/intel-rapl:0/name",
        "sys_power::rapl_name",
        dep::HW,
    ),
    route(
        "/sys/class/powercap/intel-rapl:*/energy_uj",
        "/sys/class/powercap/intel-rapl:0/energy_uj",
        "sys_power::rapl_package_energy",
        dep::HW,
    ),
    route(
        "/sys/class/powercap/intel-rapl:*/max_energy_range_uj",
        "/sys/class/powercap/intel-rapl:0/max_energy_range_uj",
        "sys_power::rapl_max_range",
        dep::HW,
    ),
    route(
        "/sys/class/powercap/intel-rapl:*/intel-rapl:*/name",
        "/sys/class/powercap/intel-rapl:0/intel-rapl:0:0/name",
        "sys_power::rapl_subdomain_name",
        dep::HW,
    ),
    route(
        "/sys/class/powercap/intel-rapl:*/intel-rapl:*/energy_uj",
        "/sys/class/powercap/intel-rapl:0/intel-rapl:0:0/energy_uj",
        "sys_power::rapl_subdomain_energy",
        dep::HW,
    ),
    route(
        "/sys/devices/platform/coretemp.*/hwmon/hwmon*/temp*_input",
        "/sys/devices/platform/coretemp.0/hwmon/hwmon0/temp1_input",
        "sys_power::coretemp",
        dep::HW,
    ),
    route(
        "/sys/devices/system/node/node*/numastat",
        "/sys/devices/system/node/node0/numastat",
        "sys_node::numastat",
        dep::MEM,
    ),
    route(
        "/sys/devices/system/node/node*/vmstat",
        "/sys/devices/system/node/node0/vmstat",
        "sys_node::vmstat",
        dep::MEM,
    ),
    route(
        "/sys/devices/system/node/node*/meminfo",
        "/sys/devices/system/node/node0/meminfo",
        "sys_node::node_meminfo",
        dep::MEM,
    ),
];

/// The route serving `path`, if any (first match wins, mirroring
/// dispatch order: exact arms shadow the pid globs for `/proc/self/*`).
///
/// The scan keeps that order but globs only the routes whose literal
/// prefix the path starts with: every segment before the one holding a
/// pattern's first `*` must equal its path segment, so a route failing
/// the prefix test cannot match, and most of the table is rejected by
/// one byte compare instead of a segment walk.
pub fn route_for(path: &str) -> Option<&'static Route> {
    let rel = path.trim_start_matches('/');
    ROUTES
        .iter()
        .find(|r| rel.starts_with(literal_prefix(r.pattern)) && glob_match(r.pattern, path))
}

/// The segment-aligned literal head of a glob, leading slashes ignored
/// as [`glob_match`] ignores them: the whole pattern when it has no `*`,
/// otherwise everything before the last `/` that precedes the first `*`.
fn literal_prefix(pattern: &str) -> &str {
    let rel = pattern.trim_start_matches('/');
    match rel.find('*') {
        None => rel,
        Some(star) => &rel[..rel[..star].rfind('/').unwrap_or(0)],
    }
}

/// The OR of the dependency masks of every route whose mask treatment
/// differs between `old` and `new` — the subsystem epochs a *live*
/// policy swap must dirty so the render cache revalidates everything the
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
    use crate::view::View;
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
    fn fast_paths_cover_exactly_the_hand_written_into_renderers() {
        let fast: Vec<&str> = ROUTES.iter().filter_map(|r| r.fast_into).collect();
        assert_eq!(fast.len(), 9, "nine hand-written _into fast paths");
        for f in &fast {
            assert!(f.ends_with("_into"), "{f}");
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
