//! The read path and tree enumeration.

use std::fmt::{self, Write as _};

use simkernel::{dep, Kernel};

use crate::error::FsError;
use crate::faultfx;
use crate::registry;
use crate::render::proc_pid;
use crate::view::{MaskAction, View};

/// Subsystems [`PseudoFs::list`] and [`PseudoFs::count`] consult:
/// hardware presence and package counts, ext4 partitions, visible pids,
/// and NUMA topology. Pid visibility is read through the namespace
/// registry, and every spawn or kill bumps NS, so the process-table bit
/// is not needed here.
pub const LIST_DEPS: u32 = dep::HW | dep::FS | dep::NS | dep::MEM;

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

/// The one enumeration behind [`PseudoFs::list`] and
/// [`PseudoFs::count`]: formats each candidate path into one reused
/// buffer, drops the ones the view's mask denies and hands the rest to
/// `visit`, in generation order. Its name is the `(list)` row's handler
/// in leakcheck's flow audit and committed report.
fn enumerate(k: &Kernel, view: &View, mut visit: impl FnMut(&str)) {
    let mut buf = String::with_capacity(96);
    let mut emit = |path: fmt::Arguments| {
        buf.clear();
        // Writing into a `String` cannot fail.
        let _ = buf.write_fmt(path);
        if view.mask_action(&buf) != Some(MaskAction::Deny) {
            visit(&buf);
        }
    };

    for r in registry::ROUTES.iter().filter(|r| !r.pattern.contains('*')) {
        emit(format_args!("{}", r.pattern));
    }
    let ncpus = k.config().cpus as usize;
    for c in 0..ncpus {
        emit(format_args!(
            "/proc/sys/kernel/sched_domain/cpu{c}/domain0/max_newidle_lb_cost"
        ));
        for s in 0..simkernel::hw::IDLE_STATE_NAMES.len() {
            for f in ["name", "usage", "time"] {
                emit(format_args!(
                    "/sys/devices/system/cpu/cpu{c}/cpuidle/state{s}/{f}"
                ));
            }
        }
        for f in ["scaling_cur_freq", "cpuinfo_max_freq"] {
            emit(format_args!("/sys/devices/system/cpu/cpu{c}/cpufreq/{f}"));
        }
    }

    for (disk, _) in &k.config().disks {
        emit(format_args!("/sys/block/{disk}/stat"));
    }
    if k.hw().has_coretemp() {
        emit(format_args!("/sys/class/thermal/thermal_zone0/temp"));
    }

    for (part, _) in k.fs().ext4_partitions() {
        emit(format_args!("/proc/fs/ext4/{part}/mb_groups"));
    }

    for (_, ns_pid) in proc_pid::visible_pids(k, view) {
        for f in ["status", "stat", "cmdline", "io", "sched"] {
            emit(format_args!("/proc/{ns_pid}/{f}"));
        }
    }

    if k.rapl().is_present() {
        for p in 0..k.rapl().package_count() {
            for f in ["name", "energy_uj", "max_energy_range_uj"] {
                emit(format_args!("/sys/class/powercap/intel-rapl:{p}/{f}"));
            }
            for d in 0..2 {
                for f in ["name", "energy_uj"] {
                    emit(format_args!(
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
                emit(format_args!(
                    "/sys/devices/platform/coretemp.{pkg}/hwmon/hwmon{pkg}/temp{t}_input"
                ));
            }
        }
    }

    for n in 0..k.mem().numa_nodes() as usize {
        for f in ["numastat", "vmstat", "meminfo"] {
            emit(format_args!("/sys/devices/system/node/node{n}/{f}"));
        }
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
    /// * [`FsError::NotFound`] for paths no [`Route`](crate::Route)
    ///   matches, absent hardware (no RAPL/DTS), or pids invisible to the
    ///   reader.
    /// * [`FsError::Io`] / [`FsError::Truncated`] when the kernel's
    ///   installed fault plan has an active window covering this path —
    ///   transient: the same read can succeed once the window passes.
    pub fn read(&self, k: &Kernel, view: &View, path: &str) -> Result<String, FsError> {
        let mut out = String::new();
        self.read_into(k, view, path, &mut out)?;
        Ok(out)
    }

    /// Reads `path` into `buf`, clearing it first and reusing its
    /// allocation. Scan loops that read thousands of files (the
    /// cross-validator's two-context walk, the Table II metric windows)
    /// use this to avoid a fresh `String` per read; renderers write
    /// straight into `buf`.
    ///
    /// This is the one read path: mask → fault → render. Every read
    /// renders from live kernel state, as procfs and sysfs handlers do.
    /// An injected fault error aborts before the render; distortion then
    /// applies to the rendered bytes.
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
        if view.mask_action(path) == Some(MaskAction::Deny) {
            note_denied(k, path);
            return Err(FsError::PermissionDenied(path.to_string()));
        }
        if let Some(e) = faultfx::injected_error(k, path) {
            return Err(e);
        }
        let rendered =
            registry::resolve(path).and_then(|(route, caps)| (route.render)(k, view, &caps, buf));
        if rendered.is_none() {
            buf.clear();
            return Err(FsError::NotFound(path.to_string()));
        }
        faultfx::distort(k, path, buf);
        note_read(k, path, buf.len());
        Ok(())
    }

    /// Enumerates every readable file path in this view, sorted — the
    /// recursive exploration step of the paper's detection framework:
    /// the exact routes' paths plus the parameterized ones the kernel's
    /// topology instantiates (cpus, disks, partitions, pids, RAPL
    /// packages, NUMA nodes). Deny-masked paths are excluded (they are
    /// unreadable in the cloud). [`PseudoFs::count`] walks the same
    /// paths and only counts them.
    pub fn list(&self, k: &Kernel, view: &View) -> Vec<String> {
        let mut paths = Vec::with_capacity(256);
        enumerate(k, view, |p| paths.push(p.to_string()));
        // Equal `String`s are indistinguishable, so the unstable sort
        // leaves the order a stable one would.
        paths.sort_unstable();
        paths
    }

    /// How many paths [`PseudoFs::list`] would return, without
    /// allocating them.
    pub fn count(&self, k: &Kernel, view: &View) -> usize {
        let mut n = 0;
        enumerate(k, view, |_| n += 1);
        n
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

    /// The listing before the shared enumerator, kept as the oracle the
    /// differential tests hold `list` and `count` to: a fresh `String`
    /// per candidate, the mask applied to each, and a stable sort.
    fn list_reference(k: &Kernel, view: &View) -> Vec<String> {
        let mut paths = Vec::with_capacity(256);
        let mut push = |p: String| {
            if view.mask_action(&p) != Some(MaskAction::Deny) {
                paths.push(p);
            }
        };

        for r in registry::ROUTES.iter().filter(|r| !r.pattern.contains('*')) {
            push(r.pattern.to_string());
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

    #[test]
    fn list_and_count_equal_the_reference_under_every_policy() {
        // cloudsim and detector build against their own copy of this
        // crate, so their policies are carried over rule by rule.
        macro_rules! carried {
            ($policy:expr) => {
                $policy.rules().iter().fold(MaskPolicy::none(), |p, r| {
                    match format!("{:?}", r.action).as_str() {
                        "Deny" => p.deny(r.pattern.clone()),
                        _ => p.partial(r.pattern.clone()),
                    }
                })
            };
        }
        let mut policies = Vec::new();
        for profile in
            std::iter::once(cloudsim::CloudProfile::Local).chain(cloudsim::CloudProfile::COMMERCIAL)
        {
            policies.push((format!("{profile:?}"), carried!(profile.mask_policy())));
        }
        // What the online detector installs on a flagged tenant: every
        // watched family denied ahead of the provider's own rules.
        let watched: Vec<String> = detector::WATCHED.iter().map(|p| p.to_string()).collect();
        for profile in [cloudsim::CloudProfile::CC1, cloudsim::CloudProfile::CC5] {
            let composed = detector::composed_policy(&profile.mask_policy(), &watched);
            policies.push((format!("{profile:?} detector-composed"), carried!(composed)));
        }
        let fs = PseudoFs::new();
        for machine in [
            MachineConfig::small_server(),
            MachineConfig::cloud_server(),
            MachineConfig::testbed_i7_6700(),
            MachineConfig::legacy_server_no_rapl(),
        ] {
            let mut k = Kernel::new(machine, 9);
            k.spawn_host_process("hostproc", models::web_service(0.1))
                .unwrap();
            let env = k.create_container_env("c1").unwrap();
            for name in ["app", "sidecar"] {
                k.spawn(ProcessSpec::new(name, models::prime()).in_container(&env))
                    .unwrap();
            }
            k.advance_secs(1);
            let mut views = vec![("host".to_string(), View::host())];
            for (name, policy) in &policies {
                let view = View::container(env.ns, env.cgroups).with_policy(policy.clone());
                views.push((name.clone(), view));
            }
            for (name, view) in &views {
                let listed = fs.list(&k, view);
                assert_eq!(listed, list_reference(&k, view), "{name} view");
                assert_eq!(fs.count(&k, view), listed.len(), "{name} view");
            }
        }
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
    fn a_deny_applies_to_its_view_only_and_to_every_spelling() {
        let mut k = Kernel::new(MachineConfig::small_server(), 9);
        let env = k.create_container_env("c1").unwrap();
        k.advance_secs(1);
        let fs = PseudoFs::new();
        let denied =
            View::container(env.ns, env.cgroups).with_policy(MaskPolicy::none().deny("/proc/stat"));
        let open = View::container(env.ns, env.cgroups);
        assert!(matches!(
            fs.read(&k, &denied, "/proc/stat"),
            Err(FsError::PermissionDenied(_))
        ));
        // Same namespaces, different policy: the open view still reads.
        assert!(fs.read(&k, &open, "/proc/stat").is_ok());
        assert!(fs.read(&k, &View::host(), "/proc/stat").is_ok());
        // The mask uses the same glob rule as the router, so every
        // spelling that reads `/proc/stat` is denied with it.
        for spelling in ["//proc/stat", "proc/stat"] {
            assert!(matches!(
                fs.read(&k, &denied, spelling),
                Err(FsError::PermissionDenied(_))
            ));
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
        // A path reads iff it routes: the hwmon segment must match
        // `hwmon*`.
        let unrouted = "/sys/devices/platform/coretemp.0/hwmon/foo/temp1_input";
        assert!(matches!(
            fs.read(&k, &View::host(), unrouted),
            Err(FsError::NotFound(_))
        ));
        // Leading slashes are ignored, as the route globs ignore them.
        let stat = fs.read(&k, &View::host(), "/proc/stat").unwrap();
        for spelling in ["//proc/stat", "proc/stat"] {
            assert_eq!(fs.read(&k, &View::host(), spelling).unwrap(), stat);
        }
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
