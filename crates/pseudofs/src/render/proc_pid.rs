//! Properly-namespaced `/proc` files: `/proc/self/*`, per-pid directories,
//! and `/proc/net/dev`.
//!
//! These are the *control group* for the cross-validation detector: their
//! handlers consult the reader's namespaces, so host and container views
//! differ — exactly what a correctly containerized channel looks like
//! (case ① of the paper's Fig. 1).

use std::fmt::Write as _;

use simkernel::{Kernel, NamespaceSet};

use super::arg;
use crate::view::{Context, View};

/// The namespaces the view reads through: the host's, or the container's.
pub(crate) fn viewer_ns(k: &Kernel, view: &View) -> NamespaceSet {
    match view.context {
        Context::Host => k.namespaces().host_set(),
        Context::Container { ns, .. } => ns,
    }
}

/// The synthetic pid of the process performing the read (the detector's
/// `cat`): one past the highest pid visible in the reader's namespace.
fn reader_pid(k: &Kernel, view: &View) -> u32 {
    let ns = viewer_ns(k, view);
    k.namespaces()
        .pids_in(ns.pid)
        .map(|(_, p)| p)
        .max()
        .unwrap_or(0)
        + 1
}

/// `/proc/self/status`: namespaced — pid is the reader's pid *within its
/// PID namespace*, uid mapping comes from the USER namespace.
pub fn self_status(k: &Kernel, view: &View, _: &[&str], out: &mut String) -> Option<()> {
    let pid = reader_pid(k, view);
    let uid = 0; // root inside the namespace (mapped outside).
    writeln!(
        out,
        "Name:\tcat\nState:\tR (running)\nPid:\t{pid}\nPPid:\t{}\n\
         Uid:\t{uid}\t{uid}\t{uid}\t{uid}\nVmRSS:\t     720 kB\nThreads:\t1",
        pid.saturating_sub(1),
    )
    .ok()
}

/// `/proc/self/cgroup`: namespaced via the CGROUP namespace — inside a
/// container the paths render relative to the namespace root (`/`).
pub fn self_cgroup(k: &Kernel, view: &View, _: &[&str], out: &mut String) -> Option<()> {
    let (paths, root): ([(u32, &str, String); 4], String) = match view.context {
        // Host processes run under systemd's user slice, as on a real
        // distro — which also keeps this file's host view distinct from a
        // cgroup-namespaced container's "/" view.
        Context::Host => (
            [
                (4, "cpuacct", "/user.slice".into()),
                (3, "perf_event", "/user.slice".into()),
                (2, "net_prio", "/user.slice".into()),
                (1, "memory", "/user.slice".into()),
            ],
            "/".into(),
        ),
        Context::Container { ns, cgroups } => {
            let path = |id| {
                k.cgroups()
                    .node(id)
                    .map(|n| n.path().to_string())
                    .unwrap_or_else(|| "/".into())
            };
            let root = k
                .namespaces()
                .cgroup_root(ns.cgroup)
                .unwrap_or("/")
                .to_string();
            (
                [
                    (4, "cpuacct", path(cgroups.cpuacct)),
                    (3, "perf_event", path(cgroups.perf_event)),
                    (2, "net_prio", path(cgroups.net_prio)),
                    (1, "memory", path(cgroups.memory)),
                ],
                root,
            )
        }
    };
    for (id, name, path) in paths {
        // Inside a cgroup namespace, the container's own subtree renders
        // as "/" (the namespace root is stripped).
        let shown = if path == root {
            "/"
        } else {
            path.strip_prefix(root.trim_end_matches('/'))
                .unwrap_or(&path)
        };
        let _ = writeln!(out, "{id}:{name}:{shown}");
    }
    Some(())
}

/// `/proc/net/dev`: namespaced — renders the devices of the reader's NET
/// namespace. Containers see `lo`/`eth0` with their own (synthetic)
/// counters, not the host's device list.
pub fn net_dev(k: &Kernel, view: &View, _: &[&str], out: &mut String) -> Option<()> {
    let ns = viewer_ns(k, view);
    out.push_str(
        "Inter-|   Receive                |  Transmit\n face |bytes    packets|bytes    packets\n",
    );
    match view.context {
        Context::Host => {
            for d in k.net().devices() {
                let _ = writeln!(
                    out,
                    "{:>6}: {:>8} {:>8} {:>8} {:>8}",
                    d.name, d.rx_bytes, d.rx_packets, d.tx_bytes, d.tx_packets
                );
            }
        }
        Context::Container { .. } => {
            let devices = k.namespaces().net_devices(ns.net).unwrap_or(&[]);
            let t = k.clock().since_boot_ns() / 1_000_000_000;
            for (i, name) in devices.iter().enumerate() {
                let rx = t * (900 + 400 * i as u64);
                let tx = t * (700 + 300 * i as u64);
                let _ = writeln!(
                    out,
                    "{:>6}: {:>8} {:>8} {:>8} {:>8}",
                    name,
                    rx,
                    rx / 800 + 1,
                    tx,
                    tx / 800 + 1
                );
            }
        }
    }
    Some(())
}

/// `/proc/net/snmp`: namespaced — per-NET-namespace protocol counters.
pub fn net_snmp(k: &Kernel, view: &View, _: &[&str], out: &mut String) -> Option<()> {
    let ns = viewer_ns(k, view);
    // Synthetic but namespace-distinct counters: scale with uptime and
    // differ per namespace id.
    let t = k.clock().since_boot_ns() / 1_000_000_000;
    let salt = u64::from(ns.net.0) + 1;
    write!(
        out,
        "Ip: InReceives InDelivers OutRequests
Ip: {} {} {}
         Tcp: ActiveOpens PassiveOpens InSegs OutSegs
Tcp: {} {} {} {}
         Udp: InDatagrams OutDatagrams
Udp: {} {}
",
        t * (90 + salt % 7),
        t * (88 + salt % 7),
        t * (70 + salt % 5),
        t / 30 + salt,
        t / 60 + salt / 2,
        t * (60 + salt % 11),
        t * (55 + salt % 11),
        t * (9 + salt % 3),
        t * (8 + salt % 3),
    )
    .ok()
}

/// `/proc/net/tcp`: namespaced — sockets of the reader's NET namespace
/// only (one listener per service process in the namespace).
pub fn net_tcp(k: &Kernel, view: &View, _: &[&str], out: &mut String) -> Option<()> {
    let ns = viewer_ns(k, view);
    out.push_str(
        "  sl  local_address rem_address   st tx_queue rx_queue uid
",
    );
    let mut sl = 0;
    for p in k.processes() {
        if p.namespaces().net != ns.net {
            continue;
        }
        let port = 8000 + p.host_pid().0 % 1000;
        let _ = writeln!(
            out,
            "{sl:>4}: 00000000:{port:04X} 00000000:0000 0A 00000000:00000000 0",
        );
        sl += 1;
    }
    Some(())
}

/// The process a `/proc/<pid>` path names, with the pid its capture
/// gives: the pid *as numbered in the reader's namespace*, resolved
/// through that namespace's map. `None` when no such pid is visible
/// there — the PID-namespace isolation working as intended.
fn pid_arg(k: &Kernel, view: &View, caps: &[&str]) -> Option<(simkernel::HostPid, u32)> {
    let ns_pid: u32 = arg(caps, 0)?;
    let host_pid = k.namespaces().host_pid_of(viewer_ns(k, view).pid, ns_pid)?;
    Some((host_pid, ns_pid))
}

/// `/proc/<pid>/status` for a pid *as numbered in the reader's namespace*.
/// Returns `None` when the pid is not visible from this namespace — the
/// PID-namespace isolation working as intended.
pub fn pid_status(k: &Kernel, view: &View, caps: &[&str], out: &mut String) -> Option<()> {
    let (host_pid, ns_pid) = pid_arg(k, view, caps)?;
    let proc = k.process(host_pid)?;
    writeln!(
        out,
        "Name:\t{}\nState:\t{}\nPid:\t{ns_pid}\nVmRSS:\t{:>8} kB\nThreads:\t1",
        proc.name(),
        match proc.state() {
            simkernel::ProcState::Runnable => "R (running)",
            simkernel::ProcState::Sleeping => "S (sleeping)",
            simkernel::ProcState::Exited => "Z (zombie)",
        },
        proc.rss_bytes() / 1024,
    )
    .ok()
}

/// `/proc/<pid>/stat` (abridged to the fields consumers use).
pub fn pid_stat(k: &Kernel, view: &View, caps: &[&str], out: &mut String) -> Option<()> {
    let (host_pid, ns_pid) = pid_arg(k, view, caps)?;
    let proc = k.process(host_pid)?;
    writeln!(
        out,
        "{ns_pid} ({}) R 0 {ns_pid} {ns_pid} 0 -1 4194304 {} {} {} {}",
        proc.name(),
        proc.utime_ns() / 10_000_000,
        proc.stime_ns() / 10_000_000,
        proc.start_ns() / 10_000_000,
        proc.rss_bytes() / 4096,
    )
    .ok()
}

/// `/proc/<pid>/io`: per-process IO accounting (pid-namespaced).
pub fn pid_io(k: &Kernel, view: &View, caps: &[&str], out: &mut String) -> Option<()> {
    let (host_pid, _) = pid_arg(k, view, caps)?;
    let proc = k.process(host_pid)?;
    let (r, w) = proc.io_bytes();
    writeln!(
        out,
        "rchar: {}\nwchar: {}\nsyscr: {}\nsyscw: {}\nread_bytes: {r}\nwrite_bytes: {w}",
        r + proc.syscall_count() * 64,
        w + proc.syscall_count() * 32,
        proc.syscall_count() / 2,
        proc.syscall_count() / 2,
    )
    .ok()
}

/// `/proc/<pid>/sched`: per-task scheduler statistics (pid-namespaced).
pub fn pid_sched(k: &Kernel, view: &View, caps: &[&str], out: &mut String) -> Option<()> {
    let (host_pid, ns_pid) = pid_arg(k, view, caps)?;
    let proc = k.process(host_pid)?;
    writeln!(
        out,
        "{} ({ns_pid}, #threads: 1)\n-------------------------------\n         se.sum_exec_runtime : {:.6}\nse.vruntime : {:.6}\nnr_switches : {}\n         prio : 120",
        proc.name(),
        proc.cpu_time_ns() as f64 / 1e6,
        proc.vruntime_ns() as f64 / 1e6,
        proc.cpu_time_ns() / 10_000_000 + 1,
    )
    .ok()
}

/// `/proc/mounts`: properly namespaced via the MNT namespace — containers
/// see their own (shorter) mount table (a control file).
pub fn mounts(k: &Kernel, view: &View, _: &[&str], out: &mut String) -> Option<()> {
    let ns = viewer_ns(k, view);
    if let Some(simkernel::ns::NamespaceData::Mnt { mounts }) = k.namespaces().get(ns.mnt) {
        for &m in mounts.iter() {
            let (dev, fstype) = match m {
                "/" => ("/dev/sda1", "ext4"),
                "/proc" => ("proc", "proc"),
                "/sys" => ("sysfs", "sysfs"),
                "/dev" => ("udev", "devtmpfs"),
                _ => ("none", "tmpfs"),
            };
            let _ = writeln!(out, "{dev} {m} {fstype} rw,relatime 0 0");
        }
    }
    Some(())
}

/// `/proc/<pid>/cmdline`.
pub fn pid_cmdline(k: &Kernel, view: &View, caps: &[&str], out: &mut String) -> Option<()> {
    let (host_pid, _) = pid_arg(k, view, caps)?;
    write!(out, "{}\0", k.process(host_pid)?.name()).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::rendered;
    use simkernel::kernel::ProcessSpec;
    use simkernel::MachineConfig;
    use workloads::models;

    fn setup() -> (Kernel, View, View) {
        let mut k = Kernel::new(MachineConfig::small_server(), 4);
        k.spawn_host_process("host-daemon", models::web_service(0.1))
            .unwrap();
        let env = k.create_container_env("c1").unwrap();
        k.spawn(ProcessSpec::new("app", models::prime()).in_container(&env))
            .unwrap();
        k.advance_secs(1);
        let cv = View::container(env.ns, env.cgroups);
        (k, View::host(), cv)
    }

    /// The pids `view` sees, as its namespace numbers them, ascending.
    fn visible(k: &Kernel, view: &View) -> Vec<u32> {
        let mut pids: Vec<u32> = k
            .namespaces()
            .pids_in(viewer_ns(k, view).pid)
            .map(|(_, p)| p)
            .collect();
        pids.sort_unstable();
        pids
    }

    #[test]
    fn pid_namespace_hides_host_processes() {
        let (k, host, cont) = setup();
        let host_pids = visible(&k, &host);
        assert_eq!(host_pids.len(), 2);
        assert_eq!(visible(&k, &cont), [1], "container init is pid 1");
        assert!(rendered(pid_status, &k, &cont, &["1"])
            .unwrap()
            .contains("Name:\tapp"));
        // The host daemon's pid is not resolvable inside the container.
        let daemon_host_pid = host_pids[0];
        assert!(rendered(pid_status, &k, &cont, &[&daemon_host_pid.to_string()]).is_none());
    }

    #[test]
    fn self_status_differs_between_views() {
        let (k, host, cont) = setup();
        assert_ne!(
            rendered(self_status, &k, &host, &[]).unwrap(),
            rendered(self_status, &k, &cont, &[]).unwrap()
        );
        assert!(rendered(self_status, &k, &cont, &[])
            .unwrap()
            .contains("Pid:\t2"));
    }

    #[test]
    fn self_cgroup_is_rooted_inside_container() {
        let (k, host, cont) = setup();
        let h = rendered(self_cgroup, &k, &host, &[]).unwrap();
        let c = rendered(self_cgroup, &k, &cont, &[]).unwrap();
        assert!(h.contains("4:cpuacct:/user.slice\n"), "got: {h}");
        // cgroup namespace strips the /docker/c1 prefix.
        assert!(c.contains("4:cpuacct:/\n"), "got: {c}");
    }

    #[test]
    fn net_dev_is_namespaced() {
        let (k, host, cont) = setup();
        let h = rendered(net_dev, &k, &host, &[]).unwrap();
        let c = rendered(net_dev, &k, &cont, &[]).unwrap();
        assert!(h.contains("docker0"));
        assert!(h.contains("veth"));
        assert!(!c.contains("docker0"));
        assert!(c.contains("eth0"));
    }

    #[test]
    fn pid_io_and_sched_render_for_visible_pids_only() {
        let (k, host, cont) = setup();
        let io = rendered(pid_io, &k, &cont, &["1"]).unwrap();
        assert!(io.contains("read_bytes:"));
        assert!(io.contains("syscr:"));
        let sched = rendered(pid_sched, &k, &cont, &["1"]).unwrap();
        assert!(sched.contains("se.sum_exec_runtime"));
        assert!(sched.starts_with("app (1,"));
        // Host pids are invisible through the container's lens.
        let host_daemon_pid = visible(&k, &host)[0];
        assert!(rendered(pid_io, &k, &cont, &[&host_daemon_pid.to_string()]).is_none());
        assert!(rendered(pid_sched, &k, &cont, &["999"]).is_none());
    }

    #[test]
    fn mounts_is_namespaced() {
        let (k, host, cont) = setup();
        let h = rendered(mounts, &k, &host, &[]).unwrap();
        let c = rendered(mounts, &k, &cont, &[]).unwrap();
        assert!(h.contains("devtmpfs"), "host sees /dev: {h}");
        assert!(!c.contains("devtmpfs"), "container mnt ns has no /dev");
        assert!(c.contains("proc /proc proc"));
        assert_ne!(h, c);
    }

    #[test]
    fn net_tcp_and_snmp_are_namespaced() {
        let (k, host, cont) = setup();
        assert_ne!(
            rendered(net_snmp, &k, &host, &[]).unwrap(),
            rendered(net_snmp, &k, &cont, &[]).unwrap()
        );
        let host_tcp = rendered(net_tcp, &k, &host, &[]).unwrap();
        let cont_tcp = rendered(net_tcp, &k, &cont, &[]).unwrap();
        // One socket row per process in the namespace (+ header).
        assert_eq!(host_tcp.lines().count(), 2, "{host_tcp}");
        assert_eq!(cont_tcp.lines().count(), 2, "{cont_tcp}");
        assert_ne!(host_tcp, cont_tcp);
    }

    #[test]
    fn pid_stat_and_cmdline_render() {
        let (k, _, cont) = setup();
        let stat = rendered(pid_stat, &k, &cont, &["1"]).unwrap();
        assert!(stat.starts_with("1 (app) R"));
        assert_eq!(rendered(pid_cmdline, &k, &cont, &["1"]).unwrap(), "app\0");
        assert!(rendered(pid_stat, &k, &cont, &["999"]).is_none());
    }
}
