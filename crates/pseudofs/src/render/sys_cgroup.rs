//! cgroupfs files under `/sys/fs/cgroup/`.
//!
//! `net_prio.ifpriomap` is the paper's Case Study I: the kernel handler
//! (`read_priomap`) iterates `for_each_netdev_rcu(&init_net, ...)` — the
//! *host's* device list — regardless of the reader's NET namespace, so a
//! container reads every host interface name (including other containers'
//! unique veth devices). The cpuacct/memory files, by contrast, resolve
//! the reader's own cgroup and are properly contained.

use std::fmt::Write as _;

use simkernel::cgroup::{CgroupData, CgroupId, CgroupKind};
use simkernel::Kernel;

use crate::view::{Context, View};

fn viewer_cgroup(k: &Kernel, view: &View, kind: CgroupKind) -> CgroupId {
    match view.context {
        Context::Host => k.cgroups().root(kind),
        Context::Container { cgroups, .. } => match kind {
            CgroupKind::Cpuacct => cgroups.cpuacct,
            CgroupKind::PerfEvent => cgroups.perf_event,
            CgroupKind::NetPrio => cgroups.net_prio,
            CgroupKind::Memory => cgroups.memory,
        },
    }
}

/// `/sys/fs/cgroup/net_prio/net_prio.ifpriomap`. LEAK (Table II rank 2,
/// uniqueness group): renders priorities for *all host interfaces* — the
/// handler walks `init_net`'s device list, ignoring the reader's NET
/// namespace. Because every container adds a randomized `veth*` device to
/// the host, the full list uniquely fingerprints the host.
pub fn ifpriomap(k: &Kernel, view: &View, _: &[&str], out: &mut String) -> Option<()> {
    let cg = viewer_cgroup(k, view, CgroupKind::NetPrio);
    // The bug reproduced: iterate the HOST device list (init_net), looking
    // up each device's priority in the reader's cgroup map.
    for dev in k.net().devices() {
        let prio = match k.cgroups().node(cg).map(|n| n.data()) {
            Some(CgroupData::NetPrio { ifpriomap }) => {
                ifpriomap.get(&dev.name).copied().unwrap_or(0)
            }
            _ => 0,
        };
        let _ = writeln!(out, "{} {prio}", dev.name);
    }
    Some(())
}

/// `/sys/fs/cgroup/net_prio/net_prio.prioidx`.
pub fn prioidx(k: &Kernel, view: &View, _: &[&str], out: &mut String) -> Option<()> {
    writeln!(out, "{}", viewer_cgroup(k, view, CgroupKind::NetPrio).0).ok()
}

/// `/sys/fs/cgroup/cpuacct/cpuacct.usage`: properly scoped — the reader
/// sees its own cgroup's accumulated CPU time (control file).
pub fn cpuacct_usage(k: &Kernel, view: &View, _: &[&str], out: &mut String) -> Option<()> {
    let cg = viewer_cgroup(k, view, CgroupKind::Cpuacct);
    writeln!(out, "{}", k.cgroups().cpuacct_usage_ns(cg).unwrap_or(0)).ok()
}

/// `/sys/fs/cgroup/cpuacct/cpuacct.usage_percpu`: per-CPU breakdown of the
/// reader's own cgroup (control file; also the defense's data source).
pub fn cpuacct_usage_percpu(k: &Kernel, view: &View, _: &[&str], out: &mut String) -> Option<()> {
    let cg = viewer_cgroup(k, view, CgroupKind::Cpuacct);
    let vals = k.cgroups().cpuacct_usage_percpu(cg).unwrap_or(&[]);
    for v in vals {
        let _ = write!(out, "{v} ");
    }
    out.push('\n');
    Some(())
}

/// `/sys/fs/cgroup/memory/memory.usage_in_bytes` (control file).
pub fn memory_usage(k: &Kernel, view: &View, _: &[&str], out: &mut String) -> Option<()> {
    let cg = viewer_cgroup(k, view, CgroupKind::Memory);
    let (usage, _) = k.cgroups().memory_usage(cg).unwrap_or((0, 0));
    writeln!(out, "{usage}").ok()
}

/// `/sys/fs/cgroup/memory/memory.max_usage_in_bytes` (control file).
pub fn memory_max_usage(k: &Kernel, view: &View, _: &[&str], out: &mut String) -> Option<()> {
    let cg = viewer_cgroup(k, view, CgroupKind::Memory);
    let (_, max) = k.cgroups().memory_usage(cg).unwrap_or((0, 0));
    writeln!(out, "{max}").ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::rendered;
    use simkernel::kernel::ProcessSpec;
    use simkernel::MachineConfig;
    use workloads::models;

    fn setup() -> (Kernel, View, View) {
        let mut k = Kernel::new(MachineConfig::small_server(), 8);
        let env1 = k.create_container_env("c1").unwrap();
        let _env2 = k.create_container_env("c2").unwrap();
        k.spawn(ProcessSpec::new("app", models::prime()).in_container(&env1))
            .unwrap();
        k.advance_secs(2);
        let cont = View::container(env1.ns, env1.cgroups);
        (k, View::host(), cont)
    }

    #[test]
    fn ifpriomap_leaks_all_host_interfaces_to_containers() {
        let (k, host, cont) = setup();
        let h = rendered(ifpriomap, &k, &host, &[]).unwrap();
        let c = rendered(ifpriomap, &k, &cont, &[]).unwrap();
        // The container, despite its own NET namespace holding only
        // lo/eth0, reads the full host list — including both veths.
        assert_eq!(h, c, "handler ignores the NET namespace");
        assert!(c.contains("docker0"));
        assert_eq!(c.matches("veth").count(), 2);
    }

    #[test]
    fn ifpriomap_covers_host_devices_in_new_groups() {
        // A group created before a veth joined the host and one created
        // with it both render every host device, the veths included, in
        // device order at priority 0, as the host does.
        let mut k = Kernel::new(MachineConfig::small_server(), 8);
        let early = k.create_container_env("early").unwrap();
        let late = k.create_container_env("late").unwrap();
        let want: String = k
            .net()
            .devices()
            .iter()
            .map(|d| format!("{} 0\n", d.name))
            .collect();
        assert!(want.contains(&format!("{} 0\n", early.veth)));
        assert!(want.contains(&format!("{} 0\n", late.veth)));
        for view in [
            View::host(),
            View::container(early.ns, early.cgroups),
            View::container(late.ns, late.cgroups),
        ] {
            assert_eq!(rendered(ifpriomap, &k, &view, &[]).unwrap(), want);
        }
    }

    #[test]
    fn cpuacct_usage_is_scoped_to_reader() {
        let (k, host, cont) = setup();
        let host_ns: u64 = rendered(cpuacct_usage, &k, &host, &[])
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        let cont_ns: u64 = rendered(cpuacct_usage, &k, &cont, &[])
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert!(host_ns >= cont_ns, "root aggregates all work");
        assert!(cont_ns > 1_000_000_000, "container did ~2s of work");
    }

    #[test]
    fn usage_percpu_has_ncpu_fields() {
        let (k, _, cont) = setup();
        let s = rendered(cpuacct_usage_percpu, &k, &cont, &[]).unwrap();
        assert_eq!(s.split_whitespace().count(), 4);
    }

    #[test]
    fn memory_usage_scoped() {
        let (k, host, cont) = setup();
        let h: u64 = rendered(memory_usage, &k, &host, &[])
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        let c: u64 = rendered(memory_usage, &k, &cont, &[])
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert!(c > 0);
        assert!(h >= c);
        let max: u64 = rendered(memory_max_usage, &k, &cont, &[])
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert!(max >= c);
    }
}
