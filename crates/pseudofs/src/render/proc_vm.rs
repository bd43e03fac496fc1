//! Additional global `/proc` channels surfaced by the systematic walk:
//! `vmstat`, `slabinfo`, `buddyinfo`, `swaps`, `partitions`,
//! `filesystems`, and `cgroups`.
//!
//! All of these are host-global (the VM subsystem, the slab allocator, the
//! buddy allocator and the cgroup registry have no namespace awareness in
//! Linux 4.7). `/proc/cgroups` is particularly interesting for a tenant:
//! its `num_cgroups` column counts every container on the host.

use std::fmt::Write as _;

use simkernel::Kernel;

use crate::view::View;

/// `/proc/vmstat`. LEAK: host-wide VM event counters (accumulators).
pub fn vmstat(k: &Kernel, _view: &View, _: &[&str], out: &mut String) -> Option<()> {
    let vm = k.mem().vm_counters();
    let free_pages = k.mem().free_bytes() / simkernel::mem::PAGE_SIZE;
    writeln!(
        out,
        "nr_free_pages {}\nnr_anon_pages {}\nnr_file_pages {}\nnr_dirty {}\n\
         pgalloc_normal {}\npgfree {}\npgfault {}\npgmajfault {}\npgscan_kswapd {}",
        free_pages,
        k.mem().rss_bytes() / simkernel::mem::PAGE_SIZE,
        k.mem().cached_bytes() / simkernel::mem::PAGE_SIZE,
        k.mem().dirty_bytes() / simkernel::mem::PAGE_SIZE,
        vm.pgalloc,
        vm.pgfree,
        vm.pgfault,
        vm.pgmajfault,
        vm.pgscan,
    )
    .ok()
}

/// `/proc/slabinfo`. LEAK: slab-cache object counts — dominated by the
/// dentry and inode caches, so it moves with host filesystem activity.
pub fn slabinfo(k: &Kernel, _view: &View, _: &[&str], out: &mut String) -> Option<()> {
    let (dentries, unused, _, _) = k.fs().dentry_state();
    let (inodes, _) = k.fs().inode_nr();
    out.push_str("slabinfo - version: 2.1\n# name            <active_objs> <num_objs> <objsize>\n");
    let nprocs = k.process_count() as u64;
    for (name, active, num, size) in [
        ("dentry", dentries - unused / 2, dentries, 192u64),
        ("inode_cache", inodes, inodes + 512, 608),
        (
            "ext4_inode_cache",
            inodes * 3 / 5,
            inodes * 3 / 5 + 256,
            1096,
        ),
        ("task_struct", nprocs + 120, nprocs + 160, 5952),
        ("kmalloc-256", 4_096 + nprocs * 12, 4_608 + nprocs * 12, 256),
        (
            "buffer_head",
            k.mem().buffers_bytes() / 4096,
            k.mem().buffers_bytes() / 4096 + 64,
            104,
        ),
    ] {
        let _ = writeln!(out, "{name:<18} {active:>12} {num:>10} {size:>9}");
    }
    Some(())
}

/// `/proc/buddyinfo`. LEAK: per-zone free pages by order — host memory
/// fragmentation state.
pub fn buddyinfo(k: &Kernel, _view: &View, _: &[&str], out: &mut String) -> Option<()> {
    for z in k.mem().zones() {
        let _ = write!(out, "Node {}, zone {:>8}", z.node, z.name);
        // Geometric split of the free pages over orders 0..=10.
        let mut remaining = z.free_pages;
        for order in 0..11u32 {
            let blocks = if order == 10 {
                remaining >> 10
            } else {
                (remaining / 2) >> order
            };
            remaining -= blocks << order;
            let _ = write!(out, " {blocks:>6}");
        }
        out.push('\n');
    }
    Some(())
}

/// `/proc/swaps`. LEAK: host swap devices and usage.
pub fn swaps(k: &Kernel, _view: &View, _: &[&str], out: &mut String) -> Option<()> {
    let (total, free) = k.mem().swap();
    out.push_str("Filename\t\t\t\tType\t\tSize\tUsed\tPriority\n");
    if total > 0 {
        let _ = writeln!(
            out,
            "/dev/sda2                               partition\t{}\t{}\t-2",
            total / 1024,
            (total - free) / 1024,
        );
    }
    Some(())
}

/// `/proc/partitions`. LEAK: the host's block devices and sizes.
pub fn partitions(k: &Kernel, _view: &View, _: &[&str], out: &mut String) -> Option<()> {
    out.push_str("major minor  #blocks  name\n\n");
    for (i, (name, size)) in k.config().disks.iter().enumerate() {
        let blocks = size / 1024;
        let _ = writeln!(out, "   8  {:>5} {blocks:>10} {name}", i * 16);
        let _ = writeln!(
            out,
            "   8  {:>5} {:>10} {name}1",
            i * 16 + 1,
            blocks * 9 / 10
        );
        let _ = writeln!(out, "   8  {:>5} {:>10} {name}2", i * 16 + 2, blocks / 10);
    }
    Some(())
}

/// `/proc/filesystems`: static list, identical fleet-wide (info leak but
/// useless for co-residence, like `/proc/modules`).
pub fn filesystems(_k: &Kernel, _view: &View, _: &[&str], out: &mut String) -> Option<()> {
    out.push_str(
        "nodev\tsysfs\nnodev\ttmpfs\nnodev\tproc\nnodev\tcgroup\nnodev\toverlay\n\text4\n\tvfat\n",
    );
    Some(())
}

/// `/proc/cgroups`. LEAK: per-hierarchy cgroup counts — `num_cgroups`
/// exposes how many containers the host runs, and watching it over time
/// reveals the host's container churn.
pub fn cgroups(k: &Kernel, _view: &View, _: &[&str], out: &mut String) -> Option<()> {
    out.push_str("#subsys_name\thierarchy\tnum_cgroups\tenabled\n");
    for (name, kind, hierarchy) in [
        ("cpuacct", simkernel::CgroupKind::Cpuacct, 4),
        ("memory", simkernel::CgroupKind::Memory, 1),
        ("net_prio", simkernel::CgroupKind::NetPrio, 2),
        ("perf_event", simkernel::CgroupKind::PerfEvent, 3),
    ] {
        let _ = writeln!(
            out,
            "{name}\t{hierarchy}\t{}\t1",
            k.cgroups().count_of_kind(kind)
        );
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::rendered;
    use simkernel::MachineConfig;
    use workloads::models;

    fn kernel() -> Kernel {
        let mut k = Kernel::new(MachineConfig::testbed_i7_6700(), 31);
        k.spawn_host_process("w", models::web_service(0.3)).unwrap();
        k.advance_secs(3);
        k
    }

    #[test]
    fn vmstat_counters_accumulate() {
        let mut k = kernel();
        let a = rendered(vmstat, &k, &View::host(), &[]).unwrap();
        k.advance_secs(2);
        let b = rendered(vmstat, &k, &View::host(), &[]).unwrap();
        assert_ne!(a, b);
        let get = |s: &str, key: &str| -> u64 {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        assert!(get(&b, "pgfault") > get(&a, "pgfault"));
        assert!(get(&b, "pgalloc_normal") > get(&a, "pgalloc_normal"));
    }

    #[test]
    fn slabinfo_tracks_dentry_cache() {
        let k = kernel();
        let s = rendered(slabinfo, &k, &View::host(), &[]).unwrap();
        assert!(s.contains("dentry"));
        assert!(s.contains("task_struct"));
        assert!(s.lines().count() >= 8);
    }

    #[test]
    fn buddyinfo_orders_account_for_free_pages() {
        let k = kernel();
        let s = rendered(buddyinfo, &k, &View::host(), &[]).unwrap();
        for z in k.mem().zones() {
            assert!(s.contains(z.name), "missing zone {}", z.name);
        }
        // Each row: 4 header tokens + 11 orders.
        let row = s.lines().last().unwrap();
        assert_eq!(row.split_whitespace().count(), 4 + 11);
    }

    #[test]
    fn swaps_and_partitions_render() {
        let k = kernel();
        let sw = rendered(swaps, &k, &View::host(), &[]).unwrap();
        assert!(sw.contains("partition"), "testbed has swap: {sw}");
        let p = rendered(partitions, &k, &View::host(), &[]).unwrap();
        assert!(p.contains(" sda\n"));
        assert!(p.contains(" sda1\n"));
    }

    #[test]
    fn cgroups_counts_containers() {
        let mut k = kernel();
        let before = rendered(cgroups, &k, &View::host(), &[]).unwrap();
        let n_before: u64 = before
            .lines()
            .find(|l| l.starts_with("cpuacct"))
            .and_then(|l| l.split_whitespace().nth(2))
            .and_then(|v| v.parse().ok())
            .unwrap();
        k.create_container_env("c1").unwrap();
        k.create_container_env("c2").unwrap();
        let after = rendered(cgroups, &k, &View::host(), &[]).unwrap();
        let n_after: u64 = after
            .lines()
            .find(|l| l.starts_with("cpuacct"))
            .and_then(|l| l.split_whitespace().nth(2))
            .and_then(|v| v.parse().ok())
            .unwrap();
        assert_eq!(n_after, n_before + 2 + 1, "docker parent + 2 containers");
    }

    #[test]
    fn filesystems_is_static() {
        let mut k = kernel();
        let a = rendered(filesystems, &k, &View::host(), &[]).unwrap();
        k.advance_secs(5);
        assert_eq!(a, rendered(filesystems, &k, &View::host(), &[]).unwrap());
    }
}
