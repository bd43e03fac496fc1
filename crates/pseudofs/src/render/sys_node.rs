//! `/sys/devices/system/node/node{N}/{numastat,vmstat,meminfo}`.
//!
//! All three are host-global NUMA views — Table II channels (numastat is
//! in the uniqueness group; vmstat/meminfo in the variation group).

use std::fmt::Write as _;

use simkernel::mem::PAGE_SIZE;
use simkernel::Kernel;

use super::arg;
use crate::view::View;

/// `/sys/devices/system/node/node{n}/numastat`. LEAK (Table II).
pub fn numastat(k: &Kernel, _view: &View, caps: &[&str], out: &mut String) -> Option<()> {
    let node: usize = arg(caps, 0)?;
    let s = k.mem().numa_stats().get(node)?;
    writeln!(
        out,
        "numa_hit {}\nnuma_miss {}\nnuma_foreign {}\ninterleave_hit {}\nlocal_node {}\nother_node {}",
        s.numa_hit, s.numa_miss, s.numa_foreign, s.interleave_hit, s.local_node, s.other_node,
    )
    .ok()
}

/// `/sys/devices/system/node/node{n}/vmstat`. LEAK (Table II).
pub fn vmstat(k: &Kernel, _view: &View, caps: &[&str], out: &mut String) -> Option<()> {
    let node: usize = arg(caps, 0)?;
    if node >= k.mem().numa_nodes() as usize {
        return None;
    }
    let (total, free) = k.mem().node_mem(node as u16);
    writeln!(
        out,
        "nr_free_pages {}\nnr_alloc_batch {}\nnr_inactive_anon {}\nnr_active_anon {}\nnr_file_pages {}",
        free / PAGE_SIZE,
        32,
        (total - free) / PAGE_SIZE / 4,
        (total - free) / PAGE_SIZE / 3,
        k.mem().cached_bytes() / PAGE_SIZE / u64::from(k.mem().numa_nodes()),
    )
    .ok()
}

/// `/sys/devices/system/node/node{n}/meminfo`. LEAK (Table II).
pub fn node_meminfo(k: &Kernel, _view: &View, caps: &[&str], out: &mut String) -> Option<()> {
    let node: usize = arg(caps, 0)?;
    if node >= k.mem().numa_nodes() as usize {
        return None;
    }
    let (total, free) = k.mem().node_mem(node as u16);
    writeln!(
        out,
        "Node {node} MemTotal:       {:>8} kB\n\
         Node {node} MemFree:        {:>8} kB\n\
         Node {node} MemUsed:        {:>8} kB\n\
         Node {node} Active:         {:>8} kB\n\
         Node {node} Inactive:       {:>8} kB",
        total / 1024,
        free / 1024,
        (total - free) / 1024,
        (total - free) / 1024 / 2,
        (total - free) / 1024 / 3,
    )
    .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::rendered;
    use simkernel::MachineConfig;

    #[test]
    fn two_node_server_renders_both() {
        let mut k = Kernel::new(MachineConfig::cloud_server(), 7);
        k.advance_secs(2);
        for n in 0..2 {
            assert!(rendered(numastat, &k, &View::host(), &[&n.to_string()])
                .unwrap()
                .contains("numa_hit"));
            assert!(rendered(vmstat, &k, &View::host(), &[&n.to_string()])
                .unwrap()
                .contains("nr_free_pages"));
            assert!(rendered(node_meminfo, &k, &View::host(), &[&n.to_string()])
                .unwrap()
                .contains(&format!("Node {n} MemTotal")));
        }
        assert!(rendered(numastat, &k, &View::host(), &["2"]).is_none());
        assert!(rendered(vmstat, &k, &View::host(), &["2"]).is_none());
        assert!(rendered(node_meminfo, &k, &View::host(), &["2"]).is_none());
    }

    #[test]
    fn node_free_consistent_with_global() {
        let mut k = Kernel::new(MachineConfig::cloud_server(), 7);
        k.advance_secs(1);
        let parse_free = |s: String| -> u64 {
            s.lines()
                .find(|l| l.contains("MemFree"))
                .unwrap()
                .split_whitespace()
                .nth(3)
                .unwrap()
                .parse()
                .unwrap()
        };
        let f0 = parse_free(rendered(node_meminfo, &k, &View::host(), &["0"]).unwrap());
        let f1 = parse_free(rendered(node_meminfo, &k, &View::host(), &["1"]).unwrap());
        let global_kb = k.mem().free_bytes() / 1024;
        let sum = f0 + f1;
        let diff = (sum as i64 - global_kb as i64).unsigned_abs();
        assert!(
            diff < global_kb / 10,
            "node sum {sum} vs global {global_kb}"
        );
    }
}
