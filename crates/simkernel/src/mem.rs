//! Memory subsystem state: zones, meminfo, NUMA nodes.
//!
//! Feeds the `/proc/meminfo`, `/proc/zoneinfo`,
//! `/sys/devices/system/node/node*/{meminfo,vmstat,numastat}` channels.
//! The paper's *variation* metric uses `MemFree` snapshots as a
//! co-residence fingerprint, so free memory must move with workload
//! placement and carry host-specific jitter.

use rand::rngs::StdRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};

use crate::time::{DecayMemo, NANOS_PER_SEC};

/// Page size used throughout (4 KiB).
pub const PAGE_SIZE: u64 = 4096;

/// Time constant of the page cache's decay toward its floor, seconds.
const PAGE_CACHE_TAU_S: f64 = 600.0;

/// One memory zone (`/proc/zoneinfo` entry).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Zone {
    /// Zone name (`DMA`, `DMA32`, `Normal`).
    pub name: &'static str,
    /// NUMA node the zone belongs to.
    pub node: u16,
    /// Pages spanned by the zone.
    pub spanned_pages: u64,
    /// Pages present.
    pub present_pages: u64,
    /// Pages managed by the buddy allocator.
    pub managed_pages: u64,
    /// Watermarks (min/low/high), pages.
    pub watermark: (u64, u64, u64),
    /// Currently free pages (updated every tick).
    pub free_pages: u64,
}

/// Per-NUMA-node counters (`numastat`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NumaStat {
    /// Allocations satisfied on the preferred node.
    pub numa_hit: u64,
    /// Allocations that fell back to this node.
    pub numa_miss: u64,
    /// Allocations intended for this node placed elsewhere.
    pub numa_foreign: u64,
    /// Interleave-policy hits.
    pub interleave_hit: u64,
    /// Allocations by processes local to the node.
    pub local_node: u64,
    /// Allocations by remote processes.
    pub other_node: u64,
}

/// Cumulative VM event counters (`/proc/vmstat` rows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VmCounters {
    /// Pages allocated since boot.
    pub pgalloc: u64,
    /// Pages freed since boot.
    pub pgfree: u64,
    /// Page faults since boot.
    pub pgfault: u64,
    /// Major faults since boot.
    pub pgmajfault: u64,
    /// Pages scanned by reclaim.
    pub pgscan: u64,
}

/// Whole-machine memory state.
#[derive(Debug, Clone, Serialize)]
pub struct MemoryState {
    vm: VmCounters,
    total_bytes: u64,
    swap_total_bytes: u64,
    swap_free_bytes: u64,
    kernel_reserved_bytes: u64,
    rss_bytes: u64,
    page_cache_bytes: u64,
    buffers_bytes: u64,
    dirty_bytes: u64,
    zones: Vec<Zone>,
    /// Each zone's share of the managed pages, fixed at boot.
    zone_shares: Vec<f64>,
    numa: Vec<NumaStat>,
    numa_nodes: u16,
}

impl MemoryState {
    /// Creates memory state for a machine with `total_bytes` RAM split
    /// over `numa_nodes` nodes.
    pub fn new(total_bytes: u64, swap_bytes: u64, numa_nodes: u16) -> Self {
        let mut zones = Vec::new();
        let per_node = total_bytes / u64::from(numa_nodes.max(1));
        for node in 0..numa_nodes {
            if node == 0 {
                let dma = 16 << 20;
                let dma32 = (4u64 << 30).min(per_node / 2).saturating_sub(dma);
                let normal = per_node - dma - dma32;
                zones.push(mk_zone("DMA", node, dma));
                zones.push(mk_zone("DMA32", node, dma32));
                zones.push(mk_zone("Normal", node, normal));
            } else {
                zones.push(mk_zone("Normal", node, per_node));
            }
        }
        let managed_total: u64 = zones.iter().map(|z| z.managed_pages).sum();
        let zone_shares = zones
            .iter()
            .map(|z| z.managed_pages as f64 / managed_total as f64)
            .collect();
        let mut s = MemoryState {
            vm: VmCounters::default(),
            total_bytes,
            swap_total_bytes: swap_bytes,
            swap_free_bytes: swap_bytes,
            kernel_reserved_bytes: (total_bytes / 40).max(512 << 20).min(total_bytes / 4),
            rss_bytes: 0,
            page_cache_bytes: (total_bytes / 30).min(2 << 30),
            buffers_bytes: 96 << 20,
            dirty_bytes: 4 << 20,
            zones,
            zone_shares,
            numa: vec![NumaStat::default(); numa_nodes as usize],
            numa_nodes,
        };
        s.refresh_zone_free();
        s
    }

    /// Total RAM, bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Free RAM, bytes (`MemFree`).
    pub fn free_bytes(&self) -> u64 {
        self.total_bytes.saturating_sub(
            self.kernel_reserved_bytes
                + self.rss_bytes
                + self.page_cache_bytes
                + self.buffers_bytes,
        )
    }

    /// `MemAvailable`: free plus reclaimable cache.
    pub fn available_bytes(&self) -> u64 {
        self.free_bytes() + self.page_cache_bytes * 7 / 10 + self.buffers_bytes / 2
    }

    /// Page-cache bytes (`Cached`).
    pub fn cached_bytes(&self) -> u64 {
        self.page_cache_bytes
    }

    /// Buffer bytes (`Buffers`).
    pub fn buffers_bytes(&self) -> u64 {
        self.buffers_bytes
    }

    /// Dirty bytes (`Dirty`).
    pub fn dirty_bytes(&self) -> u64 {
        self.dirty_bytes
    }

    /// Swap total/free, bytes.
    pub fn swap(&self) -> (u64, u64) {
        (self.swap_total_bytes, self.swap_free_bytes)
    }

    /// Aggregate process RSS currently charged.
    pub fn rss_bytes(&self) -> u64 {
        self.rss_bytes
    }

    /// The zones (`/proc/zoneinfo`).
    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }

    /// Per-node NUMA counters.
    pub fn numa_stats(&self) -> &[NumaStat] {
        &self.numa
    }

    /// Number of NUMA nodes.
    pub fn numa_nodes(&self) -> u16 {
        self.numa_nodes
    }

    /// Free/total split for one node (used by per-node meminfo).
    pub fn node_mem(&self, node: u16) -> (u64, u64) {
        let node_total: u64 = self
            .zones
            .iter()
            .filter(|z| z.node == node)
            .map(|z| z.managed_pages * PAGE_SIZE)
            .sum();
        let node_free: u64 = self
            .zones
            .iter()
            .filter(|z| z.node == node)
            .map(|z| z.free_pages * PAGE_SIZE)
            .sum();
        (node_total, node_free)
    }

    /// Cumulative VM event counters.
    pub fn vm_counters(&self) -> VmCounters {
        self.vm
    }

    /// Whether an allocation of `bytes` can be admitted.
    pub fn can_admit(&self, bytes: u64) -> bool {
        self.available_bytes() >= bytes
    }

    /// One tick: charge the current aggregate RSS, grow/shrink the page
    /// cache with IO traffic, wander dirty pages, update zones and NUMA
    /// counters. `cache_decay` memoizes the page cache's decay by tick
    /// length.
    pub fn tick(
        &mut self,
        dt_ns: u64,
        rss_total: u64,
        io_bytes: u64,
        cache_decay: &mut DecayMemo,
        rng: &mut StdRng,
    ) {
        let dt_s = dt_ns as f64 / NANOS_PER_SEC as f64;
        self.rss_bytes = rss_total.min(self.total_bytes - self.kernel_reserved_bytes);

        // Page cache: absorbs IO, decays toward a floor, jitters.
        let ceiling = self
            .total_bytes
            .saturating_sub(self.kernel_reserved_bytes + self.rss_bytes)
            / 2;
        let decay = cache_decay.get(dt_ns, PAGE_CACHE_TAU_S);
        let mut cache = self.page_cache_bytes as f64 * decay + io_bytes as f64 * 0.8;
        let jitter = rng.random_range(-0.01..0.01);
        cache *= 1.0 + jitter;
        self.page_cache_bytes = (cache as u64).clamp(64 << 20, ceiling.max(64 << 20));

        self.dirty_bytes =
            ((self.dirty_bytes as f64 * 0.7) as u64 + io_bytes / 4).clamp(1 << 20, 512 << 20);

        self.refresh_zone_free();

        // VM event counters accumulate with activity.
        let churn = (self.rss_bytes / PAGE_SIZE / 200).max(64) as f64 * dt_s;
        self.vm.pgalloc += churn as u64 + io_bytes / PAGE_SIZE;
        self.vm.pgfree += (churn * 0.97) as u64 + io_bytes / PAGE_SIZE;
        self.vm.pgfault += (churn * 2.4) as u64 + rng.random_range(0..32);
        self.vm.pgmajfault += io_bytes / (1 << 22) + u64::from(rng.random_range(0..20u32) == 0);
        self.vm.pgscan += (churn * 0.1) as u64;

        // NUMA counters accumulate with allocation traffic (rate scaled
        // by elapsed time so long idle periods still advance them).
        let allocs = (((self.rss_bytes / PAGE_SIZE / 1000).max(200) + io_bytes / PAGE_SIZE) as f64
            * dt_s) as u64;
        for (i, n) in self.numa.iter_mut().enumerate() {
            let local = allocs * 9 / 10 + rng.random_range(0..32);
            let remote = allocs / 10 + rng.random_range(0..8);
            n.numa_hit += local;
            n.local_node += local;
            n.numa_miss += remote / (i as u64 + 1);
            n.other_node += remote;
            n.interleave_hit += rng.random_range(0..4);
            n.numa_foreign += remote / 2;
        }
    }

    /// Copies the lanes [`MemoryState::idle_eval`] reads into `anchor`,
    /// reusing its buffer.
    pub(crate) fn capture_idle(&self, anchor: &mut MemAnchor) {
        anchor.page_cache_bytes = self.page_cache_bytes;
        anchor.dirty_bytes = self.dirty_bytes;
        anchor.vm = self.vm;
        anchor.numa.clear();
        anchor.numa.extend_from_slice(&self.numa);
    }

    /// Jump-evaluates memory state to `rel_ns` past `anchor` with no IO
    /// and a fixed aggregate RSS.
    ///
    /// Mirrors [`MemoryState::tick`] at `io_bytes == 0` with every random
    /// term dropped, written as a closed form of `(anchor, rel_ns)` so the
    /// kernel's quiescent path lands on the same bytes whether it takes one
    /// coalesced span or many small ones.
    pub(crate) fn idle_eval(&mut self, anchor: &MemAnchor, rel_ns: u64, rss_total: u64) {
        let rel_s = rel_ns as f64 / NANOS_PER_SEC as f64;
        self.rss_bytes = rss_total.min(self.total_bytes - self.kernel_reserved_bytes);

        let ceiling = self
            .total_bytes
            .saturating_sub(self.kernel_reserved_bytes + self.rss_bytes)
            / 2;
        let cache = anchor.page_cache_bytes as f64 * (-rel_s / PAGE_CACHE_TAU_S).exp();
        self.page_cache_bytes = (cache as u64).clamp(64 << 20, ceiling.max(64 << 20));

        self.dirty_bytes =
            ((anchor.dirty_bytes as f64 * 0.7f64.powf(rel_s)) as u64).clamp(1 << 20, 512 << 20);

        self.refresh_zone_free();

        let rate = (self.rss_bytes / PAGE_SIZE / 200).max(64) as f64;
        self.vm.pgalloc = anchor.vm.pgalloc + (rate * rel_s) as u64;
        self.vm.pgfree = anchor.vm.pgfree + (rate * 0.97 * rel_s) as u64;
        self.vm.pgfault = anchor.vm.pgfault + (rate * 2.4 * rel_s) as u64;
        self.vm.pgmajfault = anchor.vm.pgmajfault;
        self.vm.pgscan = anchor.vm.pgscan + (rate * 0.1 * rel_s) as u64;

        let allocs = ((self.rss_bytes / PAGE_SIZE / 1000).max(200) as f64 * rel_s) as u64;
        let local = allocs * 9 / 10;
        let remote = allocs / 10;
        for (i, (n, base)) in self.numa.iter_mut().zip(anchor.numa.iter()).enumerate() {
            n.numa_hit = base.numa_hit + local;
            n.local_node = base.local_node + local;
            n.numa_miss = base.numa_miss + remote / (i as u64 + 1);
            n.other_node = base.other_node + remote;
            n.interleave_hit = base.interleave_hit;
            n.numa_foreign = base.numa_foreign + remote / 2;
        }
    }

    fn refresh_zone_free(&mut self) {
        let free = self.free_bytes();
        for (z, &share) in self.zones.iter_mut().zip(&self.zone_shares) {
            // `free_bytes()` is measured against the full RAM while
            // zones only manage ~97% of it; on a nearly idle machine the
            // proportional share can exceed the zone — clamp to keep the
            // free ≤ managed invariant every renderer assumes.
            z.free_pages = (((free / PAGE_SIZE) as f64 * share) as u64).min(z.managed_pages);
        }
    }
}

/// The memory lanes a quiescent span evolves from: page cache, dirty
/// bytes, the VM event counters and the per-node NUMA counters.
#[derive(Debug, Default)]
pub(crate) struct MemAnchor {
    page_cache_bytes: u64,
    dirty_bytes: u64,
    vm: VmCounters,
    numa: Vec<NumaStat>,
}

fn mk_zone(name: &'static str, node: u16, bytes: u64) -> Zone {
    let pages = bytes / PAGE_SIZE;
    let managed = pages * 97 / 100;
    let min = (managed / 1024).max(32);
    Zone {
        name,
        node,
        spanned_pages: pages,
        present_pages: pages,
        managed_pages: managed,
        watermark: (min, min * 5 / 4, min * 3 / 2),
        free_pages: managed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The reference quiescent evaluation: the closed form read from a
    // full clone of the memory state, as the idle anchor held it before
    // the lean capture.
    impl MemoryState {
        pub(crate) fn idle_eval_reference(
            &mut self,
            anchor: &MemoryState,
            rel_ns: u64,
            rss_total: u64,
        ) {
            let rel_s = rel_ns as f64 / NANOS_PER_SEC as f64;
            self.rss_bytes = rss_total.min(self.total_bytes - self.kernel_reserved_bytes);

            let ceiling = self
                .total_bytes
                .saturating_sub(self.kernel_reserved_bytes + self.rss_bytes)
                / 2;
            let cache = anchor.page_cache_bytes as f64 * (-rel_s / 600.0).exp();
            self.page_cache_bytes = (cache as u64).clamp(64 << 20, ceiling.max(64 << 20));

            self.dirty_bytes =
                ((anchor.dirty_bytes as f64 * 0.7f64.powf(rel_s)) as u64).clamp(1 << 20, 512 << 20);

            self.refresh_zone_free();

            let rate = (self.rss_bytes / PAGE_SIZE / 200).max(64) as f64;
            self.vm.pgalloc = anchor.vm.pgalloc + (rate * rel_s) as u64;
            self.vm.pgfree = anchor.vm.pgfree + (rate * 0.97 * rel_s) as u64;
            self.vm.pgfault = anchor.vm.pgfault + (rate * 2.4 * rel_s) as u64;
            self.vm.pgmajfault = anchor.vm.pgmajfault;
            self.vm.pgscan = anchor.vm.pgscan + (rate * 0.1 * rel_s) as u64;

            let allocs = ((self.rss_bytes / PAGE_SIZE / 1000).max(200) as f64 * rel_s) as u64;
            let local = allocs * 9 / 10;
            let remote = allocs / 10;
            for (i, (n, base)) in self.numa.iter_mut().zip(anchor.numa.iter()).enumerate() {
                n.numa_hit = base.numa_hit + local;
                n.local_node = base.local_node + local;
                n.numa_miss = base.numa_miss + remote / (i as u64 + 1);
                n.other_node = base.other_node + remote;
                n.interleave_hit = base.interleave_hit;
                n.numa_foreign = base.numa_foreign + remote / 2;
            }
        }
    }
    use rand::SeedableRng;

    #[test]
    fn construction_partitions_zones() {
        let m = MemoryState::new(16 << 30, 8 << 30, 1);
        let names: Vec<_> = m.zones().iter().map(|z| z.name).collect();
        assert_eq!(names, vec!["DMA", "DMA32", "Normal"]);
        let spanned: u64 = m.zones().iter().map(|z| z.spanned_pages * PAGE_SIZE).sum();
        assert_eq!(spanned, 16 << 30);
    }

    #[test]
    fn two_nodes_get_separate_normal_zones() {
        let m = MemoryState::new(64 << 30, 0, 2);
        assert!(m.zones().iter().any(|z| z.node == 1 && z.name == "Normal"));
        let (t0, _) = m.node_mem(0);
        let (t1, _) = m.node_mem(1);
        assert!(t0 > 0 && t1 > 0);
    }

    #[test]
    fn free_drops_when_rss_charged() {
        let mut m = MemoryState::new(16 << 30, 0, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let before = m.free_bytes();
        m.tick(
            NANOS_PER_SEC,
            4 << 30,
            0,
            &mut DecayMemo::default(),
            &mut rng,
        );
        let after = m.free_bytes();
        assert!(before - after > 3 << 30, "free {before} -> {after}");
    }

    #[test]
    fn zone_free_tracks_global_free() {
        let mut m = MemoryState::new(16 << 30, 0, 1);
        let mut rng = StdRng::seed_from_u64(2);
        m.tick(
            NANOS_PER_SEC,
            8 << 30,
            0,
            &mut DecayMemo::default(),
            &mut rng,
        );
        let zone_free: u64 = m.zones().iter().map(|z| z.free_pages * PAGE_SIZE).sum();
        let diff = (zone_free as i64 - m.free_bytes() as i64).unsigned_abs();
        assert!(diff < 64 << 20, "zone/global free divergence {diff}");
    }

    #[test]
    fn page_cache_grows_with_io() {
        let mut m = MemoryState::new(16 << 30, 0, 1);
        let mut rng = StdRng::seed_from_u64(3);
        let before = m.cached_bytes();
        for _ in 0..10 {
            m.tick(
                NANOS_PER_SEC,
                0,
                256 << 20,
                &mut DecayMemo::default(),
                &mut rng,
            );
        }
        assert!(m.cached_bytes() > before, "cache did not grow");
    }

    #[test]
    fn memfree_jitters_between_ticks() {
        // Variation metric: consecutive MemFree snapshots differ.
        let mut m = MemoryState::new(16 << 30, 0, 1);
        let mut rng = StdRng::seed_from_u64(4);
        let mut values = Vec::new();
        for _ in 0..5 {
            m.tick(
                NANOS_PER_SEC,
                1 << 30,
                10 << 20,
                &mut DecayMemo::default(),
                &mut rng,
            );
            values.push(m.free_bytes());
        }
        values.dedup();
        assert!(values.len() > 1, "MemFree frozen at {values:?}");
    }

    #[test]
    fn numa_counters_accumulate() {
        let mut m = MemoryState::new(64 << 30, 0, 2);
        let mut rng = StdRng::seed_from_u64(5);
        m.tick(
            NANOS_PER_SEC,
            1 << 30,
            1 << 20,
            &mut DecayMemo::default(),
            &mut rng,
        );
        let s = m.numa_stats()[0];
        assert!(s.numa_hit > 0);
        assert!(s.local_node >= s.numa_miss);
    }

    #[test]
    fn vm_counters_accumulate_with_activity() {
        let mut m = MemoryState::new(16 << 30, 0, 1);
        let mut rng = StdRng::seed_from_u64(6);
        m.tick(
            NANOS_PER_SEC,
            1 << 30,
            1 << 20,
            &mut DecayMemo::default(),
            &mut rng,
        );
        let a = m.vm_counters();
        assert!(a.pgalloc > 0 && a.pgfault > a.pgalloc, "{a:?}");
        m.tick(
            NANOS_PER_SEC,
            1 << 30,
            1 << 20,
            &mut DecayMemo::default(),
            &mut rng,
        );
        let b = m.vm_counters();
        assert!(b.pgalloc > a.pgalloc && b.pgfault > a.pgfault);
    }

    #[test]
    fn cache_decay_memo_across_tick_lengths_equals_a_fresh_exp() {
        // One memo across 1 s / 30 s / 1 s ticks, as the kernel keeps it,
        // against a fresh memo (so a fresh `exp`) at every tick.
        let mut memoized = MemoryState::new(64 << 30, 0, 2);
        let mut fresh = memoized.clone();
        let (mut rm, mut rf) = (StdRng::seed_from_u64(12), StdRng::seed_from_u64(12));
        let mut cache_decay = DecayMemo::default();
        for secs in [1, 30, 1, 1, 30] {
            let dt = secs * NANOS_PER_SEC;
            memoized.tick(dt, 6 << 30, 64 << 20, &mut cache_decay, &mut rm);
            fresh.tick(dt, 6 << 30, 64 << 20, &mut DecayMemo::default(), &mut rf);
            let json = |m: &MemoryState| serde_json::to_string(m).expect("memory serializes");
            assert_eq!(json(&memoized), json(&fresh), "after a {secs} s tick");
            assert_eq!(rm.random::<u64>(), rf.random::<u64>());
        }
        // The boot-time zone shares split free memory as a per-tick
        // division would.
        let managed: u64 = memoized.zones.iter().map(|z| z.managed_pages).sum();
        let free_pages = memoized.free_bytes() / PAGE_SIZE;
        for z in memoized.zones() {
            let share = z.managed_pages as f64 / managed as f64;
            let want = ((free_pages as f64 * share) as u64).min(z.managed_pages);
            assert_eq!(z.free_pages, want, "zone {} of node {}", z.name, z.node);
        }
    }

    #[test]
    fn admission_control_respects_available() {
        let m = MemoryState::new(8 << 30, 0, 1);
        assert!(m.can_admit(1 << 30));
        assert!(!m.can_admit(9 << 30));
    }

    #[test]
    fn available_exceeds_free() {
        let m = MemoryState::new(16 << 30, 0, 1);
        assert!(m.available_bytes() > m.free_bytes());
    }
}
