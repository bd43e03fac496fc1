//! Per-subsystem dirty epochs and the render cache they guard.
//!
//! Every kernel subsystem whose state a pseudo-file can render carries a
//! monotonically increasing epoch, bumped only when that state actually
//! mutates. A rendered buffer tagged with the epochs it depended on can
//! therefore be reused verbatim for as long as none of those epochs has
//! advanced — the contract the pseudofs render cache is built on.
//!
//! Bumps are deliberately *conservative*: a bump promises nothing changed
//! when the epoch is stable, not that something changed when it advanced.
//! That one-sided contract is what keeps bump placement simple (one bump
//! per [`Kernel::advance`](crate::Kernel::advance) call, keyed on whether
//! any run or idle time elapsed) while remaining byte-exact: a spurious
//! bump costs one re-render, never a stale read.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Subsystem dependency bits. A render handler's dependency set is the
/// OR of the bits for every subsystem it reads; [`dep::ALL`] is the
/// conservative fallback for unregistered paths.
pub mod dep {
    /// The virtual clock (uptime, wall time, timestamps).
    pub const CLOCK: u32 = 1 << 0;
    /// Scheduler accounting (loadavg, schedstat, per-CPU times).
    pub const SCHED: u32 = 1 << 1;
    /// Hardware state (RAPL, coretemp, cpufreq, cpuidle).
    pub const HW: u32 = 1 << 2;
    /// Interrupt state (/proc/interrupts, softirqs).
    pub const IRQ: u32 = 1 << 3;
    /// Memory state (meminfo, vmstat, zones, NUMA).
    pub const MEM: u32 = 1 << 4;
    /// VFS state (locks, dentry/inode/file counters, entropy, boot id).
    pub const FS: u32 = 1 << 5;
    /// Network state (devices, per-iface counters, SNMP).
    pub const NET: u32 = 1 << 6;
    /// The timer list.
    pub const TIMERS: u32 = 1 << 7;
    /// The process table (pids, per-process accounting).
    pub const PROCESS: u32 = 1 << 8;
    /// The cgroup forest (usages, limits, net_prio maps).
    pub const CGROUP: u32 = 1 << 9;
    /// The namespace registry (hostnames, pid translation, membership).
    pub const NS: u32 = 1 << 10;
    /// Aggregate kernel counters (total syscalls, block-IO bytes).
    pub const STATS: u32 = 1 << 11;
    /// Every subsystem — the sound fallback when dependencies are unknown.
    pub const ALL: u32 =
        CLOCK | SCHED | HW | IRQ | MEM | FS | NET | TIMERS | PROCESS | CGROUP | NS | STATS;

    /// Number of subsystem bits (array length of `SubsystemEpochs`).
    pub const COUNT: usize = 12;

    /// Every subsystem bit in index order (`BITS[i] == 1 << i`), for
    /// consumers that walk the lattice dimension by dimension (the
    /// leakcheck flow matrix, the epoch-diff tests).
    pub const BITS: [u32; COUNT] = [
        CLOCK, SCHED, HW, IRQ, MEM, FS, NET, TIMERS, PROCESS, CGROUP, NS, STATS,
    ];

    /// Human-readable name for a single dependency bit (lint reports).
    pub fn name(bit: u32) -> &'static str {
        match bit {
            CLOCK => "clock",
            SCHED => "sched",
            HW => "hw",
            IRQ => "irq",
            MEM => "mem",
            FS => "fs",
            NET => "net",
            TIMERS => "timers",
            PROCESS => "process",
            CGROUP => "cgroup",
            NS => "ns",
            STATS => "stats",
            _ => "?",
        }
    }

    /// Parses a subsystem name back to its bit — the inverse of
    /// [`name`]. `None` for anything that is not a subsystem name.
    pub fn from_name(s: &str) -> Option<u32> {
        BITS.iter().copied().find(|b| name(*b) == s)
    }

    /// Maps a public [`Kernel`](crate::Kernel) accessor to the dirty-epoch
    /// subsystem bit its reads depend on. This table is the authoritative
    /// source→subsystem binding of the taint analysis: `Some(0)` marks
    /// construction-time constants no mutation can change (`config`,
    /// `seed`), and `None` marks accessors outside the mapped render
    /// surface — the leakcheck flow analysis treats those as hard audit
    /// failures when they are reachable from a registered channel, so a
    /// new accessor in a handler cannot silently bypass cache coherence.
    pub fn accessor_bit(accessor: &str) -> Option<u32> {
        Some(match accessor {
            "clock" => CLOCK,
            "sched" | "total_idle_ns" => SCHED,
            "hw" | "rapl" => HW,
            "irq" => IRQ,
            "mem" => MEM,
            "fs" | "boot_id" => FS,
            "net" => NET,
            "timers" => TIMERS,
            "process" | "processes" | "process_count" | "last_pid" | "total_forks" => PROCESS,
            "cgroups" => CGROUP,
            "namespaces" => NS,
            "stats" => STATS,
            "config" | "seed" => 0,
            _ => return None,
        })
    }

    /// Renders a mask as a `+`-joined list of subsystem names.
    pub fn mask_names(mask: u32) -> String {
        let mut out = String::new();
        for i in 0..COUNT {
            let bit = 1 << i;
            if mask & bit != 0 {
                if !out.is_empty() {
                    out.push('+');
                }
                out.push_str(name(bit));
            }
        }
        if out.is_empty() {
            out.push_str("(none)");
        }
        out
    }
}

/// One monotone epoch per subsystem. Epochs only increase, so for a fixed
/// dependency mask the *sum* of the masked epochs is itself monotone and
/// equals a previous sum iff every component is unchanged — freshness is
/// one u64 comparison, not a per-component walk.
#[derive(Debug, Clone, Default)]
pub struct SubsystemEpochs {
    epochs: [u64; dep::COUNT],
}

impl SubsystemEpochs {
    /// Advances the epoch of every subsystem named in `mask`.
    pub fn bump(&mut self, mask: u32) {
        for (i, e) in self.epochs.iter_mut().enumerate() {
            if mask & (1 << i) != 0 {
                *e += 1;
            }
        }
    }

    /// Sum of the epochs named in `mask`. Because epochs are monotone,
    /// two equal masked sums imply equal per-component values.
    pub fn masked_sum(&self, mask: u32) -> u64 {
        let mut sum = 0u64;
        for (i, e) in self.epochs.iter().enumerate() {
            if mask & (1 << i) != 0 {
                sum = sum.wrapping_add(*e);
            }
        }
        sum
    }

    /// Sum over every subsystem (any state change advances this).
    pub fn total(&self) -> u64 {
        self.masked_sum(dep::ALL)
    }

    /// The raw epoch of subsystem bit-index `i` (tests, diagnostics).
    pub fn get(&self, i: usize) -> u64 {
        self.epochs[i]
    }
}

/// What a cache entry holds for one `(view, path)` key.
#[derive(Debug, Clone)]
pub enum CachePayload {
    /// The rendered file body, pre fault distortion. Shared, so a fresh
    /// hit hands out a refcount bump instead of copying the body.
    Bytes(Arc<String>),
    /// The view's mask policy denies this path. Policy is part of the
    /// view fingerprint, so a deny decision never goes stale.
    Denied,
    /// A cached directory listing (the reserved `list` key). Shared, so
    /// a hit hands the caller a refcount bump instead of a deep clone of
    /// a few hundred path strings.
    Paths(Arc<Vec<String>>),
}

/// One cached render, tagged with the dependency mask it was rendered
/// under and the masked epoch sum at render time.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// OR of [`dep`] bits this render depended on.
    pub mask: u32,
    /// `epochs.masked_sum(mask)` at store time.
    pub dep_sum: u64,
    /// The cached result.
    pub payload: CachePayload,
}

/// FNV-1a hasher folding eight bytes per multiply. Cache keys are short
/// fixed pseudo-file paths (and pre-hashed view fingerprints), not
/// attacker-controlled input, so SipHash's DoS resistance buys nothing
/// here — and the lookup sits on the per-read hot path.
#[derive(Debug)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            h ^= u64::from_le_bytes(w);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        for &b in chunks.remainder() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        self.0 = h;
    }

    fn write_u64(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }
}

type FnvBuild = BuildHasherDefault<FnvHasher>;

/// The per-kernel render cache: view fingerprint → path → entry.
///
/// Keyed first by the [`View`](../pseudofs) fingerprint so policy or
/// namespace differences between views can never alias, then by path.
#[derive(Debug, Default)]
pub struct RenderCache {
    views: HashMap<u64, HashMap<String, CacheEntry, FnvBuild>, FnvBuild>,
}

impl RenderCache {
    /// The entry for `(view_fp, path)`, if any.
    pub fn get(&self, view_fp: u64, path: &str) -> Option<&CacheEntry> {
        self.views.get(&view_fp)?.get(path)
    }

    /// Inserts or replaces the entry for `(view_fp, path)`. A replaced
    /// entry is overwritten in place, so revalidating a stale render
    /// reuses its key instead of allocating a fresh one.
    pub fn store(&mut self, view_fp: u64, path: &str, entry: CacheEntry) {
        let view = self.views.entry(view_fp).or_default();
        match view.get_mut(path) {
            Some(slot) => *slot = entry,
            None => {
                view.insert(path.to_string(), entry);
            }
        }
    }

    /// Drops every entry cached under `view_fp`, returning how many were
    /// removed. Called on container teardown: a destroyed container's
    /// fingerprint can never be probed again (fingerprints fold the
    /// monotone namespace and cgroup ids), so its entries are dead weight
    /// that high-churn create/destroy loops would otherwise accumulate
    /// without bound.
    pub fn evict_view(&mut self, view_fp: u64) -> usize {
        self.views.remove(&view_fp).map_or(0, |m| m.len())
    }

    /// Total number of cached entries across all views (tests).
    pub fn len(&self) -> usize {
        self.views.values().map(|m| m.len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_advances_only_masked_components() {
        let mut e = SubsystemEpochs::default();
        e.bump(dep::SCHED | dep::MEM);
        assert_eq!(e.masked_sum(dep::SCHED), 1);
        assert_eq!(e.masked_sum(dep::MEM), 1);
        assert_eq!(e.masked_sum(dep::IRQ), 0);
        assert_eq!(e.masked_sum(dep::SCHED | dep::MEM), 2);
        assert_eq!(e.total(), 2);
    }

    #[test]
    fn masked_sum_equality_implies_component_equality() {
        // Monotonicity makes sum collisions impossible for a fixed mask:
        // any bump strictly increases the sum of a mask containing it.
        let mut e = SubsystemEpochs::default();
        let mask = dep::CLOCK | dep::NET;
        let s0 = e.masked_sum(mask);
        e.bump(dep::PROCESS); // outside the mask
        assert_eq!(e.masked_sum(mask), s0);
        e.bump(dep::NET);
        assert!(e.masked_sum(mask) > s0);
    }

    #[test]
    fn cache_round_trip_and_view_isolation() {
        let mut c = RenderCache::default();
        c.store(
            1,
            "/proc/stat",
            CacheEntry {
                mask: dep::SCHED,
                dep_sum: 0,
                payload: CachePayload::Bytes(Arc::new("cpu 0".into())),
            },
        );
        assert!(c.get(1, "/proc/stat").is_some());
        assert!(c.get(2, "/proc/stat").is_none());
        assert!(c.get(1, "/proc/uptime").is_none());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn mask_names_renders_bits() {
        assert_eq!(dep::mask_names(dep::SCHED | dep::CLOCK), "clock+sched");
        assert_eq!(dep::mask_names(0), "(none)");
    }

    #[test]
    fn bits_are_index_ordered_and_names_round_trip() {
        for (i, bit) in dep::BITS.iter().enumerate() {
            assert_eq!(*bit, 1 << i);
            assert_eq!(dep::from_name(dep::name(*bit)), Some(*bit));
        }
        assert_eq!(dep::BITS.iter().fold(0, |m, b| m | b), dep::ALL);
        assert_eq!(dep::from_name("quantum"), None);
    }

    #[test]
    fn accessor_bits_cover_the_render_surface() {
        assert_eq!(dep::accessor_bit("namespaces"), Some(dep::NS));
        assert_eq!(dep::accessor_bit("total_idle_ns"), Some(dep::SCHED));
        assert_eq!(dep::accessor_bit("boot_id"), Some(dep::FS));
        assert_eq!(dep::accessor_bit("config"), Some(0));
        assert_eq!(dep::accessor_bit("tracer"), None);
    }
}
