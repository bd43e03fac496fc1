//! Per-subsystem dirty epochs.
//!
//! Every kernel subsystem whose state a pseudo-file can render carries a
//! monotonically increasing epoch, bumped only when that state actually
//! mutates. For a route whose dependency mask names the subsystems its
//! renderer reads, an unchanged masked epoch sum therefore proves the
//! rendered bytes are unchanged. The fleet calendar's sync check, the
//! cross-validator's host-snapshot freshness check and the idle-channel
//! metrics' epoch memo rely on that, and leakcheck audits every route's
//! declared mask against the accessors its renderer reaches.
//!
//! Bumps are deliberately *conservative*: a bump promises nothing changed
//! when the epoch is stable, not that something changed when it advanced.
//! That one-sided contract is what keeps bump placement simple (one bump
//! per [`Kernel::advance`](crate::Kernel::advance) call, keyed on whether
//! any run or idle time elapsed) while remaining byte-exact: a spurious
//! bump costs one redundant comparison, never a missed change.

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
    /// new accessor in a handler cannot read state whose changes no
    /// declared dependency bit would report. The power namespace is the
    /// one two-bit source: its energies move at calibrations, inside an
    /// advance (`hw`), and its entries come and go with container envs
    /// (`cgroup`).
    pub fn accessor_bit(accessor: &str) -> Option<u32> {
        Some(match accessor {
            "power_ns" => HW | CGROUP,
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
        assert_eq!(dep::accessor_bit("power_ns"), Some(dep::HW | dep::CGROUP));
        assert_eq!(dep::accessor_bit("tracer"), None);
    }
}
