//! The fleet's event calendar: the lazy host-stepping core of
//! [`crate::Cloud`].
//!
//! A [`Calendar`] owns every host of the fleet and keeps, per host, a
//! *struct-of-arrays* mirror of the scheduling-relevant kernel state: how
//! far the host has been synced (`synced_ns`), its next-event horizon
//! (`horizon_ns`), a runnable flag, and the kernel's epoch sum at the last
//! refresh (the dirty check that lets a sync-on-access skip untouched
//! hosts). The `Host` bodies themselves are boxed behind these arrays, so
//! the advance hot loop walks cache-linear `u64` lanes and only
//! dereferences a host when it is actually due.
//!
//! The calendar is a lazy binary min-heap of `(horizon, slot)` pairs.
//! Entries are never removed in place: a refresh that moves a host's
//! horizon pushes a fresh entry and the stale one is discarded when
//! popped (its value no longer matches `horizon_ns`). The invariant that
//! makes this sound: whenever `horizon_ns[slot] != u64::MAX`, a live
//! entry `(horizon_ns[slot], slot)` sits in the heap — pushes happen
//! when the stored horizon changes, and a pop of a live entry either
//! syncs the host to a strictly later horizon or restores the entry
//! after the pop loop (see `advance_to`). A slot is the host's index in
//! the fleet.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::Host;

/// The fleet: boxed host bodies behind parallel struct-of-arrays
/// scheduling state, plus the event calendar over them.
//
// `Vec<Box<Host>>` is deliberate: a `Host` embeds a whole kernel, so
// boxing keeps 10k-host construction off the stack and host addresses
// stable while the SoA lanes stay dense.
#[allow(clippy::vec_box)]
#[derive(Debug)]
pub(crate) struct Calendar {
    /// Eager mode: step every host every advance (the historical naive
    /// path, kept as the reference baseline; skips all calendar work).
    pub(crate) eager: bool,
    /// The host bodies, boxed so the SoA lanes stay dense.
    pub(crate) hosts: Vec<Box<Host>>,
    /// Fleet instant each host's kernel has been advanced to.
    pub(crate) synced_ns: Vec<u64>,
    /// Fleet instant of the host's next observable event (== synced_ns
    /// while runnable; `u64::MAX` when event-free and quiescent).
    pub(crate) horizon_ns: Vec<u64>,
    /// Whether the host had a runnable process at its last refresh.
    pub(crate) runnable: Vec<bool>,
    /// Kernel epoch sum at the last refresh (sync-on-access dirty flag).
    pub(crate) epoch_sum: Vec<u64>,
    /// Lazy min-heap over `(horizon_ns, slot)`.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Calendar {
    /// Wraps `hosts` (already booted, at fleet instant 0) into a calendar
    /// seeded from their current horizons.
    #[allow(clippy::vec_box)]
    pub(crate) fn new(hosts: Vec<Box<Host>>, eager: bool) -> Self {
        let n = hosts.len();
        let mut cal = Calendar {
            eager,
            hosts,
            synced_ns: vec![0; n],
            horizon_ns: vec![u64::MAX; n],
            runnable: vec![false; n],
            epoch_sum: vec![0; n],
            heap: BinaryHeap::new(),
        };
        for slot in 0..n {
            cal.refresh(slot, 0);
        }
        cal
    }

    /// Recomputes the SoA mirror for `slot` from its kernel at fleet
    /// instant `now_ns`, pushing a calendar entry when the horizon moved.
    /// Must be called after every external mutation of the host.
    pub(crate) fn refresh(&mut self, slot: usize, now_ns: u64) {
        let kernel = &self.hosts[slot].kernel;
        self.epoch_sum[slot] = kernel.epochs().total();
        let runnable = kernel.has_runnable();
        self.runnable[slot] = runnable;
        let horizon = if runnable {
            // A runnable host is due at every advance: its horizon is
            // "now", so the next pop loop always reaches it.
            now_ns
        } else {
            match kernel.next_event_horizon_ns() {
                Some(ev) => now_ns + ev.saturating_sub(kernel.lifetime_ns()),
                None => u64::MAX,
            }
        };
        if horizon != self.horizon_ns[slot] {
            self.horizon_ns[slot] = horizon;
            if !self.eager && horizon != u64::MAX {
                self.heap.push(Reverse((horizon, slot as u32)));
            }
        }
    }

    /// Brings `slot` to fleet instant `target_ns`, advancing its kernel
    /// through any accumulated lag. Returns whether the kernel actually
    /// advanced. The quiescent evolution is anchor-absolute
    /// (`advance(a); advance(b)` ≡ `advance(a + b)` while no process is
    /// runnable), so deferring the advance to this instant is
    /// byte-identical to having stepped the host eagerly.
    pub(crate) fn sync_to(&mut self, slot: usize, target_ns: u64) -> bool {
        let lag = target_ns.saturating_sub(self.synced_ns[slot]);
        if lag == 0 && self.hosts[slot].kernel.epochs().total() == self.epoch_sum[slot] {
            return false;
        }
        if lag > 0 {
            self.hosts[slot].kernel.advance(lag);
            self.synced_ns[slot] = target_ns;
        }
        self.refresh(slot, target_ns);
        lag > 0
    }

    /// Advances the fleet to instant `target_ns`: pops every due calendar
    /// entry (horizon ≤ target) and syncs those hosts; all other hosts
    /// stay lagged, their closed-form evolution deferred to their next
    /// access or due event. An eager calendar syncs every host.
    pub(crate) fn advance_to(&mut self, target_ns: u64) {
        let mut pops = 0u64;
        let mut advanced = 0u64;
        if self.eager {
            for slot in 0..self.hosts.len() {
                if self.sync_to(slot, target_ns) {
                    advanced += 1;
                }
            }
        } else {
            // Entries consumed at a horizon the sync did not move (a host
            // synced to exactly `target_ns` that stays due there — e.g. a
            // runnable host already brought to target earlier this loop).
            // Restored only after the loop exits, or popping them again
            // here would spin forever re-consuming the same entry.
            let mut restore: Vec<(u64, u32)> = Vec::new();
            while let Some(&Reverse((horizon, slot))) = self.heap.peek() {
                if horizon > target_ns {
                    break;
                }
                self.heap.pop();
                let slot = slot as usize;
                if self.horizon_ns[slot] != horizon {
                    // Stale: the host's horizon moved since this entry
                    // was pushed; a fresher entry supersedes it.
                    continue;
                }
                pops += 1;
                if self.sync_to(slot, target_ns) {
                    advanced += 1;
                }
                if self.horizon_ns[slot] == horizon {
                    // The sync left the horizon exactly where the consumed
                    // entry sat: the host is synced-to-target but still due
                    // at target (next advance must reach it). Defer the
                    // restore so this loop cannot pop it again.
                    restore.push((horizon, slot as u32));
                }
            }
            for (horizon, slot) in restore {
                // Only restore if the horizon still holds — a later pop of
                // a stale duplicate could not have moved it (only sync_to
                // does, and that path records its own restore), but guard
                // against double entries all the same.
                if self.horizon_ns[slot as usize] == horizon {
                    self.heap.push(Reverse((horizon, slot)));
                }
            }
        }
        if simtrace::enabled() {
            // Mode-exempt: how many hosts the calendar touches depends on
            // the stepping mode (eager touches all), not on the results.
            if pops > 0 {
                simtrace::counters::add_exempt("cloud.calendar_pops", pops);
            }
            if advanced > 0 {
                simtrace::counters::add_exempt("cloud.hosts_advanced", advanced);
            }
        }
    }
}
