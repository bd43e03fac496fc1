//! The sim-time self-profiler.
//!
//! Attributes *virtual* nanoseconds and event counts to a small fixed
//! set of phases. Like the counters, phase totals only ever sum, so the
//! profile is deterministic across worker counts; and because phase
//! attribution follows the simulation (not the coalescing mechanics),
//! it is identical on tick-stepped kernels too — the profile table
//! stays inside the byte-compared trace artifact.

use std::collections::BTreeMap;
use std::sync::Mutex;

#[derive(Debug, Clone, Copy, Default)]
struct PhaseTotals {
    sim_ns: u64,
    events: u64,
}

static PHASES: Mutex<BTreeMap<&'static str, PhaseTotals>> = Mutex::new(BTreeMap::new());

/// One phase row in a profile snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseEntry {
    /// Phase name (`run`, `idle`, `reboot`, `probe`).
    pub phase: &'static str,
    /// Virtual nanoseconds attributed to this phase.
    pub sim_ns: u64,
    /// Events attributed to this phase (context switches for `run`,
    /// reads for `probe`, reboots for `reboot`).
    pub events: u64,
}

/// Attributes virtual time and events to a phase. No-op unless tracing
/// is enabled.
#[inline]
pub fn record(phase: &'static str, sim_ns: u64, events: u64) {
    if !crate::enabled() {
        return;
    }
    let mut map = PHASES.lock().expect("profile registry poisoned");
    let slot = map.entry(phase).or_default();
    slot.sim_ns += sim_ns;
    slot.events += events;
}

/// Snapshot of every phase, sorted by virtual time spent (descending),
/// ties broken by name — the "self-profile table" order.
pub fn snapshot() -> Vec<PhaseEntry> {
    let mut rows: Vec<PhaseEntry> = PHASES
        .lock()
        .expect("profile registry poisoned")
        .iter()
        .map(|(&phase, totals)| PhaseEntry {
            phase,
            sim_ns: totals.sim_ns,
            events: totals.events,
        })
        .collect();
    rows.sort_by(|a, b| b.sim_ns.cmp(&a.sim_ns).then(a.phase.cmp(b.phase)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_is_inert_while_disabled() {
        record("test-phase", 123, 1);
        assert!(snapshot().iter().all(|e| e.phase != "test-phase"));
    }

    #[test]
    fn snapshot_sorts_by_time_descending() {
        {
            let mut map = PHASES.lock().unwrap();
            map.insert(
                "zz-small",
                PhaseTotals {
                    sim_ns: 10,
                    events: 1,
                },
            );
            map.insert(
                "zz-big",
                PhaseTotals {
                    sim_ns: 1_000_000,
                    events: 2,
                },
            );
        }
        let rows = snapshot();
        let big = rows.iter().position(|e| e.phase == "zz-big").unwrap();
        let small = rows.iter().position(|e| e.phase == "zz-small").unwrap();
        assert!(big < small);
    }
}
