//! The perf-event subsystem.
//!
//! The power-based namespace defense (§V-B1) creates one perf event per
//! (performance-event type × CPU) at namespace initialization, attaches
//! them to the container's `perf_event` cgroup, and sets their owner to
//! `TASK_TOMBSTONE` so accounting is decoupled from any user process. The
//! cost of enabling/disabling these monitors on *inter-cgroup* context
//! switches is the dominant overhead the paper measures in Table III
//! (61.5 % on single-copy pipe-based context switching, ~1.6 % with eight
//! copies that keep switches intra-cgroup).

use serde::{Deserialize, Serialize};

use crate::cgroup::{CgroupForest, CgroupId};
use crate::error::KernelError;

/// Hardware event types collected for the power model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PerfEventType {
    /// Retired instructions.
    Instructions,
    /// Last-level cache misses.
    CacheMisses,
    /// Branch mispredictions.
    BranchMisses,
    /// CPU cycles.
    Cycles,
}

impl PerfEventType {
    /// All event types the defense collects.
    pub const ALL: [PerfEventType; 4] = [
        PerfEventType::Instructions,
        PerfEventType::CacheMisses,
        PerfEventType::BranchMisses,
        PerfEventType::Cycles,
    ];
}

/// One created perf event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PerfEventDesc {
    /// The perf_event cgroup being monitored.
    pub cgroup: CgroupId,
    /// The CPU this event counts on.
    pub cpu: u16,
    /// The counted event.
    pub event: PerfEventType,
    /// Owner is `TASK_TOMBSTONE` (decoupled from user processes).
    pub tombstone_owner: bool,
}

/// Costs the perf machinery adds to kernel paths while any cgroup
/// monitoring is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PerfOverheadCosts {
    /// Extra nanoseconds on a context switch that crosses perf_event
    /// cgroups (monitor disable + enable, PMU reprogramming).
    pub inter_cgroup_switch_ns: u64,
    /// Extra nanoseconds on fork (inheriting event context).
    pub fork_ns: u64,
    /// Extra nanoseconds on exec (re-attaching events).
    pub exec_ns: u64,
    /// Extra nanoseconds per syscall (rare PMU spill handling, amortized).
    pub syscall_ns: u64,
    /// Extra nanoseconds per file-copy block when accounting IO-adjacent
    /// events under memory pressure (contention path; only visible with
    /// many parallel copies).
    pub file_block_contended_ns: u64,
}

impl Default for PerfOverheadCosts {
    fn default() -> Self {
        PerfOverheadCosts {
            inter_cgroup_switch_ns: 3_100,
            fork_ns: 7_500,
            exec_ns: 18_000,
            syscall_ns: 4,
            file_block_contended_ns: 200,
        }
    }
}

/// The perf-event subsystem state.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PerfSubsystem {
    events: Vec<PerfEventDesc>,
    costs: Option<PerfOverheadCosts>,
}

impl PerfSubsystem {
    /// Creates the subsystem with no events attached.
    pub fn new() -> Self {
        PerfSubsystem::default()
    }

    /// All created events.
    pub fn events(&self) -> &[PerfEventDesc] {
        &self.events
    }

    /// Whether any cgroup is being monitored.
    pub fn monitoring_active(&self) -> bool {
        !self.events.is_empty()
    }

    /// The overhead cost table in effect (None when no monitoring).
    pub fn overhead(&self) -> Option<&PerfOverheadCosts> {
        if self.monitoring_active() {
            self.costs.as_ref()
        } else {
            None
        }
    }

    /// Attaches monitoring to a perf_event cgroup: creates one event per
    /// (type × CPU) with a tombstone owner and enables counter accumulation
    /// in the cgroup forest.
    ///
    /// # Errors
    ///
    /// Propagates cgroup-forest errors for unknown/mistyped cgroups.
    pub fn attach_cgroup(
        &mut self,
        forest: &mut CgroupForest,
        cgroup: CgroupId,
        ncpus: u16,
        costs: PerfOverheadCosts,
    ) -> Result<(), KernelError> {
        forest.set_perf_monitoring(cgroup, true)?;
        for cpu in 0..ncpus {
            for event in PerfEventType::ALL {
                self.events.push(PerfEventDesc {
                    cgroup,
                    cpu,
                    event,
                    tombstone_owner: true,
                });
            }
        }
        self.costs.get_or_insert(costs);
        Ok(())
    }

    /// Detaches monitoring from a cgroup (container teardown).
    ///
    /// # Errors
    ///
    /// Propagates cgroup-forest errors for unknown/mistyped cgroups.
    pub fn detach_cgroup(
        &mut self,
        forest: &mut CgroupForest,
        cgroup: CgroupId,
    ) -> Result<(), KernelError> {
        forest.set_perf_monitoring(cgroup, false)?;
        self.events.retain(|e| e.cgroup != cgroup);
        if self.events.is_empty() {
            self.costs = None;
        }
        Ok(())
    }

    /// The extra cost of a context switch from a task in `from` to a task
    /// in `to` (perf_event cgroup ids). Zero when monitoring is off or the
    /// switch stays within one cgroup — the asymmetry behind Table III's
    /// 1-copy vs 8-copy pipe results.
    pub fn switch_cost_ns(&self, from: CgroupId, to: CgroupId) -> u64 {
        match self.overhead() {
            Some(c) if from != to => c.inter_cgroup_switch_ns,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cgroup::CgroupKind;

    fn setup() -> (CgroupForest, PerfSubsystem, CgroupId, CgroupId) {
        let mut f = CgroupForest::new(4);
        let root = f.root(CgroupKind::PerfEvent);
        let a = f.create_child(root, "a").unwrap();
        let b = f.create_child(root, "b").unwrap();
        (f, PerfSubsystem::new(), a, b)
    }

    #[test]
    fn attach_creates_events_per_type_and_cpu() {
        let (mut f, mut p, a, _) = setup();
        p.attach_cgroup(&mut f, a, 4, PerfOverheadCosts::default())
            .unwrap();
        assert_eq!(p.events().len(), 16);
        assert!(p.events().iter().all(|e| e.tombstone_owner));
        assert!(f.perf_monitoring(a));
        assert!(p.monitoring_active());
    }

    #[test]
    fn switch_cost_only_across_cgroups() {
        let (mut f, mut p, a, b) = setup();
        assert_eq!(p.switch_cost_ns(a, b), 0, "no cost before attach");
        p.attach_cgroup(&mut f, a, 2, PerfOverheadCosts::default())
            .unwrap();
        assert!(p.switch_cost_ns(a, b) > 0);
        assert_eq!(p.switch_cost_ns(a, a), 0);
    }

    #[test]
    fn detach_disables_everything() {
        let (mut f, mut p, a, b) = setup();
        p.attach_cgroup(&mut f, a, 2, PerfOverheadCosts::default())
            .unwrap();
        p.detach_cgroup(&mut f, a).unwrap();
        assert!(!p.monitoring_active());
        assert!(p.overhead().is_none());
        assert_eq!(p.switch_cost_ns(a, b), 0);
        assert!(!f.perf_monitoring(a));
    }

    #[test]
    fn attach_rejects_wrong_hierarchy() {
        let mut f = CgroupForest::new(2);
        let mem_root = f.root(CgroupKind::Memory);
        let mut p = PerfSubsystem::new();
        assert!(p
            .attach_cgroup(&mut f, mem_root, 2, PerfOverheadCosts::default())
            .is_err());
    }
}
