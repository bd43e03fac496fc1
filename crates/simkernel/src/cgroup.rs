//! Control groups (§II-A.2 of the paper).
//!
//! Containers get one cgroup per hierarchy; resource accounting charges the
//! process's cgroup *and all its ancestors*, as in Linux. The hierarchies
//! modeled are the ones the paper's channels and defense touch:
//!
//! * `cpuacct` — CPU-cycle accounting per container (defense input).
//! * `perf_event` — scope for perf-event monitoring (defense input; the
//!   enable/disable toggles on inter-cgroup context switches are the source
//!   of the paper's Table III overhead).
//! * `net_prio` — whose `net_prio.ifpriomap` file is the paper's Case
//!   Study I leakage channel.
//! * `memory` — per-container memory accounting.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::error::KernelError;

/// Identifies a cgroup node within a [`CgroupForest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CgroupId(pub u32);

impl fmt::Display for CgroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cgroup#{}", self.0)
    }
}

/// The cgroup hierarchies (subsystems) modeled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CgroupKind {
    /// CPU cycle/time accounting.
    Cpuacct,
    /// Perf-event monitoring scope.
    PerfEvent,
    /// Network traffic priorities.
    NetPrio,
    /// Memory accounting and limits.
    Memory,
}

impl CgroupKind {
    /// All modeled hierarchies.
    pub const ALL: [CgroupKind; 4] = [
        CgroupKind::Cpuacct,
        CgroupKind::PerfEvent,
        CgroupKind::NetPrio,
        CgroupKind::Memory,
    ];

    /// This hierarchy's position in [`CgroupKind::ALL`].
    pub const fn index(self) -> usize {
        self as usize
    }
}

/// Hardware-event counters accumulated for a perf-event cgroup.
///
/// These are the four inputs of the paper's power model (Formula 2):
/// retired instructions `I`, cache misses `CM`, branch misses `BM`, and
/// CPU cycles `C`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PerfCounters {
    /// Retired instructions.
    pub instructions: u64,
    /// Last-level cache misses.
    pub cache_misses: u64,
    /// Branch mispredictions.
    pub branch_misses: u64,
    /// CPU cycles.
    pub cycles: u64,
}

impl PerfCounters {
    /// Element-wise accumulation.
    pub fn add(&mut self, other: &PerfCounters) {
        self.instructions += other.instructions;
        self.cache_misses += other.cache_misses;
        self.branch_misses += other.branch_misses;
        self.cycles += other.cycles;
    }

    /// Element-wise difference (`self - earlier`), saturating at zero.
    #[must_use]
    pub fn delta_since(&self, earlier: &PerfCounters) -> PerfCounters {
        PerfCounters {
            instructions: self.instructions.saturating_sub(earlier.instructions),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            branch_misses: self.branch_misses.saturating_sub(earlier.branch_misses),
            cycles: self.cycles.saturating_sub(earlier.cycles),
        }
    }
}

/// Per-hierarchy payload of a cgroup node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CgroupData {
    /// `cpuacct`: accumulated CPU nanoseconds per logical CPU.
    Cpuacct {
        /// Per-CPU nanoseconds of execution charged to this group; empty,
        /// and allocating nothing, until its first charge: zero on every
        /// CPU.
        usage_ns_per_cpu: Vec<u64>,
    },
    /// `perf_event`: event counters and whether monitoring is active
    /// (the power-based namespace activates it).
    PerfEvent {
        /// Accumulated counters (only grow while `monitoring`).
        counters: PerfCounters,
        /// Whether perf events are attached to this group.
        monitoring: bool,
    },
    /// `net_prio`: interface→priority map *as configured in this cgroup*.
    NetPrio {
        /// The priorities explicitly set in this group, by interface
        /// name; every other interface is at priority 0. Note the
        /// leakage: the kernel handler renders a line for *every host
        /// interface*, looked up here, regardless of the reader's network
        /// namespace (Case Study I). Nothing sets a priority today, so a
        /// group's map stays empty and allocates nothing.
        ifpriomap: BTreeMap<String, u32>,
    },
    /// `memory`: usage and limit.
    Memory {
        /// Limit in bytes (`u64::MAX` = unlimited).
        limit_bytes: u64,
        /// Current usage in bytes.
        usage_bytes: u64,
        /// High-water mark.
        max_usage_bytes: u64,
    },
}

/// One cgroup node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CgroupNode {
    id: CgroupId,
    kind: CgroupKind,
    /// Shared by a container's four nodes and its cgroup namespace.
    path: Arc<str>,
    parent: Option<CgroupId>,
    /// Live children; a node with any cannot be removed.
    children: u32,
    data: CgroupData,
}

impl CgroupNode {
    /// The node's id.
    pub fn id(&self) -> CgroupId {
        self.id
    }
    /// The hierarchy this node belongs to.
    pub fn kind(&self) -> CgroupKind {
        self.kind
    }
    /// Absolute path within the hierarchy (e.g. `/docker/abc123`).
    pub fn path(&self) -> &str {
        &self.path
    }
    /// Parent node, if not the root.
    pub fn parent(&self) -> Option<CgroupId> {
        self.parent
    }
    /// The payload.
    pub fn data(&self) -> &CgroupData {
        &self.data
    }
}

/// All cgroup hierarchies of one kernel.
///
/// Ids are allocated sequentially and never reused, so the nodes live in a
/// slot vector indexed by id: every lookup on the scheduler's per-task
/// charge path is an array index instead of a hash probe. Removed nodes
/// leave a `None` slot behind, so `nodes` only grows; the operations a
/// container lifecycle runs never walk it. Removal checks the node's own
/// live-child count. Host interfaces come and go without touching any
/// node: a net_prio map holds only explicitly set priorities.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CgroupForest {
    next: u32,
    nodes: Vec<Option<CgroupNode>>,
    /// Each hierarchy's root, indexed by [`CgroupKind::index`].
    roots: [CgroupId; 4],
    ncpus: usize,
    /// One zero per CPU: the per-CPU usage of a cpuacct group never
    /// charged.
    zeros: Vec<u64>,
}

impl CgroupForest {
    /// Creates the forest with one root per hierarchy.
    pub fn new(ncpus: usize) -> Self {
        let mut f = CgroupForest {
            next: 0,
            nodes: Vec::new(),
            roots: [CgroupId(0); 4],
            ncpus,
            zeros: vec![0; ncpus],
        };
        let root: Arc<str> = Arc::from("/");
        for kind in CgroupKind::ALL {
            let data = Self::fresh_data(kind);
            f.roots[kind.index()] = f.alloc(kind, Arc::clone(&root), None, data);
        }
        f
    }

    fn fresh_data(kind: CgroupKind) -> CgroupData {
        match kind {
            CgroupKind::Cpuacct => CgroupData::Cpuacct {
                usage_ns_per_cpu: Vec::new(),
            },
            CgroupKind::PerfEvent => CgroupData::PerfEvent {
                counters: PerfCounters::default(),
                monitoring: false,
            },
            CgroupKind::NetPrio => CgroupData::NetPrio {
                ifpriomap: BTreeMap::new(),
            },
            CgroupKind::Memory => CgroupData::Memory {
                limit_bytes: u64::MAX,
                usage_bytes: 0,
                max_usage_bytes: 0,
            },
        }
    }

    fn alloc(
        &mut self,
        kind: CgroupKind,
        path: Arc<str>,
        parent: Option<CgroupId>,
        data: CgroupData,
    ) -> CgroupId {
        let id = CgroupId(self.next);
        self.next += 1;
        if let Some(p) = parent.and_then(|p| self.node_mut(p)) {
            p.children += 1;
        }
        self.nodes.push(Some(CgroupNode {
            id,
            kind,
            path,
            parent,
            children: 0,
            data,
        }));
        id
    }

    fn node_ref(&self, id: CgroupId) -> Option<&CgroupNode> {
        self.nodes.get(id.0 as usize).and_then(Option::as_ref)
    }

    fn node_mut(&mut self, id: CgroupId) -> Option<&mut CgroupNode> {
        self.nodes.get_mut(id.0 as usize).and_then(Option::as_mut)
    }

    /// The root node of a hierarchy.
    pub fn root(&self, kind: CgroupKind) -> CgroupId {
        self.roots[kind.index()]
    }

    /// Looks up a node.
    pub fn node(&self, id: CgroupId) -> Option<&CgroupNode> {
        self.node_ref(id)
    }

    /// All nodes of one hierarchy, sorted by path.
    pub fn nodes_of_kind(&self, kind: CgroupKind) -> Vec<&CgroupNode> {
        let mut v: Vec<&CgroupNode> = self
            .nodes
            .iter()
            .flatten()
            .filter(|n| n.kind == kind)
            .collect();
        v.sort_by(|a, b| a.path.cmp(&b.path));
        v
    }

    /// Number of cgroups in one hierarchy — rendered by `/proc/cgroups`,
    /// which thereby leaks how many containers a host runs.
    pub fn count_of_kind(&self, kind: CgroupKind) -> usize {
        self.nodes
            .iter()
            .flatten()
            .filter(|n| n.kind == kind)
            .count()
    }

    /// Creates a child cgroup `name` under `parent`.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchCgroup`] if `parent` is unknown.
    pub fn create_child(&mut self, parent: CgroupId, name: &str) -> Result<CgroupId, KernelError> {
        let p = self
            .node_ref(parent)
            .ok_or(KernelError::NoSuchCgroup(parent))?;
        let path = if &*p.path == "/" {
            format!("/{name}")
        } else {
            format!("{}/{name}", p.path)
        };
        self.create_child_at(parent, Arc::from(path))
    }

    /// Creates a child of `parent` at the absolute `path`, which the
    /// caller formatted as the parent's path, `/` and the child's name.
    /// Container creation formats one `/docker/<name>` and shares it
    /// among its four hierarchies and its cgroup namespace.
    pub(crate) fn create_child_at(
        &mut self,
        parent: CgroupId,
        path: Arc<str>,
    ) -> Result<CgroupId, KernelError> {
        let kind = self
            .node_ref(parent)
            .ok_or(KernelError::NoSuchCgroup(parent))?
            .kind;
        let data = Self::fresh_data(kind);
        Ok(self.alloc(kind, path, Some(parent), data))
    }

    /// Removes a leaf cgroup. Accounting already charged to ancestors is
    /// preserved (as in Linux, where a removed child's usage stays in the
    /// parent's hierarchy totals).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::InvalidOperation`] when the node is a root or
    /// still has children, and [`KernelError::NoSuchCgroup`] when unknown.
    pub fn remove(&mut self, id: CgroupId) -> Result<(), KernelError> {
        let node = self.node_ref(id).ok_or(KernelError::NoSuchCgroup(id))?;
        if node.parent.is_none() {
            return Err(KernelError::InvalidOperation(
                "cannot remove a root cgroup".into(),
            ));
        }
        if node.children > 0 {
            return Err(KernelError::InvalidOperation(format!(
                "cgroup {id} still has children"
            )));
        }
        if let Some(p) = node.parent.and_then(|p| self.node_mut(p)) {
            p.children -= 1;
        }
        self.nodes[id.0 as usize] = None;
        Ok(())
    }

    /// The chain from `id` up to (and including) its root.
    pub fn ancestor_chain(&self, id: CgroupId) -> Vec<CgroupId> {
        let mut chain = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            match self.node_ref(c) {
                Some(n) => {
                    chain.push(c);
                    cur = n.parent;
                }
                None => break,
            }
        }
        chain
    }

    /// Charges `ns` nanoseconds of CPU time on `cpu` to `id` and ancestors
    /// (cpuacct hierarchy).
    pub fn charge_cpu(&mut self, id: CgroupId, cpu: usize, ns: u64) {
        // Walks the parent links in place — this runs once per task per
        // scheduler tick, so it must not allocate a chain vector.
        let ncpus = self.ncpus;
        let mut cur = Some(id);
        while let Some(c) = cur {
            let Some(n) = self.node_mut(c) else { break };
            cur = n.parent;
            if let CgroupData::Cpuacct { usage_ns_per_cpu } = &mut n.data {
                if cpu < ncpus {
                    usage_ns_per_cpu.resize(ncpus, 0);
                    usage_ns_per_cpu[cpu] += ns;
                }
            }
        }
    }

    /// Charges `ns_per_cpu[c]` nanoseconds on each CPU `c` to `id` and its
    /// ancestors: [`CgroupForest::charge_cpu`] for every CPU in one walk.
    pub fn charge_cpus(&mut self, id: CgroupId, ns_per_cpu: &[u64]) {
        let ncpus = self.ncpus;
        let mut cur = Some(id);
        while let Some(c) = cur {
            let Some(n) = self.node_mut(c) else { break };
            cur = n.parent;
            if let CgroupData::Cpuacct { usage_ns_per_cpu } = &mut n.data {
                usage_ns_per_cpu.resize(ncpus, 0);
                for (usage, ns) in usage_ns_per_cpu.iter_mut().zip(ns_per_cpu) {
                    *usage += ns;
                }
            }
        }
    }

    /// Charges perf counters to `id` and ancestors, but only to nodes with
    /// monitoring enabled (perf_event hierarchy).
    pub fn charge_perf(&mut self, id: CgroupId, delta: &PerfCounters) {
        let mut cur = Some(id);
        while let Some(c) = cur {
            let Some(n) = self.node_mut(c) else { break };
            cur = n.parent;
            if let CgroupData::PerfEvent {
                counters,
                monitoring,
            } = &mut n.data
            {
                if *monitoring {
                    counters.add(delta);
                }
            }
        }
    }

    /// Enables or disables perf monitoring on a perf_event cgroup.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchCgroup`] for unknown ids and
    /// [`KernelError::InvalidOperation`] when the node is not in the
    /// perf_event hierarchy.
    pub fn set_perf_monitoring(&mut self, id: CgroupId, on: bool) -> Result<(), KernelError> {
        match self.node_mut(id) {
            Some(n) => match &mut n.data {
                CgroupData::PerfEvent { monitoring, .. } => {
                    *monitoring = on;
                    Ok(())
                }
                _ => Err(KernelError::InvalidOperation(format!(
                    "{id} is not a perf_event cgroup"
                ))),
            },
            None => Err(KernelError::NoSuchCgroup(id)),
        }
    }

    /// Reads the perf counters of a perf_event cgroup.
    pub fn perf_counters(&self, id: CgroupId) -> Option<PerfCounters> {
        match self.node_ref(id)?.data() {
            CgroupData::PerfEvent { counters, .. } => Some(*counters),
            _ => None,
        }
    }

    /// Whether perf monitoring is on for this cgroup.
    pub fn perf_monitoring(&self, id: CgroupId) -> bool {
        matches!(
            self.node_ref(id).map(|n| n.data()),
            Some(CgroupData::PerfEvent {
                monitoring: true,
                ..
            })
        )
    }

    /// Total cpuacct usage (ns summed over CPUs) of a cpuacct cgroup.
    pub fn cpuacct_usage_ns(&self, id: CgroupId) -> Option<u64> {
        match self.node_ref(id)?.data() {
            CgroupData::Cpuacct { usage_ns_per_cpu } => Some(usage_ns_per_cpu.iter().sum()),
            _ => None,
        }
    }

    /// Per-CPU cpuacct usage of a cpuacct cgroup.
    pub fn cpuacct_usage_percpu(&self, id: CgroupId) -> Option<&[u64]> {
        match self.node_ref(id)?.data() {
            CgroupData::Cpuacct { usage_ns_per_cpu } if usage_ns_per_cpu.is_empty() => {
                Some(&self.zeros)
            }
            CgroupData::Cpuacct { usage_ns_per_cpu } => Some(usage_ns_per_cpu),
            _ => None,
        }
    }

    /// Sets the absolute memory usage of one memory cgroup node. The
    /// kernel recomputes each node (and the root aggregate) every tick
    /// from the process table, so no chain propagation happens here.
    pub fn set_memory_usage(&mut self, id: CgroupId, bytes: u64) {
        if let Some(CgroupData::Memory {
            usage_bytes,
            max_usage_bytes,
            ..
        }) = self.node_mut(id).map(|n| &mut n.data)
        {
            *usage_bytes = bytes;
            *max_usage_bytes = (*max_usage_bytes).max(bytes);
        }
    }

    /// Reads a memory cgroup's (usage, high-water) bytes.
    pub fn memory_usage(&self, id: CgroupId) -> Option<(u64, u64)> {
        match self.node_ref(id)?.data() {
            CgroupData::Memory {
                usage_bytes,
                max_usage_bytes,
                ..
            } => Some((*usage_bytes, *max_usage_bytes)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forest() -> CgroupForest {
        CgroupForest::new(4)
    }

    #[test]
    fn roots_exist_for_all_kinds() {
        let f = forest();
        for kind in CgroupKind::ALL {
            let root = f.node(f.root(kind)).unwrap();
            assert_eq!(root.path(), "/");
            assert_eq!(root.kind(), kind);
        }
    }

    #[test]
    fn child_paths_compose() {
        let mut f = forest();
        let root = f.root(CgroupKind::Cpuacct);
        let docker = f.create_child(root, "docker").unwrap();
        let c1 = f.create_child(docker, "c1").unwrap();
        assert_eq!(f.node(docker).unwrap().path(), "/docker");
        assert_eq!(f.node(c1).unwrap().path(), "/docker/c1");
        assert_eq!(f.ancestor_chain(c1), vec![c1, docker, root]);
    }

    #[test]
    fn cpu_charge_propagates_to_ancestors() {
        let mut f = forest();
        let root = f.root(CgroupKind::Cpuacct);
        let child = f.create_child(root, "c").unwrap();
        f.charge_cpu(child, 1, 500);
        f.charge_cpu(child, 2, 300);
        assert_eq!(f.cpuacct_usage_ns(child), Some(800));
        assert_eq!(f.cpuacct_usage_ns(root), Some(800));
        assert_eq!(f.cpuacct_usage_percpu(child).unwrap()[1], 500);
    }

    #[test]
    fn cpuacct_groups_read_zero_until_charged() {
        // A group allocates its per-CPU vector at its first charge; until
        // then it reads as the zeros a full vector would hold, and after
        // it as one charged from zeros.
        let mut f = forest();
        let root = f.root(CgroupKind::Cpuacct);
        let a = f.create_child(root, "a").unwrap();
        let b = f.create_child(a, "b").unwrap();
        for id in [root, a, b] {
            assert_eq!(f.cpuacct_usage_percpu(id), Some(&[0u64; 4][..]));
            assert_eq!(f.cpuacct_usage_ns(id), Some(0));
        }
        f.charge_cpus(b, &[0, 0, 0, 0]);
        f.charge_cpu(a, 4, 99);
        assert_eq!(f.cpuacct_usage_percpu(a), Some(&[0u64; 4][..]));
        f.charge_cpu(b, 3, 7);
        f.charge_cpus(a, &[1, 2, 0, 0]);
        assert_eq!(f.cpuacct_usage_percpu(b), Some(&[0, 0, 0, 7][..]));
        assert_eq!(f.cpuacct_usage_percpu(a), Some(&[1, 2, 0, 7][..]));
        assert_eq!(f.cpuacct_usage_percpu(root), Some(&[1, 2, 0, 7][..]));
        assert_eq!(f.cpuacct_usage_ns(root), Some(10));
    }

    #[test]
    fn perf_charge_requires_monitoring() {
        let mut f = forest();
        let root = f.root(CgroupKind::PerfEvent);
        let child = f.create_child(root, "c").unwrap();
        let delta = PerfCounters {
            instructions: 100,
            cache_misses: 5,
            branch_misses: 2,
            cycles: 80,
        };
        f.charge_perf(child, &delta);
        assert_eq!(f.perf_counters(child).unwrap().instructions, 0);

        f.set_perf_monitoring(child, true).unwrap();
        f.charge_perf(child, &delta);
        assert_eq!(f.perf_counters(child).unwrap().instructions, 100);
        // Root is not monitoring: unchanged.
        assert_eq!(f.perf_counters(root).unwrap().instructions, 0);
    }

    #[test]
    fn removing_root_or_parent_fails() {
        let mut f = forest();
        let root = f.root(CgroupKind::Memory);
        assert!(f.remove(root).is_err());
        let child = f.create_child(root, "a").unwrap();
        let grand = f.create_child(child, "b").unwrap();
        assert!(f.remove(child).is_err());
        f.remove(grand).unwrap();
        f.remove(child).unwrap();
    }

    #[test]
    fn lifecycle_bookkeeping_tracks_only_live_nodes() {
        // Removal checks a child count; churn must leave it, and the
        // live net_prio nodes, exact.
        let mut f = forest();
        let root = f.root(CgroupKind::NetPrio);
        let docker = f.create_child(root, "docker").unwrap();
        for round in 0..3 {
            let kids: Vec<CgroupId> = (0..40)
                .map(|i| f.create_child(docker, &format!("c{round}-{i}")).unwrap())
                .collect();
            assert_eq!(f.count_of_kind(CgroupKind::NetPrio), 42);
            assert!(f.remove(docker).is_err(), "live children block removal");
            for id in kids {
                f.remove(id).unwrap();
            }
        }
        assert_eq!(f.count_of_kind(CgroupKind::NetPrio), 2);
        assert_eq!(f.node(docker).map(|n| n.children), Some(0));
        f.remove(docker).unwrap();
        assert_eq!(f.count_of_kind(CgroupKind::NetPrio), 1);
        assert_eq!(f.node(root).map(|n| n.children), Some(0));
    }

    #[test]
    fn net_prio_groups_start_sparse() {
        // A group holds only explicitly set priorities, and none is set:
        // the render (pseudofs `sys_cgroup::ifpriomap`) supplies a 0 for
        // every host device.
        let mut f = forest();
        let root = f.root(CgroupKind::NetPrio);
        let child = f.create_child(root, "c").unwrap();
        for id in [root, child] {
            match f.node(id).unwrap().data() {
                CgroupData::NetPrio { ifpriomap } => assert!(ifpriomap.is_empty()),
                other => panic!("wrong data {other:?}"),
            }
        }
    }

    #[test]
    fn perf_counter_delta_saturates() {
        let a = PerfCounters {
            instructions: 10,
            cache_misses: 1,
            branch_misses: 1,
            cycles: 9,
        };
        let b = PerfCounters {
            instructions: 4,
            cache_misses: 3,
            branch_misses: 0,
            cycles: 5,
        };
        let d = b.delta_since(&a);
        assert_eq!(d.instructions, 0, "saturates instead of underflowing");
        assert_eq!(d.cache_misses, 2);
        let d2 = a.delta_since(&b);
        assert_eq!(d2.instructions, 6);
        assert_eq!(d2.cycles, 4);
    }

    #[test]
    fn memory_usage_tracks_high_water() {
        let mut f = forest();
        let root = f.root(CgroupKind::Memory);
        let c = f.create_child(root, "c").unwrap();
        f.set_memory_usage(c, 100);
        f.set_memory_usage(c, 40);
        match f.node(c).unwrap().data() {
            CgroupData::Memory {
                usage_bytes,
                max_usage_bytes,
                ..
            } => {
                assert_eq!(*usage_bytes, 40);
                assert_eq!(*max_usage_bytes, 100);
            }
            _ => panic!("wrong data"),
        }
    }
}
