//! Namespaces: the seven types of Linux 4.7 (§II-A of the paper).
//!
//! A namespace virtualizes one class of system resource for the group of
//! processes associated with it. The leakage channels the paper identifies
//! exist precisely where a kernel handler reads *global* state instead of
//! the state of the caller's namespace — so this module's job is to hold
//! the properly-namespaced state, letting the pseudo-file layer choose
//! (per file, as the real kernel does) whether to consult it.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::error::KernelError;
use crate::process::HostPid;

/// The namespace types of Linux 4.7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum NamespaceKind {
    /// Mount points.
    Mnt,
    /// Host and domain name.
    Uts,
    /// Process identifiers.
    Pid,
    /// Network devices, addresses, routing.
    Net,
    /// System V IPC and POSIX queues.
    Ipc,
    /// UID/GID mappings.
    User,
    /// Cgroup root virtualization.
    Cgroup,
}

impl NamespaceKind {
    /// All seven kinds, in the order used for namespace-set construction.
    pub const ALL: [NamespaceKind; 7] = [
        NamespaceKind::Mnt,
        NamespaceKind::Uts,
        NamespaceKind::Pid,
        NamespaceKind::Net,
        NamespaceKind::Ipc,
        NamespaceKind::User,
        NamespaceKind::Cgroup,
    ];
}

/// Opaque namespace identifier (akin to the inode numbers under
/// `/proc/<pid>/ns/`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NsId(pub u32);

impl fmt::Display for NsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ns:[{}]", 4_026_531_840u32 + self.0)
    }
}

/// The full set of namespaces a process is associated with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NamespaceSet {
    /// Mount namespace.
    pub mnt: NsId,
    /// UTS namespace.
    pub uts: NsId,
    /// PID namespace.
    pub pid: NsId,
    /// Network namespace.
    pub net: NsId,
    /// IPC namespace.
    pub ipc: NsId,
    /// User namespace.
    pub user: NsId,
    /// Cgroup namespace.
    pub cgroup: NsId,
}

impl NamespaceSet {
    /// The set whose ids run from `base` in [`NamespaceKind::ALL`] order.
    fn at(base: u32) -> Self {
        NamespaceSet {
            mnt: NsId(base),
            uts: NsId(base + 1),
            pid: NsId(base + 2),
            net: NsId(base + 3),
            ipc: NsId(base + 4),
            user: NsId(base + 5),
            cgroup: NsId(base + 6),
        }
    }

    /// The namespace id of the given kind.
    pub fn of(&self, kind: NamespaceKind) -> NsId {
        match kind {
            NamespaceKind::Mnt => self.mnt,
            NamespaceKind::Uts => self.uts,
            NamespaceKind::Pid => self.pid,
            NamespaceKind::Net => self.net,
            NamespaceKind::Ipc => self.ipc,
            NamespaceKind::User => self.user,
            NamespaceKind::Cgroup => self.cgroup,
        }
    }
}

/// The host's mount table.
const HOST_MOUNTS: &[&str] = &["/", "/proc", "/sys", "/dev"];
/// A container's mount table.
const CONTAINER_MOUNTS: &[&str] = &["/", "/proc", "/sys"];
/// The interfaces of the host's NET namespace.
const HOST_DEVICES: &[&str] = &["lo", "eth0", "eth1", "docker0"];
/// The interfaces of a container's NET namespace.
const CONTAINER_DEVICES: &[&str] = &["lo", "eth0"];
/// The NIS domain name every UTS namespace starts with.
const NO_DOMAIN: &str = "(none)";

/// Per-kind namespace payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NamespaceData {
    /// Mount namespace: the visible mount table.
    Mnt {
        /// Mount points visible in this namespace.
        mounts: &'static [&'static str],
    },
    /// UTS namespace: nodename and domainname.
    Uts {
        /// Host name.
        hostname: String,
        /// NIS domain name.
        domainname: &'static str,
    },
    /// PID namespace: pid allocation and host-pid mapping. PIDs in a child
    /// namespace are also visible (with different numbers) in every
    /// ancestor namespace, exactly as in Linux.
    Pid {
        /// Parent pid namespace (None for the root).
        parent: Option<NsId>,
        /// Next pid to hand out in this namespace.
        next_pid: u32,
        /// host pid → pid within this namespace.
        map: BTreeMap<HostPid, u32>,
    },
    /// Network namespace: device names are stored here; counters live in
    /// [`crate::net`].
    Net {
        /// Interfaces visible in this namespace.
        devices: &'static [&'static str],
    },
    /// IPC namespace (no observable payload needed by the channels).
    Ipc,
    /// User namespace: a single `inside-outside-length` uid mapping.
    User {
        /// (inside uid, outside uid, range length).
        uid_map: (u32, u32, u32),
    },
    /// Cgroup namespace: the cgroup path that appears as `/` inside.
    Cgroup {
        /// Root path prefix stripped from `/proc/self/cgroup` views,
        /// shared with the container's cgroup nodes.
        root_path: Arc<str>,
    },
}

impl NamespaceData {
    /// The kind this payload belongs to.
    pub fn kind(&self) -> NamespaceKind {
        match self {
            NamespaceData::Mnt { .. } => NamespaceKind::Mnt,
            NamespaceData::Uts { .. } => NamespaceKind::Uts,
            NamespaceData::Pid { .. } => NamespaceKind::Pid,
            NamespaceData::Net { .. } => NamespaceKind::Net,
            NamespaceData::Ipc => NamespaceKind::Ipc,
            NamespaceData::User { .. } => NamespaceKind::User,
            NamespaceData::Cgroup { .. } => NamespaceKind::Cgroup,
        }
    }
}

/// Namespaces per set: every set's ids are consecutive, one per kind in
/// [`NamespaceKind::ALL`] order.
const SET: usize = NamespaceKind::ALL.len();

/// The payloads of one namespace set, by kind; `None` once removed.
type SetBlock = [Option<NamespaceData>; SET];

/// Registry of all namespaces on one kernel.
///
/// Ids are handed out in sets of seven and never reused, so namespace
/// `n` lives in block `n / 7` at slot `n % 7`: a set costs one
/// allocation and a lookup is two array indexes. The host set is block
/// 0. A block is freed once all seven of its namespaces are removed, so
/// only an eight-byte slot per set ever created stays behind.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NamespaceRegistry {
    blocks: Vec<Option<Box<SetBlock>>>,
    /// Live namespaces.
    live: usize,
    host: NamespaceSet,
}

impl NamespaceRegistry {
    /// Creates the registry with the initial (host) namespace set.
    pub fn new(hostname: &str) -> Self {
        let mut reg = NamespaceRegistry {
            blocks: Vec::new(),
            live: 0,
            host: NamespaceSet::at(0),
        };
        reg.host = reg.push_set([
            NamespaceData::Mnt {
                mounts: HOST_MOUNTS,
            },
            NamespaceData::Uts {
                hostname: hostname.to_string(),
                domainname: NO_DOMAIN,
            },
            NamespaceData::Pid {
                parent: None,
                next_pid: 1,
                map: BTreeMap::new(),
            },
            NamespaceData::Net {
                devices: HOST_DEVICES,
            },
            NamespaceData::Ipc,
            NamespaceData::User {
                uid_map: (0, 0, u32::MAX),
            },
            NamespaceData::Cgroup {
                root_path: Arc::from("/"),
            },
        ]);
        reg
    }

    /// Stores a set's seven payloads, given in [`NamespaceKind::ALL`]
    /// order, as the next block.
    fn push_set(&mut self, set: [NamespaceData; SET]) -> NamespaceSet {
        let ids = NamespaceSet::at((self.blocks.len() * SET) as u32);
        self.blocks.push(Some(Box::new(set.map(Some))));
        self.live += SET;
        ids
    }

    /// The block and slot of `id`.
    fn slot(id: NsId) -> (usize, usize) {
        (id.0 as usize / SET, id.0 as usize % SET)
    }

    /// The initial namespace set the host's processes live in.
    pub fn host_set(&self) -> NamespaceSet {
        self.host
    }

    /// Looks up a namespace payload.
    pub fn get(&self, id: NsId) -> Option<&NamespaceData> {
        let (block, slot) = Self::slot(id);
        self.blocks.get(block)?.as_deref()?[slot].as_ref()
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, id: NsId) -> Option<&mut NamespaceData> {
        let (block, slot) = Self::slot(id);
        self.blocks.get_mut(block)?.as_deref_mut()?[slot].as_mut()
    }

    /// Number of namespaces in existence.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the registry is empty (never true in practice: the host set
    /// always exists).
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Creates a fresh full namespace set for a container, as `unshare`-ing
    /// all seven types does. The PID namespace is a child of the host's;
    /// the NET namespace starts with only `lo` and a virtual `eth0`;
    /// the cgroup namespace is rooted at `cgroup_root`.
    pub fn create_container_set(
        &mut self,
        hostname: &str,
        cgroup_root: impl Into<Arc<str>>,
        uid_map: (u32, u32, u32),
    ) -> NamespaceSet {
        let host_pid_ns = self.host.pid;
        self.push_set([
            NamespaceData::Mnt {
                mounts: CONTAINER_MOUNTS,
            },
            NamespaceData::Uts {
                hostname: hostname.to_string(),
                domainname: NO_DOMAIN,
            },
            NamespaceData::Pid {
                parent: Some(host_pid_ns),
                next_pid: 1,
                map: BTreeMap::new(),
            },
            NamespaceData::Net {
                devices: CONTAINER_DEVICES,
            },
            NamespaceData::Ipc,
            NamespaceData::User { uid_map },
            NamespaceData::Cgroup {
                root_path: cgroup_root.into(),
            },
        ])
    }

    /// Allocates a pid for `host_pid` in `pid_ns` *and every ancestor*
    /// namespace, returning the pid as seen inside `pid_ns`.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchNamespace`] if `pid_ns` is unknown, or
    /// [`KernelError::NamespaceKindMismatch`] if it is not a PID namespace.
    pub fn allocate_pid(&mut self, pid_ns: NsId, host_pid: HostPid) -> Result<u32, KernelError> {
        let mut chain = Vec::new();
        let mut cur = Some(pid_ns);
        while let Some(id) = cur {
            match self.get(id) {
                Some(NamespaceData::Pid { parent, .. }) => {
                    chain.push(id);
                    cur = *parent;
                }
                Some(other) => {
                    return Err(KernelError::NamespaceKindMismatch {
                        expected: NamespaceKind::Pid,
                        actual: other.kind(),
                    })
                }
                None => return Err(KernelError::NoSuchNamespace(id)),
            }
        }
        let mut innermost = 0;
        let root_pid_ns = self.host.pid;
        for (depth, id) in chain.iter().enumerate() {
            if let Some(NamespaceData::Pid { next_pid, map, .. }) = self.get_mut(*id) {
                // In the root namespace the ns-pid *is* the host pid.
                let assigned = if *id == root_pid_ns {
                    host_pid.0
                } else {
                    let p = *next_pid;
                    *next_pid += 1;
                    p
                };
                map.insert(host_pid, assigned);
                if depth == 0 {
                    innermost = assigned;
                }
            }
        }
        Ok(innermost)
    }

    /// Removes `host_pid` from `pid_ns` and all ancestors (process exit).
    pub fn release_pid(&mut self, pid_ns: NsId, host_pid: HostPid) {
        let mut cur = Some(pid_ns);
        while let Some(id) = cur {
            match self.get_mut(id) {
                Some(NamespaceData::Pid { parent, map, .. }) => {
                    map.remove(&host_pid);
                    cur = *parent;
                }
                _ => break,
            }
        }
    }

    /// Removes a container's seven namespaces from the registry
    /// (container teardown). Host namespaces are never removed, even if
    /// a stale or hostile set references them — destroying a container
    /// must not be able to tear down the initial namespaces. Without
    /// this, high-churn create/destroy loops grow the registry without
    /// bound and destroyed-container payloads linger forever.
    pub fn remove_container_set(&mut self, set: &NamespaceSet) {
        for kind in NamespaceKind::ALL {
            let (block, slot) = Self::slot(set.of(kind));
            if block == 0 {
                continue;
            }
            let Some(Some(payloads)) = self.blocks.get_mut(block) else {
                continue;
            };
            if payloads[slot].take().is_some() {
                self.live -= 1;
            }
            if payloads.iter().all(Option::is_none) {
                self.blocks[block] = None;
            }
        }
    }

    /// The pid of `host_pid` as seen from `pid_ns`, if visible there.
    pub fn pid_in_ns(&self, pid_ns: NsId, host_pid: HostPid) -> Option<u32> {
        self.pid_map(pid_ns)?.get(&host_pid).copied()
    }

    /// All host pids visible from `pid_ns`, with their in-namespace pids.
    pub fn pids_visible_from(&self, pid_ns: NsId) -> Vec<(HostPid, u32)> {
        self.pids_in(pid_ns).collect()
    }

    /// The host pids visible from `pid_ns` with their in-namespace pids,
    /// in host-pid order, without collecting them.
    pub fn pids_in(&self, pid_ns: NsId) -> impl Iterator<Item = (HostPid, u32)> + '_ {
        self.pid_map(pid_ns)
            .into_iter()
            .flat_map(|map| map.iter().map(|(h, p)| (*h, *p)))
    }

    /// How many pids are visible from `pid_ns`.
    pub fn pid_count(&self, pid_ns: NsId) -> usize {
        self.pid_map(pid_ns).map_or(0, BTreeMap::len)
    }

    /// The host pid `pid_ns` numbers `ns_pid`, if one is visible there.
    pub fn host_pid_of(&self, pid_ns: NsId, ns_pid: u32) -> Option<HostPid> {
        self.pids_in(pid_ns)
            .find(|&(_, p)| p == ns_pid)
            .map(|(h, _)| h)
    }

    fn pid_map(&self, pid_ns: NsId) -> Option<&BTreeMap<HostPid, u32>> {
        match self.get(pid_ns)? {
            NamespaceData::Pid { map, .. } => Some(map),
            _ => None,
        }
    }

    /// The hostname of a UTS namespace.
    pub fn hostname(&self, uts: NsId) -> Option<&str> {
        match self.get(uts)? {
            NamespaceData::Uts { hostname, .. } => Some(hostname),
            _ => None,
        }
    }

    /// The device list of a NET namespace.
    pub fn net_devices(&self, net: NsId) -> Option<&'static [&'static str]> {
        match self.get(net)? {
            NamespaceData::Net { devices } => Some(*devices),
            _ => None,
        }
    }

    /// The cgroup-namespace root path.
    pub fn cgroup_root(&self, cg: NsId) -> Option<&str> {
        match self.get(cg)? {
            NamespaceData::Cgroup { root_path } => Some(root_path),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The plain registry the block layout is held to: one map entry per
    /// namespace, ids handed out one at a time, seven per set in kind
    /// order. A removal takes each id of the set alone and never touches
    /// the host's seven.
    struct PlainRegistry {
        next: u32,
        table: BTreeMap<NsId, NamespaceData>,
    }

    impl PlainRegistry {
        fn insert_set(&mut self, set: [NamespaceData; SET]) {
            for data in set {
                self.table.insert(NsId(self.next), data);
                self.next += 1;
            }
        }

        fn remove_set(&mut self, set: &NamespaceSet) {
            for kind in NamespaceKind::ALL {
                let id = set.of(kind);
                if id.0 as usize >= SET {
                    self.table.remove(&id);
                }
            }
        }

        fn allocate_pid(&mut self, pid_ns: NsId, host_pid: HostPid) -> Option<u32> {
            let mut chain = Vec::new();
            let mut cur = Some(pid_ns);
            while let Some(id) = cur {
                match self.table.get(&id)? {
                    NamespaceData::Pid { parent, .. } => {
                        chain.push(id);
                        cur = *parent;
                    }
                    _ => return None,
                }
            }
            let mut innermost = 0;
            for (depth, id) in chain.iter().enumerate() {
                if let Some(NamespaceData::Pid { next_pid, map, .. }) = self.table.get_mut(id) {
                    let assigned = if id.0 == 2 {
                        host_pid.0
                    } else {
                        *next_pid += 1;
                        *next_pid - 1
                    };
                    map.insert(host_pid, assigned);
                    if depth == 0 {
                        innermost = assigned;
                    }
                }
            }
            Some(innermost)
        }
    }

    fn container_payloads(i: u64) -> [NamespaceData; SET] {
        [
            NamespaceData::Mnt {
                mounts: CONTAINER_MOUNTS,
            },
            NamespaceData::Uts {
                hostname: format!("c{i}"),
                domainname: NO_DOMAIN,
            },
            NamespaceData::Pid {
                parent: Some(NsId(2)),
                next_pid: 1,
                map: BTreeMap::new(),
            },
            NamespaceData::Net {
                devices: CONTAINER_DEVICES,
            },
            NamespaceData::Ipc,
            NamespaceData::User {
                uid_map: (0, i as u32, 1),
            },
            NamespaceData::Cgroup {
                root_path: Arc::from(format!("/docker/c{i}")),
            },
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 48 } else { 512 }))]
        #[test]
        fn blocks_hold_what_the_plain_registry_holds(
            ops in proptest::collection::vec((0u8..5, 0u64..u64::MAX), 1..60),
        ) {
            let mut reg = NamespaceRegistry::new("h");
            // The host's seven, as the registry booted them.
            let host = (0..SET as u32).map(NsId).map(|id| (id, reg.get(id).cloned()));
            let mut plain = PlainRegistry {
                next: SET as u32,
                table: host.map(|(id, data)| (id, data.expect("host namespace"))).collect(),
            };
            let mut live: Vec<NamespaceSet> = Vec::new();
            for (i, &(op, w)) in ops.iter().enumerate() {
                let id_below = |n: u32| NsId((w % u64::from(n)) as u32);
                match op {
                    0 => {
                        let set = reg.create_container_set(
                            &format!("c{i}"),
                            format!("/docker/c{i}"),
                            (0, i as u32, 1),
                        );
                        plain.insert_set(container_payloads(i as u64));
                        live.push(set);
                    }
                    1 if !live.is_empty() => {
                        let set = live.remove((w % live.len() as u64) as usize);
                        reg.remove_container_set(&set);
                        plain.remove_set(&set);
                    }
                    2 => {
                        // A stale or hostile set: any ids at all, the
                        // host's and unknown ones included.
                        let n = plain.next + 3;
                        let mut set = NamespaceSet::at(0);
                        for (j, slot) in [
                            &mut set.mnt, &mut set.uts, &mut set.pid, &mut set.net,
                            &mut set.ipc, &mut set.user, &mut set.cgroup,
                        ].into_iter().enumerate() {
                            *slot = NsId(((w >> (j * 8)) % u64::from(n)) as u32);
                        }
                        reg.remove_container_set(&set);
                        plain.remove_set(&set);
                    }
                    3 => {
                        let ns = id_below(plain.next + 3);
                        let pid = HostPid(300 + i as u32);
                        prop_assert_eq!(reg.allocate_pid(ns, pid).ok(), plain.allocate_pid(ns, pid));
                    }
                    _ => {
                        let ns = id_below(plain.next + 3);
                        let pid = HostPid(300 + (w % (i as u64 + 1)) as u32);
                        reg.release_pid(ns, pid);
                        let mut cur = Some(ns);
                        while let Some(NamespaceData::Pid { parent, map, .. }) =
                            cur.and_then(|id| plain.table.get_mut(&id))
                        {
                            map.remove(&pid);
                            cur = *parent;
                        }
                    }
                }
                prop_assert_eq!(reg.len(), plain.table.len());
                for id in (0..plain.next + 3).map(NsId) {
                    prop_assert_eq!(reg.get(id), plain.table.get(&id), "op {} id {}", i, id.0);
                }
            }
        }
    }

    #[test]
    fn host_set_is_complete() {
        let reg = NamespaceRegistry::new("h");
        let set = reg.host_set();
        for kind in NamespaceKind::ALL {
            let data = reg.get(set.of(kind)).expect("missing host namespace");
            assert_eq!(data.kind(), kind);
        }
    }

    #[test]
    fn container_set_is_fresh() {
        let mut reg = NamespaceRegistry::new("h");
        let host = reg.host_set();
        let c = reg.create_container_set("c1", "/docker/abc", (0, 100_000, 65536));
        for kind in NamespaceKind::ALL {
            assert_ne!(host.of(kind), c.of(kind), "{kind:?} not unshared");
        }
        assert_eq!(reg.hostname(c.uts), Some("c1"));
        assert_eq!(reg.net_devices(c.net).unwrap(), &["lo", "eth0"]);
        assert_eq!(reg.cgroup_root(c.cgroup), Some("/docker/abc"));
    }

    #[test]
    fn pid_allocation_propagates_to_ancestors() {
        let mut reg = NamespaceRegistry::new("h");
        let host = reg.host_set();
        let c = reg.create_container_set("c1", "/", (0, 0, 1));
        // Host process: ns pid == host pid.
        let hp = HostPid(1234);
        let ns_pid = reg.allocate_pid(host.pid, hp).unwrap();
        assert_eq!(ns_pid, 1234);

        // Container process: pid 1 inside, visible with host pid outside.
        let cp = HostPid(1300);
        let inner = reg.allocate_pid(c.pid, cp).unwrap();
        assert_eq!(inner, 1);
        assert_eq!(reg.pid_in_ns(host.pid, cp), Some(1300));
        assert_eq!(reg.pid_in_ns(c.pid, cp), Some(1));
        // Host process invisible from the container namespace.
        assert_eq!(reg.pid_in_ns(c.pid, hp), None);
    }

    #[test]
    fn container_pids_are_dense_from_one() {
        let mut reg = NamespaceRegistry::new("h");
        let c = reg.create_container_set("c1", "/", (0, 0, 1));
        for i in 0..5u32 {
            let inner = reg.allocate_pid(c.pid, HostPid(2000 + i)).unwrap();
            assert_eq!(inner, i + 1);
        }
        assert_eq!(reg.pids_visible_from(c.pid).len(), 5);
        assert_eq!(reg.pid_count(c.pid), 5);
        assert_eq!(reg.host_pid_of(c.pid, 3), Some(HostPid(2002)));
        assert_eq!(reg.host_pid_of(c.pid, 6), None);
        // The root namespace numbers a pid by its host pid.
        let host = reg.host_set();
        assert_eq!(reg.host_pid_of(host.pid, 2004), Some(HostPid(2004)));
        // A namespace that is not a pid namespace shows no pids.
        assert_eq!(reg.pid_count(c.uts), 0);
        assert_eq!(reg.host_pid_of(c.uts, 1), None);
    }

    #[test]
    fn release_removes_everywhere() {
        let mut reg = NamespaceRegistry::new("h");
        let host = reg.host_set();
        let c = reg.create_container_set("c1", "/", (0, 0, 1));
        let p = HostPid(555);
        reg.allocate_pid(c.pid, p).unwrap();
        reg.release_pid(c.pid, p);
        assert_eq!(reg.pid_in_ns(c.pid, p), None);
        assert_eq!(reg.pid_in_ns(host.pid, p), None);
    }

    #[test]
    fn allocate_pid_rejects_non_pid_namespace() {
        let mut reg = NamespaceRegistry::new("h");
        let host = reg.host_set();
        let err = reg.allocate_pid(host.uts, HostPid(1)).unwrap_err();
        assert!(matches!(err, KernelError::NamespaceKindMismatch { .. }));
    }

    #[test]
    fn allocate_pid_rejects_unknown_namespace() {
        let mut reg = NamespaceRegistry::new("h");
        let err = reg.allocate_pid(NsId(9999), HostPid(1)).unwrap_err();
        assert!(matches!(err, KernelError::NoSuchNamespace(_)));
    }

    #[test]
    fn ns_display_looks_like_proc_ns_links() {
        assert_eq!(NsId(2).to_string(), "ns:[4026531842]");
    }
}
