//! A Docker/LXC-style container runtime over the simulated kernel.
//!
//! A container here is exactly what it is on Linux 4.7: a fresh set of the
//! seven namespaces, one cgroup per hierarchy, read-only `/proc` and `/sys`
//! mounts, and (in a hardened cloud) a masking policy over the pseudo-file
//! tree. The runtime provides the tenant-facing operations the paper's
//! experiments need — create/exec/stop/remove, reading pseudo files from
//! inside the container, pinning workloads with `taskset`, and the
//! signature-implantation primitives (crafted process names, user timers,
//! file locks) used for co-residence verification.
//!
//! # Example
//!
//! ```
//! use container_runtime::{ContainerSpec, Runtime};
//! use simkernel::{Kernel, MachineConfig};
//! use workloads::models;
//!
//! let mut kernel = Kernel::new(MachineConfig::small_server(), 7);
//! let mut rt = Runtime::new();
//! let id = rt.create(&mut kernel, ContainerSpec::new("web-1"))?;
//! rt.exec(&mut kernel, id, "nginx", models::web_service(0.2))?;
//! kernel.advance_secs(5);
//! let uptime = rt.read_file(&kernel, id, "/proc/uptime")?;
//! assert!(!uptime.is_empty());
//! # Ok::<(), container_runtime::RuntimeError>(())
//! ```

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::iter_over_hash_type
)]

use std::error::Error;
use std::fmt;

use pseudofs::{FsError, Handle, MaskPolicy, PseudoFs, View};
use simkernel::fsstate::LockKind;
use simkernel::kernel::{ContainerEnv, ProcessSpec};
use simkernel::{HostPid, Kernel, KernelError};
use workloads::WorkloadSpec;

/// Identifies a container within one [`Runtime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContainerId(pub u64);

impl fmt::Display for ContainerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "container#{}", self.0)
    }
}

/// Container lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerState {
    /// Created; processes may be running.
    Running,
    /// Stopped: processes killed, environment retained.
    Stopped,
}

/// Errors from runtime operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// Unknown container id.
    NoSuchContainer(ContainerId),
    /// The container is stopped and cannot exec.
    NotRunning(ContainerId),
    /// Underlying kernel failure.
    Kernel(KernelError),
    /// Pseudo-file read failure.
    Fs(FsError),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::NoSuchContainer(id) => write!(f, "no such container: {id}"),
            RuntimeError::NotRunning(id) => write!(f, "container not running: {id}"),
            RuntimeError::Kernel(e) => write!(f, "kernel error: {e}"),
            RuntimeError::Fs(e) => write!(f, "fs error: {e}"),
        }
    }
}

impl RuntimeError {
    /// Whether this failure is a transient pseudo-file fault a bounded
    /// retry can outlast (an injected `EIO` / short read), as opposed to
    /// a missing container, a stopped container, or a policy denial.
    pub fn is_transient(&self) -> bool {
        matches!(self, RuntimeError::Fs(e) if e.is_transient())
    }
}

impl Error for RuntimeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RuntimeError::Kernel(e) => Some(e),
            RuntimeError::Fs(e) => Some(e),
            _ => None,
        }
    }
}

impl From<KernelError> for RuntimeError {
    fn from(e: KernelError) -> Self {
        RuntimeError::Kernel(e)
    }
}

impl From<FsError> for RuntimeError {
    fn from(e: FsError) -> Self {
        RuntimeError::Fs(e)
    }
}

/// Specification for creating a container.
#[derive(Debug, Clone)]
pub struct ContainerSpec {
    name: String,
    cpus: Option<Vec<u16>>,
    mem_limit_bytes: Option<u64>,
    policy: MaskPolicy,
}

impl ContainerSpec {
    /// A default container named `name`: all CPUs, no memory limit, no
    /// masking (the local Docker configuration the paper first probes).
    pub fn new(name: impl Into<String>) -> Self {
        ContainerSpec {
            name: name.into(),
            cpus: None,
            mem_limit_bytes: None,
            policy: MaskPolicy::none(),
        }
    }

    /// Restricts the container to the given CPUs (`--cpuset-cpus`).
    #[must_use]
    pub fn cpus(mut self, cpus: Vec<u16>) -> Self {
        self.cpus = Some(cpus);
        self
    }

    /// Sets a memory limit (`--memory`).
    #[must_use]
    pub fn mem_limit(mut self, bytes: u64) -> Self {
        self.mem_limit_bytes = Some(bytes);
        self
    }

    /// Applies a cloud masking policy to the container's pseudo-fs view.
    #[must_use]
    pub fn policy(mut self, policy: MaskPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// A live container.
#[derive(Debug, Clone)]
pub struct Container {
    id: ContainerId,
    name: String,
    env: ContainerEnv,
    /// Built once at creation; [`Runtime::set_policy`] swaps its policy.
    view: View,
    state: ContainerState,
    procs: Vec<HostPid>,
    created_at_ns: u64,
}

impl Container {
    /// The container's id.
    pub fn id(&self) -> ContainerId {
        self.id
    }
    /// The container's name.
    pub fn name(&self) -> &str {
        &self.name
    }
    /// The kernel-side environment.
    pub fn env(&self) -> &ContainerEnv {
        &self.env
    }
    /// Lifecycle state.
    pub fn state(&self) -> ContainerState {
        self.state
    }
    /// Host pids of processes started via `exec`.
    pub fn processes(&self) -> &[HostPid] {
        &self.procs
    }
    /// Boot-relative creation time.
    pub fn created_at_ns(&self) -> u64 {
        self.created_at_ns
    }

    /// The pseudo-fs view from inside this container (namespaces, cgroups,
    /// masking policy, and allotment for partial filters).
    pub fn view(&self) -> &View {
        &self.view
    }
}

/// The container runtime: manages container lifecycles on one kernel.
#[derive(Debug, Default)]
pub struct Runtime {
    next: u64,
    /// Sorted by id: ids only grow, so a create appends. A host runs a
    /// handful of containers, and the vector keeps its buffer when the
    /// last one goes, where a map would free and reallocate a node.
    containers: Vec<Container>,
    fs: PseudoFs,
}

impl Runtime {
    /// Creates an empty runtime.
    pub fn new() -> Self {
        Runtime::default()
    }

    fn index(&self, id: ContainerId) -> Result<usize, RuntimeError> {
        self.containers
            .binary_search_by_key(&id, |c| c.id)
            .map_err(|_| RuntimeError::NoSuchContainer(id))
    }

    fn get(&self, id: ContainerId) -> Result<&Container, RuntimeError> {
        self.index(id).map(|i| &self.containers[i])
    }

    fn get_mut(&mut self, id: ContainerId) -> Result<&mut Container, RuntimeError> {
        let i = self.index(id)?;
        Ok(&mut self.containers[i])
    }

    /// Creates a container on `kernel` per `spec`.
    ///
    /// # Errors
    ///
    /// Propagates kernel failures (cgroup creation).
    pub fn create(
        &mut self,
        kernel: &mut Kernel,
        spec: ContainerSpec,
    ) -> Result<ContainerId, RuntimeError> {
        let id = ContainerId(self.next);
        self.next += 1;
        let unique_name = format!("{}-{}", spec.name, id.0);
        let env = kernel.create_container_env(&unique_name)?;
        let mut view = View::container(env.ns, env.cgroups).with_policy(spec.policy);
        if let Some(cpus) = spec.cpus {
            view = view.with_allotted_cpus(cpus);
        }
        if let Some(limit) = spec.mem_limit_bytes {
            view = view.with_mem_limit(limit);
        }
        self.containers.push(Container {
            id,
            name: spec.name,
            env,
            view,
            state: ContainerState::Running,
            procs: Vec::new(),
            created_at_ns: kernel.clock().since_boot_ns(),
        });
        Ok(id)
    }

    /// Starts a process inside the container (like `docker exec`). The
    /// process name is tenant-controlled — the manipulation primitive for
    /// `sched_debug`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NoSuchContainer`] / [`RuntimeError::NotRunning`],
    /// or kernel admission failures.
    pub fn exec(
        &mut self,
        kernel: &mut Kernel,
        id: ContainerId,
        name: &str,
        workload: WorkloadSpec,
    ) -> Result<HostPid, RuntimeError> {
        let c = self.get_mut(id)?;
        if c.state != ContainerState::Running {
            return Err(RuntimeError::NotRunning(id));
        }
        let mut spec = ProcessSpec::new(name, workload).in_container(&c.env);
        if let Some(cpus) = &c.view.allotted_cpus {
            spec = spec.affinity(cpus.clone());
        }
        let pid = kernel.spawn(spec)?;
        c.procs.push(pid);
        Ok(pid)
    }

    /// Reads a pseudo file from inside the container.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NoSuchContainer`] or the underlying [`FsError`].
    pub fn read_file(
        &self,
        kernel: &Kernel,
        id: ContainerId,
        path: &str,
    ) -> Result<String, RuntimeError> {
        let c = self.get(id)?;
        Ok(self.fs.read(kernel, &c.view, path)?)
    }

    /// [`Runtime::read_file`] into a caller-provided buffer, reusing its
    /// allocation across reads.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NoSuchContainer`] or the underlying [`FsError`];
    /// on error `buf` is left empty.
    pub fn read_file_into(
        &self,
        kernel: &Kernel,
        id: ContainerId,
        path: &str,
        buf: &mut String,
    ) -> Result<(), RuntimeError> {
        self.read_in(id, buf, |view, buf| {
            self.fs.read_into(kernel, view, path, buf)
        })
    }

    /// [`Runtime::read_file_into`] through a [`Handle`] opened once: the
    /// container's current view (its policy included) applies to every
    /// read, and only the path's resolve is skipped.
    ///
    /// # Errors
    ///
    /// As [`Runtime::read_file_into`] for the handle's path.
    pub fn read_handle_into(
        &self,
        kernel: &Kernel,
        id: ContainerId,
        handle: &Handle,
        buf: &mut String,
    ) -> Result<(), RuntimeError> {
        self.read_in(id, buf, |view, buf| {
            self.fs.read_handle_into(kernel, view, handle, buf)
        })
    }

    /// Clears `buf`, looks the container up and runs `read` in its view.
    fn read_in(
        &self,
        id: ContainerId,
        buf: &mut String,
        read: impl FnOnce(&View, &mut String) -> Result<(), FsError>,
    ) -> Result<(), RuntimeError> {
        buf.clear();
        let c = self.get(id)?;
        Ok(read(&c.view, buf)?)
    }

    /// Lists the pseudo files visible inside the container.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NoSuchContainer`].
    pub fn list_files(
        &self,
        kernel: &Kernel,
        id: ContainerId,
    ) -> Result<Vec<String>, RuntimeError> {
        let c = self.get(id)?;
        Ok(self.fs.list(kernel, &c.view))
    }

    /// How many pseudo files are visible inside the container: the
    /// length of [`Runtime::list_files`], without building the list.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NoSuchContainer`].
    pub fn count_files(&self, kernel: &Kernel, id: ContainerId) -> Result<usize, RuntimeError> {
        let c = self.get(id)?;
        Ok(self.fs.count(kernel, &c.view))
    }

    /// Implants a crafted timer signature (`timer_list` manipulation).
    ///
    /// # Errors
    ///
    /// Fails when the container has no live process to own the timer.
    pub fn implant_timer(
        &self,
        kernel: &mut Kernel,
        id: ContainerId,
        comm: &str,
        interval_ns: u64,
    ) -> Result<(), RuntimeError> {
        let pid = self.any_live_pid(kernel, id)?;
        Ok(kernel.add_user_timer(pid, comm, interval_ns)?)
    }

    /// Implants a crafted lock-range signature (`locks` manipulation).
    ///
    /// # Errors
    ///
    /// Fails when the container has no live process to own the lock.
    pub fn implant_lock(
        &self,
        kernel: &mut Kernel,
        id: ContainerId,
        range: (u64, u64),
    ) -> Result<(), RuntimeError> {
        let pid = self.any_live_pid(kernel, id)?;
        kernel.flock(pid, LockKind::PosixWrite, range)?;
        Ok(())
    }

    fn any_live_pid(&self, kernel: &Kernel, id: ContainerId) -> Result<HostPid, RuntimeError> {
        let c = self.get(id)?;
        c.procs
            .iter()
            .copied()
            .find(|p| kernel.process(*p).is_some())
            .ok_or(RuntimeError::NotRunning(id))
    }

    /// Stops a container: kills its processes, keeps its environment.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NoSuchContainer`].
    pub fn stop(&mut self, kernel: &mut Kernel, id: ContainerId) -> Result<(), RuntimeError> {
        let c = self.get_mut(id)?;
        for pid in c.procs.drain(..) {
            let _ = kernel.kill(pid);
        }
        c.state = ContainerState::Stopped;
        Ok(())
    }

    /// Restarts a stopped container: the environment (namespaces,
    /// cgroups, veth) is retained, and `exec` works again. Accumulated
    /// cgroup usage persists, as on Linux.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NoSuchContainer`].
    pub fn restart(&mut self, id: ContainerId) -> Result<(), RuntimeError> {
        let c = self.get_mut(id)?;
        c.state = ContainerState::Running;
        Ok(())
    }

    /// Swaps the container's masking policy *live* (the provider-side
    /// detector escalating a flagged tenant mid-run). The subsystem
    /// epochs of every route whose mask treatment changed are dirtied via
    /// [`Kernel::note_policy_swap`], so no consumer comparing epoch sums
    /// can keep pre-swap bytes as current. A no-op when `policy` equals
    /// the current one.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NoSuchContainer`].
    pub fn set_policy(
        &mut self,
        kernel: &mut Kernel,
        id: ContainerId,
        policy: MaskPolicy,
    ) -> Result<(), RuntimeError> {
        let c = self.get_mut(id)?;
        if c.view.policy == policy {
            return Ok(());
        }
        let deps = pseudofs::changed_mask_deps(&c.view.policy, &policy);
        c.view.policy = policy;
        kernel.note_policy_swap(deps);
        Ok(())
    }

    /// Removes a container entirely (stop + environment teardown).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NoSuchContainer`] or kernel teardown failures.
    pub fn remove(&mut self, kernel: &mut Kernel, id: ContainerId) -> Result<(), RuntimeError> {
        self.stop(kernel, id)?;
        let c = self.containers.remove(self.index(id)?);
        kernel.destroy_container_env(&c.env)?;
        Ok(())
    }

    /// Looks up a container.
    pub fn container(&self, id: ContainerId) -> Option<&Container> {
        self.get(id).ok()
    }

    /// Iterates containers in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Container> {
        self.containers.iter()
    }

    /// Number of containers (running or stopped).
    pub fn len(&self) -> usize {
        self.containers.len()
    }

    /// Whether no containers exist.
    pub fn is_empty(&self) -> bool {
        self.containers.is_empty()
    }

    /// The container's accumulated CPU time (cpuacct), nanoseconds.
    pub fn cpu_usage_ns(&self, kernel: &Kernel, id: ContainerId) -> Option<u64> {
        let c = self.container(id)?;
        kernel.cgroups().cpuacct_usage_ns(c.env.cgroups.cpuacct)
    }

    /// The container's current memory usage, bytes.
    pub fn memory_usage_bytes(&self, kernel: &Kernel, id: ContainerId) -> Option<u64> {
        let c = self.container(id)?;
        kernel
            .cgroups()
            .memory_usage(c.env.cgroups.memory)
            .map(|(u, _)| u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::MachineConfig;
    use workloads::models;

    fn setup() -> (Kernel, Runtime) {
        (
            Kernel::new(MachineConfig::small_server(), 11),
            Runtime::new(),
        )
    }

    #[test]
    fn create_exec_read_lifecycle() {
        let (mut k, mut rt) = setup();
        let id = rt.create(&mut k, ContainerSpec::new("web")).unwrap();
        let pid = rt
            .exec(&mut k, id, "nginx", models::web_service(0.3))
            .unwrap();
        k.advance_secs(2);
        assert_eq!(k.process(pid).unwrap().ns_pid(), 1);
        let status = rt.read_file(&k, id, "/proc/1/status").unwrap();
        assert!(status.contains("nginx"));
        assert!(rt.cpu_usage_ns(&k, id).unwrap() > 0);
        assert!(rt.memory_usage_bytes(&k, id).unwrap() > 0);
    }

    #[test]
    fn cpuset_restricts_execution() {
        let (mut k, mut rt) = setup();
        let id = rt
            .create(&mut k, ContainerSpec::new("pinned").cpus(vec![2]))
            .unwrap();
        rt.exec(&mut k, id, "prime", models::prime()).unwrap();
        k.advance_secs(2);
        let per_cpu = k
            .cgroups()
            .cpuacct_usage_percpu(rt.container(id).unwrap().env().cgroups.cpuacct)
            .unwrap()
            .to_vec();
        assert!(per_cpu[2] > 0);
        assert_eq!(per_cpu[0] + per_cpu[1] + per_cpu[3], 0);
    }

    #[test]
    fn stop_kills_processes_but_keeps_container() {
        let (mut k, mut rt) = setup();
        let id = rt.create(&mut k, ContainerSpec::new("c")).unwrap();
        let pid = rt.exec(&mut k, id, "w", models::prime()).unwrap();
        rt.stop(&mut k, id).unwrap();
        assert!(k.process(pid).is_none());
        assert_eq!(rt.container(id).unwrap().state(), ContainerState::Stopped);
        assert!(matches!(
            rt.exec(&mut k, id, "w2", models::prime()),
            Err(RuntimeError::NotRunning(_))
        ));
    }

    #[test]
    fn restart_revives_a_stopped_container() {
        let (mut k, mut rt) = setup();
        let id = rt.create(&mut k, ContainerSpec::new("c")).unwrap();
        rt.exec(&mut k, id, "w", models::prime()).unwrap();
        k.advance_secs(1);
        let used_before = rt.cpu_usage_ns(&k, id).unwrap();
        rt.stop(&mut k, id).unwrap();
        rt.restart(id).unwrap();
        assert_eq!(rt.container(id).unwrap().state(), ContainerState::Running);
        rt.exec(&mut k, id, "w2", models::prime()).unwrap();
        k.advance_secs(1);
        // Accounting continued from where it left off.
        assert!(rt.cpu_usage_ns(&k, id).unwrap() > used_before);
        assert!(rt.restart(ContainerId(99)).is_err());
    }

    #[test]
    fn remove_tears_down_environment() {
        let (mut k, mut rt) = setup();
        let id = rt.create(&mut k, ContainerSpec::new("c")).unwrap();
        let veth = rt.container(id).unwrap().env().veth.clone();
        rt.remove(&mut k, id).unwrap();
        assert!(rt.container(id).is_none());
        assert!(!k.net().devices().iter().any(|d| d.name == veth));
        assert!(matches!(
            rt.read_file(&k, id, "/proc/uptime"),
            Err(RuntimeError::NoSuchContainer(_))
        ));
    }

    #[test]
    fn implant_primitives_visible_in_host_channels() {
        let (mut k, mut rt) = setup();
        let id = rt.create(&mut k, ContainerSpec::new("attacker")).unwrap();
        rt.exec(&mut k, id, "idle", models::idle_loop()).unwrap();
        rt.implant_timer(&mut k, id, "sig-deadbeef", 1_000_000_000)
            .unwrap();
        rt.implant_lock(&mut k, id, (0xdead, 0xbeef)).unwrap();
        // Another container can see both via the global channels.
        let id2 = rt.create(&mut k, ContainerSpec::new("observer")).unwrap();
        let tl = rt.read_file(&k, id2, "/proc/timer_list").unwrap();
        assert!(tl.contains("sig-deadbeef"));
        let locks = rt.read_file(&k, id2, "/proc/locks").unwrap();
        assert!(locks.contains(&format!("{} {}", 0xdead, 0xbeef)));
    }

    #[test]
    fn implant_requires_live_process() {
        let (mut k, mut rt) = setup();
        let id = rt.create(&mut k, ContainerSpec::new("empty")).unwrap();
        assert!(matches!(
            rt.implant_timer(&mut k, id, "x", 1),
            Err(RuntimeError::NotRunning(_))
        ));
    }

    #[test]
    fn masked_container_cannot_read_denied_channels() {
        let (mut k, mut rt) = setup();
        let id = rt
            .create(
                &mut k,
                ContainerSpec::new("hardened").policy(MaskPolicy::none().deny("/proc/timer_list")),
            )
            .unwrap();
        assert!(matches!(
            rt.read_file(&k, id, "/proc/timer_list"),
            Err(RuntimeError::Fs(FsError::PermissionDenied(_)))
        ));
        assert!(rt.read_file(&k, id, "/proc/uptime").is_ok());
    }

    #[test]
    fn container_names_need_not_be_unique() {
        let (mut k, mut rt) = setup();
        let a = rt.create(&mut k, ContainerSpec::new("dup")).unwrap();
        let b = rt.create(&mut k, ContainerSpec::new("dup")).unwrap();
        assert_ne!(a, b);
        assert_ne!(
            rt.container(a).unwrap().env().cgroup_path,
            rt.container(b).unwrap().env().cgroup_path
        );
    }
}
