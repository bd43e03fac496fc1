//! Multi-tenancy container-cloud simulation.
//!
//! Models the environment the paper's cloud measurements ran against: a
//! fleet of physical hosts (each a full [`simkernel::Kernel`] with its own
//! boot id, uptime, and energy counters), a placement scheduler, per-cloud
//! channel-masking profiles replicating the Table I matrix (CC1–CC5), and
//! the utilization-metered billing models that make continuous power
//! attacks expensive (§IV-B).
//!
//! # Fleet scale: the event calendar and lazy hosts
//!
//! The fleet keeps one min-calendar of its hosts' next observable events —
//! fault-plan edges, reboots, timer fires, or "now" for hosts with
//! runnable work — so [`Cloud::advance_secs`] pops only the hosts that
//! are actually due and leaves everything quiescent *lagged*: its kernel
//! untouched, fast-forwarded in closed form the moment something reads or
//! mutates it. Because idle kernel evolution is anchor-absolute
//! (`advance(a); advance(b)` ≡ `advance(a + b)` while quiescent) and a
//! quiescent host can only wake via an external call or a calendared
//! event, the lazy fleet is byte-identical to stepping every host every
//! call — the mode [`CloudConfig::eager_advance`] preserves as the
//! reference baseline. Every host kernel is built under the
//! [`simkernel::RunConfig`] current when the [`CloudConfig`] is made.
//!
//! # Example
//!
//! ```
//! use cloudsim::{Cloud, CloudConfig, CloudProfile, InstanceSpec};
//! use workloads::models;
//!
//! let mut cloud = Cloud::new(CloudConfig::new(CloudProfile::CC1).hosts(4), 99);
//! let a = cloud.launch("tenant-a", InstanceSpec::new("web").vcpus(2))?;
//! cloud.exec(a, "nginx", models::web_service(0.3))?;
//! cloud.advance_secs(10);
//! let boot_id = cloud.read_file(a, "/proc/sys/kernel/random/boot_id")?;
//! assert!(!boot_id.is_empty());
//! # Ok::<(), cloudsim::CloudError>(())
//! ```

pub mod billing;
mod calendar;
pub mod placement;
pub mod profile;

pub use billing::{BillingModel, TenantBill, TenantId};
pub use detector::{Detector, DetectorConfig, MaskLevel, PolicyUpdate, Verdict};
pub use placement::PlacementPolicy;
pub use profile::CloudProfile;

use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;

use container_runtime::{ContainerId, ContainerSpec, Runtime, RuntimeError};
use pseudofs::FsError;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use simkernel::{HostPid, Kernel, MachineConfig, RunConfig, NANOS_PER_SEC};
use simtrace::ReadTap as _;
use workloads::WorkloadSpec;

use calendar::Calendar;
use placement::CapacityIndex;

/// Identifies a physical host in the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct HostId(pub u32);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host#{}", self.0)
    }
}

/// Identifies a tenant-visible container instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct InstanceId(pub u64);

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "instance#{}", self.0)
    }
}

/// Errors from cloud operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CloudError {
    /// Unknown instance.
    NoSuchInstance(InstanceId),
    /// No host has capacity for the request.
    CapacityExhausted,
    /// Underlying runtime failure.
    Runtime(RuntimeError),
}

impl fmt::Display for CloudError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CloudError::NoSuchInstance(id) => write!(f, "no such instance: {id}"),
            CloudError::CapacityExhausted => write!(f, "no host has remaining capacity"),
            CloudError::Runtime(e) => write!(f, "runtime error: {e}"),
        }
    }
}

impl CloudError {
    /// Whether this failure is a transient pseudo-file fault a bounded
    /// retry can outlast. Capacity exhaustion and missing instances are
    /// not transient in this sense — retrying without intervention
    /// cannot fix them.
    pub fn is_transient(&self) -> bool {
        matches!(self, CloudError::Runtime(e) if e.is_transient())
    }
}

impl Error for CloudError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CloudError::Runtime(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RuntimeError> for CloudError {
    fn from(e: RuntimeError) -> Self {
        CloudError::Runtime(e)
    }
}

/// Fleet configuration.
#[derive(Debug, Clone)]
pub struct CloudConfig {
    profile: CloudProfile,
    hosts: usize,
    hosts_per_rack: usize,
    machine: MachineConfig,
    placement: PlacementPolicy,
    billing: BillingModel,
    background_per_host: bool,
    /// Execution modes every host kernel is built under, rebooted ones
    /// included.
    run: RunConfig,
    eager_advance: bool,
    detector: Option<DetectorConfig>,
}

impl CloudConfig {
    /// A config for the given provider profile with paper-scale defaults:
    /// 8 cloud servers per rack, spread placement, utilization billing,
    /// no detector, and the execution modes of the current [`RunConfig`].
    pub fn new(profile: CloudProfile) -> Self {
        CloudConfig {
            profile,
            hosts: 8,
            hosts_per_rack: 8,
            machine: profile.default_machine(),
            placement: PlacementPolicy::Spread,
            billing: BillingModel::default(),
            background_per_host: true,
            run: RunConfig::current(),
            eager_advance: false,
            detector: None,
        }
    }

    /// Sets the fleet size.
    #[must_use]
    pub fn hosts(mut self, n: usize) -> Self {
        self.hosts = n.max(1);
        self
    }

    /// Sets rack width.
    #[must_use]
    pub fn hosts_per_rack(mut self, n: usize) -> Self {
        self.hosts_per_rack = n.max(1);
        self
    }

    /// Overrides the machine type.
    #[must_use]
    pub fn machine(mut self, m: MachineConfig) -> Self {
        self.machine = m;
        self
    }

    /// Sets the placement policy.
    #[must_use]
    pub fn placement(mut self, p: PlacementPolicy) -> Self {
        self.placement = p;
        self
    }

    /// Sets the billing model.
    #[must_use]
    pub fn billing(mut self, b: BillingModel) -> Self {
        self.billing = b;
        self
    }

    /// Disables the per-host background tenant workload (pure lab fleets).
    #[must_use]
    pub fn without_background(mut self) -> Self {
        self.background_per_host = false;
        self
    }

    /// Forces the historical eager advance: every host stepped on every
    /// [`Cloud::advance_secs`], no calendar, no lag. The reference
    /// baseline the lazy path is benchmarked and tested against.
    #[must_use]
    pub fn eager_advance(mut self) -> Self {
        self.eager_advance = true;
        self
    }

    /// Attaches the provider-side online detector with the given
    /// thresholds.
    #[must_use]
    pub fn detector(mut self, cfg: DetectorConfig) -> Self {
        self.detector = Some(cfg);
        self
    }
}

/// One physical host.
#[derive(Debug)]
pub struct Host {
    id: HostId,
    kernel: Kernel,
    runtime: Runtime,
    rack: u32,
    background: Vec<HostPid>,
    instances: usize,
}

impl Host {
    /// The host's kernel (read access for experiment harnesses).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }
    /// The host's container runtime.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }
    /// The host id.
    pub fn id(&self) -> HostId {
        self.id
    }
    /// The rack this host sits in (shares a branch circuit breaker).
    pub fn rack(&self) -> u32 {
        self.rack
    }
    /// Number of instances placed here.
    pub fn instance_count(&self) -> usize {
        self.instances
    }
}

/// A tenant-visible instance record.
#[derive(Debug, Clone, Copy)]
pub struct Instance {
    id: InstanceId,
    tenant: TenantId,
    host: HostId,
    container: ContainerId,
    vcpus: u16,
    launched_at_ns: u64,
}

impl Instance {
    /// The instance id.
    pub fn id(&self) -> InstanceId {
        self.id
    }
    /// The owning tenant (resolve the name via [`Cloud::tenant_name`]).
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }
    /// vCPUs allotted.
    pub fn vcpus(&self) -> u16 {
        self.vcpus
    }
    /// Boot-relative launch time on its host.
    pub fn launched_at_ns(&self) -> u64 {
        self.launched_at_ns
    }
    /// The host (simulation-side ground truth; a real tenant cannot see
    /// this — inferring it is the point of the co-residence channels).
    pub fn host(&self) -> HostId {
        self.host
    }
    /// The backing container id on its host runtime.
    pub fn container(&self) -> ContainerId {
        self.container
    }
}

/// Specification for launching an instance.
#[derive(Debug, Clone)]
pub struct InstanceSpec {
    name: String,
    vcpus: u16,
}

impl InstanceSpec {
    /// An instance named `name` with 4 vCPUs (the paper's CC1 shape).
    pub fn new(name: impl Into<String>) -> Self {
        InstanceSpec {
            name: name.into(),
            vcpus: 4,
        }
    }

    /// Sets the vCPU count.
    #[must_use]
    pub fn vcpus(mut self, v: u16) -> Self {
        self.vcpus = v.max(1);
        self
    }
}

/// Interned tenant names: dense [`TenantId`]s in first-launch order.
#[derive(Debug, Default)]
struct TenantTable {
    names: Vec<String>,
    index: HashMap<String, TenantId>,
}

impl TenantTable {
    fn intern(&mut self, name: &str) -> TenantId {
        if let Some(&t) = self.index.get(name) {
            return t;
        }
        let t = TenantId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), t);
        t
    }

    fn lookup(&self, name: &str) -> Option<TenantId> {
        self.index.get(name).copied()
    }

    fn name(&self, t: TenantId) -> Option<&str> {
        self.names.get(t.0 as usize).map(String::as_str)
    }
}

/// The cloud: fleet calendar + scheduler + billing.
#[derive(Debug)]
pub struct Cloud {
    cfg: CloudConfig,
    calendar: Calendar,
    nhosts: usize,
    nracks: u32,
    cpus: u16,
    /// Fleet-absolute sim time: total seconds fed to `advance_secs`, in ns.
    fleet_ns: u64,
    capacity: CapacityIndex,
    instances: BTreeMap<InstanceId, Instance>,
    next_instance: u64,
    rng: StdRng,
    tenants: TenantTable,
    billing: billing::Ledger,
    /// Persistent metering scratch — reused across advances so the
    /// per-advance hot loop allocates nothing.
    charges: Vec<(InstanceId, TenantId, u64)>,
    /// The provider-side online detector, when configured. Fed from the
    /// driver thread only (tenant reads in program order, evaluation at
    /// advance boundaries), so its state is byte-deterministic across
    /// `--jobs` and coalescing.
    detector: Option<Detector>,
}

/// A fresh runtime on a freshly booted host kernel. With `background`,
/// it runs the background tenant: 12 service processes per host, so that
/// fleet-level diurnal demand can swing most of the machine (the paper's
/// Fig. 2 sees a 34.7% week-scale power band).
fn boot_runtime(kernel: &mut Kernel, background: bool) -> (Runtime, Vec<HostPid>) {
    let mut runtime = Runtime::new();
    if !background {
        return (runtime, Vec::new());
    }
    let cid = runtime
        .create(kernel, ContainerSpec::new("bg-tenant"))
        .expect("background container");
    let services = (0..12)
        .map(|j| {
            runtime
                .exec(
                    kernel,
                    cid,
                    &format!("bg-service-{j}"),
                    workloads::models::web_service(0.15),
                )
                .expect("background workload")
        })
        .collect();
    (runtime, services)
}

impl Cloud {
    /// Boots a fleet. Hosts get distinct kernel seeds (distinct boot ids,
    /// energy trajectories) and realistic staggered uptimes: racks are
    /// installed together, so hosts in one rack boot within minutes of
    /// each other while racks differ by days — the structure the paper's
    /// §IV-C uptime analysis exploits.
    pub fn new(cfg: CloudConfig, seed: u64) -> Self {
        let _run = cfg.run.enter();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc10_0d5eed);
        let mut hosts = Vec::with_capacity(cfg.hosts);
        for i in 0..cfg.hosts {
            let rack = (i / cfg.hosts_per_rack) as u32;
            let mut machine = cfg.machine.clone();
            machine.hostname = format!("{}-node{i}", cfg.profile.slug());
            // Rack install epochs days apart; in-rack jitter of minutes.
            machine.boot_wall_secs =
                1_450_000_000 + u64::from(rack) * 86_400 * 9 + rng.random_range(0..1_200);
            let mut kernel = Kernel::new(
                machine,
                seed.wrapping_mul(6364136223846793005)
                    .wrapping_add(i as u64),
            );
            // Uptime: rack-correlated (a rack is installed and booted
            // together, within the hour), racks days apart — the structure
            // §IV-C's uptime grouping exploits. Idle times diverge later
            // from load.
            let uptime_days = 40 + u64::from(rack) * 13;
            kernel.fast_forward_boot(uptime_days * 86_400 + rng.random_range(0..1_800));
            let (runtime, background) = boot_runtime(&mut kernel, cfg.background_per_host);
            hosts.push(Box::new(Host {
                id: HostId(i as u32),
                kernel,
                runtime,
                rack,
                background,
                instances: 0,
            }));
        }
        let nhosts = cfg.hosts;
        let nracks = hosts.last().map(|h| h.rack + 1).unwrap_or(0);
        let cpus = cfg.machine.cpus;
        let calendar = Calendar::new(hosts, cfg.eager_advance);
        let capacity = CapacityIndex::new(nhosts, cpus);
        let det = cfg.detector.clone().map(Detector::new);
        Cloud {
            cfg,
            calendar,
            nhosts,
            nracks,
            cpus,
            fleet_ns: 0,
            capacity,
            instances: BTreeMap::new(),
            next_instance: 0,
            rng,
            tenants: TenantTable::default(),
            billing: billing::Ledger::new(),
            charges: Vec::new(),
            detector: det,
        }
    }

    /// The provider profile.
    pub fn profile(&self) -> CloudProfile {
        self.cfg.profile
    }

    /// Brings one host to the current fleet instant (no-op when current).
    fn sync_host(&mut self, idx: usize) {
        if self.calendar.sync_to(idx, self.fleet_ns) {
            // Mode-exempt: how often the lazy path fast-forwards depends
            // on the access pattern, not on any simulated result.
            simtrace::counters::add_exempt("cloud.host_syncs", 1);
        }
    }

    fn host_ref(&self, idx: usize) -> &Host {
        &self.calendar.hosts[idx]
    }

    /// Syncs host `idx`, applies `f` to it, and refreshes its calendar
    /// entry: the path every per-host mutation takes.
    fn with_host<R>(&mut self, idx: usize, f: impl FnOnce(&mut Host) -> R) -> R {
        self.sync_host(idx);
        let out = f(&mut self.calendar.hosts[idx]);
        self.calendar.refresh(idx, self.fleet_ns);
        out
    }

    /// Brings every host to the current fleet instant, flushing all
    /// calendar lag. Read accessors do this on demand; bulk inspections
    /// ([`Cloud::hosts`]) call it up front.
    pub fn sync_all(&mut self) {
        let target = self.fleet_ns;
        let mut synced = 0u64;
        for idx in 0..self.nhosts {
            if self.calendar.sync_to(idx, target) {
                synced += 1;
            }
        }
        if synced > 0 {
            simtrace::counters::add_exempt("cloud.host_syncs", synced);
        }
    }

    /// The fleet, synced to the current instant, in host-id order.
    pub fn hosts(&mut self) -> impl Iterator<Item = &Host> {
        self.sync_all();
        self.calendar.hosts.iter().map(|h| &**h)
    }

    /// Fleet size.
    pub fn host_count(&self) -> usize {
        self.nhosts
    }

    /// A host by id, synced to the current instant.
    pub fn host(&mut self, id: HostId) -> Option<&Host> {
        let idx = id.0 as usize;
        if idx >= self.nhosts {
            return None;
        }
        self.sync_host(idx);
        Some(self.host_ref(idx))
    }

    /// Number of racks.
    pub fn racks(&self) -> u32 {
        self.nracks
    }

    /// The interned name of a tenant seen by [`Cloud::launch`].
    pub fn tenant_name(&self, t: TenantId) -> Option<&str> {
        self.tenants.name(t)
    }

    /// Launches an instance for `tenant`, choosing a host per the
    /// placement policy.
    ///
    /// # Errors
    ///
    /// [`CloudError::CapacityExhausted`] when no host can take the vCPUs;
    /// runtime errors otherwise.
    pub fn launch(&mut self, tenant: &str, spec: InstanceSpec) -> Result<InstanceId, CloudError> {
        let per_host = u32::from(self.cpus / spec.vcpus.max(1));
        let host_idx = self
            .capacity
            .choose(self.cfg.placement, per_host, &mut self.rng)
            .ok_or(CloudError::CapacityExhausted)?;
        let tid = self.tenants.intern(tenant);
        // Masking follows the tenant, not the container: a flagged tenant
        // relaunching does not shed its detector mask.
        let mut policy = self.cfg.profile.mask_policy();
        if let Some(deny) = self
            .detector
            .as_ref()
            .and_then(|d| d.deny_patterns_for(tid.0))
        {
            policy = detector::composed_policy(&policy, deny);
            simtrace::counters::add("detector.policies_applied", 1);
        }
        let (container, count, launched_at_ns) = self.with_host(host_idx, |host| {
            let ncpus = host.kernel.config().cpus;
            // Allot a deterministic contiguous cpuset.
            let base = (host.instances as u16 * spec.vcpus) % ncpus;
            let cpus: Vec<u16> = (0..spec.vcpus).map(|i| (base + i) % ncpus).collect();
            let cspec = ContainerSpec::new(&spec.name)
                .cpus(cpus)
                .mem_limit(host.kernel.config().mem_bytes / 8)
                .policy(policy);
            let container = host.runtime.create(&mut host.kernel, cspec)?;
            host.instances += 1;
            let launched_at_ns = host.kernel.clock().since_boot_ns();
            Ok::<_, RuntimeError>((container, host.instances as u32, launched_at_ns))
        })?;
        self.capacity.set(host_idx, count);
        let id = InstanceId(self.next_instance);
        self.next_instance += 1;
        self.instances.insert(
            id,
            Instance {
                id,
                tenant: tid,
                host: HostId(host_idx as u32),
                container,
                vcpus: spec.vcpus,
                launched_at_ns,
            },
        );
        self.billing.open(tid, id);
        if simtrace::enabled() {
            simtrace::counters::add("cloud.placements", 1);
            let host = self.host_ref(host_idx);
            if let Some(tr) = host.kernel.tracer() {
                let now = host.kernel.lifetime_ns();
                tr.emit(
                    now,
                    simtrace::TraceEvent::Placement {
                        instance: id.0,
                        host: host.id.0,
                    },
                );
                tr.emit(
                    now,
                    simtrace::TraceEvent::BillingOpen {
                        tenant: tenant.to_string(),
                        instance: id.0,
                    },
                );
            }
        }
        Ok(id)
    }

    /// Runs a process inside an instance.
    ///
    /// # Errors
    ///
    /// [`CloudError::NoSuchInstance`] or runtime errors.
    pub fn exec(
        &mut self,
        id: InstanceId,
        name: &str,
        workload: WorkloadSpec,
    ) -> Result<HostPid, CloudError> {
        let inst = *self
            .instances
            .get(&id)
            .ok_or(CloudError::NoSuchInstance(id))?;
        let res = self.with_host(inst.host.0 as usize, |host| {
            host.runtime
                .exec(&mut host.kernel, inst.container, name, workload)
        });
        Ok(res?)
    }

    /// Reads a pseudo file from inside an instance (tenant's eye view,
    /// including the provider's masking).
    ///
    /// # Errors
    ///
    /// [`CloudError::NoSuchInstance`] or fs errors.
    pub fn read_file(&mut self, id: InstanceId, path: &str) -> Result<String, CloudError> {
        let inst = *self
            .instances
            .get(&id)
            .ok_or(CloudError::NoSuchInstance(id))?;
        let idx = inst.host.0 as usize;
        self.sync_host(idx);
        let res = {
            let host = self.host_ref(idx);
            host.runtime.read_file(&host.kernel, inst.container, path)
        };
        // The online tap: every tenant read reaches the detector inline,
        // on the driver thread, stamped with fleet-absolute sim time.
        // Denied reads count too — probing a closed channel is signal.
        if let Some(det) = self.detector.as_mut() {
            let denied = matches!(&res, Err(RuntimeError::Fs(FsError::PermissionDenied(_))));
            det.on_read(self.fleet_ns, inst.tenant.0, path, denied);
        }
        Ok(res?)
    }

    /// Lists pseudo files visible inside an instance.
    ///
    /// # Errors
    ///
    /// [`CloudError::NoSuchInstance`].
    pub fn list_files(&mut self, id: InstanceId) -> Result<Vec<String>, CloudError> {
        let inst = *self
            .instances
            .get(&id)
            .ok_or(CloudError::NoSuchInstance(id))?;
        let idx = inst.host.0 as usize;
        self.sync_host(idx);
        let host = self.host_ref(idx);
        Ok(host.runtime.list_files(&host.kernel, inst.container)?)
    }

    /// Implants a timer signature from inside an instance.
    ///
    /// # Errors
    ///
    /// [`CloudError::NoSuchInstance`] or runtime errors.
    pub fn implant_timer(&mut self, id: InstanceId, comm: &str) -> Result<(), CloudError> {
        let inst = *self
            .instances
            .get(&id)
            .ok_or(CloudError::NoSuchInstance(id))?;
        let res = self.with_host(inst.host.0 as usize, |host| {
            host.runtime
                .implant_timer(&mut host.kernel, inst.container, comm, NANOS_PER_SEC)
        });
        Ok(res?)
    }

    /// Swaps the workload of a process previously started in `id` via
    /// [`Cloud::exec`] (how an attack payload flips between lying dormant
    /// and bursting).
    ///
    /// # Errors
    ///
    /// [`CloudError::NoSuchInstance`] or kernel errors for dead pids.
    pub fn set_process_workload(
        &mut self,
        id: InstanceId,
        pid: HostPid,
        workload: WorkloadSpec,
    ) -> Result<(), CloudError> {
        let inst = *self
            .instances
            .get(&id)
            .ok_or(CloudError::NoSuchInstance(id))?;
        self.with_host(inst.host.0 as usize, |host| {
            host.kernel.set_workload(pid, workload)
        })
        .map_err(|e| CloudError::Runtime(RuntimeError::Kernel(e)))
    }

    /// Terminates an instance and closes its billing record.
    ///
    /// # Errors
    ///
    /// [`CloudError::NoSuchInstance`] or runtime errors.
    pub fn terminate(&mut self, id: InstanceId) -> Result<(), CloudError> {
        let inst = self
            .instances
            .remove(&id)
            .ok_or(CloudError::NoSuchInstance(id))?;
        let idx = inst.host.0 as usize;
        let (removed, count) = self.with_host(idx, |host| {
            let removed = host.runtime.remove(&mut host.kernel, inst.container);
            if removed.is_ok() {
                host.instances = host.instances.saturating_sub(1);
            }
            (removed, host.instances as u32)
        });
        removed?;
        self.capacity.set(idx, count);
        self.billing.close(id);
        if simtrace::enabled() {
            simtrace::counters::add("cloud.terminations", 1);
            let host = self.host_ref(idx);
            if let Some(tr) = host.kernel.tracer() {
                tr.emit(
                    host.kernel.lifetime_ns(),
                    simtrace::TraceEvent::BillingClose { instance: id.0 },
                );
            }
        }
        Ok(())
    }

    /// An instance record (ground truth: includes host placement).
    pub fn instance(&self, id: InstanceId) -> Option<&Instance> {
        self.instances.get(&id)
    }

    /// Whether two instances share a physical host (ground truth for
    /// evaluating co-residence detectors).
    pub fn coresident(&self, a: InstanceId, b: InstanceId) -> Option<bool> {
        Some(self.instances.get(&a)?.host == self.instances.get(&b)?.host)
    }

    /// Advances the whole fleet by `secs`, metering utilization billing.
    /// Only calendar-due hosts are touched; the rest stay lagged, and
    /// the result is bitwise identical to the eager order.
    pub fn advance_secs(&mut self, secs: u64) {
        if secs > 0 {
            let target = self.fleet_ns + secs * NANOS_PER_SEC;
            self.calendar.advance_to(target);
            self.fleet_ns = target;
        }
        // Meter: charge each open instance its cpu-time delta. Hosts left
        // lagged by the calendar are quiescent — their cpuacct totals are
        // static — so metering reads them without forcing a sync.
        let mut charges = std::mem::take(&mut self.charges);
        charges.clear();
        for inst in self.instances.values() {
            let host = self.host_ref(inst.host.0 as usize);
            if let Some(used) = host.runtime.cpu_usage_ns(&host.kernel, inst.container) {
                charges.push((inst.id, inst.tenant, used));
            }
        }
        simtrace::counters::add("cloud.billing_charges", charges.len() as u64);
        for &(id, tenant, used_ns) in charges.iter() {
            self.billing
                .meter(tenant, id, used_ns, secs, &self.cfg.billing);
        }
        self.charges = charges;
        self.apply_detector_updates();
    }

    /// Scores the detector at the advance boundary and applies any newly
    /// emitted masking-policy updates to every live container of each
    /// flagged tenant, in tenant-id then instance-id order. Runs on the
    /// driver thread after billing, so verdicts and the apply sequence
    /// are byte-identical across `--jobs` and coalescing.
    fn apply_detector_updates(&mut self) {
        let (updates, verdicts) = match self.detector.as_mut() {
            Some(det) => {
                let before = det.verdicts().len();
                let ups = det.evaluate(self.fleet_ns);
                if ups.is_empty() {
                    return;
                }
                let vs = det.verdicts()[before..].to_vec();
                (ups, vs)
            }
            None => return,
        };
        let base = self.cfg.profile.mask_policy();
        for (u, v) in updates.iter().zip(&verdicts) {
            let policy = detector::composed_policy(&base, &u.deny);
            let targets: Vec<(InstanceId, usize, ContainerId)> = self
                .instances
                .values()
                .filter(|i| i.tenant.0 == u.tenant)
                .map(|i| (i.id, i.host.0 as usize, i.container))
                .collect();
            let mut flag_pending = true;
            for (iid, idx, cid) in targets {
                self.with_host(idx, |host| {
                    let _ = host
                        .runtime
                        .set_policy(&mut host.kernel, cid, policy.clone());
                });
                simtrace::counters::add("detector.policies_applied", 1);
                if simtrace::enabled() {
                    let host = self.host_ref(idx);
                    if let Some(tr) = host.kernel.tracer() {
                        let t = host.kernel.lifetime_ns();
                        if flag_pending {
                            tr.emit(
                                t,
                                simtrace::TraceEvent::TenantFlagged {
                                    tenant: u.tenant,
                                    level: u.level.as_u8(),
                                    reads: v.reads,
                                },
                            );
                        }
                        tr.emit(
                            t,
                            simtrace::TraceEvent::PolicyUpdated {
                                instance: iid.0,
                                tenant: u.tenant,
                                level: u.level.as_u8(),
                                rules: u.deny.len() as u32,
                            },
                        );
                    }
                }
                flag_pending = false;
            }
        }
    }

    /// The online detector, when one is attached (verdict and
    /// policy-update logs for scoring and byte-compare tests).
    pub fn detector(&self) -> Option<&Detector> {
        self.detector.as_ref()
    }

    /// Installs a fault plan on every host kernel, anchored at the
    /// current instant (see [`Kernel::install_faults`]). The plan is
    /// seeded and the fleet steps deterministically, so a faulted fleet
    /// remains byte-identical across worker counts.
    pub fn install_faults(&mut self, plan: &simkernel::FaultPlan) {
        self.sync_all();
        for idx in 0..self.nhosts {
            self.with_host(idx, |host| host.kernel.install_faults(plan.clone()));
        }
    }

    /// Installs a fault plan on a single host's kernel; no-op for an
    /// unknown id.
    pub fn install_faults_on(&mut self, id: HostId, plan: &simkernel::FaultPlan) {
        let idx = id.0 as usize;
        if idx >= self.nhosts {
            return;
        }
        self.with_host(idx, |host| host.kernel.install_faults(plan.clone()));
    }

    /// Terminates every instance a tenant owns, in instance-id order
    /// (the bulk-departure half of tenant churn), returning how many
    /// instances were torn down.
    ///
    /// # Errors
    ///
    /// Propagates the first runtime teardown failure.
    pub fn terminate_tenant(&mut self, tenant: &str) -> Result<usize, CloudError> {
        let Some(tid) = self.tenants.lookup(tenant) else {
            return Ok(0);
        };
        let ids: Vec<InstanceId> = self
            .instances
            .values()
            .filter(|i| i.tenant == tid)
            .map(|i| i.id)
            .collect();
        let n = ids.len();
        for id in ids {
            self.terminate(id)?;
        }
        Ok(n)
    }

    /// Reboots a physical host: every instance on it is lost (as in a
    /// real power cycle), the kernel comes back with a fresh boot id and
    /// zeroed accumulators, and the wall clock continues from where the
    /// old kernel left off. Background tenants are restarted. The new
    /// kernel is built under the cloud's own run configuration, not the
    /// caller's.
    ///
    /// # Errors
    ///
    /// [`CloudError::NoSuchInstance`] never occurs here; the method
    /// returns the ids of the instances that were lost.
    pub fn reboot_host(&mut self, id: HostId) -> Vec<InstanceId> {
        let idx = id.0 as usize;
        if idx >= self.nhosts {
            return Vec::new();
        }
        // Sync first: the replacement kernel's boot wall time snapshots
        // the old kernel's *current* wall clock.
        self.sync_host(idx);
        simtrace::counters::add("cloud.host_reboots", 1);
        // Casualties: every instance placed here.
        let lost: Vec<InstanceId> = self
            .instances
            .values()
            .filter(|i| i.host == id)
            .map(|i| i.id)
            .collect();
        for inst in &lost {
            self.instances.remove(inst);
            self.billing.close(*inst);
        }
        let (run, with_background) = (self.cfg.run, self.cfg.background_per_host);
        self.with_host(idx, |host| {
            // Fresh kernel on the same hardware: boot time = now.
            let mut machine = host.kernel.config().clone();
            machine.boot_wall_secs = host.kernel.clock().wall_secs();
            let reboot_seed = host
                .kernel
                .seed()
                .wrapping_mul(0x2545_f491_4f6c_dd1d)
                .wrapping_add(1);
            let mut kernel = {
                let _run = run.enter();
                Kernel::new(machine, reboot_seed)
            };
            let (runtime, background) = boot_runtime(&mut kernel, with_background);
            host.kernel = kernel;
            host.runtime = runtime;
            host.background = background;
            host.instances = 0;
        });
        self.capacity.set(idx, 0);
        lost
    }

    /// Adjusts the background tenant demand on one host (diurnal traces).
    /// `demand` in `[0, 1]` is the per-service duty cycle; the 12 services
    /// together can occupy up to 12 of the host's cores.
    pub fn set_background_demand(&mut self, host: HostId, demand: f64) {
        let idx = host.0 as usize;
        if idx >= self.nhosts {
            return;
        }
        // Same clamp `web_service` applies at construction; the demand
        // is retargeted in place so trace-driven fleets do not rebuild
        // (and clone) a workload spec per service per interval.
        let demand = demand.clamp(0.01, 1.0);
        self.with_host(idx, |h| {
            for &pid in &h.background {
                let _ = h.kernel.set_workload_demand(pid, demand);
            }
        });
    }

    /// Sets the simulation tick on every host's kernel (coarser ticks make
    /// week-long traces cheap; finer ticks resolve 1 s power spikes).
    pub fn set_tick_secs(&mut self, secs: u64) {
        self.sync_all();
        for host in &mut self.calendar.hosts {
            host.kernel.set_tick_ns(secs.max(1) * NANOS_PER_SEC);
        }
    }

    /// Wall power of one host, watts.
    pub fn host_power_w(&mut self, host: HostId) -> f64 {
        let idx = host.0 as usize;
        if idx >= self.nhosts {
            return 0.0;
        }
        self.sync_host(idx);
        self.host_ref(idx).kernel.wall_watts()
    }

    /// Aggregate wall power of a rack, watts (what its branch breaker
    /// carries).
    pub fn rack_power_w(&mut self, rack: u32) -> f64 {
        let mut sum = 0.0;
        for idx in 0..self.nhosts {
            if self.host_ref(idx).rack == rack {
                self.sync_host(idx);
                sum += self.host_ref(idx).kernel.wall_watts();
            }
        }
        sum
    }

    /// The accumulated bill for a tenant.
    pub fn bill(&self, tenant: &str) -> TenantBill {
        self.tenants
            .lookup(tenant)
            .map(|t| self.billing.bill(t))
            .unwrap_or_default()
    }

    /// All live instances, id-ordered.
    pub fn instances(&self) -> impl Iterator<Item = &Instance> {
        self.instances.values()
    }

    /// The live instances belonging to one tenant, id-ordered.
    pub fn tenant_instances(&self, tenant: &str) -> Vec<InstanceId> {
        let Some(tid) = self.tenants.lookup(tenant) else {
            return Vec::new();
        };
        self.instances
            .values()
            .filter(|i| i.tenant == tid)
            .map(|i| i.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::models;

    fn cloud(hosts: usize) -> Cloud {
        Cloud::new(CloudConfig::new(CloudProfile::CC1).hosts(hosts), 42)
    }

    #[test]
    fn fleet_boots_with_distinct_identities() {
        let mut c = cloud(4);
        let mut boot_ids: Vec<String> = c
            .hosts()
            .map(|h| h.kernel().boot_id().to_string())
            .collect();
        boot_ids.sort();
        boot_ids.dedup();
        assert_eq!(boot_ids.len(), 4, "boot ids must be unique");
        // All hosts have days of uptime.
        for h in c.hosts() {
            assert!(h.kernel().clock().uptime_secs() > 86_400.0 * 30.0);
        }
    }

    #[test]
    fn rack_mates_share_install_epoch() {
        let mut c = Cloud::new(
            CloudConfig::new(CloudProfile::CC1)
                .hosts(8)
                .hosts_per_rack(4),
            7,
        );
        assert_eq!(c.racks(), 2);
        let boots: Vec<u64> = c
            .hosts()
            .map(|h| h.kernel().config().boot_wall_secs)
            .collect();
        let same_rack = boots[0].abs_diff(boots[1]);
        let cross_rack = boots[0].abs_diff(boots[4]);
        assert!(same_rack < 3_600, "in-rack boot delta {same_rack}");
        assert!(cross_rack > 86_400, "cross-rack boot delta {cross_rack}");
    }

    #[test]
    fn launch_exec_read_terminate() {
        let mut c = cloud(2);
        let id = c.launch("alice", InstanceSpec::new("app")).unwrap();
        c.exec(id, "worker", models::prime()).unwrap();
        c.advance_secs(3);
        let uptime = c.read_file(id, "/proc/uptime").unwrap();
        assert!(!uptime.is_empty());
        c.terminate(id).unwrap();
        assert!(matches!(
            c.read_file(id, "/proc/uptime"),
            Err(CloudError::NoSuchInstance(_))
        ));
    }

    #[test]
    fn spread_placement_distributes() {
        let mut c = cloud(4);
        let ids: Vec<InstanceId> = (0..4)
            .map(|i| c.launch("t", InstanceSpec::new(format!("i{i}"))).unwrap())
            .collect();
        let hosts: std::collections::HashSet<HostId> =
            ids.iter().map(|i| c.instance(*i).unwrap().host()).collect();
        assert_eq!(hosts.len(), 4, "spread should use all hosts");
        assert_eq!(c.coresident(ids[0], ids[1]), Some(false));
    }

    #[test]
    fn masking_profile_applies_to_instances() {
        // CC4 denies timer_list (Table I row: CC4 ○).
        let mut c = Cloud::new(CloudConfig::new(CloudProfile::CC4).hosts(1), 5);
        let id = c.launch("t", InstanceSpec::new("probe")).unwrap();
        assert!(c.read_file(id, "/proc/timer_list").is_err());
        // But CC4 leaves uptime readable (Table I row: CC4 ●).
        assert!(c.read_file(id, "/proc/uptime").is_ok());
    }

    #[test]
    fn billing_charges_busy_more_than_idle() {
        let mut c = cloud(2);
        let busy = c.launch("busy-tenant", InstanceSpec::new("b")).unwrap();
        let idle = c.launch("idle-tenant", InstanceSpec::new("i")).unwrap();
        for i in 0..4 {
            c.exec(busy, &format!("virus-{i}"), models::power_virus())
                .unwrap();
        }
        c.exec(idle, "sleepy", models::web_service(0.02)).unwrap();
        c.advance_secs(3_600);
        let busy_bill = c.bill("busy-tenant").total_usd();
        let idle_bill = c.bill("idle-tenant").total_usd();
        assert!(
            busy_bill > idle_bill * 5.0,
            "busy {busy_bill} vs idle {idle_bill}"
        );
    }

    #[test]
    fn background_load_raises_power() {
        let mut with_bg = cloud(1);
        let mut without = Cloud::new(
            CloudConfig::new(CloudProfile::CC1)
                .hosts(1)
                .without_background(),
            42,
        );
        with_bg.set_background_demand(HostId(0), 0.9);
        with_bg.advance_secs(5);
        without.advance_secs(5);
        assert!(with_bg.host_power_w(HostId(0)) > without.host_power_w(HostId(0)) + 2.0);
    }

    #[test]
    fn tenant_instances_filters_by_owner() {
        let mut c = cloud(2);
        let a = c.launch("alice", InstanceSpec::new("a")).unwrap();
        let _b = c.launch("bob", InstanceSpec::new("b")).unwrap();
        let a2 = c.launch("alice", InstanceSpec::new("a2")).unwrap();
        assert_eq!(c.tenant_instances("alice"), vec![a, a2]);
        assert_eq!(c.tenant_instances("carol"), Vec::<InstanceId>::new());
        c.terminate(a).unwrap();
        assert_eq!(c.tenant_instances("alice"), vec![a2]);
    }

    #[test]
    fn reboot_rotates_identity_and_loses_instances() {
        let mut c = cloud(2);
        let id = c.launch("t", InstanceSpec::new("doomed")).unwrap();
        let host = c.instance(id).unwrap().host();
        c.advance_secs(5);
        let old_boot = c.host(host).unwrap().kernel().boot_id().to_string();
        let old_uptime = c.host(host).unwrap().kernel().clock().uptime_secs();
        let wall_before = c.host(host).unwrap().kernel().clock().wall_secs();
        assert!(old_uptime > 86_400.0);

        let lost = c.reboot_host(host);
        assert_eq!(lost, vec![id]);
        assert!(c.instance(id).is_none());
        let h = c.host(host).unwrap();
        assert_ne!(h.kernel().boot_id(), old_boot, "boot id must rotate");
        assert!(h.kernel().clock().uptime_secs() < 1.0, "uptime resets");
        assert_eq!(
            h.kernel().config().boot_wall_secs,
            wall_before,
            "wall continues"
        );
        assert_eq!(h.instance_count(), 0);
        // The host still takes new work.
        c.advance_secs(2);
        let fresh = c.launch("t", InstanceSpec::new("next")).unwrap();
        assert!(c.read_file(fresh, "/proc/uptime").is_ok());
    }

    #[test]
    fn rack_power_sums_hosts() {
        let mut c = cloud(4);
        c.advance_secs(2);
        let sum: f64 = (0..4).map(|i| c.host_power_w(HostId(i))).sum();
        let rack = c.rack_power_w(0);
        assert!((sum - rack).abs() < 1e-9);
        assert!(rack > 300.0, "4 idle cloud servers ≈ 450 W: {rack}");
    }

    /// The load-bearing equivalence: a lazy calendar fleet and an eager
    /// fleet driven through the same script expose byte-identical
    /// tenant-visible state and bills.
    #[test]
    fn lazy_fleet_matches_eager_fleet() {
        let run = |eager: bool| {
            let mut cfg = CloudConfig::new(CloudProfile::CC1)
                .hosts(6)
                .hosts_per_rack(2);
            if eager {
                cfg = cfg.eager_advance();
            }
            let mut c = Cloud::new(cfg, 31);
            let a = c.launch("alice", InstanceSpec::new("a")).unwrap();
            let b = c.launch("bob", InstanceSpec::new("b")).unwrap();
            c.exec(a, "svc", models::web_service(0.4)).unwrap();
            c.advance_secs(7);
            c.exec(b, "burst", models::power_virus()).unwrap();
            c.advance_secs(11);
            c.terminate(b).unwrap();
            c.advance_secs(23);
            let mut out = String::new();
            out.push_str(&c.read_file(a, "/proc/uptime").unwrap());
            out.push_str(&c.read_file(a, "/proc/stat").unwrap());
            let watts: Vec<String> = (0..6)
                .map(|i| format!("{:.6}", c.host_power_w(HostId(i))))
                .collect();
            (
                out,
                watts.join(","),
                format!("{:?}{:?}", c.bill("alice"), c.bill("bob")),
            )
        };
        assert_eq!(run(false), run(true));
    }
}
