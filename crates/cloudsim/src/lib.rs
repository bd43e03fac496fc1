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
//! reference baseline. [`CloudConfig::tick_stepped`] is the kernel-level
//! reference: every host, rebooted ones included, walks its quiescent
//! time tick by tick instead of coalescing it.
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

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::iter_over_hash_type
)]

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
use pseudofs::{FsError, Handle, MaskPolicy};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use simkernel::{HostPid, Kernel, MachineConfig, PowerModel, NANOS_PER_SEC};
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
    background_per_host: bool,
    tick_stepped: bool,
    eager_advance: bool,
    detector: Option<DetectorConfig>,
    power_namespace: Option<PowerModel>,
}

impl CloudConfig {
    /// A config for the given provider profile with paper-scale defaults:
    /// 8 cloud servers per rack, spread placement, utilization billing,
    /// no detector, coalescing hosts on a lazy calendar.
    pub fn new(profile: CloudProfile) -> Self {
        CloudConfig {
            profile,
            hosts: 8,
            hosts_per_rack: 8,
            machine: profile.default_machine(),
            placement: PlacementPolicy::Spread,
            background_per_host: true,
            tick_stepped: false,
            eager_advance: false,
            detector: None,
            power_namespace: None,
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

    /// Builds every host kernel, rebooted ones included, as the
    /// [`Kernel::tick_stepped`] reference: quiescent time walked tick by
    /// tick, never coalesced. Byte-identical to the default fleet; the
    /// baseline the differential tests hold coalescing to.
    #[must_use]
    pub fn tick_stepped(mut self) -> Self {
        self.tick_stepped = true;
        self
    }

    /// Attaches the provider-side online detector with the given
    /// thresholds.
    #[must_use]
    pub fn detector(mut self, cfg: DetectorConfig) -> Self {
        self.detector = Some(cfg);
        self
    }

    /// Deploys the power-based namespace with `model` on every host
    /// kernel ([`Kernel::power_namespace`]), installed once the boot
    /// uptime is fast-forwarded and again on every reboot: each tenant
    /// container, the background tenant included, reads its own
    /// calibrated RAPL energy.
    #[must_use]
    pub fn power_namespace(mut self, model: PowerModel) -> Self {
        self.power_namespace = Some(model);
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
    /// The container's cpuacct total at its last billing meter.
    metered_ns: u64,
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

/// What one billing pass did.
#[derive(Debug, Default)]
struct Metered {
    /// Instances charged (the `cloud.billing_charges` counter).
    charges: u64,
    /// Of those, the ones whose cpuacct total was read.
    reads: u64,
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
    /// The provider-side online detector, when configured. Fed from the
    /// driver thread only (tenant reads in program order, evaluation at
    /// advance boundaries), so its state is byte-deterministic across
    /// `--jobs` and coalescing.
    detector: Option<Detector>,
    /// The profile's masking policy, built once: every launch's view
    /// shares its rules.
    policy: MaskPolicy,
}

/// A freshly booted host kernel with `uptime_secs` of idle uptime behind
/// it: the [`Kernel::tick_stepped`] reference when the config asks for
/// one, and carrying the power namespace when it deploys one. Every host
/// kernel, at fleet boot and at a reboot, is built here.
fn boot_kernel(machine: MachineConfig, seed: u64, uptime_secs: u64, cfg: &CloudConfig) -> Kernel {
    let mut kernel = Kernel::new(machine, seed);
    if cfg.tick_stepped {
        kernel = kernel.tick_stepped();
    }
    kernel.fast_forward_boot(uptime_secs);
    match &cfg.power_namespace {
        Some(model) => kernel.power_namespace(model.clone()),
        None => kernel,
    }
}

/// A fresh runtime on a freshly booted host kernel. With `background`,
/// it runs the background tenant: 12 service processes per host, so that
/// fleet-level diurnal demand can swing most of the machine (the paper's
/// Fig. 2 sees a 34.7% week-scale power band).
#[expect(
    clippy::expect_used,
    reason = "seeds the background tenant on a freshly booted host (fleet construction or \
        reboot): an empty runtime always admits the background container and its \
        services"
)]
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
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc10_0d5eed);
        let mut hosts = Vec::with_capacity(cfg.hosts);
        for i in 0..cfg.hosts {
            let rack = (i / cfg.hosts_per_rack) as u32;
            let mut machine = cfg.machine.clone();
            machine.hostname = format!("{}-node{i}", cfg.profile.slug());
            // Rack install epochs days apart; in-rack jitter of minutes.
            machine.boot_wall_secs =
                1_450_000_000 + u64::from(rack) * 86_400 * 9 + rng.random_range(0..1_200);
            // Uptime: rack-correlated (a rack is installed and booted
            // together, within the hour), racks days apart — the structure
            // §IV-C's uptime grouping exploits. Idle times diverge later
            // from load.
            let uptime_days = 40 + u64::from(rack) * 13;
            let mut kernel = boot_kernel(
                machine,
                seed.wrapping_mul(6364136223846793005)
                    .wrapping_add(i as u64),
                uptime_days * 86_400 + rng.random_range(0..1_800),
                &cfg,
            );
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
        let policy = cfg.profile.mask_policy();
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
            detector: det,
            policy,
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
        let mut policy = self.policy.clone();
        if let Some(deny) = self
            .detector
            .as_ref()
            .and_then(|d| d.deny_patterns_for(tid.0))
        {
            policy = detector::composed_policy(&policy, deny);
            simtrace::counters::add("detector.policies_applied", 1);
        }
        let InstanceSpec { name, vcpus } = spec;
        let (container, count, launched_at_ns) = self.with_host(host_idx, |host| {
            let ncpus = host.kernel.config().cpus;
            // Allot a deterministic contiguous cpuset.
            let base = (host.instances as u16 * vcpus) % ncpus;
            let cpus: Vec<u16> = (0..vcpus).map(|i| (base + i) % ncpus).collect();
            let cspec = ContainerSpec::new(name)
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
                vcpus,
                launched_at_ns,
                metered_ns: 0,
            },
        );
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
        let mut out = String::new();
        self.read_file_into(id, path, &mut out)?;
        Ok(out)
    }

    /// [`Cloud::read_file`] into a caller-provided buffer, reusing its
    /// allocation across reads.
    ///
    /// # Errors
    ///
    /// As [`Cloud::read_file`]; on error `buf` is left empty.
    pub fn read_file_into(
        &mut self,
        id: InstanceId,
        path: &str,
        buf: &mut String,
    ) -> Result<(), CloudError> {
        self.tapped_read(id, path, buf, |rt, kernel, c, buf| {
            rt.read_file_into(kernel, c, path, buf)
        })
    }

    /// [`Cloud::read_file_into`] through a [`Handle`] opened once, for a
    /// tenant loop that re-reads the same files (the 1 Hz RAPL monitor).
    /// The host is synced, the instance's current mask applies and the
    /// detector sees the read, as for a read by path; only the path's
    /// resolve is skipped.
    ///
    /// # Errors
    ///
    /// As [`Cloud::read_file`] for the handle's path.
    pub fn read_handle_into(
        &mut self,
        id: InstanceId,
        handle: &Handle,
        buf: &mut String,
    ) -> Result<(), CloudError> {
        self.tapped_read(id, handle.path(), buf, |rt, kernel, c, buf| {
            rt.read_handle_into(kernel, c, handle, buf)
        })
    }

    /// The one tenant read: clears `buf`, looks the instance up, syncs its
    /// host, runs `read` in its container, and feeds `path` to the
    /// detector.
    fn tapped_read(
        &mut self,
        id: InstanceId,
        path: &str,
        buf: &mut String,
        read: impl FnOnce(&Runtime, &Kernel, ContainerId, &mut String) -> Result<(), RuntimeError>,
    ) -> Result<(), CloudError> {
        buf.clear();
        let inst = *self
            .instances
            .get(&id)
            .ok_or(CloudError::NoSuchInstance(id))?;
        let idx = inst.host.0 as usize;
        self.sync_host(idx);
        let res = {
            let host = self.host_ref(idx);
            read(&host.runtime, &host.kernel, inst.container, buf)
        };
        // The online tap: every tenant read reaches the detector inline,
        // on the driver thread, stamped with fleet-absolute sim time.
        // Denied reads count too — probing a closed channel is signal.
        if let Some(det) = self.detector.as_mut() {
            let denied = matches!(&res, Err(RuntimeError::Fs(FsError::PermissionDenied(_))));
            det.observe(self.fleet_ns, inst.tenant.0, path, denied);
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

    /// How many pseudo files are visible inside an instance: the length
    /// of [`Cloud::list_files`], without building the list. The count
    /// goes by route ([`PseudoFs::count`](pseudofs::PseudoFs::count)): a
    /// route the instance's mask decides whole adds its size without
    /// a path formatted, so a call costs a few microseconds where a
    /// per-path walk formatted and mask-checked about 400 paths.
    ///
    /// # Errors
    ///
    /// [`CloudError::NoSuchInstance`].
    pub fn count_files(&mut self, id: InstanceId) -> Result<usize, CloudError> {
        let inst = *self
            .instances
            .get(&id)
            .ok_or(CloudError::NoSuchInstance(id))?;
        let idx = inst.host.0 as usize;
        self.sync_host(idx);
        let host = self.host_ref(idx);
        Ok(host.runtime.count_files(&host.kernel, inst.container)?)
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
        self.advance_with(secs, Cloud::meter);
    }

    /// [`Cloud::advance_secs`] with `meter` as the billing pass; returns
    /// what it metered.
    fn advance_with(&mut self, secs: u64, meter: fn(&mut Cloud, u64) -> Metered) -> Metered {
        if secs > 0 {
            let target = self.fleet_ns + secs * NANOS_PER_SEC;
            self.calendar.advance_to(target);
            self.fleet_ns = target;
        }
        let metered = meter(self, secs);
        simtrace::counters::add("cloud.billing_charges", metered.charges);
        self.apply_detector_updates();
        metered
    }

    /// Charges every open instance for the last `secs`, in instance-id
    /// order. Only scheduler run ticks write cpuacct, and the calendar's
    /// `sync_to` is the only place a host kernel advances and marks the
    /// hosts whose advance ran a tick. So an instance on an unmarked host
    /// has a cpuacct delta of exactly 0 since its last meter (or since
    /// launch, when its fresh cgroup read 0): it pays its own base term
    /// and nothing else, since its zero cpu terms would add `+0.0` to
    /// non-negative accumulators. Only instances on marked hosts read
    /// cpuacct, lagged hosts included — a lagged host is quiescent, so
    /// its totals are static and need no sync.
    fn meter(&mut self, secs: u64) -> Metered {
        let Cloud {
            calendar,
            instances,
            billing,
            ..
        } = self;
        let mut metered = Metered::default();
        for inst in instances.values_mut() {
            let idx = inst.host.0 as usize;
            if calendar.ran[idx] {
                let host = &calendar.hosts[idx];
                let Some(used) = host.runtime.cpu_usage_ns(&host.kernel, inst.container) else {
                    continue;
                };
                billing.meter(inst.tenant, &mut inst.metered_ns, used, secs);
                metered.reads += 1;
            } else {
                billing.charge_base(inst.tenant, secs);
            }
            metered.charges += 1;
        }
        calendar.clear_ran();
        metered
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
        for (u, v) in updates.iter().zip(&verdicts) {
            let policy = detector::composed_policy(&self.policy, &u.deny);
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
    /// kernel is built in the cloud's mode, so a
    /// [`CloudConfig::tick_stepped`] fleet stays stepped.
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
        }
        let cfg = self.cfg.clone();
        self.with_host(idx, |host| {
            // Fresh kernel on the same hardware: boot time = now.
            let mut machine = host.kernel.config().clone();
            machine.boot_wall_secs = host.kernel.clock().wall_secs();
            let reboot_seed = host
                .kernel
                .seed()
                .wrapping_mul(0x2545_f491_4f6c_dd1d)
                .wrapping_add(1);
            let mut kernel = boot_kernel(machine, reboot_seed, 0, &cfg);
            let (runtime, background) = boot_runtime(&mut kernel, cfg.background_per_host);
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
        // is retargeted in place, all services in one batch, so
        // trace-driven fleets neither rebuild (and clone) a workload spec
        // per service per interval nor dirty the process epoch per service.
        let demand = demand.clamp(0.01, 1.0);
        self.with_host(idx, |h| {
            h.kernel.set_workload_demands(&h.background, demand);
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
    use proptest::prelude::*;
    use simkernel::FaultPlan;
    use workloads::{models, Phase, Repeat, WorkloadClass};

    // The reference meter: the plain full walk, reading every open
    // instance's cpuacct total whether or not its host ran. The property below drives a fast cloud and a
    // reference cloud through the same script and demands bit-identical
    // bills and charge counts.
    impl Cloud {
        fn meter_reference(&mut self, secs: u64) -> Metered {
            let Cloud {
                calendar,
                instances,
                billing,
                ..
            } = self;
            let mut metered = Metered::default();
            for inst in instances.values_mut() {
                let host = &calendar.hosts[inst.host.0 as usize];
                if let Some(used) = host.runtime.cpu_usage_ns(&host.kernel, inst.container) {
                    billing.meter(inst.tenant, &mut inst.metered_ns, used, secs);
                    metered.charges += 1;
                    metered.reads += 1;
                }
            }
            metered
        }
    }

    const TENANTS: [&str; 3] = ["t0", "t1", "t2"];

    /// A `Once` workload that burns a few CPU-seconds and exits.
    fn short_job() -> WorkloadSpec {
        WorkloadSpec::new(
            "short-job",
            WorkloadClass::Mixed,
            vec![Phase {
                duration_ns: 3 * NANOS_PER_SEC,
                cpu_demand: 0.8,
                ..Phase::quiescent(NANOS_PER_SEC)
            }],
            Repeat::Once,
        )
    }

    fn workload(choice: usize) -> WorkloadSpec {
        match choice % 3 {
            0 => models::power_virus(),
            1 => models::sleeper(),
            _ => short_job(),
        }
    }

    /// One step of a metering script: `(op, pick)`.
    type Step = (usize, usize);

    /// Everything one script run metered: each tenant's bill as bits,
    /// the `cloud.billing_charges` total and the cpuacct reads.
    #[derive(Debug, PartialEq)]
    struct MeterRun {
        bills: Vec<[u64; 3]>,
        charges: u64,
        reads: u64,
    }

    /// Boots a 4-host fleet and runs `steps` on it, metering with the
    /// fast or the reference pass.
    fn run_meter_script(
        seed: u64,
        eager: bool,
        background: bool,
        steps: &[Step],
        reference: bool,
    ) -> MeterRun {
        let mut cfg = CloudConfig::new(CloudProfile::CC1)
            .hosts(4)
            .hosts_per_rack(2)
            .machine(MachineConfig::small_server());
        if eager {
            cfg = cfg.eager_advance();
        }
        if !background {
            cfg = cfg.without_background();
        }
        let mut c = Cloud::new(cfg, seed);
        let mut live: Vec<InstanceId> = Vec::new();
        let mut pids: Vec<(InstanceId, HostPid)> = Vec::new();
        let (mut charges, mut reads) = (0, 0);
        for &(op, pick) in steps {
            let inst = (!live.is_empty()).then(|| live[pick % live.len()]);
            match (op, inst) {
                (0 | 1, _) => {
                    let spec = InstanceSpec::new(format!("i{pick}")).vcpus([1, 2, 4][pick % 3]);
                    if let Ok(id) = c.launch(TENANTS[pick % TENANTS.len()], spec) {
                        live.push(id);
                    }
                }
                (2, Some(id)) => {
                    c.terminate(id).unwrap();
                    live.retain(|&i| i != id);
                    pids.retain(|&(i, _)| i != id);
                }
                (3 | 4, Some(id)) => {
                    if let Ok(pid) = c.exec(id, "p", workload(pick / 7)) {
                        pids.push((id, pid));
                    }
                }
                (5, _) if !pids.is_empty() => {
                    let (id, pid) = pids[pick % pids.len()];
                    let _ = c.set_process_workload(id, pid, workload(pick / 5));
                }
                (6, Some(id)) => {
                    c.read_file(id, "/proc/stat").unwrap();
                }
                (7, _) => {
                    let lost = c.reboot_host(HostId((pick % 4) as u32));
                    live.retain(|i| !lost.contains(i));
                    pids.retain(|(i, _)| !lost.contains(i));
                }
                (8, _) => c.install_faults(&FaultPlan::standard(seed ^ pick as u64)),
                (9, _) => c.set_tick_secs([1, 5, 30][pick % 3]),
                (10..=12, _) => {
                    let secs = if op == 12 { 3_600 } else { 1 };
                    let meter = if reference {
                        Cloud::meter_reference
                    } else {
                        Cloud::meter
                    };
                    let m = c.advance_with(secs, meter);
                    charges += m.charges;
                    reads += m.reads;
                }
                _ => {}
            }
        }
        let bills = TENANTS
            .iter()
            .map(|t| {
                let b = c.bill(t);
                [
                    b.cpu_usd.to_bits(),
                    b.base_usd.to_bits(),
                    b.vcpu_seconds.to_bits(),
                ]
            })
            .collect();
        MeterRun {
            bills,
            charges,
            reads,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 12 } else { 256 }))]
        #[test]
        fn fast_meter_bills_the_reference_walks_bits(
            seed in 0u64..1_000_000,
            eager in 0usize..2,
            background in 0usize..3,
            steps in proptest::collection::vec((0usize..13, 0usize..64), 1..48),
        ) {
            // Background load keeps every host busy, so two cases in
            // three run idle fleets where the skip does the work.
            let run = |reference| {
                run_meter_script(seed, eager == 1, background == 0, &steps, reference)
            };
            let (fast, plain) = (run(false), run(true));
            prop_assert_eq!(&fast.bills, &plain.bills);
            prop_assert_eq!(fast.charges, plain.charges);
            prop_assert!(fast.reads <= plain.reads);
        }
    }

    /// Non-vacuity: a busy fleet's instances take the path that reads
    /// cpuacct, and the fast meter agrees with the reference there.
    #[test]
    fn busy_hosts_are_metered_through_cpuacct() {
        let steps = [(0, 0), (0, 1), (3, 0), (3, 1), (11, 0), (12, 0), (11, 0)];
        for eager in [false, true] {
            let fast = run_meter_script(5, eager, false, &steps, false);
            assert_eq!(fast, run_meter_script(5, eager, false, &steps, true));
            assert_eq!((fast.charges, fast.reads), (6, 6), "eager {eager}");
            assert!(f64::from_bits(fast.bills[0][2]) > 1_000.0, "{fast:?}");
        }
    }

    /// Non-vacuity: an idle fleet is billed without reading any cpuacct
    /// total, and still pays its base charges.
    #[test]
    fn idle_hosts_skip_the_cpuacct_read() {
        let steps = [
            (0, 0),
            (0, 1),
            (0, 2),
            (11, 0),
            (6, 1),
            (12, 0),
            (6, 0),
            (11, 0),
        ];
        for eager in [false, true] {
            let fast = run_meter_script(9, eager, false, &steps, false);
            let plain = run_meter_script(9, eager, false, &steps, true);
            assert_eq!(fast.bills, plain.bills);
            assert_eq!((fast.charges, fast.reads), (9, 0), "eager {eager}");
            assert_eq!(plain.reads, 9);
            assert!(f64::from_bits(fast.bills[0][1]) > 0.0);
        }
    }

    #[test]
    fn terminate_keeps_accumulated_charges() {
        let mut c = cloud(2);
        let id = c.launch("t", InstanceSpec::new("gone")).unwrap();
        c.exec(id, "virus", models::power_virus()).unwrap();
        c.advance_secs(60);
        let before = c.bill("t");
        assert!(before.cpu_usd > 0.0);
        c.terminate(id).unwrap();
        c.advance_secs(60);
        assert_eq!(c.bill("t"), before);
    }

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
        // The listing hides what the mask denies; the count agrees.
        let listed = c.list_files(id).unwrap();
        assert!(!listed.iter().any(|p| p == "/proc/timer_list"));
        assert_eq!(c.count_files(id).unwrap(), listed.len());
        c.terminate(id).unwrap();
        assert!(matches!(
            c.count_files(id),
            Err(CloudError::NoSuchInstance(_))
        ));
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
