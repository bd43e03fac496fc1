//! The read path and tree enumeration.

use std::ops::Range;

use simkernel::ns::{NamespaceRegistry, NsId};
use simkernel::{dep, Kernel};

use crate::error::FsError;
use crate::faultfx;
use crate::registry::{self, Dim, Piece, Route, MAX_CAPTURES};
use crate::render::{proc_pid, push_u64};
use crate::view::{MaskAction, Reach, View};

/// Subsystems [`PseudoFs::list`] and [`PseudoFs::count`] consult:
/// hardware presence and package counts, ext4 partitions, visible pids,
/// and NUMA topology. Pid visibility is read through the namespace
/// registry, and every spawn or kill bumps NS, so the process-table bit
/// is not needed here.
pub const LIST_DEPS: u32 = dep::HW | dep::FS | dep::NS | dep::MEM;

/// The pseudo filesystem: a stateless router over the kernel's state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PseudoFs;

/// Records a masked-path denial (namespace-filter hit) for the trace.
fn note_denied(k: &Kernel, path: &str) {
    if !simtrace::enabled() {
        return;
    }
    simtrace::counters::add("pseudofs.denied", 1);
    if let Some(tr) = k.tracer() {
        tr.emit(
            k.lifetime_ns(),
            simtrace::TraceEvent::MaskDenied {
                path: path.to_string(),
            },
        );
    }
}

/// Records a successful channel read (per-channel counter + probe-phase
/// profile + event). Probes are instantaneous in sim time, so the probe
/// phase accumulates event counts against zero virtual nanoseconds.
fn note_read(k: &Kernel, path: &str, bytes: usize) {
    if !simtrace::enabled() {
        return;
    }
    simtrace::counters::add_channel("pseudofs.read", path, 1);
    simtrace::profile::record("probe", 0, 1);
    if let Some(tr) = k.tracer() {
        tr.emit(
            k.lifetime_ns(),
            simtrace::TraceEvent::PseudofsRead {
                path: path.to_string(),
                bytes: bytes as u64,
            },
        );
    }
}

/// The values one [`Dim`] takes on a kernel, in a view.
enum Axis<'k> {
    /// `start..end`, written in decimal.
    Range(Range<usize>),
    /// Kernel object names.
    Names(Vec<&'k str>),
    /// The pids of a pid namespace, as it numbers them.
    Pids(&'k NamespaceRegistry, NsId),
}

/// One value of an [`Axis`].
#[derive(Debug, Clone, Copy)]
enum Value<'k> {
    Num(usize),
    Name(&'k str),
}

impl<'k> Axis<'k> {
    fn len(&self) -> usize {
        match self {
            Axis::Range(r) => r.len(),
            Axis::Names(names) => names.len(),
            Axis::Pids(ns, id) => ns.pid_count(*id),
        }
    }

    fn each(&self, mut f: impl FnMut(Value<'k>)) {
        match self {
            Axis::Range(r) => r.clone().for_each(|i| f(Value::Num(i))),
            Axis::Names(names) => names.iter().for_each(|s| f(Value::Name(s))),
            Axis::Pids(ns, id) => ns.pids_in(*id).for_each(|(_, p)| f(Value::Num(p as usize))),
        }
    }
}

/// Writes a route's compiled template into `out`, each `{0}`/`{1}` hole
/// replaced by its value, and returns the byte range of `out` each holed
/// segment's holes cover, from its first hole to its last, in order
/// (unused slots are empty): the text the resolver captures for that
/// segment.
fn expand(
    out: &mut String,
    template: &[Piece],
    values: [Value; 2],
) -> [Range<usize>; MAX_CAPTURES] {
    out.clear();
    let mut caps: [Range<usize>; MAX_CAPTURES] = Default::default();
    for piece in template {
        match *piece {
            Piece::Text(text) => out.push_str(text),
            Piece::Hole {
                value,
                capture,
                extends,
            } => {
                let start = out.len();
                match values[value] {
                    Value::Num(n) => push_u64(out, n as u64),
                    Value::Name(s) => out.push_str(s),
                }
                if let Some(cap) = caps.get_mut(capture) {
                    if !extends {
                        cap.start = start;
                    }
                    cap.end = out.len();
                }
            }
        }
    }
    caps
}

/// What [`enumerate`] hands each visible path to, with its route and
/// the text each holed segment of the route's template took, in order,
/// as [`registry::resolve`] would capture it from the path.
pub(crate) type Visit<'a> = &'a mut dyn FnMut(&'static Route, &str, &[&str]);

/// The one enumeration behind [`PseudoFs::list`], [`PseudoFs::count`]
/// and [`PseudoFs::walk`]: walks every route of the tree
/// ([`registry::ROUTES`]), its template's dimensions read from the
/// kernel, and returns how many of its paths the view's mask leaves
/// visible. With `visit`, it also formats each visible path into one
/// reused buffer and hands it over with its route and captures, in
/// generation order: route-table order, then each route's `{0}` values,
/// then its `{1}` values.
///
/// The policy's verdict on a route, decided once per policy
/// ([`View::route_reach`]), settles the route whole when it can: a
/// route whose every path is denied is skipped, and one no rule denies
/// is counted by its size (and for `visit`, formatted without a mask
/// check). Only a route the verdict leaves open formats and mask-checks
/// each path. Its name is the `(list)` row's handler in leakcheck's
/// flow audit and committed report.
pub(crate) fn enumerate(k: &Kernel, view: &View, mut visit: Option<Visit<'_>>) -> usize {
    let coretemp = k.hw().has_coretemp();
    let rapl_packages = if k.rapl().is_present() {
        k.rapl().package_count()
    } else {
        0
    };
    let axis = |dim| match dim {
        Dim::One => Axis::Range(0..1),
        Dim::Cpu => Axis::Range(0..k.config().cpus as usize),
        Dim::IdleState => Axis::Range(0..simkernel::hw::IDLE_STATE_NAMES.len()),
        Dim::Disk => Axis::Names(k.config().disks.iter().map(|(d, _)| d.as_str()).collect()),
        Dim::ThermalZone => Axis::Range(0..usize::from(coretemp)),
        Dim::Ext4Partition => Axis::Names(
            k.fs()
                .ext4_partitions()
                .iter()
                .map(|(p, _)| p.as_str())
                .collect(),
        ),
        Dim::Pid => Axis::Pids(k.namespaces(), proc_pid::viewer_ns(k, view).pid),
        Dim::RaplPackage => Axis::Range(0..rapl_packages),
        Dim::RaplDomain => Axis::Range(0..2),
        Dim::CoretempPackage if coretemp => Axis::Range(0..k.rapl().package_count().max(1)),
        Dim::CoretempPackage => Axis::Range(0..0),
        Dim::CoretempSensor => Axis::Range(1..k.config().cpus_per_package() as usize + 2),
        Dim::NumaNode => Axis::Range(0..k.mem().numa_nodes() as usize),
    };

    let mut n = 0;
    let mut buf = String::new();
    let routes = registry::ROUTES.iter().zip(registry::templates());
    for ((route, template), reach) in routes.zip(view.route_reach()) {
        let check = match reach {
            Reach::All(MaskAction::Deny) => continue,
            Reach::No | Reach::All(MaskAction::Partial) => false,
            Reach::Maybe => true,
        };
        let [a, b] = route.dims.map(axis);
        if !check && visit.is_none() {
            n += a.len() * b.len();
            continue;
        }
        a.each(|x| {
            b.each(|y| {
                let caps = expand(&mut buf, template, [x, y]);
                if check && view.mask_action(&buf) == Some(MaskAction::Deny) {
                    return;
                }
                n += 1;
                if let Some(visit) = &mut visit {
                    visit(route, &buf, &caps.map(|r| buf.get(r).unwrap_or_default()));
                }
            })
        });
    }
    n
}

/// A path resolved once to its route, for a reader that reads the same
/// file again and again: the descriptor a monitor keeps open. It holds
/// the path, the route serving it (if any) and the byte range of the
/// path each holed segment of the route's template captured.
///
/// Opening never fails and consults nothing but the route table. The
/// mask, the fault plan and the kernel's state are consulted at each
/// [`PseudoFs::read_handle_into`], as [`PseudoFs::read_into`] consults
/// them, so a handle reads what `read_into` of its path reads, bytes or
/// error: a policy swapped in after the open still denies, and a path
/// no route serves reads as `NotFound` once the mask and the fault plan
/// have let the read through.
#[derive(Debug, Clone)]
pub struct Handle {
    path: String,
    route: Option<&'static Route>,
    caps: [Range<usize>; MAX_CAPTURES],
}

impl Handle {
    /// Resolves `path` to its route, once.
    pub fn open(path: &str) -> Handle {
        // Each capture is a slice of `path` (an unused slot is an empty
        // literal), so its offset is its distance from the path's start.
        let span = |cap: &str| {
            if cap.is_empty() {
                return 0..0;
            }
            let start = cap.as_ptr() as usize - path.as_ptr() as usize;
            start..start + cap.len()
        };
        let (route, caps) = match registry::resolve(path) {
            Some((route, caps)) => (Some(route), caps.map(span)),
            None => (None, Default::default()),
        };
        Handle {
            path: path.to_string(),
            route,
            caps,
        }
    }

    /// The path the handle was opened on.
    pub fn path(&self) -> &str {
        &self.path
    }
}

/// The read core behind [`PseudoFs::read_into`],
/// [`PseudoFs::read_handle_into`] and [`PseudoFs::walk`]:
/// mask → fault → render → distort → note. `render` runs the route
/// serving `path` on the text its holes took, into `buf`, and returns
/// `None` when no route serves the path or the route names nothing in
/// this view; it runs only once the mask and the fault plan have let the
/// read through, so a denied or faulted path is never resolved. An
/// injected fault error aborts before the render; distortion then
/// applies to the rendered bytes. On error `buf` is left empty.
fn read_routed(
    k: &Kernel,
    view: &View,
    path: &str,
    buf: &mut String,
    render: impl FnOnce(&mut String) -> Option<()>,
) -> Result<(), FsError> {
    buf.clear();
    if view.mask_action(path) == Some(MaskAction::Deny) {
        note_denied(k, path);
        return Err(FsError::PermissionDenied(path.to_string()));
    }
    if let Some(e) = faultfx::injected_error(k, path) {
        return Err(e);
    }
    if render(buf).is_none() {
        buf.clear();
        return Err(FsError::NotFound(path.to_string()));
    }
    faultfx::distort(k, path, buf);
    note_read(k, path, buf.len());
    Ok(())
}

impl PseudoFs {
    /// Creates the (stateless) filesystem.
    pub fn new() -> Self {
        PseudoFs
    }

    /// Reads `path` in the given view.
    ///
    /// # Errors
    ///
    /// * [`FsError::PermissionDenied`] when the view's masking policy
    ///   denies the path (first-stage defense / cloud hardening).
    /// * [`FsError::NotFound`] for paths no [`Route`] matches, absent
    ///   hardware (no RAPL/DTS), or pids invisible to the reader.
    /// * [`FsError::Io`] / [`FsError::Truncated`] when the kernel's
    ///   installed fault plan has an active window covering this path —
    ///   transient: the same read can succeed once the window passes.
    pub fn read(&self, k: &Kernel, view: &View, path: &str) -> Result<String, FsError> {
        let mut out = String::new();
        self.read_into(k, view, path, &mut out)?;
        Ok(out)
    }

    /// Reads `path` into `buf`, clearing it first and reusing its
    /// allocation. Scan loops that read thousands of files (the
    /// cross-validator's two-context walk, the Table II metric windows)
    /// use this to avoid a fresh `String` per read; renderers write
    /// straight into `buf`.
    ///
    /// This is one of the read path's three entry points: it resolves
    /// `path` to its route and hands both to the read core (mask → fault
    /// → render → distort → note), which [`PseudoFs::read_handle_into`]
    /// and [`PseudoFs::walk`] call too. Every read renders from live
    /// kernel state, as procfs and sysfs handlers do.
    ///
    /// # Errors
    ///
    /// Same as [`PseudoFs::read`]. On error `buf` is left empty.
    pub fn read_into(
        &self,
        k: &Kernel,
        view: &View,
        path: &str,
        buf: &mut String,
    ) -> Result<(), FsError> {
        read_routed(k, view, path, buf, |buf| {
            let (route, caps) = registry::resolve(path)?;
            (route.render)(k, view, &caps, buf)
        })
    }

    /// Reads the file `handle` was opened on into `buf`, through the same
    /// core as [`PseudoFs::read_into`] with the route and captures the
    /// open resolved, so the path is not resolved again. Every check
    /// `read_into` makes still runs per read, in the same order: the
    /// view's mask, the kernel's fault plan, the render, the distortion
    /// and the trace record.
    ///
    /// # Errors
    ///
    /// Exactly those [`PseudoFs::read_into`] returns for the handle's
    /// path. On error `buf` is left empty.
    pub fn read_handle_into(
        &self,
        k: &Kernel,
        view: &View,
        handle: &Handle,
        buf: &mut String,
    ) -> Result<(), FsError> {
        let path = handle.path.as_str();
        read_routed(k, view, path, buf, |buf| {
            let caps = handle
                .caps
                .each_ref()
                .map(|r| path.get(r.clone()).unwrap_or_default());
            (handle.route?.render)(k, view, &caps, buf)
        })
    }

    /// Reads every path [`PseudoFs::list`] would return in one pass,
    /// handing each to `visit` with its bytes or the error
    /// [`PseudoFs::read_into`] would return for it. Paths arrive in the
    /// enumerator's order (route-table order, not sorted), and each is
    /// read through the same core as `read_into` with the route and
    /// captures the enumerator formatted it from, so no path is
    /// allocated, sorted or resolved again. This is the paper's full
    /// recursive read of `/proc` and `/sys` in one context.
    pub fn walk(
        &self,
        k: &Kernel,
        view: &View,
        mut visit: impl FnMut(&str, Result<&str, FsError>),
    ) {
        let mut buf = String::new();
        enumerate(
            k,
            view,
            Some(&mut |route, path, caps| {
                let read = read_routed(k, view, path, &mut buf, |buf| {
                    (route.render)(k, view, caps, buf)
                });
                visit(path, read.map(|()| buf.as_str()));
            }),
        );
    }

    /// Enumerates every readable file path in this view, sorted — the
    /// recursive exploration step of the paper's detection framework:
    /// the exact routes' paths plus the parameterized ones the kernel's
    /// topology instantiates (cpus, disks, partitions, pids, RAPL
    /// packages, NUMA nodes), one template per route. Deny-masked paths
    /// are excluded (they are unreadable in the cloud). A route the
    /// policy denies whole is never formatted, and one it leaves whole is
    /// formatted without a per-path mask check; only a route some rule
    /// may split checks each path. [`PseudoFs::count`] walks the same
    /// routes and only counts them.
    pub fn list(&self, k: &Kernel, view: &View) -> Vec<String> {
        let mut paths = Vec::with_capacity(256);
        enumerate(k, view, Some(&mut |_, p, _| paths.push(p.to_string())));
        // Equal `String`s are indistinguishable, so the unstable sort
        // leaves the order a stable one would.
        paths.sort_unstable();
        paths
    }

    /// How many paths [`PseudoFs::list`] would return, without
    /// allocating them. A route the view's policy decides whole (no path
    /// of it denied, or every one) adds its size, the product of its
    /// dimensions read from the kernel, without formatting a path; only
    /// a route some rule may split is formatted and mask-checked path by
    /// path. The verdicts are decided at a policy's first count
    /// or listing and shared by its clones, so a cloud's container views
    /// decide them once.
    pub fn count(&self, k: &Kernel, view: &View) -> usize {
        enumerate(k, view, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{MaskPolicy, MaskRule};
    use proptest::prelude::*;
    use simkernel::kernel::ProcessSpec;
    use simkernel::MachineConfig;
    use std::fmt::Write as _;
    use workloads::models;

    fn kernel() -> Kernel {
        let mut k = Kernel::new(MachineConfig::small_server(), 9);
        let env = k.create_container_env("c1").unwrap();
        k.spawn(ProcessSpec::new("app", models::prime()).in_container(&env))
            .unwrap();
        k.advance_secs(2);
        k
    }

    /// The enumerator before route templates, kept as the oracle the
    /// differential tests hold `list` and `count` to: it formats every
    /// candidate path and applies the mask to each, in generation order.
    fn enumerate_reference(k: &Kernel, view: &View, mut visit: impl FnMut(&str)) {
        let mut buf = String::with_capacity(96);
        let mut emit = |path: std::fmt::Arguments| {
            buf.clear();
            let _ = buf.write_fmt(path);
            if view.mask_action(&buf) != Some(MaskAction::Deny) {
                visit(&buf);
            }
        };

        for r in registry::ROUTES
            .iter()
            .filter(|r| !r.template.contains('{'))
        {
            emit(format_args!("{}", r.template));
        }
        let ncpus = k.config().cpus as usize;
        for c in 0..ncpus {
            emit(format_args!(
                "/proc/sys/kernel/sched_domain/cpu{c}/domain0/max_newidle_lb_cost"
            ));
            for s in 0..simkernel::hw::IDLE_STATE_NAMES.len() {
                for f in ["name", "usage", "time"] {
                    emit(format_args!(
                        "/sys/devices/system/cpu/cpu{c}/cpuidle/state{s}/{f}"
                    ));
                }
            }
            for f in ["scaling_cur_freq", "cpuinfo_max_freq"] {
                emit(format_args!("/sys/devices/system/cpu/cpu{c}/cpufreq/{f}"));
            }
        }

        for (disk, _) in &k.config().disks {
            emit(format_args!("/sys/block/{disk}/stat"));
        }
        if k.hw().has_coretemp() {
            emit(format_args!("/sys/class/thermal/thermal_zone0/temp"));
        }

        for (part, _) in k.fs().ext4_partitions() {
            emit(format_args!("/proc/fs/ext4/{part}/mb_groups"));
        }

        let pid_ns = proc_pid::viewer_ns(k, view).pid;
        for (_, ns_pid) in k.namespaces().pids_visible_from(pid_ns) {
            for f in ["status", "stat", "cmdline", "io", "sched"] {
                emit(format_args!("/proc/{ns_pid}/{f}"));
            }
        }

        if k.rapl().is_present() {
            for p in 0..k.rapl().package_count() {
                for f in ["name", "energy_uj", "max_energy_range_uj"] {
                    emit(format_args!("/sys/class/powercap/intel-rapl:{p}/{f}"));
                }
                for d in 0..2 {
                    for f in ["name", "energy_uj"] {
                        emit(format_args!(
                            "/sys/class/powercap/intel-rapl:{p}/intel-rapl:{p}:{d}/{f}"
                        ));
                    }
                }
            }
        }

        if k.hw().has_coretemp() {
            let per_pkg = k.config().cpus_per_package() as usize;
            for pkg in 0..k.rapl().package_count().max(1) {
                for t in 1..=(per_pkg + 1) {
                    emit(format_args!(
                        "/sys/devices/platform/coretemp.{pkg}/hwmon/hwmon{pkg}/temp{t}_input"
                    ));
                }
            }
        }

        for n in 0..k.mem().numa_nodes() as usize {
            for f in ["numastat", "vmstat", "meminfo"] {
                emit(format_args!("/sys/devices/system/node/node{n}/{f}"));
            }
        }
    }

    /// The reference listing: every path [`enumerate_reference`] visits,
    /// sorted.
    fn list_reference(k: &Kernel, view: &View) -> Vec<String> {
        let mut paths = Vec::new();
        enumerate_reference(k, view, |p| paths.push(p.to_string()));
        paths.sort();
        paths
    }

    /// A mask pattern drawn from a sample path: `kind` picks the shape
    /// and `at` where in the path it applies.
    fn mask_pattern(path: &str, kind: usize, at: usize) -> String {
        let segs: Vec<&str> = path.trim_start_matches('/').split('/').collect();
        let seg = at % segs.len();
        let with_seg = |s: &str| {
            let mut v = segs.clone();
            v[seg] = s;
            format!("/{}", v.join("/"))
        };
        let head = &segs[seg][..segs[seg].len() / 2];
        let tail = &segs[seg][segs[seg].len() / 2..];
        match kind {
            // The path itself.
            0 => path.to_string(),
            // Any literal prefix and `**`, stopping mid-segment or not.
            1 => format!("{}**", &path[..1 + at % path.len()]),
            // A literal prefix of whole segments and a final `/**`.
            2 => format!("/{}/**", segs[..seg].join("/")),
            // A segment's digits (or the whole segment) as one `*`.
            3 => {
                let star = match segs[seg].find(|c: char| c.is_ascii_digit()) {
                    Some(i) => {
                        let digits = segs[seg][i..]
                            .find(|c: char| !c.is_ascii_digit())
                            .map_or(segs[seg].len(), |j| i + j);
                        format!("{}*{}", &segs[seg][..i], &segs[seg][digits..])
                    }
                    None => "*".to_string(),
                };
                with_seg(&star)
            }
            // In-segment globs on either side.
            4 => with_seg(&format!("{head}*")),
            5 => with_seg(&format!("*{tail}")),
            // A `**` that is not the final segment matches nothing.
            6 if seg + 1 < segs.len() => with_seg("**"),
            // Extra slashes: leading, trailing, or an empty segment.
            6 => format!("/{path}"),
            7 => format!("{path}/"),
            // A glob after a whole segment: `cpu1*` takes in `cpu12`.
            8 => with_seg(&format!("{}*", segs[seg])),
            _ => with_seg(""),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(if cfg!(debug_assertions) { 12 } else { 256 }))]
        #[test]
        fn family_count_and_list_equal_the_per_path_reference(
            pids in 0usize..4,
            rules in proptest::collection::vec((0usize..1 << 20, 0usize..10, 0usize..64, 0usize..3), 0..7),
        ) {
            let kernels: Vec<(Kernel, View)> = [
                MachineConfig::small_server(),
                MachineConfig::testbed_i7_6700(),
                MachineConfig::cloud_server(),
                MachineConfig::legacy_server_no_rapl(),
            ]
            .into_iter()
            .map(|machine| {
                let mut k = Kernel::new(machine, 9);
                k.spawn_host_process("hostproc", models::web_service(0.1))
                    .unwrap();
                let env = k.create_container_env("c1").unwrap();
                for i in 0..pids {
                    k.spawn(ProcessSpec::new(format!("app{i}"), models::prime()).in_container(&env))
                        .unwrap();
                }
                (k, View::container(env.ns, env.cgroups))
            })
            .collect();
            // Rules are drawn near real paths: every visible path of
            // every machine, in either view.
            let mut samples: Vec<String> = kernels
                .iter()
                .flat_map(|(k, cont)| [list_reference(k, &View::host()), list_reference(k, cont)])
                .flatten()
                .collect();
            samples.sort();
            samples.dedup();
            let policy = MaskPolicy::from_rules(
                rules
                    .iter()
                    .map(|&(path, kind, at, action)| MaskRule {
                        pattern: mask_pattern(&samples[path % samples.len()], kind, at),
                        action: if action == 0 { MaskAction::Partial } else { MaskAction::Deny },
                    })
                    .collect(),
            );
            let fs = PseudoFs::new();
            for (k, cont) in &kernels {
                for view in [View::host(), cont.clone()] {
                    let view = view.with_policy(policy.clone());
                    let reference = list_reference(k, &view);
                    let listed = fs.list(k, &view);
                    prop_assert_eq!(&listed, &reference, "{:?} on a {}-cpu host", policy.rules(), k.config().cpus);
                    prop_assert_eq!(fs.count(k, &view), reference.len(), "{:?}", policy.rules());
                }
            }
        }
    }

    #[test]
    fn list_and_count_equal_the_reference_under_every_policy() {
        // cloudsim and detector build against their own copy of this
        // crate, so their policies are carried over rule by rule.
        macro_rules! carried {
            ($policy:expr) => {
                $policy.rules().iter().fold(MaskPolicy::none(), |p, r| {
                    match format!("{:?}", r.action).as_str() {
                        "Deny" => p.deny(r.pattern.clone()),
                        _ => p.partial(r.pattern.clone()),
                    }
                })
            };
        }
        let mut policies = Vec::new();
        for profile in
            std::iter::once(cloudsim::CloudProfile::Local).chain(cloudsim::CloudProfile::COMMERCIAL)
        {
            policies.push((format!("{profile:?}"), carried!(profile.mask_policy())));
        }
        // What the online detector installs on a flagged tenant: every
        // watched family denied ahead of the provider's own rules.
        let watched: Vec<String> = detector::WATCHED.iter().map(|p| p.to_string()).collect();
        for profile in [cloudsim::CloudProfile::CC1, cloudsim::CloudProfile::CC5] {
            let composed = detector::composed_policy(&profile.mask_policy(), &watched);
            policies.push((format!("{profile:?} detector-composed"), carried!(composed)));
        }
        let fs = PseudoFs::new();
        for machine in [
            MachineConfig::small_server(),
            MachineConfig::cloud_server(),
            MachineConfig::testbed_i7_6700(),
            MachineConfig::legacy_server_no_rapl(),
        ] {
            let mut k = Kernel::new(machine, 9);
            k.spawn_host_process("hostproc", models::web_service(0.1))
                .unwrap();
            let env = k.create_container_env("c1").unwrap();
            for name in ["app", "sidecar"] {
                k.spawn(ProcessSpec::new(name, models::prime()).in_container(&env))
                    .unwrap();
            }
            k.advance_secs(1);
            let mut views = vec![("host".to_string(), View::host())];
            for (name, policy) in &policies {
                let view = View::container(env.ns, env.cgroups).with_policy(policy.clone());
                views.push((name.clone(), view));
            }
            for (name, view) in &views {
                let listed = fs.list(&k, view);
                assert_eq!(listed, list_reference(&k, view), "{name} view");
                assert_eq!(fs.count(&k, view), listed.len(), "{name} view");
            }
        }
    }

    #[test]
    fn every_listed_path_is_readable() {
        let k = kernel();
        let fs = PseudoFs::new();
        let view = View::host();
        let paths = fs.list(&k, &view);
        assert!(paths.len() > 100, "only {} paths", paths.len());
        for p in &paths {
            let content = fs
                .read(&k, &view, p)
                .unwrap_or_else(|e| panic!("listed path unreadable: {e}"));
            // /proc/locks is legitimately empty when nothing holds a lock.
            if p != "/proc/locks" {
                assert!(!content.is_empty(), "{p} rendered empty");
            }
        }
    }

    #[test]
    fn a_deny_applies_to_its_view_only_and_to_every_spelling() {
        let mut k = Kernel::new(MachineConfig::small_server(), 9);
        let env = k.create_container_env("c1").unwrap();
        k.advance_secs(1);
        let fs = PseudoFs::new();
        let denied =
            View::container(env.ns, env.cgroups).with_policy(MaskPolicy::none().deny("/proc/stat"));
        let open = View::container(env.ns, env.cgroups);
        assert!(matches!(
            fs.read(&k, &denied, "/proc/stat"),
            Err(FsError::PermissionDenied(_))
        ));
        // Same namespaces, different policy: the open view still reads.
        assert!(fs.read(&k, &open, "/proc/stat").is_ok());
        assert!(fs.read(&k, &View::host(), "/proc/stat").is_ok());
        // The mask uses the same glob rule as the router, so every
        // spelling that reads `/proc/stat` is denied with it.
        for spelling in ["//proc/stat", "proc/stat"] {
            assert!(matches!(
                fs.read(&k, &denied, spelling),
                Err(FsError::PermissionDenied(_))
            ));
        }
    }

    #[test]
    fn listing_is_sorted_and_unique() {
        let k = kernel();
        let fs = PseudoFs::new();
        let paths = fs.list(&k, &View::host());
        let mut sorted = paths.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(paths, sorted);
    }

    #[test]
    fn unknown_paths_not_found() {
        let k = kernel();
        let fs = PseudoFs::new();
        let err = fs
            .read(&k, &View::host(), "/proc/does_not_exist")
            .unwrap_err();
        assert!(matches!(err, FsError::NotFound(_)));
        assert!(fs
            .read(
                &k,
                &View::host(),
                "/sys/class/powercap/intel-rapl:7/energy_uj"
            )
            .is_err());
        // A path reads iff it routes: the hwmon segment must match
        // `hwmon*`.
        let unrouted = "/sys/devices/platform/coretemp.0/hwmon/foo/temp1_input";
        assert!(matches!(
            fs.read(&k, &View::host(), unrouted),
            Err(FsError::NotFound(_))
        ));
        // Leading slashes are ignored, as the route globs ignore them.
        let stat = fs.read(&k, &View::host(), "/proc/stat").unwrap();
        for spelling in ["//proc/stat", "proc/stat"] {
            assert_eq!(fs.read(&k, &View::host(), spelling).unwrap(), stat);
        }
    }

    #[test]
    fn deny_policy_blocks_read_and_hides_from_listing() {
        let mut k = Kernel::new(MachineConfig::small_server(), 9);
        let env = k.create_container_env("c1").unwrap();
        k.advance_secs(1);
        let fs = PseudoFs::new();
        let view = View::container(env.ns, env.cgroups)
            .with_policy(MaskPolicy::none().deny("/sys/class/powercap/**"));
        let err = fs
            .read(&k, &view, "/sys/class/powercap/intel-rapl:0/energy_uj")
            .unwrap_err();
        assert!(matches!(err, FsError::PermissionDenied(_)));
        assert!(!fs
            .list(&k, &view)
            .iter()
            .any(|p| p.starts_with("/sys/class/powercap")));
        // Host unaffected.
        assert!(fs
            .read(
                &k,
                &View::host(),
                "/sys/class/powercap/intel-rapl:0/energy_uj"
            )
            .is_ok());
    }

    #[test]
    fn rapl_paths_absent_without_hardware() {
        let mut k = Kernel::new(MachineConfig::legacy_server_no_rapl(), 9);
        k.advance_secs(1);
        let fs = PseudoFs::new();
        let paths = fs.list(&k, &View::host());
        assert!(!paths.iter().any(|p| p.contains("powercap")));
        assert!(!paths.iter().any(|p| p.contains("coretemp")));
    }

    #[test]
    fn container_listing_shows_only_its_pids() {
        let mut k = Kernel::new(MachineConfig::small_server(), 9);
        k.spawn_host_process("hostproc", models::web_service(0.1))
            .unwrap();
        let env = k.create_container_env("c1").unwrap();
        k.spawn(ProcessSpec::new("app", models::prime()).in_container(&env))
            .unwrap();
        k.advance_secs(1);
        let fs = PseudoFs::new();
        let cont = View::container(env.ns, env.cgroups);
        let cont_paths = fs.list(&k, &cont);
        assert!(cont_paths.contains(&"/proc/1/status".to_string()));
        let host_paths = fs.list(&k, &View::host());
        let host_pid_dirs = host_paths
            .iter()
            .filter(|p| p.ends_with("/cmdline"))
            .count();
        assert_eq!(host_pid_dirs, 2, "host sees both processes");
        let cont_pid_dirs = cont_paths
            .iter()
            .filter(|p| p.ends_with("/cmdline"))
            .count();
        assert_eq!(cont_pid_dirs, 1, "container sees only its own");
    }

    #[test]
    fn dynamic_paths_parse_correctly() {
        let k = kernel();
        let fs = PseudoFs::new();
        let v = View::host();
        assert!(fs
            .read(
                &k,
                &v,
                "/proc/sys/kernel/sched_domain/cpu2/domain0/max_newidle_lb_cost"
            )
            .is_ok());
        assert!(fs.read(&k, &v, "/proc/fs/ext4/sda1/mb_groups").is_ok());
        assert!(fs
            .read(
                &k,
                &v,
                "/sys/class/powercap/intel-rapl:0/intel-rapl:0:1/name"
            )
            .unwrap()
            .contains("dram"));
        assert!(fs
            .read(&k, &v, "/sys/devices/system/cpu/cpu1/cpuidle/state4/name")
            .unwrap()
            .contains("C6"));
        assert!(fs
            .read(&k, &v, "/sys/devices/system/node/node0/numastat")
            .is_ok());
        // Mismatched subdomain package id is rejected.
        assert!(fs
            .read(
                &k,
                &v,
                "/sys/class/powercap/intel-rapl:0/intel-rapl:1:0/name"
            )
            .is_err());
    }
}
