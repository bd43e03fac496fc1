//! The cross-validation tool (Fig. 1, left side).
//!
//! Recursively explores every pseudo file in two execution contexts on the
//! same kernel — one inside an unprivileged container, one on the host —
//! aligns the two file sets by path, and performs pairwise differential
//! analysis on their contents *read at the same instant*:
//!
//! * identical contents → the handler reached the same global kernel data
//!   in both contexts: the file **leaks** host state (case ② in Fig. 1);
//! * different contents → the handler consulted the container's
//!   namespaces: the file is properly **namespaced** (case ①);
//! * unreadable/absent in the container → **masked** by the provider;
//! * readable but filtered relative to an unmasked container → the `◐`
//!   **partially masked** class.

use pseudofs::{MaskAction, PseudoFs, View};
use serde::{Deserialize, Serialize};
use simkernel::Kernel;

/// Differential classification of one pseudo file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChannelClass {
    /// Handler consults the reader's namespaces: container-private view.
    Namespaced,
    /// Handler returns global kernel data: leaks host state to containers.
    Leaking,
    /// Access-control masking hides the file from the container.
    Masked,
    /// Readable but filtered to the container's allotment (`◐`).
    PartiallyMasked,
}

/// One file's finding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileFinding {
    /// Absolute path.
    pub path: String,
    /// Differential classification.
    pub class: ChannelClass,
}

/// A capture of the host side of the differential walk: every listed
/// host path plus its rendered contents, stamped with the kernel's total
/// subsystem epoch. One snapshot serves any number of [`CrossValidator::scan_with`]
/// calls at the same instant (the hardener's generate-then-verify pair
/// reads every host file once instead of once per scan), and the epoch
/// stamp makes staleness checkable: if no subsystem epoch advanced, the
/// host contents provably did not change.
#[derive(Debug, Clone)]
pub struct HostSnapshot {
    /// `kernel.epochs().total()` at capture time.
    epoch_total: u64,
    /// Sorted host paths, as returned by `list`.
    paths: Vec<String>,
    /// Rendered host contents aligned with `paths`; `None` for per-pid
    /// paths (never content-compared) and for read errors.
    contents: Vec<Option<String>>,
}

impl HostSnapshot {
    /// Whether this snapshot still reflects `kernel`'s state: no
    /// subsystem epoch has advanced since capture.
    pub fn is_current(&self, kernel: &Kernel) -> bool {
        self.epoch_total == kernel.epochs().total()
    }
}

/// The cross-validation detector.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrossValidator {
    fs: PseudoFs,
}

impl CrossValidator {
    /// Creates the detector.
    pub fn new() -> Self {
        CrossValidator {
            fs: PseudoFs::new(),
        }
    }

    /// Captures the host side of the walk for reuse across scans taken
    /// at the same kernel instant.
    pub fn host_snapshot(&self, kernel: &Kernel) -> HostSnapshot {
        let host_view = View::host();
        let paths = self.fs.list(kernel, &host_view);
        let contents = paths
            .iter()
            .map(|path| {
                if is_pid_path(path) {
                    None
                } else {
                    self.fs.read(kernel, &host_view, path).ok()
                }
            })
            .collect();
        HostSnapshot {
            epoch_total: kernel.epochs().total(),
            paths,
            contents,
        }
    }

    /// Scans all pseudo files, classifying each. `container_view` is the
    /// container context to compare against the host context on `kernel`.
    pub fn scan(&self, kernel: &Kernel, container_view: &View) -> Vec<FileFinding> {
        let snap = self.host_snapshot(kernel);
        self.scan_with(kernel, &snap, container_view)
    }

    /// [`CrossValidator::scan`] against a pre-captured [`HostSnapshot`].
    /// The snapshot must have been taken at the current kernel instant
    /// (checked in debug builds via the epoch stamp).
    pub fn scan_with(
        &self,
        kernel: &Kernel,
        snap: &HostSnapshot,
        container_view: &View,
    ) -> Vec<FileFinding> {
        debug_assert!(
            snap.is_current(kernel),
            "host snapshot is stale (a subsystem epoch advanced since capture)"
        );
        let cont_paths = self.fs.list(kernel, container_view);
        let mut findings = Vec::with_capacity(snap.paths.len());
        let mut cont = String::new();
        for (path, host) in snap.paths.iter().zip(&snap.contents) {
            // Per-pid directories cannot be aligned across contexts (the
            // pid number spaces differ); they are namespaced by
            // construction of the PID namespace.
            if is_pid_path(path) {
                findings.push(FileFinding {
                    path: path.clone(),
                    class: ChannelClass::Namespaced,
                });
                continue;
            }
            let Some(host_buf) = host else {
                continue;
            };
            let class = match self.fs.read_into(kernel, container_view, path, &mut cont) {
                Err(_) => ChannelClass::Masked,
                Ok(()) => {
                    if cont == *host_buf {
                        ChannelClass::Leaking
                    } else if container_view.mask_action(path) == Some(MaskAction::Partial) {
                        ChannelClass::PartiallyMasked
                    } else {
                        ChannelClass::Namespaced
                    }
                }
            };
            findings.push(FileFinding {
                path: path.clone(),
                class,
            });
        }
        // Container-only paths (its own pid dirs): namespaced. `list`
        // returns sorted paths, so membership is a binary search.
        for path in cont_paths {
            if snap.paths.binary_search(&path).is_err() {
                findings.push(FileFinding {
                    path,
                    class: ChannelClass::Namespaced,
                });
            }
        }
        findings.sort_by(|a, b| a.path.cmp(&b.path));
        findings
    }

    /// Paths classified as leaking.
    pub fn leaking_paths(&self, kernel: &Kernel, container_view: &View) -> Vec<String> {
        self.scan(kernel, container_view)
            .into_iter()
            .filter(|f| f.class == ChannelClass::Leaking)
            .map(|f| f.path)
            .collect()
    }
}

pub(crate) fn is_pid_path(path: &str) -> bool {
    let mut segs = path.trim_start_matches('/').split('/');
    matches!(
        (segs.next(), segs.next()),
        (Some("proc"), Some(second)) if second.chars().all(|c| c.is_ascii_digit())
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::Lab;
    use pseudofs::MaskPolicy;

    fn classify(lab: &Lab, path: &str) -> Option<ChannelClass> {
        let h = lab.host(0);
        CrossValidator::new()
            .scan(&h.kernel, &h.container_view())
            .into_iter()
            .find(|f| f.path == path)
            .map(|f| f.class)
    }

    #[test]
    fn known_leaking_channels_are_flagged() {
        let lab = Lab::new(1, 21);
        for path in [
            "/proc/uptime",
            "/proc/stat",
            "/proc/meminfo",
            "/proc/interrupts",
            "/proc/softirqs",
            "/proc/sched_debug",
            "/proc/timer_list",
            "/proc/sys/kernel/random/boot_id",
            "/sys/fs/cgroup/net_prio/net_prio.ifpriomap",
            "/sys/class/powercap/intel-rapl:0/energy_uj",
            "/sys/devices/system/node/node0/numastat",
            "/proc/zoneinfo",
            "/proc/modules",
            "/proc/version",
            "/proc/loadavg",
            "/proc/cpuinfo",
        ] {
            assert_eq!(
                classify(&lab, path),
                Some(ChannelClass::Leaking),
                "{path} should leak"
            );
        }
    }

    #[test]
    fn namespaced_controls_are_not_flagged() {
        let lab = Lab::new(1, 22);
        for path in [
            "/proc/sys/kernel/hostname",
            "/proc/net/dev",
            "/proc/self/status",
            "/proc/self/cgroup",
            "/sys/fs/cgroup/cpuacct/cpuacct.usage",
            "/proc/sys/kernel/random/uuid",
        ] {
            assert_eq!(
                classify(&lab, path),
                Some(ChannelClass::Namespaced),
                "{path} should be namespaced"
            );
        }
    }

    #[test]
    fn all_table_one_probes_detected_as_leaking_on_local_testbed() {
        let lab = Lab::new(1, 23);
        let h = lab.host(0);
        let leaks = CrossValidator::new().leaking_paths(&h.kernel, &h.container_view());
        for ch in crate::channels::TABLE1_CHANNELS {
            assert!(
                leaks.contains(&ch.probe.to_string()),
                "Table I channel {} not detected",
                ch.probe
            );
        }
    }

    #[test]
    fn masking_reclassifies_channels() {
        let mut lab = Lab::new(1, 24);
        // Apply a CC5-ish policy to a fresh container.
        let policy = MaskPolicy::none()
            .deny("/proc/uptime")
            .partial("/proc/cpuinfo");
        let h = lab.host_mut(0);
        let id = h
            .runtime
            .create(
                &mut h.kernel,
                container_runtime::ContainerSpec::new("hardened")
                    .policy(policy)
                    .cpus(vec![0, 1]),
            )
            .unwrap();
        let view = h.runtime.container(id).unwrap().view();
        let findings = CrossValidator::new().scan(&h.kernel, view);
        let class = |p: &str| findings.iter().find(|f| f.path == p).map(|f| f.class);
        assert_eq!(class("/proc/uptime"), Some(ChannelClass::Masked));
        assert_eq!(class("/proc/cpuinfo"), Some(ChannelClass::PartiallyMasked));
        assert_eq!(class("/proc/stat"), Some(ChannelClass::Leaking));
    }

    #[test]
    fn pid_paths_are_namespaced_by_construction() {
        let lab = Lab::new(1, 25);
        let h = lab.host(0);
        let findings = CrossValidator::new().scan(&h.kernel, &h.container_view());
        for f in findings.iter().filter(|f| super::is_pid_path(&f.path)) {
            assert_eq!(f.class, ChannelClass::Namespaced, "{}", f.path);
        }
        // Both host-side and container-side pid dirs appear.
        assert!(findings.iter().any(|f| f.path == "/proc/1/status"));
    }

    #[test]
    fn scan_is_deterministic() {
        let lab = Lab::new(1, 26);
        let h = lab.host(0);
        let a = CrossValidator::new().scan(&h.kernel, &h.container_view());
        let b = CrossValidator::new().scan(&h.kernel, &h.container_view());
        assert_eq!(a, b);
    }
}
