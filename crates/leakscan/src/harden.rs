//! First-stage defense (§V-A): generate a masking policy from scan
//! results.
//!
//! The paper's quick fix is for administrators to "explicitly deny the
//! read access to the channels within the container, e.g., through
//! security policies in AppArmor or mounting the pseudo file
//! 'unreadable'". This module automates it: run the cross-validation
//! detector, collapse the leaking paths into policy rules (deny by
//! default, tenant-scoped `Partial` for the files legitimate applications
//! commonly read, like `cpuinfo`/`meminfo`), and verify by re-scanning
//! under the generated policy.
//!
//! The module also quantifies the paper's caveat that masking "may add
//! restrictions for the functionality of containerized applications": the
//! report lists which commonly-used files the policy broke.

use pseudofs::{MaskAction, MaskPolicy, MaskRule, View};
use serde::{Deserialize, Serialize};
use simkernel::Kernel;

use crate::crossval::{ChannelClass, CrossValidator};

/// Files that common containerized applications legitimately read; the
/// generator filters these (`◐`) instead of denying them outright.
pub const APP_FRIENDLY: &[&str] = &["/proc/cpuinfo", "/proc/meminfo"];

/// Prefixes collapsed into one deny rule each (matching how real policies
/// mask whole subtrees rather than enumerating files).
const SUBTREE_RULES: &[(&str, &str)] = &[
    ("/sys/class/powercap/", "/sys/class/powercap/**"),
    ("/sys/class/thermal/", "/sys/class/thermal/**"),
    ("/sys/devices/platform/coretemp", "/sys/devices/platform/**"),
    ("/sys/devices/system/cpu/", "/sys/devices/system/cpu/**"),
    ("/sys/devices/system/node/", "/sys/devices/system/node/**"),
    ("/sys/fs/cgroup/net_prio/", "/sys/fs/cgroup/net_prio/**"),
    ("/sys/block/", "/sys/block/**"),
    (
        "/proc/sys/kernel/sched_domain/",
        "/proc/sys/kernel/sched_domain/**",
    ),
    ("/proc/sys/kernel/random/", "/proc/sys/kernel/random/**"),
    ("/proc/sys/fs/", "/proc/sys/fs/**"),
    ("/proc/fs/ext4/", "/proc/fs/ext4/**"),
];

/// The generated policy plus what it did.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HardeningReport {
    /// Deny rules emitted.
    pub denied: Vec<String>,
    /// Partial (tenant-scoped) rules emitted.
    pub partial: Vec<String>,
    /// Leaking channels before hardening.
    pub leaks_before: usize,
    /// Leaking channels after re-scanning under the policy.
    pub leaks_after: usize,
    /// App-friendly files that ended up denied (functionality cost).
    pub broken_app_files: Vec<String>,
}

/// The policy generator.
///
/// ```
/// use leakscan::{Hardener, Lab};
///
/// let lab = Lab::new(1, 7);
/// let host = lab.host(0);
/// let (policy, report) = Hardener::new().harden(&host.kernel, &host.container_view());
/// assert_eq!(report.leaks_after, 0);
/// assert!(!policy.rules().is_empty());
/// ```
#[derive(Debug, Default)]
pub struct Hardener {
    validator: CrossValidator,
}

impl Hardener {
    /// Creates a generator.
    pub fn new() -> Self {
        Hardener::default()
    }

    /// Generates a masking policy for the container behind `view` and
    /// verifies it by re-scanning. The returned policy denies every
    /// leaking channel except the app-friendly ones, which get `Partial`.
    pub fn harden(&self, kernel: &Kernel, view: &View) -> (MaskPolicy, HardeningReport) {
        // Both the generation scan and the verification rescan happen at
        // the same kernel instant, so the host side of the differential
        // walk is captured once and shared between them.
        let snap = self.validator.host_snapshot(kernel);
        let before = self.validator.scan_with(kernel, &snap, view);
        let leaking: Vec<&str> = before
            .iter()
            .filter(|f| f.class == ChannelClass::Leaking)
            .map(|f| f.path.as_str())
            .collect();

        let mut rules: Vec<MaskRule> = Vec::new();
        let mut denied: Vec<String> = Vec::new();
        let mut partial: Vec<String> = Vec::new();
        for path in &leaking {
            if APP_FRIENDLY.contains(path) {
                if !partial.contains(&path.to_string()) {
                    rules.push(MaskRule {
                        pattern: path.to_string(),
                        action: MaskAction::Partial,
                    });
                    partial.push(path.to_string());
                }
                continue;
            }
            let rule = SUBTREE_RULES
                .iter()
                .find(|(prefix, _)| path.starts_with(prefix))
                .map(|(_, rule)| rule.to_string())
                .unwrap_or_else(|| path.to_string());
            if !denied.contains(&rule) {
                rules.push(MaskRule {
                    pattern: rule.clone(),
                    action: MaskAction::Deny,
                });
                denied.push(rule);
            }
        }
        let policy = MaskPolicy::from_rules(rules);

        // Verification pass: same container, hardened view.
        simtrace::counters::add("leakscan.harden_rescans", 1);
        let hardened_view = view.clone().with_policy(policy.clone());
        let after = self.validator.scan_with(kernel, &snap, &hardened_view);
        let leaks_after = after
            .iter()
            .filter(|f| f.class == ChannelClass::Leaking)
            .count();
        let broken_app_files = APP_FRIENDLY
            .iter()
            .filter(|p| {
                after
                    .iter()
                    .any(|f| &f.path == *p && f.class == ChannelClass::Masked)
            })
            .map(|p| p.to_string())
            .collect();

        (
            policy,
            HardeningReport {
                denied,
                partial,
                leaks_before: leaking.len(),
                leaks_after,
                broken_app_files,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::Lab;

    #[test]
    fn generated_policy_eliminates_all_leaks() {
        let lab = Lab::new(1, 5_150);
        let h = lab.host(0);
        let view = h.container_view();
        let (_policy, report) = Hardener::new().harden(&h.kernel, &view);
        assert!(report.leaks_before >= 21, "found {}", report.leaks_before);
        assert_eq!(report.leaks_after, 0, "{report:#?}");
        assert!(report.broken_app_files.is_empty(), "{report:#?}");
        assert_eq!(report.partial, vec!["/proc/cpuinfo", "/proc/meminfo"]);
    }

    #[test]
    fn policy_is_compact_through_subtree_collapsing() {
        let lab = Lab::new(1, 5_151);
        let h = lab.host(0);
        let (policy, report) = Hardener::new().harden(&h.kernel, &h.container_view());
        // Far fewer rules than leaking files.
        assert!(
            policy.rules().len() < report.leaks_before / 2,
            "{} rules for {} leaks",
            policy.rules().len(),
            report.leaks_before
        );
        assert!(report.denied.iter().any(|r| r == "/sys/class/powercap/**"));
    }

    #[test]
    fn hardened_container_keeps_namespaced_files() {
        let lab = Lab::new(1, 5_152);
        let h = lab.host(0);
        let (policy, _) = Hardener::new().harden(&h.kernel, &h.container_view());
        let view = h.container_view().with_policy(policy);
        let fs = pseudofs::PseudoFs::new();
        for path in [
            "/proc/sys/kernel/hostname",
            "/proc/net/dev",
            "/proc/self/status",
            "/proc/mounts",
            "/sys/fs/cgroup/cpuacct/cpuacct.usage",
        ] {
            assert!(fs.read(&h.kernel, &view, path).is_ok(), "{path} broken");
        }
        // And the partial files still answer, tenant-scoped.
        assert!(fs.read(&h.kernel, &view, "/proc/cpuinfo").is_ok());
    }

    #[test]
    fn hardening_defeats_the_coresidence_channels() {
        let lab = Lab::new(1, 5_153);
        let h = lab.host(0);
        let (policy, _) = Hardener::new().harden(&h.kernel, &h.container_view());
        let view = h.container_view().with_policy(policy);
        let fs = pseudofs::PseudoFs::new();
        for path in [
            "/proc/sys/kernel/random/boot_id",
            "/proc/timer_list",
            "/proc/uptime",
            "/sys/class/powercap/intel-rapl:0/energy_uj",
        ] {
            assert!(
                fs.read(&h.kernel, &view, path).is_err(),
                "{path} still open"
            );
        }
    }
}
