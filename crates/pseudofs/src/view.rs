//! Read contexts and masking policies.

use std::hash::Hasher;

use serde::{Deserialize, Serialize};
use simkernel::epoch::FnvHasher;
use simkernel::process::CgroupMembership;
use simkernel::NamespaceSet;

/// Who is performing the read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Context {
    /// A process in the initial namespaces (the host).
    Host,
    /// A containerized process.
    Container {
        /// The container's namespace set.
        ns: NamespaceSet,
        /// The container's cgroup membership.
        cgroups: CgroupMembership,
    },
}

/// What a matching mask rule does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MaskAction {
    /// Read fails with permission denied; the path also disappears from
    /// directory listings (bind-mounted unreadable / AppArmor denial).
    Deny,
    /// The handler restricts output to the container's allotment
    /// (the `◐` cells of Table I: CC5 shows only the tenant's cores and
    /// memory). Which fields are restricted is handler-specific.
    Partial,
}

/// One masking rule: a glob pattern over absolute paths plus an action.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaskRule {
    /// Glob pattern (`*` matches within a segment, `**` as the final
    /// segment matches any suffix).
    pub pattern: String,
    /// What to do on match.
    pub action: MaskAction,
}

/// A cloud provider's channel-masking policy.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaskPolicy {
    rules: Vec<MaskRule>,
}

impl MaskPolicy {
    /// The empty policy (local Docker/LXC default: nothing masked).
    pub fn none() -> Self {
        MaskPolicy::default()
    }

    /// Builds a policy from rules.
    pub fn from_rules(rules: Vec<MaskRule>) -> Self {
        MaskPolicy { rules }
    }

    /// Adds a deny rule.
    pub fn deny(mut self, pattern: impl Into<String>) -> Self {
        self.rules.push(MaskRule {
            pattern: pattern.into(),
            action: MaskAction::Deny,
        });
        self
    }

    /// Adds a partial-filter rule.
    pub fn partial(mut self, pattern: impl Into<String>) -> Self {
        self.rules.push(MaskRule {
            pattern: pattern.into(),
            action: MaskAction::Partial,
        });
        self
    }

    /// The rules.
    pub fn rules(&self) -> &[MaskRule] {
        &self.rules
    }

    /// The action applying to `path`, if any rule matches (first match
    /// wins).
    pub fn action_for(&self, path: &str) -> Option<MaskAction> {
        self.rules
            .iter()
            .find(|r| glob_match(&r.pattern, path))
            .map(|r| r.action)
    }
}

/// Matches a glob `pattern` against an absolute `path`.
///
/// Semantics: both are split on `/` (leading slashes ignored); a `**`
/// segment matches any remaining suffix including none, but only as the
/// final segment (anywhere else it matches nothing); a `*` within a
/// segment matches any run of characters in that segment. The two
/// segment iterators are walked in step, so a match allocates nothing.
pub fn glob_match(pattern: &str, path: &str) -> bool {
    let mut pat = pattern.trim_start_matches('/').split('/');
    let mut segs = path.trim_start_matches('/').split('/');
    while let Some(p) = pat.next() {
        if p == "**" {
            return pat.next().is_none();
        }
        match segs.next() {
            Some(s) if segment_match(p, s) => {}
            _ => return false,
        }
    }
    segs.next().is_none()
}

/// The matcher [`glob_match`] replaced, kept as the oracle the
/// differential tests hold it to: it collects both sides into vectors
/// before walking them.
#[cfg(test)]
pub(crate) fn glob_match_reference(pattern: &str, path: &str) -> bool {
    let pat: Vec<&str> = pattern.trim_start_matches('/').split('/').collect();
    let segs: Vec<&str> = path.trim_start_matches('/').split('/').collect();
    let mut i = 0;
    for (pi, p) in pat.iter().enumerate() {
        if *p == "**" {
            // `**` must be last; matches everything remaining.
            return pi == pat.len() - 1;
        }
        match segs.get(i) {
            Some(s) if segment_match(p, s) => i += 1,
            _ => return false,
        }
    }
    i == segs.len()
}

fn segment_match(pat: &str, seg: &str) -> bool {
    // Simple star matcher within one segment.
    let mut parts = pat.split('*').peekable();
    let mut rest = seg;
    let mut first = true;
    let ends_with_star = pat.ends_with('*');
    while let Some(part) = parts.next() {
        if part.is_empty() {
            first = false;
            continue;
        }
        match rest.find(part) {
            Some(idx) => {
                if first && idx != 0 {
                    return false;
                }
                rest = &rest[idx + part.len()..];
            }
            None => return false,
        }
        if parts.peek().is_none() && !ends_with_star && !rest.is_empty() {
            return false;
        }
        first = false;
    }
    true
}

/// A complete read context: who reads, under what policy, with what
/// resource allotment (used by `Partial` filters).
#[derive(Debug, Clone)]
pub struct View {
    /// The reading context.
    pub context: Context,
    /// The masking policy in force (empty for local testbeds).
    pub policy: MaskPolicy,
    /// CPUs allotted to the container (Partial `cpuinfo` shows only these).
    pub allotted_cpus: Option<Vec<u16>>,
    /// Memory limit of the container (Partial `meminfo` reports this).
    pub mem_limit_bytes: Option<u64>,
}

impl View {
    /// The host view: no masking, full visibility.
    pub fn host() -> Self {
        View {
            context: Context::Host,
            policy: MaskPolicy::none(),
            allotted_cpus: None,
            mem_limit_bytes: None,
        }
    }

    /// A container view with no cloud masking (local Docker default).
    pub fn container(ns: NamespaceSet, cgroups: CgroupMembership) -> Self {
        View {
            context: Context::Container { ns, cgroups },
            policy: MaskPolicy::none(),
            allotted_cpus: None,
            mem_limit_bytes: None,
        }
    }

    /// Applies a masking policy.
    #[must_use]
    pub fn with_policy(mut self, policy: MaskPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the CPU allotment consulted by Partial filters.
    #[must_use]
    pub fn with_allotted_cpus(mut self, cpus: Vec<u16>) -> Self {
        self.allotted_cpus = Some(cpus);
        self
    }

    /// Sets the memory limit consulted by Partial filters.
    #[must_use]
    pub fn with_mem_limit(mut self, bytes: u64) -> Self {
        self.mem_limit_bytes = Some(bytes);
        self
    }

    /// Whether this is the host context.
    pub fn is_host(&self) -> bool {
        matches!(self.context, Context::Host)
    }

    /// The action the policy prescribes for `path` (host views are never
    /// masked).
    pub fn mask_action(&self, path: &str) -> Option<MaskAction> {
        if self.is_host() {
            None
        } else {
            self.policy.action_for(path)
        }
    }

    /// A fingerprint over everything that can change what this view
    /// reads: context (with the full namespace and cgroup identity),
    /// policy rules, and resource allotments. The render cache keys
    /// entries on this, so two views alias only when every read through
    /// them is guaranteed byte-identical. Computed per call — the fields
    /// are public and mutable, so memoizing would be unsound.
    ///
    /// This runs on every cached read, so it folds a whole word per
    /// multiply: integer fields are one round each, and each rule pattern
    /// is length-prefixed, then folded eight bytes per round by
    /// [`FnvHasher::write`]. The length prefix keeps rule lists whose
    /// concatenated bytes coincide apart, and the xor-then-odd-multiply
    /// round is bijective on u64, so views differing in any single field
    /// can never collide.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FnvHasher::default();
        match &self.context {
            Context::Host => h.write_u64(0),
            Context::Container { ns, cgroups } => {
                h.write_u64(1);
                for id in [ns.mnt, ns.uts, ns.pid, ns.net, ns.ipc, ns.user, ns.cgroup] {
                    h.write_u64(u64::from(id.0));
                }
                for id in [
                    cgroups.cpuacct,
                    cgroups.perf_event,
                    cgroups.net_prio,
                    cgroups.memory,
                ] {
                    h.write_u64(u64::from(id.0));
                }
            }
        }
        match &self.allotted_cpus {
            None => h.write_u64(u64::MAX),
            Some(cpus) => {
                h.write_u64(cpus.len() as u64);
                for c in cpus {
                    h.write_u64(u64::from(*c));
                }
            }
        }
        h.write_u64(self.mem_limit_bytes.map_or(u64::MAX, |b| b ^ 1));
        h.write_u64(self.policy.rules.len() as u64);
        for rule in &self.policy.rules {
            h.write_u64(rule.pattern.len() as u64);
            h.write(rule.pattern.as_bytes());
            h.write_u64(match rule.action {
                MaskAction::Deny => 2,
                MaskAction::Partial => 3,
            });
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glob_exact_and_star() {
        assert!(glob_match("/proc/stat", "/proc/stat"));
        assert!(!glob_match("/proc/stat", "/proc/statm"));
        assert!(glob_match("/proc/*", "/proc/stat"));
        assert!(!glob_match("/proc/*", "/proc/sys/kernel"));
        assert!(glob_match(
            "/proc/sys/**",
            "/proc/sys/kernel/random/boot_id"
        ));
        assert!(glob_match(
            "/sys/class/powercap/**",
            "/sys/class/powercap/intel-rapl:0/energy_uj"
        ));
        assert!(!glob_match("/sys/class/powercap/**", "/sys/class/net/eth0"));
    }

    #[test]
    fn glob_within_segment() {
        assert!(glob_match("/proc/timer*", "/proc/timer_list"));
        assert!(glob_match(
            "/sys/devices/system/cpu/cpu*/cpuidle/state*/usage",
            "/sys/devices/system/cpu/cpu3/cpuidle/state2/usage"
        ));
        assert!(!glob_match("/proc/timer*", "/proc/uptime"));
        assert!(glob_match("veth*", "veth1a2b3c"));
        assert!(!glob_match("veth*x", "veth1a2b3c"));
        assert!(glob_match("*rapl*", "intel-rapl:0"));
    }

    #[test]
    fn policy_first_match_wins() {
        let p = MaskPolicy::none().partial("/proc/cpuinfo").deny("/proc/*");
        assert_eq!(p.action_for("/proc/cpuinfo"), Some(MaskAction::Partial));
        assert_eq!(p.action_for("/proc/stat"), Some(MaskAction::Deny));
        assert_eq!(p.action_for("/sys/foo"), None);
    }

    #[test]
    fn host_views_bypass_masking() {
        let mut v = View::host();
        v.policy = MaskPolicy::none().deny("/proc/**");
        assert_eq!(v.mask_action("/proc/stat"), None);
    }

    #[test]
    fn fingerprint_distinguishes_policy_and_allotment() {
        let a = View::host();
        assert_eq!(a.fingerprint(), View::host().fingerprint());
        let b = View::host().with_policy(MaskPolicy::none().deny("/proc/**"));
        assert_ne!(a.fingerprint(), b.fingerprint());
        let c = View::host().with_mem_limit(1 << 30);
        assert_ne!(a.fingerprint(), c.fingerprint());
        let d = View::host().with_allotted_cpus(vec![0, 1]);
        assert_ne!(a.fingerprint(), d.fingerprint());

        let fp = |p: MaskPolicy| View::host().with_policy(p).fingerprint();
        // Same concatenated bytes, split differently across rules.
        assert_ne!(
            fp(MaskPolicy::none().deny("/a").deny("/bc")),
            fp(MaskPolicy::none().deny("/ab").deny("/c"))
        );
        // Same pattern, different action.
        assert_ne!(
            fp(MaskPolicy::none().deny("/proc/stat")),
            fp(MaskPolicy::none().partial("/proc/stat"))
        );
        // Patterns around the 8-byte fold boundary differing only in
        // their last byte.
        for pattern in ["/proc/a", "/proc/ab", "/proc/abc"] {
            let mut other = pattern.to_string();
            other.pop();
            other.push('z');
            assert_eq!(pattern.len(), other.len());
            assert_ne!(
                fp(MaskPolicy::none().deny(pattern)),
                fp(MaskPolicy::none().deny(other)),
                "{pattern}"
            );
        }
    }

    #[test]
    fn builders_compose() {
        let v = View::host()
            .with_allotted_cpus(vec![0, 1])
            .with_mem_limit(1 << 30);
        assert_eq!(v.allotted_cpus.as_deref(), Some(&[0u16, 1][..]));
        assert_eq!(v.mem_limit_bytes, Some(1 << 30));
    }
}
