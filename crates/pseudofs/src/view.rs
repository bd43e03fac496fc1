//! Read contexts and masking policies.

use std::fmt;
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};
use simkernel::process::CgroupMembership;
use simkernel::NamespaceSet;

use crate::registry::{lead_trail, ROUTES};

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
///
/// The rules are shared: a clone (every container view of a cloud takes
/// one) bumps a count instead of copying the rules and their patterns.
/// So are the policy's verdicts on the routes, decided at its first
/// listing, count or swap; the empty policy, which masks nothing, keeps
/// none and allocates nothing. Two policies are equal, and print alike,
/// when their rules are.
#[derive(Clone, Default)]
pub struct MaskPolicy {
    rules: Arc<[MaskRule]>,
    verdicts: Option<Arc<OnceLock<Verdicts>>>,
}

/// A policy's verdict on each route, in [`ROUTES`] order.
type Verdicts = [Reach; ROUTES.len()];

/// The verdicts of a policy without rules, and of every host view.
static UNMASKED: Verdicts = [Reach::No; ROUTES.len()];

impl PartialEq for MaskPolicy {
    fn eq(&self, other: &Self) -> bool {
        self.rules == other.rules
    }
}

impl Eq for MaskPolicy {}

impl fmt::Debug for MaskPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MaskPolicy")
            .field("rules", &self.rules)
            .finish()
    }
}

impl MaskPolicy {
    /// The empty policy (local Docker/LXC default: nothing masked).
    pub fn none() -> Self {
        MaskPolicy::default()
    }

    /// Builds a policy from rules.
    pub fn from_rules(rules: Vec<MaskRule>) -> Self {
        MaskPolicy {
            rules: rules.into(),
            verdicts: Some(Arc::default()),
        }
    }

    /// Adds a deny rule. Each added rule copies the rules before it, so
    /// a long policy is built from its rules with
    /// [`MaskPolicy::from_rules`].
    pub fn deny(self, pattern: impl Into<String>) -> Self {
        self.with_rule(pattern.into(), MaskAction::Deny)
    }

    /// Adds a partial-filter rule (copying the rules before it, as
    /// [`MaskPolicy::deny`] does).
    pub fn partial(self, pattern: impl Into<String>) -> Self {
        self.with_rule(pattern.into(), MaskAction::Partial)
    }

    fn with_rule(self, pattern: String, action: MaskAction) -> Self {
        let mut rules = self.rules.to_vec();
        rules.push(MaskRule { pattern, action });
        MaskPolicy::from_rules(rules)
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

    /// What the first rule that can match an instance of the route
    /// template `template` does to the route (see [`glob_reach`] for the
    /// template syntax). Rules that reach no instance are passed over,
    /// as [`MaskPolicy::action_for`] passes over rules that miss, so
    /// the verdict is sound: [`Reach::No`] means no rule matches any
    /// instance, and [`Reach::All`] means the rule matches every
    /// instance and no earlier rule matches any.
    pub(crate) fn reach(&self, template: &str) -> Reach {
        for r in self.rules.iter() {
            match glob_reach(&r.pattern, template) {
                Some(false) => {}
                Some(true) => return Reach::All(r.action),
                None => return Reach::Maybe,
            }
        }
        Reach::No
    }

    /// [`MaskPolicy::reach`] for each route's template, in [`ROUTES`]
    /// order: decided at the first call and kept for every later one
    /// and every clone. The empty policy shares one table of
    /// [`Reach::No`].
    pub(crate) fn route_reach(&self) -> &Verdicts {
        match &self.verdicts {
            Some(table) => {
                table.get_or_init(|| std::array::from_fn(|i| self.reach(ROUTES[i].template)))
            }
            None => &UNMASKED,
        }
    }
}

/// A mask policy's verdict on a whole route: what
/// [`MaskPolicy::action_for`] says for every one of its paths, when one
/// answer holds for all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reach {
    /// No rule matches any path of the route.
    No,
    /// One rule is the first match of every path of the route.
    All(MaskAction),
    /// The answer may differ from path to path: ask per path.
    Maybe,
}

/// What [`glob_match`] says of `pattern` for every path the route
/// template `template` stands for: `Some(verdict)` when it says the
/// same of all of them, `None` when it may differ. A template is a path whose
/// segments may hold `{…}` holes, each standing for any run of
/// characters without a `/`; a template without holes is one path.
///
/// The walk mirrors [`glob_match`]'s segment by segment: a `**` decides
/// there (the final one matches what remains, any other matches
/// nothing), a pattern or template left over misses, a segment no
/// instance matches decides a miss, and only a walk on which every
/// segment matches every instance decides a match. Before it, a byte
/// where the two literal prefixes differ decides a miss, as in
/// [`glob_match`]'s prefix compare.
pub(crate) fn glob_reach(pattern: &str, template: &str) -> Option<bool> {
    let pattern = trim_slashes(pattern);
    let template = trim_slashes(template);
    if !template.contains('{') {
        return Some(glob_match(pattern, template));
    }
    let (pb, tb) = (pattern.as_bytes(), template.as_bytes());
    for (i, (&c, &t)) in pb.iter().zip(tb).enumerate() {
        if c == b'*' || t == b'{' {
            break;
        }
        if c != t {
            return Some(false);
        }
        if c == b'/' && pb.get(i + 1) == Some(&b'/') {
            break;
        }
    }
    let mut pat = pattern.split('/');
    let mut segs = template.split('/');
    let mut all = true;
    while let Some(p) = pat.next() {
        if p == "**" {
            return if pat.next().is_none() {
                all.then_some(true)
            } else {
                Some(false)
            };
        }
        match segs.next().map(|t| segment_reach(p, t)) {
            None | Some(Some(false)) => return Some(false),
            Some(Some(true)) => {}
            Some(None) => all = false,
        }
    }
    if segs.next().is_some() {
        return Some(false);
    }
    all.then_some(true)
}

/// [`glob_reach`] for one pattern segment against one template segment.
/// Every instance of a segment with holes starts with its text before
/// the first hole and ends with its text after the last
/// ([`lead_trail`]), so a literal that breaks either misses every
/// instance. A `*` segment's text before its first `*` must begin the
/// instance: it misses every instance when it disagrees with the
/// template's leading text, and a single final `*` after text the
/// leading text begins with matches every instance. Anything else may
/// match some instances and not others.
fn segment_reach(p: &str, t: &str) -> Option<bool> {
    let Some((lead, trail)) = lead_trail(t) else {
        return Some(segment_match(p, t));
    };
    match p.split_once('*') {
        None if p.is_empty() => Some(true),
        None => {
            if p.starts_with(lead) && p.ends_with(trail) {
                None
            } else {
                Some(false)
            }
        }
        Some((head, rest)) => {
            if rest.is_empty() && lead.starts_with(head) {
                Some(true)
            } else if lead.starts_with(head) || head.starts_with(lead) {
                None
            } else {
                Some(false)
            }
        }
    }
}

/// Matches a glob `pattern` against an absolute `path`.
///
/// Semantics: both are split on `/` (leading slashes ignored); a `**`
/// segment matches any remaining suffix including none, but only as the
/// final segment (anywhere else it matches nothing); a `*` within a
/// segment matches any run of characters in that segment, and each
/// literal after a `*` binds to its first occurrence, as
/// `Segment::capture` in the router does (`a*b` does not match
/// `abab`); an empty pattern segment matches any one segment.
///
/// Before the segment walk, the path must start with the pattern's
/// literal prefix: the pattern up to its first `*` or empty segment
/// (`//`), and short of the `/` before a segment that begins with `*`,
/// since `**` also matches zero segments. Most mask rules and watched
/// families fail that compare, and an all-literal pattern or a literal
/// with a final `/**` is decided by it; only the rest walk segments.
/// The walk moves the two segment iterators in step, so a match
/// allocates nothing.
pub fn glob_match(pattern: &str, path: &str) -> bool {
    let pattern = trim_slashes(pattern);
    let path = trim_slashes(path);
    if let Some(verdict) = prefix_verdict(pattern.as_bytes(), path.as_bytes()) {
        return verdict;
    }
    let mut pat = pattern.split('/');
    let mut segs = path.split('/');
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

/// `s` without its leading slashes, trimmed bytewise.
fn trim_slashes(s: &str) -> &str {
    let n = s.bytes().take_while(|&b| b == b'/').count();
    &s[n..]
}

/// What the slash-trimmed `pattern`'s literal prefix alone decides for
/// `path` (see [`glob_match`] for where the prefix ends): `Some(false)`
/// when the path leaves the prefix; the whole answer when the pattern
/// is all literal or a literal and a final `/**`, since only a length
/// or separator check follows the prefix; `None` when the segment walk
/// must decide. The two are compared in step, so most rejects read a
/// byte or two.
fn prefix_verdict(pattern: &[u8], path: &[u8]) -> Option<bool> {
    for (i, &c) in pattern.iter().enumerate() {
        let next = pattern.get(i + 1);
        if c == b'/' && next == Some(&b'*') {
            // A literal and a final `**`: the literal itself or below it.
            return (&pattern[i..] == b"/**").then(|| path.get(i).is_none_or(|&b| b == b'/'));
        }
        if c == b'*' {
            return None;
        }
        if path.get(i) != Some(&c) {
            return Some(false);
        }
        if c == b'/' && next == Some(&b'/') {
            return None;
        }
    }
    // Without empty segments, which only a trailing `/` (or an empty
    // pattern) leaves here, a literal pattern matches itself alone.
    match pattern.last() {
        Some(&c) if c != b'/' => Some(path.len() == pattern.len()),
        _ => None,
    }
}

/// The matcher [`glob_match`] replaced, kept as the oracle the
/// differential tests hold it to: it collects both sides into vectors
/// before walking them, and runs the star matcher on every segment.
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
            Some(s) if star_match(p, s) => i += 1,
            _ => return false,
        }
    }
    i == segs.len()
}

fn segment_match(pat: &str, seg: &str) -> bool {
    // A segment without `*` is a literal; the empty one matches any
    // segment, as the star matcher has it.
    if !pat.contains('*') {
        return pat.is_empty() || pat == seg;
    }
    star_match(pat, seg)
}

/// Matches one pattern segment, `*` standing for any run of characters.
fn star_match(pat: &str, seg: &str) -> bool {
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

    /// The policy's verdicts on the routes, in this view (see
    /// [`MaskPolicy::route_reach`]). Host views are never masked.
    pub(crate) fn route_reach(&self) -> &Verdicts {
        if self.is_host() {
            &UNMASKED
        } else {
            self.policy.route_reach()
        }
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
    fn family_verdicts_follow_the_glob_rule() {
        const CPUFREQ: &str = "/sys/devices/system/cpu/cpu{0}/cpufreq/scaling_cur_freq";
        const RAPL: &str = "/sys/class/powercap/intel-rapl:{0}/name";
        const SUBDOMAIN: &str = "/sys/class/powercap/intel-rapl:{0}/intel-rapl:{0}:{1}/name";
        const PID: &str = "/proc/{0}/status";
        let cases: &[(&str, &str, Option<bool>)] = &[
            ("/sys/class/powercap/**", RAPL, Some(true)),
            // A prefix that stops mid-segment and `**` is one segment.
            ("/sys/class/power**", RAPL, Some(false)),
            ("/sys/class/powercap**", RAPL, Some(false)),
            ("/sys/class/powercap/intel-rapl:0**", RAPL, Some(false)),
            ("/sys/devices/system/cpu/cpu1/**", CPUFREQ, None),
            (
                "/sys/devices/system/cpu/cpu*/cpufreq/scaling_cur_freq",
                CPUFREQ,
                Some(true),
            ),
            (
                "/sys/devices/system/cpu/cpu*/cpufreq/*",
                CPUFREQ,
                Some(true),
            ),
            (
                "/sys/devices/system/cpu/cpu*/cpufreq/cpuinfo_max_freq",
                CPUFREQ,
                Some(false),
            ),
            // Too few segments, and too many.
            ("/sys/devices/system/cpu/cpu*", CPUFREQ, Some(false)),
            (
                "/sys/devices/system/cpu/cpu*/cpufreq/scaling_cur_freq/*",
                CPUFREQ,
                Some(false),
            ),
            ("/sys/devices/system/cpu/c*", CPUFREQ, Some(false)),
            ("/sys/devices/system/cpu/cpu1*", CPUFREQ, Some(false)),
            ("/sys/devices/system/cpu/*/cpufreq/**", CPUFREQ, Some(true)),
            (
                "/sys/class/powercap/intel-rapl:*/intel-rapl:*/name",
                SUBDOMAIN,
                Some(true),
            ),
            (
                "/sys/class/powercap/intel-rapl:0/intel-rapl:0:1/name",
                SUBDOMAIN,
                None,
            ),
            (
                "/sys/class/powercap/intel-rapl:0/intel-rapl:1:*/name",
                SUBDOMAIN,
                None,
            ),
            (
                "/sys/class/powercap/intel-rapl:*/dram:*/name",
                SUBDOMAIN,
                Some(false),
            ),
            ("/proc/*/status", PID, Some(true)),
            ("//proc/*/status", PID, Some(true)),
            ("proc/*/status", PID, Some(true)),
            ("/proc//status", PID, Some(true)),
            ("/proc/*/status/", PID, Some(false)),
            ("/proc/1/status", PID, None),
            ("/proc/1/stat", PID, Some(false)),
            ("/proc/*1/status", PID, None),
            ("/proc/stat", PID, Some(false)),
            // A `**` that is not the final segment matches nothing.
            ("/proc/**/status", PID, Some(false)),
            ("/**", PID, Some(true)),
            ("/**/**", PID, Some(false)),
            ("", PID, Some(false)),
            // A template without holes is one path.
            ("/proc/*", "/proc/stat", Some(true)),
            ("/proc/*", "/proc/sys/fs/file-nr", Some(false)),
        ];
        for &(pattern, template, want) in cases {
            assert_eq!(
                glob_reach(pattern, template),
                want,
                "{pattern} on {template}"
            );
            // A decided verdict holds for every instance.
            if let Some(verdict) = want {
                for (a, b) in [("0", "0"), ("1", "0"), ("12", "1"), ("sda1", "x")] {
                    let path = template.replace("{0}", a).replace("{1}", b);
                    assert_eq!(glob_match(pattern, &path), verdict, "{pattern} on {path}");
                }
            }
        }
    }

    #[test]
    fn a_policy_decides_a_route_by_its_first_reaching_rule() {
        const CPUFREQ: &str = "/sys/devices/system/cpu/cpu{0}/cpufreq/scaling_cur_freq";
        let p = MaskPolicy::none()
            .deny("/proc/stat")
            .partial("/sys/devices/system/**")
            .deny("/sys/devices/**");
        assert_eq!(p.reach(CPUFREQ), Reach::All(MaskAction::Partial));
        assert_eq!(p.reach("/proc/{0}/status"), Reach::No);
        let p = MaskPolicy::none()
            .deny("/sys/devices/system/cpu/cpu0/**")
            .deny("/sys/**");
        assert_eq!(p.reach(CPUFREQ), Reach::Maybe);
        // The verdicts are decided once and kept with the rules, for
        // every clone.
        let table = p.route_reach();
        let decided: Vec<Reach> = ROUTES.iter().map(|r| p.reach(r.template)).collect();
        assert_eq!(&table[..], &decided[..]);
        assert!(std::ptr::eq(p.clone().route_reach(), table));
        assert!(table.contains(&Reach::Maybe) && table.contains(&Reach::No));
        // The empty policy and host views share the unmasked table.
        assert!(std::ptr::eq(MaskPolicy::none().route_reach(), &UNMASKED));
        assert!(std::ptr::eq(
            View::host().with_policy(p.clone()).route_reach(),
            &UNMASKED
        ));
        assert!(UNMASKED.iter().all(|&r| r == Reach::No));
    }

    #[test]
    fn host_views_bypass_masking() {
        let mut v = View::host();
        v.policy = MaskPolicy::none().deny("/proc/**");
        assert_eq!(v.mask_action("/proc/stat"), None);
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
