//! Interprocedural information flow from kernel subsystems to rendered
//! bytes.
//!
//! Sources are the 12 dirty-epoch subsystem bits ([`simkernel::dep`])
//! reachable through each `Kernel` accessor; sinks are the bytes a
//! route's handler renders. The flow is read off the classifier's
//! [`Facts`] at their fixpoint ([`classify::analyze`](crate::classify::analyze)),
//! mapping accessor names to bits through [`dep::accessor_bit`]:
//!
//! * **full** — every subsystem the function reads, gating ignored
//!   (`kernel_reads`). A context-gated read still makes the rendered
//!   bytes depend on that subsystem (some reader context executes it),
//!   so `full` is what the route's declared epochs must cover: the
//!   *derived mask*.
//! * **unrouted** — subsystems read outside any `view.context` gate via
//!   accessors that are neither namespace-aware nor neutral-when-routed
//!   (`globals`): host-global state flowing to every reader identically.
//!   This is the paper's Table I column — what a namespace-blind channel
//!   leaks.
//! * **neutral** — reads through neutral-when-routed accessors; whether
//!   they leak depends on whether namespace routing reaches the sink.
//!
//! The fixpoint's propagation rules are the flow's: only data-returning
//! callees contribute, `globals` (hence `unrouted`) is cut at
//! context-gated call sites and namespace markers at mask-gated ones.
//!
//! Accessors with no subsystem mapping are recorded per function and
//! only become errors when reachable from a checked route — the
//! `Kernel` surface used by the epoch/trace plumbing never renders.

use std::collections::{BTreeMap, BTreeSet};

use simkernel::dep;

use crate::classify::{Facts, Verdict};

/// One function's flow masks, read off its facts. See the module docs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FnFlow {
    /// Every subsystem read, gating ignored: the derived dependency mask.
    pub full: u32,
    /// Host-global subsystems flowing to the output unrouted.
    pub unrouted: u32,
    /// Neutral-when-routed reads (leakage depends on routing).
    pub neutral: u32,
    /// The function consults the namespace registry outside any
    /// mask-policy gate (itself or via a data-returning callee): its
    /// neutral reads are keyed by view-derived state, not host-global.
    pub ns_routed: bool,
    /// Accessors with no subsystem mapping, as `k.name()` strings.
    pub unknown: BTreeSet<String>,
}

impl FnFlow {
    /// The masks `facts` imply.
    pub fn of(facts: &Facts) -> FnFlow {
        let mask = |reads: &BTreeSet<String>| {
            reads
                .iter()
                .filter_map(|r| subsystem_bit(r))
                .fold(0, |m, b| m | b)
        };
        FnFlow {
            full: mask(&facts.kernel_reads),
            unrouted: mask(&facts.globals),
            neutral: mask(&facts.neutral),
            ns_routed: facts.ns_markers.iter().any(|m| m.starts_with("k.")),
            unknown: facts
                .kernel_reads
                .iter()
                .filter(|r| subsystem_bit(r).is_none())
                .cloned()
                .collect(),
        }
    }
}

/// The subsystem bit of a `k.name()` read, if the accessor has one.
fn subsystem_bit(read: &str) -> Option<u32> {
    read.strip_prefix("k.")
        .and_then(|r| r.strip_suffix("()"))
        .and_then(dep::accessor_bit)
}

/// One route to check: the registry row, decoupled from [`pseudofs`] so
/// fixtures can seed mutations.
#[derive(Debug, Clone)]
pub struct RouteSpec {
    /// The route's path pattern (or `(list)` for the listing path).
    pub pattern: String,
    /// Qualified handler name, `module::fn`.
    pub handler: String,
    /// The dependency mask the registry declares.
    pub declared: u32,
}

/// A derived-vs-declared mask divergence on one route.
#[derive(Debug, Clone)]
pub struct MaskFinding {
    /// The route's path pattern.
    pub pattern: String,
    /// Qualified handler name.
    pub handler: String,
    /// The diverging subsystem bits.
    pub bits: u32,
    /// For extra-bit findings: the allowlist reason, if any.
    pub allowed: Option<String>,
}

/// Per-route flow at the fixpoint.
#[derive(Debug, Clone)]
pub struct RouteFlow {
    /// The route's path pattern.
    pub pattern: String,
    /// Qualified handler name.
    pub handler: String,
    /// The handler's classification verdict.
    pub verdict: Verdict,
    /// Derived dependency mask (`full` at the sink).
    pub derived: u32,
    /// What a container reader observes of the host: the unrouted flow,
    /// plus the neutral flow when no namespace routing reaches the sink
    /// (a host-wide aggregate read through a view-keyable accessor).
    pub hot: u32,
    /// The registry's declared mask.
    pub declared: u32,
}

/// The derived-vs-declared check over every route.
#[derive(Debug)]
pub struct FlowCheck {
    /// Per-route flow, in spec order.
    pub routes: Vec<RouteFlow>,
    /// Declared masks missing a derived bit: missing-dependency-bit
    /// findings.
    pub missing: Vec<MaskFinding>,
    /// Declared masks carrying underived bits: needless re-reads, warned
    /// unless allowlisted.
    pub extra: Vec<MaskFinding>,
}

/// Declared-mask bits the analysis cannot derive but that are kept
/// deliberately, as (`pattern`, reason). Extra bits cost needless
/// re-reads, never correctness, so these are reviewed rather than enforced.
pub const EXTRA_DEPS_ALLOWLIST: &[(&str, &str)] = &[];

/// Checks every route's declared mask against the flow the facts imply.
///
/// Errors when a handler is missing from the facts map or when an
/// unmapped kernel accessor is reachable from a route's sink — both
/// mean the analysis cannot vouch for the mask at all.
pub fn check_routes(
    facts: &BTreeMap<String, Facts>,
    specs: &[RouteSpec],
) -> Result<FlowCheck, String> {
    let mut routes = Vec::new();
    let mut missing = Vec::new();
    let mut extra = Vec::new();
    for spec in specs {
        let handler = facts.get(&spec.handler).ok_or_else(|| {
            format!(
                "`{}`: handler `{}` not in the analyzed sources",
                spec.pattern, spec.handler
            )
        })?;
        let sink = FnFlow::of(handler);
        if !sink.unknown.is_empty() {
            return Err(format!(
                "`{}` ({}): kernel accessors {:?} have no dirty-epoch subsystem mapping but are \
                 reachable from the rendered output",
                spec.pattern,
                spec.handler,
                sink.unknown.iter().collect::<Vec<_>>(),
            ));
        }
        let missing_bits = sink.full & !spec.declared;
        if missing_bits != 0 {
            missing.push(MaskFinding {
                pattern: spec.pattern.clone(),
                handler: spec.handler.clone(),
                bits: missing_bits,
                allowed: None,
            });
        }
        let extra_bits = spec.declared & !sink.full;
        if extra_bits != 0 {
            let allowed = EXTRA_DEPS_ALLOWLIST
                .iter()
                .find(|(p, _)| *p == spec.pattern)
                .map(|(_, reason)| (*reason).to_string());
            extra.push(MaskFinding {
                pattern: spec.pattern.clone(),
                handler: spec.handler.clone(),
                bits: extra_bits,
                allowed,
            });
        }
        routes.push(RouteFlow {
            pattern: spec.pattern.clone(),
            handler: spec.handler.clone(),
            verdict: handler.verdict(),
            derived: sink.full,
            hot: sink.unrouted | if sink.ns_routed { 0 } else { sink.neutral },
            declared: spec.declared,
        });
    }
    Ok(FlowCheck {
        routes,
        missing,
        extra,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::{build, parse_module};
    use crate::classify::analyze;

    fn facts_of(sources: &[(&str, Option<&str>, &str)]) -> BTreeMap<String, Facts> {
        let modules: Vec<_> = sources
            .iter()
            .map(|(n, p, s)| parse_module(n, *p, s))
            .collect();
        analyze(&build(&modules))
    }

    fn flows_of(sources: &[(&str, Option<&str>, &str)]) -> BTreeMap<String, FnFlow> {
        facts_of(sources)
            .iter()
            .map(|(name, facts)| (name.clone(), FnFlow::of(facts)))
            .collect()
    }

    #[test]
    fn direct_reads_set_full_and_unrouted() {
        let flows = flows_of(&[(
            "m",
            None,
            "pub fn boot_id(k: &Kernel, _view: &View) -> String { k.boot_id().to_string() }",
        )]);
        let f = &flows["m::boot_id"];
        assert_eq!(f.full, dep::FS);
        assert_eq!(f.unrouted, dep::FS);
        assert_eq!(f.neutral, 0);
    }

    #[test]
    fn context_gated_reads_stay_in_full_but_not_unrouted() {
        let flows = flows_of(&[(
            "m",
            None,
            "
            pub fn hostname(k: &Kernel, view: &View) -> String {
                match view.context {
                    Context::Host => k.net().count().to_string(),
                    Context::Container { ns, .. } => k.namespaces().hostname_of(ns),
                }
            }
            ",
        )]);
        let f = &flows["m::hostname"];
        assert_eq!(f.full, dep::NET | dep::NS);
        assert_eq!(f.unrouted, 0, "the net read executes only for the host");
    }

    #[test]
    fn taint_crosses_modules_through_return_values() {
        let flows = flows_of(&[
            (
                "render",
                None,
                "pub(crate) fn stamp(k: &Kernel) -> u64 { k.clock().now_ns() }",
            ),
            (
                "m",
                Some("render"),
                "
                use super::stamp;
                pub fn uptime(k: &Kernel, _view: &View) -> String {
                    format!(\"{} {}\", stamp(k), k.total_idle_ns())
                }
                ",
            ),
        ]);
        let f = &flows["m::uptime"];
        assert_eq!(f.full, dep::CLOCK | dep::SCHED);
        assert_eq!(f.neutral, dep::CLOCK, "clock is neutral-when-routed");
        assert_eq!(f.unrouted, dep::SCHED);
    }

    #[test]
    fn unit_helpers_do_not_propagate_taint() {
        let flows = flows_of(&[(
            "m",
            None,
            "
            fn note(k: &Kernel) { trace(k.tracer()); }
            pub fn version(k: &Kernel, _view: &View) -> String {
                note(k);
                k.config().version.to_string()
            }
            ",
        )]);
        let f = &flows["m::version"];
        assert_eq!(f.full, 0);
        assert!(
            f.unknown.is_empty(),
            "tracer is unknown in `note` but unreachable from the output: {:?}",
            f.unknown
        );
        assert!(flows["m::note"].unknown.contains("k.tracer()"));
    }

    #[test]
    fn out_params_propagate_like_return_values() {
        let flows = flows_of(&[(
            "m",
            None,
            "
            fn fill(k: &Kernel, buf: &mut String) { buf.push_str(&k.mem().total().to_string()); }
            pub fn meminfo_into(k: &Kernel, _view: &View, buf: &mut String) { fill(k, buf); }
            ",
        )]);
        assert_eq!(flows["m::meminfo_into"].full, dep::MEM);
        assert_eq!(flows["m::meminfo_into"].unrouted, dep::MEM);
    }

    #[test]
    fn seeded_missing_dependency_fails_the_check() {
        // The acceptance fixture: a handler reads NET but the registry
        // declares only FS — a NET change would leave its epochs still.
        let facts = facts_of(&[(
            "m",
            None,
            "pub fn leaky(k: &Kernel, _view: &View) -> String {
                format!(\"{} {}\", k.boot_id(), k.net().count())
            }",
        )]);
        let check = check_routes(
            &facts,
            &[RouteSpec {
                pattern: "/proc/seeded".into(),
                handler: "m::leaky".into(),
                declared: dep::FS,
            }],
        )
        .expect("mapped accessors only");
        assert_eq!(check.missing.len(), 1);
        assert_eq!(check.missing[0].bits, dep::NET);
        assert!(check.extra.is_empty());
    }

    #[test]
    fn extra_declared_bits_are_findings_not_failures() {
        let facts = facts_of(&[(
            "m",
            None,
            "pub fn small(k: &Kernel, _view: &View) -> String { k.boot_id().to_string() }",
        )]);
        let check = check_routes(
            &facts,
            &[RouteSpec {
                pattern: "/proc/over".into(),
                handler: "m::small".into(),
                declared: dep::FS | dep::CLOCK,
            }],
        )
        .expect("mapped accessors only");
        assert!(check.missing.is_empty());
        assert_eq!(check.extra.len(), 1);
        assert_eq!(check.extra[0].bits, dep::CLOCK);
        assert!(check.extra[0].allowed.is_none());
    }

    #[test]
    fn reachable_unknown_accessors_are_errors() {
        let facts = facts_of(&[(
            "m",
            None,
            "pub fn odd(k: &Kernel, _view: &View) -> String { k.mystery().to_string() }",
        )]);
        let err = check_routes(
            &facts,
            &[RouteSpec {
                pattern: "/proc/odd".into(),
                handler: "m::odd".into(),
                declared: 0,
            }],
        )
        .expect_err("unknown accessor reachable from the sink");
        assert!(err.contains("k.mystery()"), "{err}");
    }
}
