//! Interprocedural information flow from kernel subsystems to rendered
//! bytes.
//!
//! Sources are the 12 dirty-epoch subsystem bits ([`simkernel::dep`])
//! reachable through each `Kernel` accessor; sinks are the bytes a
//! route's handler renders. Per function, three bitmasks
//! are propagated over the [`callgraph`](crate::callgraph) to a
//! fixpoint:
//!
//! * **full** — every subsystem the function reads, gating ignored. A
//!   context-gated read still makes the rendered bytes depend on that
//!   subsystem (some reader context executes it), so `full` is what the
//!   route's declared epochs must cover: the *derived mask*.
//! * **unrouted** — subsystems read outside any `view.context` gate via
//!   accessors that are neither namespace-aware nor neutral-when-routed:
//!   host-global state flowing to every reader identically. This is the
//!   paper's Table I column — what a namespace-blind channel leaks.
//! * **neutral** — reads through `classify::NEUTRAL_WHEN_ROUTED`
//!   accessors; whether they leak depends on the handler's verdict
//!   (routed lookups keyed by view-derived state don't, host-wide
//!   aggregates do), so the caller combines this with the classify
//!   facts.
//!
//! Propagation rules: an edge contributes nothing unless the callee can
//! hand data back (`FnDef::returns_data`) — a unit-returning helper
//! with only shared references (trace notes) cannot flow kernel state
//! into the caller's output. `full`, `neutral` and unknown accessors
//! propagate unconditionally; `unrouted` is cut at context-gated call
//! sites, where the caller has already routed by reader identity.
//!
//! Accessors with no subsystem mapping are recorded per function and
//! only become errors when reachable from a checked route — the
//! `Kernel` surface used by the epoch/trace plumbing never renders.

use std::collections::{BTreeMap, BTreeSet};

use simkernel::dep;

use crate::callgraph::CallGraph;
use crate::classify::{gated_spans, mask_tainted_locals, NEUTRAL_WHEN_ROUTED, NS_AWARE};
use crate::lexer::TokenKind;

/// Per-function flow facts at the fixpoint. See the module docs.
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

/// Propagates subsystem taint over the graph to a fixpoint.
pub fn analyze(graph: &CallGraph) -> BTreeMap<String, FnFlow> {
    let mut flows: BTreeMap<String, FnFlow> = graph
        .fns
        .iter()
        .map(|(name, def)| (name.clone(), direct_flow(def)))
        .collect();

    // Masks only gain bits and sets only grow, so this terminates.
    loop {
        let mut changed = false;
        for (caller, edges) in &graph.edges {
            for e in edges {
                let Some(callee) = graph.fns.get(&e.callee) else {
                    continue;
                };
                if !callee.returns_data() {
                    continue;
                }
                let cf = flows[&e.callee].clone();
                // Edges and flows are keyed by the same fn set.
                let Some(me) = flows.get_mut(caller) else {
                    continue;
                };
                let before = me.clone();
                me.full |= cf.full;
                me.neutral |= cf.neutral;
                if !e.ctx_gated {
                    me.unrouted |= cf.unrouted;
                }
                if !e.mask_gated {
                    me.ns_routed |= cf.ns_routed;
                }
                me.unknown.extend(cf.unknown);
                changed |= *me != before;
            }
        }
        if !changed {
            break;
        }
    }
    flows
}

/// The flow a function's own body contributes, before propagation.
fn direct_flow(def: &crate::extract::FnDef) -> FnFlow {
    let body = &def.body;
    let kernel = def.kernel_param.as_deref().unwrap_or("");
    let view = def.view_param.as_deref().unwrap_or("");
    let tainted = mask_tainted_locals(body, view);
    let (ctx_spans, mask_spans) = gated_spans(body, view, &tainted);
    let in_any = |spans: &[(usize, usize)], i: usize| spans.iter().any(|&(a, b)| i >= a && i < b);

    let mut flow = FnFlow::default();
    if kernel.is_empty() {
        return flow;
    }
    for i in 0..body.len() {
        if !(body[i].is_ident(kernel)
            && body.get(i + 1).is_some_and(|t| t.is_punct('.'))
            && body.get(i + 2).is_some_and(|t| t.kind == TokenKind::Ident))
        {
            continue;
        }
        let accessor = body[i + 2].text.as_str();
        let Some(bit) = dep::accessor_bit(accessor) else {
            flow.unknown.insert(format!("k.{accessor}()"));
            continue;
        };
        flow.full |= bit;
        if NS_AWARE.contains(&accessor) {
            // Namespace-registry reads are routed by construction;
            // mask-gated ones are policy, not routing (classify's rule).
            flow.ns_routed |= !in_any(&mask_spans, i);
        } else if NEUTRAL_WHEN_ROUTED.contains(&accessor) {
            flow.neutral |= bit;
        } else if !in_any(&ctx_spans, i) {
            flow.unrouted |= bit;
        }
    }
    flow
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
    /// Derived dependency mask (`full` at the sink).
    pub derived: u32,
    /// Host-global unrouted flow reaching the sink.
    pub unrouted: u32,
    /// Neutral-when-routed flow reaching the sink.
    pub neutral: u32,
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

/// Checks every route's declared mask against the derived flow.
///
/// Errors when a handler is missing from the flow map or when an
/// unmapped kernel accessor is reachable from a route's sink — both
/// mean the analysis cannot vouch for the mask at all.
pub fn check_routes(
    flows: &BTreeMap<String, FnFlow>,
    specs: &[RouteSpec],
) -> Result<FlowCheck, String> {
    let mut routes = Vec::new();
    let mut missing = Vec::new();
    let mut extra = Vec::new();
    for spec in specs {
        let sink = flows
            .get(&spec.handler)
            .ok_or_else(|| {
                format!(
                    "`{}`: handler `{}` not in flow map",
                    spec.pattern, spec.handler
                )
            })?
            .clone();
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
            derived: sink.full,
            unrouted: sink.unrouted,
            neutral: sink.neutral,
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

    fn flows_of(sources: &[(&str, Option<&str>, &str)]) -> BTreeMap<String, FnFlow> {
        let modules: Vec<_> = sources
            .iter()
            .map(|(n, p, s)| parse_module(n, *p, s))
            .collect();
        analyze(&build(&modules))
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
        let flows = flows_of(&[(
            "m",
            None,
            "pub fn leaky(k: &Kernel, _view: &View) -> String {
                format!(\"{} {}\", k.boot_id(), k.net().count())
            }",
        )]);
        let check = check_routes(
            &flows,
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
        let flows = flows_of(&[(
            "m",
            None,
            "pub fn small(k: &Kernel, _view: &View) -> String { k.boot_id().to_string() }",
        )]);
        let check = check_routes(
            &flows,
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
        let flows = flows_of(&[(
            "m",
            None,
            "pub fn odd(k: &Kernel, _view: &View) -> String { k.mystery().to_string() }",
        )]);
        let err = check_routes(
            &flows,
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
