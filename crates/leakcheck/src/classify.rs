//! Namespace-blindness classification of pseudo-file handlers.
//!
//! Every handler gets a verdict in a small lattice:
//!
//! * [`Verdict::ViewRouted`] — every kernel read either flows through the
//!   namespace registry (`k.namespaces()`), is derived from the reader's
//!   [`View`](pseudofs::View) context, or is a pid/cgroup-scoped lookup
//!   keyed by view-derived state.
//! * [`Verdict::MaskedOnly`] — the handler reads host-global state and its
//!   only protection is the view's `MaskAction` (a policy, not isolation:
//!   remove the mask and the channel leaks).
//! * [`Verdict::NamespaceBlind`] — host-global `Kernel` state reaches the
//!   rendered output with no namespace routing at all. `mixed` marks
//!   handlers that *do* consult the view yet still read global state — the
//!   paper's Case Study I shape (`net_prio.ifpriomap`).
//! * [`Verdict::Static`] — the output contains no kernel state.
//!
//! The analysis is token-level, per function, with three refinements that
//! make it precise on this codebase (verified against every handler):
//!
//! 1. **Context gating**: global reads inside a `match view.context { … }`
//!    body or an `if view.is_host() { … }` block are excluded — each arm
//!    only executes for its own reader context, so the read is routed.
//! 2. **Mask taint**: a local bound from `view.mask_action(…)` taints its
//!    gated blocks; namespace markers inside them don't count (consulting
//!    the view only when masked is policy, not namespace routing).
//! 3. **Call-graph propagation**: facts flow from module-local helpers
//!    (`viewer_ns`, `visible_pids`, …) to call sites, to a fixpoint, with
//!    the same gating rules applied at the call site.
//!
//! Kernel accessors that scope reads by a view-derived key (`clock`,
//! `process`, `processes`, `cgroups`) are *neutral when routed*: they
//! don't make an otherwise view-routed handler blind, but with no
//! namespace marker present they count as global reads (`/proc/cgroups`
//! renders host-wide cgroup counts through the same accessor that serves
//! properly-scoped `cpuacct.usage`).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::extract::{functions, FnDef};
use crate::lexer::{lex, Token, TokenKind};

/// Kernel accessors that route reads through the namespace registry.
pub(crate) const NS_AWARE: &[&str] = &["namespaces"];

/// Kernel accessors neutral when a namespace marker is present (reads
/// keyed by view-derived pids/cgroups/time), global otherwise.
pub(crate) const NEUTRAL_WHEN_ROUTED: &[&str] = &["clock", "process", "processes", "cgroups"];

/// View accessors that derive reader identity (namespace markers).
pub(crate) const VIEW_NS: &[&str] = &["context", "is_host"];

/// View accessors that only express masking policy or resource limits.
const VIEW_MASK: &[&str] = &["mask_action", "allotted_cpus", "mem_limit_bytes"];

/// A handler's classification. See the module docs for the lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// All kernel reads are namespace-routed.
    ViewRouted,
    /// Global reads protected solely by `MaskAction` policy.
    MaskedOnly,
    /// Global kernel state reaches the output unrouted.
    NamespaceBlind {
        /// True when the handler also consults the view (mixed shape).
        mixed: bool,
    },
    /// No kernel state in the output.
    Static,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::ViewRouted => "view-routed",
            Verdict::MaskedOnly => "masked-only",
            Verdict::NamespaceBlind { mixed: false } => "namespace-blind",
            Verdict::NamespaceBlind { mixed: true } => "namespace-blind-mixed",
            Verdict::Static => "static",
        })
    }
}

/// The evidence a verdict rests on (sorted, deduplicated accessor names).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Facts {
    /// Namespace markers: view-context reads, `k.namespaces()` calls, and
    /// ungated calls to view-deriving helpers.
    pub ns_markers: BTreeSet<String>,
    /// Host-global kernel reads reaching the output (context-gated reads
    /// excluded).
    pub globals: BTreeSet<String>,
    /// Neutral-when-routed kernel reads.
    pub neutral: BTreeSet<String>,
    /// Masking-policy consultations.
    pub mask_markers: BTreeSet<String>,
    /// Every kernel accessor the function touches, with no gating filter
    /// applied and propagated through local calls unconditionally. The
    /// blindness verdict never consults this set; it feeds the
    /// missing-dependency lint, which must see context-gated reads too — a
    /// gated read still makes rendered bytes depend on that subsystem.
    pub kernel_reads: BTreeSet<String>,
}

impl Facts {
    /// Derives the verdict from the collected facts.
    pub fn verdict(&self) -> Verdict {
        if !self.ns_markers.is_empty() {
            if !self.globals.is_empty() {
                Verdict::NamespaceBlind { mixed: true }
            } else {
                Verdict::ViewRouted
            }
        } else if !self.globals.is_empty() || !self.neutral.is_empty() {
            if !self.mask_markers.is_empty() {
                Verdict::MaskedOnly
            } else {
                Verdict::NamespaceBlind { mixed: false }
            }
        } else {
            Verdict::Static
        }
    }
}

/// Analysis result for one function.
#[derive(Debug, Clone)]
pub struct FnAnalysis {
    /// Evidence after call-graph propagation.
    pub facts: Facts,
    /// The derived verdict.
    pub verdict: Verdict,
}

/// Calls a function makes to module-local functions, with gating state at
/// the call site.
#[derive(Debug, Clone)]
struct LocalCall {
    callee: String,
    mask_gated: bool,
    ctx_gated: bool,
}

/// Analyzes one render module's source, returning per-function results
/// keyed by bare function name (helpers included).
#[expect(
    clippy::expect_used,
    reason = "the facts map is seeded from the same function list the fixpoint loop iterates, \
        so the lookup cannot miss"
)]
pub fn analyze_module(src: &str) -> BTreeMap<String, FnAnalysis> {
    let tokens = lex(src);
    let fns = functions(&tokens);
    let names: BTreeSet<String> = fns.iter().map(|f| f.name.clone()).collect();

    let mut facts: BTreeMap<String, Facts> = BTreeMap::new();
    let mut calls: BTreeMap<String, Vec<LocalCall>> = BTreeMap::new();
    for f in &fns {
        let (fa, cs) = analyze_fn(f, &names);
        facts.insert(f.name.clone(), fa);
        calls.insert(f.name.clone(), cs);
    }

    // Propagate facts through module-local calls to a fixpoint. Sets only
    // grow, so this terminates.
    loop {
        let mut changed = false;
        for f in &fns {
            let callee_updates: Vec<(Facts, bool, bool)> = calls[&f.name]
                .iter()
                .filter_map(|c| {
                    facts
                        .get(&c.callee)
                        .map(|cf| (cf.clone(), c.mask_gated, c.ctx_gated))
                })
                .collect();
            let me = facts.get_mut(&f.name).expect("fn registered");
            for (cf, mask_gated, ctx_gated) in callee_updates {
                if !mask_gated {
                    for m in &cf.ns_markers {
                        changed |= me.ns_markers.insert(m.clone());
                    }
                }
                if !ctx_gated {
                    for g in &cf.globals {
                        changed |= me.globals.insert(g.clone());
                    }
                }
                for n in &cf.neutral {
                    changed |= me.neutral.insert(n.clone());
                }
                for m in &cf.mask_markers {
                    changed |= me.mask_markers.insert(m.clone());
                }
                for r in &cf.kernel_reads {
                    changed |= me.kernel_reads.insert(r.clone());
                }
            }
        }
        if !changed {
            break;
        }
    }

    facts
        .into_iter()
        .map(|(name, fa)| {
            let verdict = fa.verdict();
            (name, FnAnalysis { facts: fa, verdict })
        })
        .collect()
}

fn analyze_fn(def: &FnDef, local_fns: &BTreeSet<String>) -> (Facts, Vec<LocalCall>) {
    let body = &def.body;
    let kernel = def.kernel_param.as_deref().unwrap_or("");
    let view = def.view_param.as_deref().unwrap_or("");

    let tainted = mask_tainted_locals(body, view);
    let (ctx_spans, mask_spans) = gated_spans(body, view, &tainted);
    let in_any = |spans: &[(usize, usize)], i: usize| spans.iter().any(|&(a, b)| i >= a && i < b);

    let mut facts = Facts::default();
    let mut local_calls = Vec::new();

    for i in 0..body.len() {
        let t = &body[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let dot_access = body.get(i + 1).is_some_and(|n| n.is_punct('.'))
            && body.get(i + 2).is_some_and(|n| n.kind == TokenKind::Ident);
        if !kernel.is_empty() && t.text == kernel && dot_access {
            let accessor = body[i + 2].text.as_str();
            facts.kernel_reads.insert(format!("k.{accessor}()"));
            if NS_AWARE.contains(&accessor) {
                if !in_any(&mask_spans, i) {
                    facts.ns_markers.insert(format!("k.{accessor}()"));
                }
            } else if NEUTRAL_WHEN_ROUTED.contains(&accessor) {
                facts.neutral.insert(format!("k.{accessor}()"));
            } else if !in_any(&ctx_spans, i) {
                facts.globals.insert(format!("k.{accessor}()"));
            }
        } else if !view.is_empty() && t.text == view && dot_access {
            let accessor = body[i + 2].text.as_str();
            if VIEW_NS.contains(&accessor) {
                if !in_any(&mask_spans, i) {
                    facts.ns_markers.insert(format!("view.{accessor}"));
                }
            } else if VIEW_MASK.contains(&accessor) {
                facts.mask_markers.insert(format!("view.{accessor}"));
            }
        } else if local_fns.contains(&t.text)
            && t.text != def.name
            && body.get(i + 1).is_some_and(|n| n.is_punct('('))
            && !(i > 0 && body[i - 1].is_punct('.'))
        {
            local_calls.push(LocalCall {
                callee: t.text.clone(),
                mask_gated: in_any(&mask_spans, i),
                ctx_gated: in_any(&ctx_spans, i),
            });
        }
    }
    (facts, local_calls)
}

/// Local bindings whose initializer consults `view.mask_action` — gating
/// on them is masking policy, not namespace routing.
pub(crate) fn mask_tainted_locals(body: &[Token], view: &str) -> BTreeSet<String> {
    let mut tainted = BTreeSet::new();
    if view.is_empty() {
        return tainted;
    }
    let mut i = 0;
    while i + 2 < body.len() {
        if body[i].is_ident("let")
            && body[i + 1].kind == TokenKind::Ident
            && body[i + 2].is_punct('=')
        {
            let name = body[i + 1].text.clone();
            let end = statement_end(body, i + 3);
            let init = &body[i + 3..end];
            let uses_mask = init
                .windows(3)
                .any(|w| w[0].is_ident(view) && w[1].is_punct('.') && w[2].is_ident("mask_action"));
            if uses_mask {
                tainted.insert(name);
            }
            i = end;
            continue;
        }
        i += 1;
    }
    tainted
}

/// Index of the `;` (or end) terminating a statement starting at `from`,
/// at bracket depth zero relative to `from`.
fn statement_end(body: &[Token], from: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in body.iter().enumerate().skip(from) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(';') && depth <= 0 {
            return j;
        }
    }
    body.len()
}

/// A half-open token-index range into a function body.
pub(crate) type Span = (usize, usize);

/// Computes context-gated and mask-gated token spans (half-open index
/// ranges into `body`) from `match`/`if` constructs whose scrutinee or
/// condition derives from the view context or a mask-tainted local.
pub(crate) fn gated_spans(
    body: &[Token],
    view: &str,
    tainted: &BTreeSet<String>,
) -> (Vec<Span>, Vec<Span>) {
    let mut ctx = Vec::new();
    let mut mask = Vec::new();
    for i in 0..body.len() {
        let is_match = body[i].is_ident("match");
        let is_if = body[i].is_ident("if");
        if !is_match && !is_if {
            continue;
        }
        // Head: tokens up to the block-opening `{` at bracket depth zero.
        let mut depth = 0i32;
        let mut open = None;
        for (j, t) in body.iter().enumerate().skip(i + 1) {
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if t.is_punct('{') && depth == 0 {
                open = Some(j);
                break;
            } else if t.is_punct(';') && depth == 0 {
                break;
            }
        }
        let Some(open) = open else { continue };
        let head = &body[i + 1..open];
        let head_ctx = !view.is_empty()
            && head.windows(3).any(|w| {
                w[0].is_ident(view) && w[1].is_punct('.') && VIEW_NS.contains(&w[2].text.as_str())
            });
        let head_mask = head
            .iter()
            .any(|t| t.kind == TokenKind::Ident && tainted.contains(&t.text))
            || (!view.is_empty()
                && head.windows(3).any(|w| {
                    w[0].is_ident(view) && w[1].is_punct('.') && w[2].is_ident("mask_action")
                }));
        if !head_ctx && !head_mask {
            continue;
        }
        let close = brace_close(body, open);
        if head_ctx {
            ctx.push((open + 1, close));
        }
        if head_mask {
            mask.push((open + 1, close));
        }
    }
    (ctx, mask)
}

fn brace_close(body: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in body.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    body.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict_of(src: &str, name: &str) -> Verdict {
        analyze_module(src)[name].verdict
    }

    #[test]
    fn pure_global_reads_are_blind() {
        let src =
            "pub fn boot_id(k: &Kernel, _view: &View) -> String { format!(\"{}\", k.boot_id()) }";
        assert_eq!(
            verdict_of(src, "boot_id"),
            Verdict::NamespaceBlind { mixed: false }
        );
    }

    #[test]
    fn context_match_routes_globals() {
        let src = "
            pub fn hostname(k: &Kernel, view: &View) -> String {
                match view.context {
                    Context::Host => k.namespaces().hostname(),
                    Context::Container { ns, .. } => k.namespaces().hostname_of(ns),
                }
            }
            pub fn net_dev(k: &Kernel, view: &View) -> String {
                match view.context {
                    Context::Host => k.net().devices().len().to_string(),
                    Context::Container { .. } => String::new(),
                }
            }
        ";
        assert_eq!(verdict_of(src, "hostname"), Verdict::ViewRouted);
        assert_eq!(verdict_of(src, "net_dev"), Verdict::ViewRouted);
    }

    #[test]
    fn unconditional_global_beside_context_is_mixed() {
        let src = "
            pub fn ifpriomap(k: &Kernel, view: &View) -> String {
                let cg = match view.context { Context::Host => 0, _ => 1 };
                for dev in k.net().devices() { let _ = (dev, cg); }
                String::new()
            }
        ";
        assert_eq!(
            verdict_of(src, "ifpriomap"),
            Verdict::NamespaceBlind { mixed: true }
        );
    }

    #[test]
    fn mask_taint_makes_masked_only_not_routed() {
        let src = "
            pub fn meminfo(k: &Kernel, view: &View) -> String {
                let partial = view.mask_action(\"/proc/meminfo\") == Some(MaskAction::Partial);
                let m = k.mem();
                let total = if partial { limit(view.mem_limit_bytes, scoped(k, view)) } else { m.total_bytes() };
                total.to_string()
            }
            fn scoped(k: &Kernel, view: &View) -> u64 {
                match view.context { Context::Host => k.mem().rss(), _ => 0 }
            }
        ";
        assert_eq!(verdict_of(src, "meminfo"), Verdict::MaskedOnly);
        assert_eq!(verdict_of(src, "scoped"), Verdict::ViewRouted);
    }

    #[test]
    fn neutral_accessors_depend_on_routing() {
        // cgroups read with a view-derived key: routed.
        let routed = "
            fn viewer(k: &Kernel, view: &View) -> u64 {
                match view.context { Context::Host => 0, Context::Container { c, .. } => c }
            }
            pub fn usage(k: &Kernel, view: &View) -> String {
                k.cgroups().usage(viewer(k, view)).to_string()
            }
        ";
        assert_eq!(verdict_of(routed, "usage"), Verdict::ViewRouted);
        // Same accessor with no namespace marker: global.
        let blind = "pub fn cgroups(k: &Kernel, _view: &View) -> String { k.cgroups().count().to_string() }";
        assert_eq!(
            verdict_of(blind, "cgroups"),
            Verdict::NamespaceBlind { mixed: false }
        );
    }

    #[test]
    fn helper_facts_propagate_transitively() {
        let src = "
            fn viewer_ns(k: &Kernel, view: &View) -> Ns {
                match view.context { Context::Host => k.namespaces().host_set(), Context::Container { ns, .. } => ns }
            }
            fn reader_pid(k: &Kernel, view: &View) -> u32 {
                let ns = viewer_ns(k, view);
                k.namespaces().pids_visible_from(ns.pid).len() as u32
            }
            pub fn self_status(k: &Kernel, view: &View) -> String {
                reader_pid(k, view).to_string()
            }
        ";
        assert_eq!(verdict_of(src, "self_status"), Verdict::ViewRouted);
    }

    #[test]
    fn kernel_reads_sees_gated_reads_and_propagates() {
        // `k.mem()` is context-gated (excluded from `globals`) and
        // `k.clock()` sits in a helper; both must reach `kernel_reads`.
        let src = "
            fn stamp(k: &Kernel, _view: &View) -> u64 { k.clock().now_ns() }
            pub fn meminfo(k: &Kernel, view: &View) -> String {
                let t = stamp(k, view);
                match view.context {
                    Context::Host => k.mem().total().to_string(),
                    Context::Container { .. } => t.to_string(),
                }
            }
        ";
        let m = analyze_module(src);
        assert_eq!(m["meminfo"].verdict, Verdict::ViewRouted);
        let reads = &m["meminfo"].facts.kernel_reads;
        assert!(reads.contains("k.mem()"), "{reads:?}");
        assert!(reads.contains("k.clock()"), "{reads:?}");
    }

    #[test]
    fn no_kernel_state_is_static() {
        let src = "pub fn pid_max(_k: &Kernel, _view: &View) -> String { \"32768\".to_string() }";
        assert_eq!(verdict_of(src, "pid_max"), Verdict::Static);
    }
}
