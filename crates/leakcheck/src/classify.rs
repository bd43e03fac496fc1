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
//! The analysis is token-level: one scan per function collects its
//! [`Facts`], with three refinements that make it precise on this codebase
//! (verified against every handler):
//!
//! 1. **Context gating**: global reads inside a `match view.context { … }`
//!    body or an `if view.is_host() { … }` block are excluded — each arm
//!    only executes for its own reader context, so the read is routed.
//! 2. **Mask taint**: a local bound from `view.mask_action(…)` taints its
//!    gated blocks; namespace markers inside them don't count (consulting
//!    the view only when masked is policy, not namespace routing).
//! 3. **Call-graph propagation**: facts flow from helpers (`viewer_ns`,
//!    also called from `fs.rs`, the parent module's `jiffies`, …) to their
//!    call sites over the [`callgraph`](crate::callgraph)'s cross-module
//!    edges, to one fixpoint ([`analyze`]), with the same gating rules
//!    applied at the call site.
//!
//! The same facts carry the information flow: [`flow`](crate::flow) maps
//! their accessor names to dirty-epoch subsystem bits for the derived and
//! leaked masks, so verdicts and masks cannot disagree about what a
//! handler reads.
//!
//! Kernel accessors that scope reads by a view-derived key (`clock`,
//! `process`, `processes`, `cgroups`) are *neutral when routed*: they
//! don't make an otherwise view-routed handler blind, but with no
//! namespace marker present they count as global reads (`/proc/cgroups`
//! renders host-wide cgroup counts through the same accessor that serves
//! properly-scoped `cpuacct.usage`).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::callgraph::CallGraph;
use crate::extract::{matching, FnDef};
use crate::lexer::{Token, TokenKind};

/// Kernel accessors that route reads through the namespace registry.
const NS_AWARE: &[&str] = &["namespaces"];

/// Kernel accessors neutral when a namespace marker is present (reads
/// keyed by view-derived pids/cgroups/time), global otherwise.
const NEUTRAL_WHEN_ROUTED: &[&str] = &["clock", "process", "processes", "cgroups"];

/// View accessors that derive reader identity (namespace markers).
const VIEW_NS: &[&str] = &["context", "is_host"];

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
    /// applied and propagated unconditionally. The verdict never consults
    /// this set; it is the derived dependency mask's source, which must see
    /// context-gated reads too — a gated read still makes rendered bytes
    /// depend on that subsystem.
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

/// Propagates facts over the call graph's cross-module edges to a
/// fixpoint, returning every function's facts keyed `module::fn`.
///
/// An edge contributes nothing unless the callee can hand data back
/// ([`FnDef::returns_data`]): a unit-returning helper with only shared
/// references (trace notes) cannot flow kernel state into the caller's
/// output. `globals` is cut at context-gated call sites, where the
/// caller has already routed by reader identity, and `ns_markers` at
/// mask-gated ones, where consulting the view is policy.
pub fn analyze(graph: &CallGraph) -> BTreeMap<String, Facts> {
    let mut facts: BTreeMap<String, Facts> = graph
        .fns
        .iter()
        .map(|(name, def)| (name.clone(), scan(def)))
        .collect();
    // Sets only grow, so this terminates.
    loop {
        let mut changed = false;
        for (caller, edges) in &graph.edges {
            for e in edges {
                if !graph.fns.get(&e.callee).is_some_and(FnDef::returns_data) {
                    continue;
                }
                // Edges and facts are keyed by the same fn set.
                let Some(cf) = facts.get(&e.callee).cloned() else {
                    continue;
                };
                let Some(me) = facts.get_mut(caller) else {
                    continue;
                };
                changed |= union(&mut me.kernel_reads, &cf.kernel_reads)
                    | union(&mut me.neutral, &cf.neutral)
                    | union(&mut me.mask_markers, &cf.mask_markers);
                if !e.ctx_gated {
                    changed |= union(&mut me.globals, &cf.globals);
                }
                if !e.mask_gated {
                    changed |= union(&mut me.ns_markers, &cf.ns_markers);
                }
            }
        }
        if !changed {
            break;
        }
    }
    facts
}

/// Adds `from` to `into`; true when `into` grew.
fn union(into: &mut BTreeSet<String>, from: &BTreeSet<String>) -> bool {
    from.iter()
        .fold(false, |grew, x| into.insert(x.clone()) | grew)
}

/// The facts a function's own body contributes, before propagation.
fn scan(def: &FnDef) -> Facts {
    let body = &def.body;
    let kernel = def.kernel_param.as_deref().unwrap_or("");
    let view = def.view_param.as_deref().unwrap_or("");
    let gates = Gates::of(def);
    let mut facts = Facts::default();
    for i in 0..body.len() {
        let dot_access = body[i].kind == TokenKind::Ident
            && body.get(i + 1).is_some_and(|n| n.is_punct('.'))
            && body.get(i + 2).is_some_and(|n| n.kind == TokenKind::Ident);
        if !dot_access {
            continue;
        }
        let accessor = body[i + 2].text.as_str();
        if !kernel.is_empty() && body[i].text == kernel {
            let read = format!("k.{accessor}()");
            facts.kernel_reads.insert(read.clone());
            if NS_AWARE.contains(&accessor) {
                if !gates.mask(i) {
                    facts.ns_markers.insert(read);
                }
            } else if NEUTRAL_WHEN_ROUTED.contains(&accessor) {
                facts.neutral.insert(read);
            } else if !gates.ctx(i) {
                facts.globals.insert(read);
            }
        } else if !view.is_empty() && body[i].text == view {
            if VIEW_NS.contains(&accessor) {
                if !gates.mask(i) {
                    facts.ns_markers.insert(format!("view.{accessor}"));
                }
            } else if VIEW_MASK.contains(&accessor) {
                facts.mask_markers.insert(format!("view.{accessor}"));
            }
        }
    }
    facts
}

/// The context- and mask-gated token spans of one function body:
/// half-open index ranges inside `match`/`if` blocks whose scrutinee or
/// condition derives from the view context or from a mask-tainted local.
/// A read or call site inside a context span executes for one reader
/// context only; inside a mask span it is masking policy.
pub(crate) struct Gates {
    ctx: Vec<(usize, usize)>,
    mask: Vec<(usize, usize)>,
}

impl Gates {
    /// The gated spans of `def`'s body.
    pub(crate) fn of(def: &FnDef) -> Gates {
        let body = &def.body;
        let view = def.view_param.as_deref().unwrap_or("");
        let tainted = mask_tainted_locals(body, view);
        let mut gates = Gates {
            ctx: Vec::new(),
            mask: Vec::new(),
        };
        for i in 0..body.len() {
            if !body[i].is_ident("match") && !body[i].is_ident("if") {
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
            let span = (open + 1, matching(body, open, '{', '}'));
            if reads_view(head, view, |a| VIEW_NS.contains(&a)) {
                gates.ctx.push(span);
            }
            if reads_view(head, view, |a| a == "mask_action")
                || head
                    .iter()
                    .any(|t| t.kind == TokenKind::Ident && tainted.contains(&t.text))
            {
                gates.mask.push(span);
            }
        }
        gates
    }

    /// Whether token `i` sits in a context-gated block.
    pub(crate) fn ctx(&self, i: usize) -> bool {
        self.ctx.iter().any(|&(a, b)| i >= a && i < b)
    }

    /// Whether token `i` sits in a mask-gated block.
    pub(crate) fn mask(&self, i: usize) -> bool {
        self.mask.iter().any(|&(a, b)| i >= a && i < b)
    }
}

/// Whether `tokens` contain `view.<accessor>` for an accessor `pick`
/// accepts.
fn reads_view(tokens: &[Token], view: &str, pick: impl Fn(&str) -> bool) -> bool {
    !view.is_empty()
        && tokens
            .windows(3)
            .any(|w| w[0].is_ident(view) && w[1].is_punct('.') && pick(&w[2].text))
}

/// Local bindings whose initializer consults `view.mask_action` — gating
/// on them is masking policy, not namespace routing.
fn mask_tainted_locals(body: &[Token], view: &str) -> BTreeSet<String> {
    let mut tainted = BTreeSet::new();
    let mut i = 0;
    while i + 2 < body.len() {
        if body[i].is_ident("let")
            && body[i + 1].kind == TokenKind::Ident
            && body[i + 2].is_punct('=')
        {
            let end = statement_end(body, i + 3);
            if reads_view(&body[i + 3..end], view, |a| a == "mask_action") {
                tainted.insert(body[i + 1].text.clone());
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::{build, parse_module};

    /// Facts of a one-module source, keyed by bare function name.
    fn analyze_src(src: &str) -> BTreeMap<String, Facts> {
        analyze(&build(&[parse_module("m", None, src)]))
            .into_iter()
            .map(|(name, facts)| (name.trim_start_matches("m::").to_string(), facts))
            .collect()
    }

    fn verdict_of(src: &str, name: &str) -> Verdict {
        analyze_src(src)[name].verdict()
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
        let m = analyze_src(src);
        assert_eq!(m["meminfo"].verdict(), Verdict::ViewRouted);
        let reads = &m["meminfo"].kernel_reads;
        assert!(reads.contains("k.mem()"), "{reads:?}");
        assert!(reads.contains("k.clock()"), "{reads:?}");
    }

    #[test]
    fn facts_cross_modules_but_not_unit_helpers() {
        // The listing's shape: a host-global topology read beside a call
        // into another module's view-routed pid sweep is mixed.
        let proc_pid = "
            pub(crate) fn visible_pids(k: &Kernel, view: &View) -> Vec<u32> {
                match view.context { Context::Host => Vec::new(), _ => k.namespaces().pids() }
            }
        ";
        let fs = "
            fn note(k: &Kernel, view: &View) { let _ = view.context; }
            fn enumerate(k: &Kernel, view: &View) -> Vec<String> {
                note(k, view);
                let n = k.hw().cpus();
                proc_pid::visible_pids(k, view).iter().map(|p| format!(\"{p}{n}\")).collect()
            }
            fn topology(k: &Kernel, view: &View) -> u64 { note(k, view); k.hw().cpus() }
        ";
        let facts = analyze(&build(&[
            parse_module("proc_pid", None, proc_pid),
            parse_module("fs", None, fs),
        ]));
        assert_eq!(
            facts["fs::enumerate"].verdict(),
            Verdict::NamespaceBlind { mixed: true }
        );
        // `note` consults the view but returns nothing to its caller.
        assert_eq!(
            facts["fs::topology"].verdict(),
            Verdict::NamespaceBlind { mixed: false }
        );
    }

    #[test]
    fn no_kernel_state_is_static() {
        let src = "pub fn pid_max(_k: &Kernel, _view: &View) -> String { \"32768\".to_string() }";
        assert_eq!(verdict_of(src, "pid_max"), Verdict::Static);
    }
}
