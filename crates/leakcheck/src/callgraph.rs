//! Cross-module call graph over the pseudofs render surface.
//!
//! [`classify::analyze`](crate::classify::analyze) propagates facts over
//! edges that cross module boundaries — `fs.rs` calling
//! `proc_pid::viewer_ns`, `proc_basic` calling the `jiffies`/`kb`
//! helpers it imports from its parent `render` module. This module
//! parses each source once and resolves every call site to a
//! fully-qualified `module::fn` target, recording the call site's
//! context/mask gating (`classify::Gates`), so facts can be cut at
//! view-routed call sites.
//!
//! Four call shapes cover the audited sources (route handlers are the
//! roots, named by [`pseudofs::ROUTES`], so no call into them needs
//! resolving):
//!
//! 1. `name(..)` — a bare call to a function in the same module;
//! 2. `name(..)` where `name` was imported via `use super::…` — a call
//!    into the parent module;
//! 3. `self.name(..)` — a method call on the module's own type;
//! 4. `qual::name(..)` where `qual` is another parsed module.

use std::collections::{BTreeMap, BTreeSet};

use crate::classify::Gates;
use crate::extract::{functions, super_imports, FnDef};
use crate::lexer::{lex, TokenKind};

/// One parsed source file: its functions and parent imports.
#[derive(Debug)]
pub struct Module {
    /// Module name as it appears in qualified paths (`proc_basic`, `fs`).
    pub name: String,
    /// Parent module for `use super::…` resolution, if any.
    pub parent: Option<String>,
    /// Functions keyed by bare name.
    pub fns: BTreeMap<String, FnDef>,
    /// Names imported from the parent via `use super::…`.
    pub imports: BTreeSet<String>,
}

/// Parses one module's source into its functions and imports.
pub fn parse_module(name: &str, parent: Option<&str>, src: &str) -> Module {
    let tokens = lex(src);
    let fns = functions(&tokens)
        .into_iter()
        .map(|f| (f.name.clone(), f))
        .collect();
    Module {
        name: name.to_string(),
        parent: parent.map(str::to_string),
        fns,
        imports: super_imports(&tokens),
    }
}

/// One resolved call site, with the gating state the caller imposes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// Fully-qualified callee, `module::fn`.
    pub callee: String,
    /// The call sits inside a `match view.context`/`if view.is_host()`
    /// block: only one reader context executes it.
    pub ctx_gated: bool,
    /// The call sits inside a mask-policy-gated block.
    pub mask_gated: bool,
}

/// The cross-module graph: functions and edges keyed `module::fn`.
#[derive(Debug)]
pub struct CallGraph {
    /// Every function, keyed by qualified name.
    pub fns: BTreeMap<String, FnDef>,
    /// Caller → resolved call sites (unresolvable idents are not edges:
    /// they are std/format calls, which carry no kernel state).
    pub edges: BTreeMap<String, Vec<Edge>>,
}

/// Builds the graph over a set of parsed modules.
pub fn build(modules: &[Module]) -> CallGraph {
    let exported: BTreeMap<&str, BTreeSet<&str>> = modules
        .iter()
        .map(|m| (m.name.as_str(), m.fns.keys().map(String::as_str).collect()))
        .collect();
    let mut fns = BTreeMap::new();
    let mut edges = BTreeMap::new();
    for m in modules {
        for (fname, def) in &m.fns {
            let qname = format!("{}::{fname}", m.name);
            edges.insert(qname.clone(), edges_of(def, m, &exported));
            fns.insert(qname, def.clone());
        }
    }
    CallGraph { fns, edges }
}

/// Resolves every call site in `def`'s body against the module set.
fn edges_of(def: &FnDef, module: &Module, exported: &BTreeMap<&str, BTreeSet<&str>>) -> Vec<Edge> {
    let body = &def.body;
    let gates = Gates::of(def);

    let parent_has = |name: &str| {
        module
            .parent
            .as_deref()
            .is_some_and(|p| exported.get(p).is_some_and(|fns| fns.contains(name)))
    };

    let mut out = Vec::new();
    let mut push = |callee: String, i: usize| {
        out.push(Edge {
            callee,
            ctx_gated: gates.ctx(i),
            mask_gated: gates.mask(i),
        });
    };

    for i in 0..body.len() {
        if body[i].kind != TokenKind::Ident {
            continue;
        }
        let name = body[i].text.as_str();
        // `qual::name(..)` — a call into another parsed module.
        if body.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && body.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && body.get(i + 3).is_some_and(|t| t.kind == TokenKind::Ident)
            && body.get(i + 4).is_some_and(|t| t.is_punct('('))
        {
            let callee = body[i + 3].text.as_str();
            if exported.get(name).is_some_and(|fns| fns.contains(callee)) {
                push(format!("{name}::{callee}"), i);
            }
            continue;
        }
        if !body.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        // `self.name(..)` — method call on the module's own type.
        if i >= 2 && body[i - 1].is_punct('.') {
            if body[i - 2].is_ident("self") && module.fns.contains_key(name) {
                push(format!("{}::{name}", module.name), i);
            }
            continue;
        }
        // Qualified tails (`mem::swap(`) were handled above; a remaining
        // `:`-preceded ident is a path into an unparsed crate.
        if i >= 1 && body[i - 1].is_punct(':') {
            continue;
        }
        // Bare `name(..)`: same module first, then parent imports.
        if module.fns.contains_key(name) && name != def.name {
            push(format!("{}::{name}", module.name), i);
        } else if module.imports.contains(name) && parent_has(name) {
            push(
                format!("{}::{name}", module.parent.as_deref().unwrap_or("")),
                i,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> CallGraph {
        let render = "
            pub(crate) fn kb(bytes: u64) -> u64 { bytes / 1024 }
        ";
        let proc_basic = "
            use super::kb;
            pub fn meminfo(k: &Kernel, view: &View) -> String {
                format!(\"{}\", kb(k.mem().total_bytes()))
            }
        ";
        let fs = "
            impl PseudoFs {
                fn dispatch(&self, k: &Kernel, view: &View, path: &str) -> Option<String> {
                    match view.context {
                        Context::Host => self.note(k),
                        _ => {}
                    }
                    Some(proc_basic::meminfo(k, view))
                }
                fn note(&self, k: &Kernel) {}
            }
        ";
        build(&[
            parse_module("render", None, render),
            parse_module("proc_basic", Some("render"), proc_basic),
            parse_module("fs", None, fs),
        ])
    }

    #[test]
    fn resolves_parent_imports_and_qualified_calls() {
        let g = graph();
        let meminfo = &g.edges["proc_basic::meminfo"];
        assert_eq!(meminfo.len(), 1);
        assert_eq!(meminfo[0].callee, "render::kb");
        let dispatch = &g.edges["fs::dispatch"];
        assert!(dispatch
            .iter()
            .any(|e| e.callee == "proc_basic::meminfo" && !e.ctx_gated));
    }

    #[test]
    fn self_method_calls_carry_gating() {
        let g = graph();
        let note = g.edges["fs::dispatch"]
            .iter()
            .find(|e| e.callee == "fs::note")
            .expect("self.note resolved");
        assert!(note.ctx_gated, "call sits inside `match view.context`");
    }

    #[test]
    fn unresolvable_idents_are_not_edges() {
        let g = graph();
        assert!(g.edges["render::kb"].is_empty());
        // `format!(..)` in meminfo is not an edge.
        assert!(g.edges["proc_basic::meminfo"]
            .iter()
            .all(|e| e.callee == "render::kb"));
    }
}
