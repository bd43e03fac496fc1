//! Determinism lints guarding the per-host-RNG-ownership concurrency
//! invariant (PR 1) and the byte-reproducibility the `ci.sh` `--jobs 1`
//! vs `--jobs 4` comparison depends on.
//!
//! Two passes:
//!
//! 1. **Hash-order iteration**: `HashMap`/`HashSet` iteration order is
//!    randomized per process, so any iteration whose effect depends on
//!    order (rendered output, float accumulation, RNG draws) breaks
//!    cross-run determinism. Declared `HashMap`/`HashSet` fields and
//!    typed locals are tracked; iterations over them are flagged unless
//!    the consuming expression is order-insensitive (sorted afterwards,
//!    or folded through an integer `sum`/`count`/`min`/`max`-style sink;
//!    a float sink re-flags, as float addition is not associative).
//! 2. **Parallel shared state**: closures passed to
//!    `simkernel::parallel::par_for_each_mut_threads` must only touch
//!    their own element — interior mutability, `unsafe`, `static`, or an
//!    RNG rooted outside the closure parameter would let partitions race
//!    or draw from a shared sequence in scheduling order.
//!
//! 3. **Panic surface**: `.unwrap()` / `.expect()` calls and the
//!    `panic!`-family macros in non-test simulation code. The robustness
//!    contract (see `core::faultmatrix`) is that injected faults surface
//!    as structured degradation, never a crash — so every site that *can*
//!    panic must either be converted to an error path or reviewed and
//!    justified as a true invariant (construction-time, arithmetic on
//!    validated inputs) in [`ACCEPTED_PANICS`]. One hazard per function,
//!    carrying the per-kind counts.
//!
//! All passes skip `mod tests` blocks. Findings carried by the
//! committed `leakcheck.json` snapshot are the reviewed allowlist; the
//! [`ACCEPTED`] and [`ACCEPTED_PANICS`] tables record why each is
//! harmless, and anything new fails the `ci.sh` gate.

use crate::extract::functions;
use crate::lexer::{lex, Token, TokenKind};

/// Iterator-producing methods whose order is the map's internal order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
];

/// Order-insensitive sinks that sanction a hash iteration.
const SANCTIONS: &[&str] = &[
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "sum",
    "count",
    "any",
    "all",
    "max",
    "min",
    "max_by",
    "max_by_key",
    "min_by",
    "min_by_key",
    "len",
    "is_empty",
    "entry",
    "or_insert",
];

/// Reviewed findings: (file suffix, function, reason). These still
/// appear in the report (and the snapshot), marked accepted.
pub const ACCEPTED: &[(&str, &str, &str)] = &[];

/// Reviewed panic-surface findings: (file suffix, function, reason).
/// Every entry is a site that cannot fire under injected faults — a
/// construction-time invariant, arithmetic on already-validated inputs,
/// or an explicitly documented precondition — reviewed when the
/// fault-injection layer landed. New panic sites in the simulation
/// crates fail the snapshot gate until converted to an error path or
/// justified here.
pub const ACCEPTED_PANICS: &[(&str, &str, &str)] = &[
    (
        "simkernel/src/churn.rs",
        "create",
        "env creation on a kernel the driver owns only fails on cgroup \
         bookkeeping bugs; the campaign catches the panic per-scenario \
         and reports it with a repro seed instead of masking the bug",
    ),
    (
        "simkernel/src/churn.rs",
        "step",
        "destroying an env the driver itself created cannot miss; a \
         failure is a teardown bug the fuzzer must surface loudly (the \
         campaign converts the panic into a structured outcome)",
    ),
    (
        "simkernel/src/churn.rs",
        "teardown_all",
        "destroying an env the driver itself created cannot miss; a \
         failure is a teardown bug the fuzzer must surface loudly (the \
         campaign converts the panic into a structured outcome)",
    ),
    (
        "cloudsim/src/lib.rs",
        "boot_runtime",
        "seeds the background tenant on a freshly booted host (fleet \
         construction or reboot): an empty runtime always admits the \
         background container and its services",
    ),
    (
        "cloudsim/src/placement.rs",
        "choose",
        "capacity-index invariants: a count observed in the ordered set \
         has a first slot at that count, and the histogram prefix sums \
         bound the Random draw — both pinned against the linear scan by \
         index_matches_linear_scan_across_churn",
    ),
    (
        "core/src/defended.rs",
        "new",
        "fleet construction: the defended hosts are fresh and always \
         admit their background container",
    ),
    (
        "leakscan/src/coresidence.rs",
        "probe_latency",
        "resolves the instance pair under evaluation; the simulated \
         cloud never evicts instances mid-probe",
    ),
    (
        "leakscan/src/inspect.rs",
        "inspect_profile",
        "launches the probe into a fresh single-host cloud with \
         guaranteed capacity",
    ),
    (
        "leakscan/src/inspect.rs",
        "measure",
        "resolves the probe instance it just launched into a fresh \
         inspection cloud",
    ),
    (
        "leakscan/src/lab.rs",
        "with_machine",
        "lab construction: fresh kernels always admit the probe \
         container and its processes; runs before faults are installed",
    ),
    (
        "leakscan/src/lab.rs",
        "container_view",
        "the probe container is created in the constructor and never \
         destroyed for the lab's lifetime",
    ),
    (
        "leakscan/src/metrics.rs",
        "assess_all",
        "implants target the lab's own probe container, which exists by \
         construction; pseudo-fs read faults cannot reach exec/implant",
    ),
    (
        "simkernel/src/kernel.rs",
        "new",
        "construction-time validation: a kernel never exists with an \
         invalid machine configuration",
    ),
    (
        "simkernel/src/time.rs",
        "advance",
        "u128 nanosecond arithmetic cannot overflow within any \
         representable simulation horizon",
    ),
    (
        "leakcheck/src/classify.rs",
        "analyze_module",
        "the facts map is seeded from the same function list the \
         fixpoint loop iterates, so the lookup cannot miss",
    ),
    (
        "leakcheck/src/lib.rs",
        "workspace_root",
        "compile-time manifest path: CARGO_MANIFEST_DIR always sits two \
         levels below the workspace root in this repository layout",
    ),
    (
        "leakcheck/src/report.rs",
        "to_json",
        "the report is plain strings, bools and vectors; serde_json \
         serialization of such values cannot fail",
    ),
];

/// The panic-capable method calls the surface pass counts.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// The panic-family macros the surface pass counts.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// How far past an iteration site the sanction scan looks, in tokens.
const SANCTION_WINDOW: usize = 120;

/// One determinism finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hazard {
    /// Workspace-relative path of the file.
    pub file: String,
    /// Enclosing function (best effort; `(module)` at file scope).
    pub function: String,
    /// Finding class: `hash-order-iteration` or `parallel-shared-state`.
    pub kind: String,
    /// Human-readable description.
    pub detail: String,
    /// True when the [`ACCEPTED`] table covers this finding.
    pub accepted: bool,
    /// The acceptance reason (empty when not accepted).
    pub reason: String,
}

/// Lints one source file. `file` is the workspace-relative path used in
/// findings and for [`ACCEPTED`] matching.
pub fn lint_file(file: &str, src: &str) -> Vec<Hazard> {
    let tokens = strip_test_mods(lex(src));
    let fn_starts: Vec<(u32, String)> = functions(&tokens)
        .iter()
        .map(|f| (f.line, f.name.clone()))
        .collect();
    let enclosing = |line: u32| -> String {
        fn_starts
            .iter()
            .rfind(|(l, _)| *l <= line)
            .map(|(_, n)| n.clone())
            .unwrap_or_else(|| "(module)".to_string())
    };

    let fields = hash_fields(&tokens);
    let mut out = Vec::new();

    for j in 2..tokens.len() {
        if tokens[j].kind == TokenKind::Ident
            && ITER_METHODS.contains(&tokens[j].text.as_str())
            && tokens[j - 1].is_punct('.')
            && tokens.get(j + 1).is_some_and(|t| t.is_punct('('))
            && tokens[j - 2].kind == TokenKind::Ident
            && fields.contains(&tokens[j - 2].text)
        {
            if sanctioned(&tokens, j) {
                continue;
            }
            let function = enclosing(tokens[j].line);
            let detail = format!(
                "iteration over hash-ordered `{}` via `.{}()` with no \
                 order-insensitive sink or sort in reach",
                tokens[j - 2].text,
                tokens[j].text,
            );
            out.push(hazard(file, function, "hash-order-iteration", detail));
        }
    }

    for j in 0..tokens.len() {
        if tokens[j].kind == TokenKind::Ident
            && tokens[j].text == "par_for_each_mut_threads"
            && tokens.get(j + 1).is_some_and(|t| t.is_punct('('))
        {
            for detail in par_closure_hazards(&tokens, j + 1) {
                out.push(hazard(
                    file,
                    enclosing(tokens[j].line),
                    "parallel-shared-state",
                    detail,
                ));
            }
        }
    }

    for f in functions(&tokens) {
        if let Some(detail) = panic_surface(&f.body) {
            out.push(hazard_in(
                ACCEPTED_PANICS,
                file,
                f.name.clone(),
                "panic-surface",
                detail,
            ));
        }
    }
    out
}

/// Counts the panic-capable sites in one function body; `None` when the
/// function cannot panic through any of the tracked forms.
fn panic_surface(body: &[Token]) -> Option<String> {
    let mut counts = [0usize; 6]; // unwrap, expect, panic!, unreachable!, todo!, unimplemented!
    for (i, t) in body.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        if i > 0 && body[i - 1].is_punct('.') && body.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            if let Some(k) = PANIC_METHODS.iter().position(|m| *m == name) {
                counts[k] += 1;
            }
        }
        if body.get(i + 1).is_some_and(|n| n.is_punct('!')) {
            if let Some(k) = PANIC_MACROS.iter().position(|m| *m == name) {
                counts[2 + k] += 1;
            }
        }
    }
    let total: usize = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let labels = [
        ".unwrap()",
        ".expect()",
        "panic!",
        "unreachable!",
        "todo!",
        "unimplemented!",
    ];
    let breakdown: Vec<String> = counts
        .iter()
        .zip(labels)
        .filter(|(c, _)| **c > 0)
        .map(|(c, l)| format!("{c}x {l}"))
        .collect();
    Some(format!(
        "{total} panic-capable site(s) in non-test code: {}",
        breakdown.join(", ")
    ))
}

fn hazard(file: &str, function: String, kind: &str, detail: String) -> Hazard {
    hazard_in(ACCEPTED, file, function, kind, detail)
}

fn hazard_in(
    table: &[(&str, &str, &str)],
    file: &str,
    function: String,
    kind: &str,
    detail: String,
) -> Hazard {
    let accepted = table
        .iter()
        .find(|(f, func, _)| file.ends_with(f) && *func == function);
    Hazard {
        file: file.to_string(),
        function,
        kind: kind.to_string(),
        detail,
        accepted: accepted.is_some(),
        reason: accepted.map(|(_, _, r)| r.to_string()).unwrap_or_default(),
    }
}

/// Names declared with `: HashMap<…>` / `: HashSet<…>` (struct fields,
/// typed locals, typed params), with `std::collections::` paths allowed.
fn hash_fields(tokens: &[Token]) -> Vec<String> {
    let mut out = Vec::new();
    for j in 0..tokens.len() {
        if !(tokens[j].is_ident("HashMap") || tokens[j].is_ident("HashSet")) {
            continue;
        }
        if !tokens.get(j + 1).is_some_and(|t| t.is_punct('<')) {
            continue;
        }
        // Walk back over any `path::` segments to the declaring `name :`.
        let mut p = j;
        while p >= 3
            && tokens[p - 1].is_punct(':')
            && tokens[p - 2].is_punct(':')
            && tokens[p - 3].kind == TokenKind::Ident
        {
            p -= 3;
        }
        // References (`: &HashMap<…>`, `: &mut HashMap<…>`) declare too.
        while p >= 1 && (tokens[p - 1].is_punct('&') || tokens[p - 1].is_ident("mut")) {
            p -= 1;
        }
        if p >= 2
            && tokens[p - 1].is_punct(':')
            && !tokens[p - 2].is_punct(':')
            && tokens[p - 2].kind == TokenKind::Ident
        {
            out.push(tokens[p - 2].text.clone());
        }
    }
    out
}

/// True when the iteration at token `j` reaches an order-insensitive
/// sink with no float accumulation on the way.
fn sanctioned(tokens: &[Token], j: usize) -> bool {
    let end = (j + SANCTION_WINDOW).min(tokens.len());
    let sink = tokens[j + 1..end]
        .iter()
        .position(|t| t.kind == TokenKind::Ident && SANCTIONS.contains(&t.text.as_str()));
    match sink {
        None => false,
        Some(rel) => !tokens[j + 1..j + 1 + rel]
            .iter()
            .any(|t| t.is_ident("f64") || t.is_ident("f32")),
    }
}

/// Inspects the closure argument of a `par_for_each_mut_threads` call opening
/// at paren index `open`; returns hazard details found in its body.
fn par_closure_hazards(tokens: &[Token], open: usize) -> Vec<String> {
    let mut out = Vec::new();
    let close = matching_paren(tokens, open);
    // Find the closure: `|param|` then a block or expression.
    let mut i = open + 1;
    while i < close && !tokens[i].is_punct('|') {
        i += 1;
    }
    if i >= close {
        return out; // no closure literal (e.g. a named fn argument)
    }
    let param = match tokens.get(i + 1) {
        Some(t) if t.kind == TokenKind::Ident => t.text.clone(),
        _ => return out,
    };
    if !tokens.get(i + 2).is_some_and(|t| t.is_punct('|')) {
        return out; // multi-parameter closure; not the fan-out shape
    }
    let body_start = i + 3;
    let body_end = if tokens.get(body_start).is_some_and(|t| t.is_punct('{')) {
        brace_close(tokens, body_start)
    } else {
        close
    };
    let body = &tokens[body_start..body_end];

    for (b, t) in body.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let shared = matches!(
            t.text.as_str(),
            "Mutex" | "RwLock" | "RefCell" | "Cell" | "UnsafeCell"
        ) || t.text.starts_with("Atomic")
            || t.text == "unsafe"
            || t.text == "static"
            || t.text == "thread_rng";
        if shared {
            out.push(format!(
                "`{}` inside a par_for_each_mut_threads closure: shared state or \
                 nondeterministic source crossing partitions",
                t.text
            ));
        }
        // Interior-mutability method calls on a captured handle: the
        // type name lives in the signature, but `.lock()` on something
        // that isn't the closure's own element gives it away.
        let interior = matches!(
            t.text.as_str(),
            "lock" | "borrow_mut" | "fetch_add" | "fetch_sub" | "fetch_or" | "store"
        ) && b > 0
            && body[b - 1].is_punct('.')
            && body.get(b + 1).is_some_and(|n| n.is_punct('('));
        if interior && chain_root(body, b) != param {
            out.push(format!(
                "`.{}()` on captured `{}` inside a par_for_each_mut_threads \
                 closure: shared mutable state crossing partitions",
                t.text,
                chain_root(body, b)
            ));
        }
        if t.text == "rng" {
            let root = chain_root(body, b);
            if root != param {
                out.push(format!(
                    "RNG rooted at `{root}` (not the closure element \
                     `{param}`) drawn inside a parallel partition"
                ));
            }
        }
    }
    out
}

/// The first identifier of the field-access chain ending at `idx`
/// (`h.kernel.rng` → `h`).
fn chain_root(tokens: &[Token], idx: usize) -> String {
    let mut i = idx;
    while i >= 2 && tokens[i - 1].is_punct('.') && tokens[i - 2].kind == TokenKind::Ident {
        i -= 2;
    }
    tokens[i].text.clone()
}

fn matching_paren(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    tokens.len()
}

fn brace_close(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    tokens.len()
}

/// Drops `mod tests { … }` blocks (test-only hash iteration can't break
/// shipped determinism, and test helpers would pollute attribution).
fn strip_test_mods(tokens: Vec<Token>) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident("mod")
            && tokens.get(i + 1).is_some_and(|t| t.is_ident("tests"))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('{'))
        {
            i = brace_close(&tokens, i + 2) + 1;
            continue;
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_unsorted_hash_iteration() {
        let src = "
            struct S { m: HashMap<u32, u64> }
            impl S { fn render(&self) -> String {
                let mut out = String::new();
                for (k, v) in self.m.iter() { out.push_str(&format!(\"{k} {v}\")); }
                out
            } }
        ";
        let h = lint_file("x/src/a.rs", src);
        assert_eq!(h.len(), 1);
        assert_eq!(h[0].kind, "hash-order-iteration");
        assert_eq!(h[0].function, "render");
        assert!(!h[0].accepted);
    }

    #[test]
    fn sorted_or_integer_folded_iteration_is_clean() {
        let src = "
            struct S { m: HashMap<u32, u64> }
            impl S {
                fn sorted(&self) -> Vec<u64> {
                    let mut v: Vec<u64> = self.m.values().copied().collect();
                    v.sort_unstable();
                    v
                }
                fn total(&self) -> u64 { self.m.values().sum() }
                fn n(&self) -> usize { self.m.keys().count() }
            }
        ";
        assert!(lint_file("x/src/a.rs", src).is_empty());
    }

    #[test]
    fn float_sum_over_hash_order_is_flagged() {
        let src = "
            fn entropy(counts: &HashMap<u64, usize>) -> f64 {
                counts.values().map(|c| *c as f64).sum()
            }
        ";
        let h = lint_file("x/src/a.rs", src);
        assert_eq!(h.len(), 1, "float accumulation is order-sensitive");
    }

    #[test]
    fn pointwise_entry_updates_are_clean() {
        let src = "
            struct S { nodes: HashMap<u32, Node> }
            impl S { fn reg(&mut self, iface: &str) {
                for n in self.nodes.values_mut() {
                    n.map.entry(iface.to_string()).or_insert(0);
                }
            } }
        ";
        assert!(lint_file("x/src/a.rs", src).is_empty());
    }

    #[test]
    fn test_modules_are_skipped() {
        let src = "
            struct S { m: HashMap<u32, u64> }
            mod tests {
                fn t(s: &S) { for v in s.m.values() { drop(v); } }
            }
        ";
        assert!(lint_file("x/src/a.rs", src).is_empty());
    }

    #[test]
    fn par_closure_element_rng_is_clean_shared_rng_is_not() {
        let clean =
            "fn step(hosts: &mut [H]) { par_for_each_mut_threads(hosts, 4, |h| { h.kernel.rng.next(); }); }";
        assert!(lint_file("x/src/a.rs", clean).is_empty());
        let dirty = "
            impl C { fn step(&mut self) {
                par_for_each_mut_threads(&mut self.hosts, 4, |h| { h.tick(self.rng.next()); });
            } }
        ";
        let h = lint_file("x/src/a.rs", dirty);
        assert_eq!(h.len(), 1);
        assert_eq!(h[0].kind, "parallel-shared-state");
    }

    #[test]
    fn par_closure_interior_mutability_is_flagged() {
        let src = "fn f(xs: &mut [X], m: &Mutex<u64>) { par_for_each_mut_threads(xs, 2, |x| { *m.lock() += x.v; }); }";
        let h = lint_file("x/src/a.rs", src);
        assert_eq!(h.len(), 1);
        assert!(h[0].detail.contains("lock"), "{}", h[0].detail);
    }

    #[test]
    fn panic_surface_counts_per_function() {
        let src = "
            fn shaky(x: Option<u32>) -> u32 {
                let v = x.unwrap();
                if v > 10 { panic!(\"too big\") }
                v.checked_add(1).expect(\"overflow\")
            }
            fn solid(x: Option<u32>) -> u32 { x.unwrap_or(0) }
        ";
        let h = lint_file("x/src/a.rs", src);
        assert_eq!(h.len(), 1, "{h:?}");
        assert_eq!(h[0].kind, "panic-surface");
        assert_eq!(h[0].function, "shaky");
        assert!(
            h[0].detail.contains("3 panic-capable site(s)"),
            "{}",
            h[0].detail
        );
        assert!(h[0].detail.contains("1x .unwrap()"), "{}", h[0].detail);
        assert!(h[0].detail.contains("1x .expect()"), "{}", h[0].detail);
        assert!(h[0].detail.contains("1x panic!"), "{}", h[0].detail);
        assert!(!h[0].accepted);
    }

    #[test]
    fn panic_surface_skips_test_modules_and_non_calls() {
        let src = "
            fn fine() -> u32 { 1 }
            mod tests {
                fn t() { Some(1).unwrap(); panic!(\"test-only\"); }
            }
        ";
        assert!(lint_file("x/src/a.rs", src).is_empty());
        // `unwrap_or` / a field named `expect` are not panic sites.
        let src2 = "fn f(o: Option<u32>, s: &S) -> u32 { o.unwrap_or(s.expect) }";
        assert!(lint_file("x/src/a.rs", src2).is_empty());
    }

    #[test]
    fn accepted_panic_sites_keep_their_reason() {
        let src =
            "fn new(cfg: MachineConfig) -> Self { cfg.validate().expect(\"valid\"); boot(cfg) }";
        let h = lint_file("crates/simkernel/src/kernel.rs", src);
        assert_eq!(h.len(), 1);
        assert_eq!(h[0].kind, "panic-surface");
        assert!(h[0].accepted);
        assert!(!h[0].reason.is_empty());
    }

    #[test]
    fn a_pruned_finding_is_flagged_again() {
        // `refresh_rss_memo` once iterated a `HashMap` under a reviewed
        // allowlist entry; the entry is gone, so a return of the hash
        // iteration is an unreviewed finding.
        let src = "
            struct K { by_cgroup: HashMap<u32, u64> }
            impl K { fn refresh_rss_memo(&mut self) {
                for (cg, b) in self.by_cgroup.iter() { self.set(*cg, *b); }
            } }
        ";
        let h = lint_file("crates/simkernel/src/kernel.rs", src);
        assert_eq!(h.len(), 1);
        assert_eq!(h[0].kind, "hash-order-iteration");
        assert!(!h[0].accepted);
        assert!(h[0].reason.is_empty());
    }
}
