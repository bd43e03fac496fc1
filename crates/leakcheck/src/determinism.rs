//! Determinism lint guarding the per-host-RNG-ownership concurrency
//! invariant and the byte-reproducibility the `--jobs 1` vs `--jobs 4`
//! mode matrix depends on.
//!
//! Closures passed to `simkernel::parallel::par_for_each_mut_threads`
//! must only touch their own element: interior mutability, `unsafe`,
//! `static`, or an RNG rooted outside the closure parameter would let
//! partitions race or draw from a shared sequence in scheduling order.
//! Clippy has no lint for this, so it is a token pass; `mod tests`
//! blocks are skipped. Any finding fails the `ci.sh` gate.
//!
//! The other two halves of the robustness contract are clippy's: panic
//! sites (`unwrap_used`, `expect_used`, `panic`, `unreachable`) and
//! hash-order iteration (`iter_over_hash_type` plus the
//! `disallowed-methods` list in `clippy.toml`), enabled in each linted
//! crate's root.

use crate::extract::{functions, matching};
use crate::lexer::{lex, Token, TokenKind};
use serde::Serialize;

/// One determinism finding: shared state in a parallel partition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Hazard {
    /// Workspace-relative path of the file.
    pub file: String,
    /// Enclosing function (best effort; `(module)` at file scope).
    pub function: String,
    /// Human-readable description.
    pub detail: String,
}

/// Lints one source file. `file` is the workspace-relative path used in
/// findings.
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

    let mut out = Vec::new();
    for j in 0..tokens.len() {
        if tokens[j].kind == TokenKind::Ident
            && tokens[j].text == "par_for_each_mut_threads"
            && tokens.get(j + 1).is_some_and(|t| t.is_punct('('))
        {
            for detail in par_closure_hazards(&tokens, j + 1) {
                out.push(Hazard {
                    file: file.to_string(),
                    function: enclosing(tokens[j].line),
                    detail,
                });
            }
        }
    }
    out
}

/// Inspects the closure argument of a `par_for_each_mut_threads` call opening
/// at paren index `open`; returns hazard details found in its body.
fn par_closure_hazards(tokens: &[Token], open: usize) -> Vec<String> {
    let mut out = Vec::new();
    let close = matching(tokens, open, '(', ')');
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
        matching(tokens, body_start, '{', '}')
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

/// Drops `mod tests { … }` blocks (a test's fan-out cannot break shipped
/// determinism, and test helpers would pollute attribution).
fn strip_test_mods(tokens: Vec<Token>) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident("mod")
            && tokens.get(i + 1).is_some_and(|t| t.is_ident("tests"))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('{'))
        {
            i = matching(&tokens, i + 2, '{', '}') + 1;
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
        assert!(
            h[0].detail.contains("RNG rooted at `self`"),
            "{}",
            h[0].detail
        );
    }

    #[test]
    fn par_closure_interior_mutability_is_flagged() {
        let src = "fn f(xs: &mut [X], m: &Mutex<u64>) { par_for_each_mut_threads(xs, 2, |x| { *m.lock() += x.v; }); }";
        let h = lint_file("x/src/a.rs", src);
        assert_eq!(h.len(), 1);
        assert!(h[0].detail.contains("lock"), "{}", h[0].detail);
    }

    /// The pass on the real fan-outs: both are clean, and a shared
    /// `Mutex` seeded at the start of each closure body is one hazard. A
    /// fan-out renamed or moved out of these files fails here instead of
    /// leaving the lint with nothing to inspect.
    #[test]
    fn seeded_mutex_in_each_real_fan_out_is_one_hazard() {
        const MUTANT: &str = "let _ = std::sync::Mutex::new(0u8);";
        for rel in [
            "crates/campaign/src/runner.rs",
            "crates/core/src/experiments.rs",
        ] {
            let src = std::fs::read_to_string(crate::workspace_root().join(rel))
                .unwrap_or_else(|e| panic!("read {rel}: {e}"));
            assert!(lint_file(rel, &src).is_empty(), "{rel} has hazards");
            // Insert after the `{` opening each `|param| {` closure body.
            let mut mutant = String::new();
            let mut rest = src.as_str();
            let mut seeded = 0;
            while let Some(at) = rest.find("par_for_each_mut_threads(") {
                let (head, tail) = rest.split_at(at);
                let body = tail
                    .find("| {")
                    .unwrap_or_else(|| panic!("{rel}: fan-out without a `|x| {{` closure"))
                    + 3;
                mutant.push_str(head);
                mutant.push_str(&tail[..body]);
                mutant.push_str(MUTANT);
                rest = &tail[body..];
                seeded += 1;
            }
            mutant.push_str(rest);
            assert_eq!(seeded, 1, "{rel}: expected one fan-out");
            let hazards = lint_file(rel, &mutant);
            assert_eq!(hazards.len(), 1, "{rel}: {hazards:?}");
            assert!(hazards[0].detail.contains("`Mutex`"), "{hazards:?}");
        }
    }

    #[test]
    fn test_modules_are_skipped() {
        let src = "
            mod tests {
                fn t(xs: &mut [X], m: &Mutex<u64>) {
                    par_for_each_mut_threads(xs, 2, |x| { *m.lock() += x.v; });
                }
            }
        ";
        assert!(lint_file("x/src/a.rs", src).is_empty());
    }
}
