//! Per-function extraction: find every `fn` in a token stream and record
//! its name, which parameters bind the kernel and the view, its return
//! type, and its body.

use std::collections::BTreeSet;

use crate::lexer::{Token, TokenKind};

/// One function definition pulled out of a module's token stream.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// The parameter bound to `&Kernel`, if any (e.g. `k`, `_k`).
    pub kernel_param: Option<String>,
    /// The parameter bound to `&View`, if any (e.g. `view`, `_view`).
    pub view_param: Option<String>,
    /// Return-type tokens, between (and excluding) the `->` arrow and the
    /// body's opening brace; empty for `fn f(..) { .. }`.
    pub ret: Vec<Token>,
    /// True when some parameter is an `&mut` out-parameter (the
    /// renderers' `out: &mut String`).
    pub out_param: bool,
    /// Body tokens, between (and excluding) the outermost braces.
    pub body: Vec<Token>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
}

impl FnDef {
    /// Whether the function can hand data back to its caller: a non-unit
    /// return type or an `&mut` out-parameter. Functions returning `()`
    /// with only shared references (trace side effects, logging) cannot
    /// flow kernel state into a caller's rendered bytes.
    pub fn returns_data(&self) -> bool {
        if self.out_param {
            return true;
        }
        // `-> ()` is unit spelled explicitly.
        !(self.ret.is_empty()
            || (self.ret.len() == 2 && self.ret[0].is_punct('(') && self.ret[1].is_punct(')')))
    }
}

/// Extracts every function from `tokens`, skipping nested `mod` blocks
/// (which in the audited sources are only `#[cfg(test)] mod tests`).
pub fn functions(tokens: &[Token]) -> Vec<FnDef> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident("mod")
            && tokens
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::Ident)
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('{'))
        {
            i = skip_braced(tokens, i + 2);
            continue;
        }
        if tokens[i].is_ident("fn")
            && tokens
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::Ident)
            && tokens
                .get(i + 2)
                .is_some_and(|t| t.is_punct('(') || t.is_punct('<'))
        {
            let name = tokens[i + 1].text.clone();
            let line = tokens[i].line;
            let paren = if tokens[i + 2].is_punct('<') {
                skip_generics(tokens, i + 2)
            } else {
                i + 2
            };
            if !tokens.get(paren).is_some_and(|t| t.is_punct('(')) {
                i += 2;
                continue;
            }
            let params_start = paren + 1;
            let params_end = matching(tokens, paren, '(', ')');
            let params = &tokens[params_start..params_end];
            let (kernel_param, view_param) = bind_params(params);
            let out_param = has_out_param(params);
            // Scan past the return type to the body's opening brace,
            // bracket-depth-aware so braces *inside* the return type
            // (`-> impl Fn(&[u8; { N }])`, const-generic arrays) are not
            // mistaken for the body.
            let mut j = params_end + 1;
            let mut depth = 0i32;
            while j < tokens.len() {
                let t = &tokens[j];
                if t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                } else if depth == 0 && (t.is_punct('{') || t.is_punct(';')) {
                    break;
                }
                j += 1;
            }
            if j >= tokens.len() || tokens[j].is_punct(';') {
                i = j + 1; // trait method signature; none expected, but be safe
                continue;
            }
            let ret = ret_tokens(&tokens[params_end + 1..j]);
            let body_end = matching(tokens, j, '{', '}');
            out.push(FnDef {
                name,
                kernel_param,
                view_param,
                ret,
                out_param,
                body: tokens[j + 1..body_end].to_vec(),
                line,
            });
            i = body_end + 1;
            continue;
        }
        i += 1;
    }
    out
}

/// Index of the token closing the bracket opened at `open` (which must
/// hold the opening character). Returns the last index when unbalanced.
pub(crate) fn matching(tokens: &[Token], open: usize, o: char, c: char) -> usize {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// Index one past the end of the brace block opening at `open`.
fn skip_braced(tokens: &[Token], open: usize) -> usize {
    matching(tokens, open, '{', '}') + 1
}

/// Index of the first token after the generic parameter list opening at
/// `open` (which holds `<`). `->` arrows inside bounds don't close it.
fn skip_generics(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !(j > 0 && tokens[j - 1].is_punct('-')) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// The return-type tokens from a signature tail (everything between the
/// parameter list's `)` and the body's `{`): tokens after the `->` arrow,
/// with a trailing `where` clause stripped.
fn ret_tokens(tail: &[Token]) -> Vec<Token> {
    let arrow = tail
        .windows(2)
        .position(|w| w[0].is_punct('-') && w[1].is_punct('>'));
    let Some(arrow) = arrow else {
        return Vec::new();
    };
    let after = &tail[arrow + 2..];
    let end = after
        .iter()
        .position(|t| t.is_ident("where"))
        .unwrap_or(after.len());
    after[..end].to_vec()
}

/// Whether any parameter group contains an `&mut` out-parameter.
fn has_out_param(params: &[Token]) -> bool {
    params
        .windows(2)
        .any(|w| w[0].is_punct('&') && w[1].is_ident("mut"))
}

/// Names a module imports from its parent via `use super::name;` or
/// `use super::{a, b};` — the only cross-module call shape that appears
/// as a bare identifier at the call site.
pub fn super_imports(tokens: &[Token]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for i in 0..tokens.len() {
        if !(tokens[i].is_ident("use")
            && tokens.get(i + 1).is_some_and(|t| t.is_ident("super"))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 3).is_some_and(|t| t.is_punct(':')))
        {
            continue;
        }
        match tokens.get(i + 4) {
            Some(t) if t.is_punct('{') => {
                let close = matching(tokens, i + 4, '{', '}');
                for t in &tokens[i + 5..close.min(tokens.len())] {
                    if t.kind == TokenKind::Ident && t.text != "self" && t.text != "as" {
                        out.insert(t.text.clone());
                    }
                }
            }
            Some(t) if t.kind == TokenKind::Ident => {
                out.insert(t.text.clone());
            }
            _ => {}
        }
    }
    out
}

/// Splits a parameter list on top-level commas and finds which parameter
/// names bind the `Kernel` and the `View` (by type-token inspection).
fn bind_params(params: &[Token]) -> (Option<String>, Option<String>) {
    let mut kernel = None;
    let mut view = None;
    let mut depth = 0i32;
    let mut start = 0;
    let mut groups: Vec<&[Token]> = Vec::new();
    for (j, t) in params.iter().enumerate() {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            groups.push(&params[start..j]);
            start = j + 1;
        }
    }
    if start < params.len() {
        groups.push(&params[start..]);
    }
    for g in groups {
        let name = g
            .iter()
            .find(|t| t.kind == TokenKind::Ident && t.text != "mut")
            .map(|t| t.text.clone());
        let Some(name) = name else { continue };
        if g.iter().any(|t| t.is_ident("Kernel")) {
            kernel = Some(name);
        } else if g.iter().any(|t| t.is_ident("View")) {
            view = Some(name);
        }
    }
    (kernel, view)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn finds_functions_and_params() {
        let src = "
            pub fn cpuinfo(k: &Kernel, view: &View) -> String { k.config() }
            fn helper(_k: &Kernel, _view: &View, out: &mut String) {}
        ";
        let fns = functions(&lex(src));
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "cpuinfo");
        assert_eq!(fns[0].kernel_param.as_deref(), Some("k"));
        assert_eq!(fns[0].view_param.as_deref(), Some("view"));
        assert!(fns[0].body.iter().any(|t| t.is_ident("config")));
        assert_eq!(fns[1].kernel_param.as_deref(), Some("_k"));
        assert_eq!(fns[1].view_param.as_deref(), Some("_view"));
    }

    #[test]
    fn skips_test_modules() {
        let src = "
            pub fn real(k: &Kernel) -> u64 { 0 }
            mod tests { fn fake(k: &Kernel) {} }
        ";
        let fns = functions(&lex(src));
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "real");
    }

    #[test]
    fn fn_pointer_types_are_not_defs() {
        let src = "pub fn f(k: &Kernel) { let sum = |g: fn(&X) -> u64| -> u64 { g(x) }; }";
        let fns = functions(&lex(src));
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "f");
    }

    #[test]
    fn generic_functions_are_extracted() {
        let src = "pub fn par<T, F>(items: &mut [T], f: F) where F: Fn(&mut T) -> u64 { body() }";
        let fns = functions(&lex(src));
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "par");
        assert!(fns[0].body.iter().any(|t| t.is_ident("body")));
    }

    #[test]
    fn nested_braces_in_bodies() {
        let src = "fn a(view: &View) { match view.context { A => {} B => {} } } fn b() {}";
        let fns = functions(&lex(src));
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[1].name, "b");
    }

    #[test]
    fn where_clause_is_not_part_of_the_return_type() {
        let src = "fn pick<T>(k: &Kernel) -> Vec<T> where T: Clone { body() }";
        let fns = functions(&lex(src));
        assert_eq!(fns.len(), 1);
        let ret: Vec<&str> = fns[0].ret.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(ret, ["Vec", "<", "T", ">"]);
        assert!(fns[0].returns_data());
        assert!(fns[0].body.iter().any(|t| t.is_ident("body")));
    }

    #[test]
    fn impl_fn_return_types_do_not_truncate_the_body() {
        // The `(` in `impl Fn(..)` must not make the scan treat the
        // closure-arg parens as the body boundary.
        let src = "
            fn make(k: &Kernel) -> impl Fn(&View) -> String { move |v| body(v) }
            fn after() {}
        ";
        let fns = functions(&lex(src));
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "make");
        assert!(fns[0].returns_data());
        assert!(fns[0].body.iter().any(|t| t.is_ident("body")));
        assert_eq!(fns[1].name, "after");
    }

    #[test]
    fn nested_mods_are_skipped_recursively() {
        let src = "
            mod outer { fn hidden_a() {} mod inner { fn hidden_b() {} } }
            fn visible(k: &Kernel) {}
        ";
        let fns = functions(&lex(src));
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "visible");
    }

    #[test]
    fn out_params_and_unit_returns_drive_returns_data() {
        let src = "
            fn fast_into(k: &Kernel, view: &View, out: &mut String) {}
            fn note(k: &Kernel) {}
            fn unit_explicit(k: &Kernel) -> () {}
            fn value(k: &Kernel) -> u64 { 0 }
        ";
        let fns = functions(&lex(src));
        assert_eq!(fns.len(), 4);
        assert!(fns[0].out_param);
        assert!(fns[0].returns_data());
        assert!(!fns[1].returns_data());
        assert!(!fns[2].returns_data(), "-> () is unit spelled explicitly");
        assert!(fns[3].returns_data());
    }

    #[test]
    fn super_imports_cover_both_use_shapes() {
        let src = "
            use super::{jiffies, kb};
            use super::pad;
            use std::fmt::Write;
            fn f() {}
        ";
        let imports = super_imports(&lex(src));
        let got: Vec<&str> = imports.iter().map(|s| s.as_str()).collect();
        assert_eq!(got, ["jiffies", "kb", "pad"]);
    }
}
