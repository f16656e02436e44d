//! A lightweight semantic model of one Rust file, built from the token
//! stream: item boundaries (functions, impl blocks), per-function call
//! sites with string-literal arguments, indexing sites, and `// hot-path`
//! markers. The model is approximate by design — no type checking, no
//! name resolution beyond paths-as-written — but it is exactly the level
//! the cross-crate rules need: which function am I in, what does it call,
//! and what literal did it pass.

use crate::lex::{Tok, TokKind};
use crate::mask::{line_col, Masked};

/// How a call site was written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `helper(…)` — a bare path-less call.
    Plain,
    /// `x.helper(…)` — a method call.
    Method,
    /// `Type::helper(…)` — a qualified call (last two path segments).
    Path,
    /// `helper!(…)` — a macro invocation.
    Macro,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Last path segment of the callee (`named` in `Pcg32::named`).
    pub name: String,
    /// Second-to-last path segment for [`CallKind::Path`] calls, with
    /// `Self` resolved to the enclosing impl type when known.
    pub qual: Option<String>,
    /// Syntactic form of the call.
    pub kind: CallKind,
    /// Byte offset of the callee token.
    pub offset: usize,
    /// Content and offset of the first top-level string-literal argument.
    pub first_str_arg: Option<(String, usize)>,
}

impl CallSite {
    /// `Qual::name` for qualified calls, `name` otherwise.
    pub fn callee(&self) -> String {
        match &self.qual {
            Some(q) => format!("{q}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One `fn` item (including trait-method declarations and nested fns).
#[derive(Debug, Clone)]
pub struct FnModel {
    /// The function's name.
    pub name: String,
    /// Enclosing `impl` type, when the fn is an associated item.
    pub impl_type: Option<String>,
    /// Byte offset of the `fn` keyword.
    pub sig_offset: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Byte range of the body block, `None` for bodiless declarations.
    pub body: Option<(usize, usize)>,
    /// Whether the fn sits inside a `#[cfg(test)]` / `#[test]` region.
    pub in_test: bool,
    /// Whether a `// hot-path` marker comment annotates the fn.
    pub hot_marked: bool,
    /// Call sites attributed to this fn (innermost fn wins for nesting).
    pub calls: Vec<CallSite>,
    /// Byte offsets of `expr[…]` indexing sites in the body.
    pub index_sites: Vec<usize>,
}

impl FnModel {
    /// `Type::name` for associated fns, `name` otherwise.
    pub fn qualified(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The per-file model: every fn in source order.
#[derive(Debug, Default)]
pub struct FileModel {
    /// Functions in source order.
    pub fns: Vec<FnModel>,
}

/// Byte ranges of `#[cfg(test)]` / `#[test]` items in masked text.
pub(crate) fn test_regions(masked: &str) -> Vec<(usize, usize)> {
    let bytes = masked.as_bytes();
    let mut regions = Vec::new();
    let mut search = 0usize;
    while let Some(pos) = masked[search..].find("#[") {
        let attr_start = search + pos;
        // Find the matching `]` (attributes can nest brackets).
        let mut depth = 0i32;
        let mut j = attr_start;
        let mut attr_end = None;
        while j < bytes.len() {
            match bytes[j] {
                b'[' => depth += 1,
                b']' => {
                    depth -= 1;
                    if depth == 0 {
                        attr_end = Some(j);
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let Some(attr_end) = attr_end else { break };
        let attr = &masked[attr_start..=attr_end];
        let is_test_attr = attr.contains("cfg(test") || attr.contains("#[test]")
            || attr.trim_end_matches(']').trim_start_matches("#[").trim() == "test";
        search = attr_end + 1;
        if !is_test_attr {
            continue;
        }
        // Skip whitespace and further attributes, then bracket-match the
        // item body. A `;` first means a declaration without a body.
        let mut k = attr_end + 1;
        let mut body_start = None;
        while k < bytes.len() {
            match bytes[k] {
                b'{' => {
                    body_start = Some(k);
                    break;
                }
                b';' => break,
                _ => k += 1,
            }
        }
        let Some(body_start) = body_start else { continue };
        let mut depth = 0i32;
        let mut end = bytes.len();
        let mut m = body_start;
        while m < bytes.len() {
            match bytes[m] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = m;
                        break;
                    }
                }
                _ => {}
            }
            m += 1;
        }
        regions.push((attr_start, end));
        search = attr_end + 1;
    }
    regions
}

pub(crate) fn in_test_region(regions: &[(usize, usize)], offset: usize) -> bool {
    regions.iter().any(|&(s, e)| offset >= s && offset <= e)
}

/// Keywords that look like calls when followed by `(`.
const CALLISH_KEYWORDS: [&str; 22] = [
    "if", "while", "for", "match", "loop", "return", "break", "continue", "in", "as",
    "where", "let", "else", "move", "ref", "mut", "box", "await", "yield", "dyn", "use",
    "fn",
];

/// Words skipped when reading the target type of an `impl` header.
fn is_type_noise(word: &str) -> bool {
    matches!(word, "mut" | "dyn" | "const" | "unsafe" | "for")
}

/// What a pending opening brace will introduce.
enum Pending {
    Impl(String),
    Fn(usize),
}

enum Scope {
    Plain,
    Impl(String),
    Fn(usize),
}

/// Builds the model for one file from its mask and token stream.
pub fn build(source: &str, masked: &Masked, toks: &[Tok]) -> FileModel {
    let regions = test_regions(&masked.text);
    let mut fns: Vec<FnModel> = Vec::new();
    // Brace-token-index → what that brace opens.
    let mut pending: std::collections::BTreeMap<usize, Pending> = std::collections::BTreeMap::new();
    let mut scopes: Vec<Scope> = Vec::new();

    // Literal start offset → literal table index, for string-arg lookup.
    let lit_by_start: std::collections::BTreeMap<usize, usize> = masked
        .literals
        .iter()
        .enumerate()
        .map(|(n, l)| (l.start, n))
        .collect();

    // Non-doc comment lines carrying a `hot-path` marker.
    let hot_lines: Vec<u32> = masked
        .comments
        .iter()
        .filter(|(_, text)| {
            !text.starts_with("///")
                && !text.starts_with("//!")
                && !text.starts_with("/**")
                && text.contains("hot-path")
        })
        .map(|(line, _)| *line)
        .collect();

    let ident = |i: usize| -> Option<&str> {
        toks.get(i)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text(&masked.text))
    };
    let punct = |i: usize| -> Option<u8> {
        match toks.get(i).map(|t| t.kind) {
            Some(TokKind::Punct(b)) => Some(b),
            _ => None,
        }
    };

    let mut i = 0usize;
    while i < toks.len() {
        let tok = toks[i];
        match tok.kind {
            TokKind::Ident => {
                let word = tok.text(&masked.text);
                if word == "impl" {
                    if let Some((name, open_idx)) = parse_impl_header(toks, masked, i) {
                        pending.insert(open_idx, Pending::Impl(name));
                    }
                } else if word == "fn" {
                    if let Some(name) = ident(i + 1) {
                        let impl_type = scopes.iter().rev().find_map(|s| match s {
                            Scope::Impl(t) => Some(t.clone()),
                            _ => None,
                        });
                        let (line, _) = line_col(&masked.text, tok.start);
                        let hot_marked =
                            hot_lines.iter().any(|&l| l == line || l + 1 == line);
                        let fn_id = fns.len();
                        fns.push(FnModel {
                            name: name.to_string(),
                            impl_type,
                            sig_offset: tok.start,
                            line,
                            body: None,
                            in_test: in_test_region(&regions, tok.start),
                            hot_marked,
                            calls: Vec::new(),
                            index_sites: Vec::new(),
                        });
                        if let Some(open_idx) = find_fn_body_open(toks, i + 1) {
                            pending.insert(open_idx, Pending::Fn(fn_id));
                        }
                    }
                } else if punct(i + 1) == Some(b'(')
                    && !CALLISH_KEYWORDS.contains(&word)
                    && ident(i.wrapping_sub(1)) != Some("fn")
                {
                    record_call(
                        &mut fns, &scopes, toks, masked, source, &lit_by_start, i, false,
                    );
                } else if punct(i + 1) == Some(b'!')
                    && matches!(punct(i + 2), Some(b'(') | Some(b'[') | Some(b'{'))
                {
                    record_call(
                        &mut fns, &scopes, toks, masked, source, &lit_by_start, i, true,
                    );
                }
            }
            TokKind::Punct(b'{') => {
                scopes.push(match pending.remove(&i) {
                    Some(Pending::Impl(name)) => Scope::Impl(name),
                    Some(Pending::Fn(id)) => Scope::Fn(id),
                    None => Scope::Plain,
                });
            }
            TokKind::Punct(b'}') => {
                if let Some(Scope::Fn(id)) = scopes.pop() {
                    let start = fns[id].sig_offset;
                    fns[id].body = Some((start, tok.end));
                }
            }
            TokKind::Punct(b'[') => {
                // `expr[…]` indexing: the previous token ends a value
                // expression. Attribute types, slices, and attributes
                // (`#[…]`, `&[u8]`, `= [1, 2]`) all fail the prev check.
                let indexish = match i.checked_sub(1).map(|p| toks[p].kind) {
                    Some(TokKind::Ident) => {
                        !CALLISH_KEYWORDS.contains(&toks[i - 1].text(&masked.text))
                            && ident(i - 1) != Some("impl")
                    }
                    Some(TokKind::Punct(b')')) | Some(TokKind::Punct(b']')) => true,
                    _ => false,
                };
                if indexish {
                    if let Some(fn_id) = innermost_fn(&scopes) {
                        fns[fn_id].index_sites.push(tok.start);
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    FileModel { fns }
}

fn innermost_fn(scopes: &[Scope]) -> Option<usize> {
    scopes.iter().rev().find_map(|s| match s {
        Scope::Fn(id) => Some(*id),
        _ => None,
    })
}

/// Records the call at token `i` (the callee identifier) against the
/// innermost enclosing fn, resolving the syntactic form and capturing the
/// first string-literal argument.
#[expect(
    clippy::too_many_arguments,
    reason = "the model-building state is passed as disjoint borrows"
)]
fn record_call(
    fns: &mut [FnModel],
    scopes: &[Scope],
    toks: &[Tok],
    masked: &Masked,
    source: &str,
    lit_by_start: &std::collections::BTreeMap<usize, usize>,
    i: usize,
    is_macro: bool,
) {
    let Some(fn_id) = innermost_fn(scopes) else {
        return;
    };
    let name = toks[i].text(&masked.text).to_string();
    let (kind, qual) = if is_macro {
        (CallKind::Macro, None)
    } else if i >= 1 && matches!(toks[i - 1].kind, TokKind::Punct(b'.')) {
        (CallKind::Method, None)
    } else if i >= 3
        && matches!(toks[i - 1].kind, TokKind::Punct(b':'))
        && matches!(toks[i - 2].kind, TokKind::Punct(b':'))
        && toks[i - 3].kind == TokKind::Ident
    {
        let mut q = toks[i - 3].text(&masked.text).to_string();
        if q == "Self" {
            if let Some(t) = scopes.iter().rev().find_map(|s| match s {
                Scope::Impl(t) => Some(t.clone()),
                _ => None,
            }) {
                q = t;
            }
        }
        (CallKind::Path, Some(q))
    } else {
        (CallKind::Plain, None)
    };

    // First string literal at argument depth 1, scanning a bounded window
    // from the opening bracket.
    let open = if is_macro { i + 2 } else { i + 1 };
    let mut depth = 0i32;
    let mut first_str_arg = None;
    for t in toks.iter().skip(open).take(400) {
        match t.kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') | TokKind::Punct(b'{') => depth += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') | TokKind::Punct(b'}') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokKind::Str if depth == 1 => {
                if let Some(&lit_idx) = lit_by_start.get(&t.start) {
                    first_str_arg =
                        Some((masked.literals[lit_idx].content(source).to_string(), t.start));
                }
                break;
            }
            _ => {}
        }
    }

    fns[fn_id].calls.push(CallSite {
        name,
        qual,
        kind,
        offset: toks[i].start,
        first_str_arg,
    });
}

/// From the `impl` keyword at token `i`, finds the implemented type's
/// last path segment and the token index of the opening `{`.
fn parse_impl_header(toks: &[Tok], masked: &Masked, i: usize) -> Option<(String, usize)> {
    let mut j = i + 1;
    // Skip the generic parameter list, tolerating `->` inside bounds.
    if matches!(toks.get(j).map(|t| t.kind), Some(TokKind::Punct(b'<'))) {
        let mut angle = 0i32;
        while j < toks.len() {
            match toks[j].kind {
                TokKind::Punct(b'<') => angle += 1,
                TokKind::Punct(b'>') => {
                    if j >= 1
                        && matches!(toks[j - 1].kind, TokKind::Punct(b'-'))
                        && toks[j - 1].end == toks[j].start
                    {
                        // `->` return arrow inside an Fn bound.
                    } else {
                        angle -= 1;
                        if angle == 0 {
                            j += 1;
                            break;
                        }
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    // Scan to the body `{`, remembering the path start and any `for`.
    let mut target_start = None;
    let mut open_idx = None;
    let mut angle = 0i32;
    let mut k = j;
    while k < toks.len() {
        match toks[k].kind {
            TokKind::Punct(b'<') => angle += 1,
            TokKind::Punct(b'>')
                if !(k >= 1
                    && matches!(toks[k - 1].kind, TokKind::Punct(b'-'))
                    && toks[k - 1].end == toks[k].start) =>
            {
                angle -= 1;
            }
            TokKind::Punct(b'{') if angle <= 0 => {
                open_idx = Some(k);
                break;
            }
            TokKind::Ident if angle <= 0 => {
                let word = toks[k].text(&masked.text);
                if word == "for" {
                    target_start = None; // the real target follows
                } else if target_start.is_none() && !is_type_noise(word) {
                    target_start = Some(k);
                }
            }
            _ => {}
        }
        k += 1;
    }
    let open_idx = open_idx?;
    let start = target_start?;
    // Walk the path `a::b::c`, returning the last segment.
    let mut last = toks[start].text(&masked.text).to_string();
    let mut p = start + 1;
    while p + 1 < open_idx
        && matches!(toks[p].kind, TokKind::Punct(b':'))
        && matches!(toks[p + 1].kind, TokKind::Punct(b':'))
    {
        if let Some(t) = toks.get(p + 2).filter(|t| t.kind == TokKind::Ident) {
            last = t.text(&masked.text).to_string();
            p += 3;
        } else {
            break;
        }
    }
    Some((last, open_idx))
}

/// From just past the `fn` keyword, finds the token index of the body's
/// opening brace (`None` for `;`-terminated declarations).
fn find_fn_body_open(toks: &[Tok], from: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(from) {
        match t.kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') => depth += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') => depth -= 1,
            TokKind::Punct(b'{') if depth == 0 => return Some(k),
            TokKind::Punct(b';') if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;
    use crate::mask::mask;

    fn model(src: &str) -> FileModel {
        let m = mask(src);
        let toks = lex(&m);
        build(src, &m, &toks)
    }

    #[test]
    fn fn_boundaries_and_impl_qualification() {
        let src = "impl WireSnapshot {\n    pub fn pack(x: u32) -> u32 { helper(x) }\n}\n\
                   fn helper(x: u32) -> u32 { x }\n";
        let m = model(src);
        assert_eq!(m.fns.len(), 2);
        assert_eq!(m.fns[0].qualified(), "WireSnapshot::pack");
        assert_eq!(m.fns[1].qualified(), "helper");
        assert_eq!(m.fns[0].calls.len(), 1);
        assert_eq!(m.fns[0].calls[0].callee(), "helper");
    }

    #[test]
    fn trait_impls_use_the_implemented_type() {
        let src = "impl core::fmt::Display for WireDecodeError {\n\
                   fn fmt(&self) -> bool { helper2() }\n}\nfn helper2() -> bool { true }\n";
        let m = model(src);
        assert_eq!(m.fns[0].qualified(), "WireDecodeError::fmt");
    }

    #[test]
    fn generic_impl_headers_resolve() {
        let src = "impl<C: Client> NetSim<C> {\n    fn handle(&mut self) { self.step() }\n}\n";
        let m = model(src);
        assert_eq!(m.fns[0].qualified(), "NetSim::handle");
        assert_eq!(m.fns[0].calls[0].kind, CallKind::Method);
    }

    #[test]
    fn qualified_calls_capture_string_args() {
        let src = "fn f(seed: u64) { let r = Pcg32::named(seed, \"fault.loss\"); }\n";
        let m = model(src);
        let call = &m.fns[0].calls[0];
        assert_eq!(call.callee(), "Pcg32::named");
        assert_eq!(call.kind, CallKind::Path);
        assert_eq!(call.first_str_arg.as_ref().map(|(s, _)| s.as_str()), Some("fault.loss"));
    }

    #[test]
    fn self_calls_resolve_to_impl_type() {
        let src = "impl Plan { fn a(&self) { Self::b(); } fn b() {} }\n";
        let m = model(src);
        assert_eq!(m.fns[0].calls[0].callee(), "Plan::b");
    }

    #[test]
    fn macros_and_methods_classified() {
        let src = "fn g(v: &[u8], o: Option<u8>) -> u8 {\n\
                   let x = vec![1u8];\n    let _ = x.clone();\n    panic!(\"boom\");\n}\n";
        let m = model(src);
        let kinds: Vec<(String, CallKind)> = m.fns[0]
            .calls
            .iter()
            .map(|c| (c.name.clone(), c.kind))
            .collect();
        assert!(kinds.contains(&("vec".into(), CallKind::Macro)));
        assert!(kinds.contains(&("clone".into(), CallKind::Method)));
        assert!(kinds.contains(&("panic".into(), CallKind::Macro)));
    }

    #[test]
    fn index_sites_found_but_types_and_attrs_excluded() {
        let src = "#[derive(Debug)]\nstruct S;\n\
                   fn h(buf: &[u8], map: [u8; 4]) -> u8 {\n    let a = [1u8, 2];\n    buf[0] + a[1]\n}\n";
        let m = model(src);
        assert_eq!(m.fns[0].index_sites.len(), 2);
    }

    #[test]
    fn hot_path_marker_detected() {
        let src = "// hot-path\nfn fast() {}\n\nfn slow() {}\n\
                   /// hot-path in prose, not a marker\nfn doc_only() {}\n";
        let m = model(src);
        assert!(m.fns[0].hot_marked);
        assert!(!m.fns[1].hot_marked);
        assert!(!m.fns[2].hot_marked);
    }

    #[test]
    fn test_region_fns_flagged() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper3() { live() }\n}\n";
        let m = model(src);
        assert!(!m.fns[0].in_test);
        assert!(m.fns[1].in_test);
    }

    #[test]
    fn bodiless_trait_decls_have_no_body() {
        let src = "trait World { fn handle(&mut self, e: u32); }\n";
        let m = model(src);
        assert_eq!(m.fns[0].name, "handle");
        assert!(m.fns[0].body.is_none());
    }

    #[test]
    fn nested_fn_calls_attribute_to_innermost() {
        let src = "fn outer() { fn inner() { deep(); } inner(); }\nfn deep() {}\n";
        let m = model(src);
        let outer = &m.fns[0];
        let inner = &m.fns[1];
        assert_eq!(outer.name, "outer");
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.calls[0].callee(), "deep");
        assert_eq!(outer.calls.len(), 1, "outer only calls inner");
        assert_eq!(outer.calls[0].callee(), "inner");
    }
}
