//! A lightweight item-tree parser layered on the lexer.
//!
//! This is deliberately *not* an AST: it recovers only the structure
//! the semantic rules need — function extents and names, and loop
//! extents — as index ranges into the flat token stream. No type
//! inference, no expression trees, no path resolution. Everything
//! degrades safely: a construct the parser does not model is simply
//! absent from the tree, and rules built on it stay silent rather than
//! guessing.
//!
//! All ranges are half-open `[start, end)` token indices. A body range
//! covers the tokens *between* the braces, excluding the braces
//! themselves, so scanning a body never sees its own delimiters.

use crate::lexer::{Tok, TokKind};
use std::ops::Range;

/// One `fn` item (free function or method; nested fns included).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Tokens between the body braces (empty for bodyless trait fns).
    pub body: Range<usize>,
}

/// The keyword that introduced a loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopKind {
    Loop,
    While,
    For,
}

/// One `loop`/`while`/`for` with head + body extents.
#[derive(Debug, Clone)]
pub struct LoopItem {
    pub kind: LoopKind,
    /// 1-based line of the loop keyword.
    pub line: u32,
    /// Tokens from the loop keyword through the closing body brace
    /// (head condition included), so bound references in either the
    /// condition or the body both count.
    pub span: Range<usize>,
}

/// Flat item tree for one file.
#[derive(Debug, Default)]
pub struct ItemTree {
    pub fns: Vec<FnItem>,
    pub loops: Vec<LoopItem>,
}

/// Parse the token stream into an item tree. Single linear pass; items
/// are recorded at any nesting depth (a fn inside a mod, a loop inside
/// a fn) because the rules scope by extent, not by hierarchy.
pub fn parse(toks: &[Tok]) -> ItemTree {
    let mut tree = ItemTree::default();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "fn" => {
                if let Some(f) = parse_fn(toks, i) {
                    tree.fns.push(f);
                }
                // do not skip the body: nested items must be seen too
                i += 1;
            }
            "loop" | "while" | "for" => {
                if let Some(l) = parse_loop(toks, i) {
                    tree.loops.push(l);
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    tree
}

/// From the index of a `{`, return the index of its matching `}`.
fn close_brace(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// From the token after a fn signature's start, find the body's opening
/// brace: the first `{` at zero paren/bracket depth, stopping at a
/// bodyless `;`. Generic `<...>` is not tracked — a brace cannot appear
/// inside the generics this codebase (or the fixtures) use.
fn fn_body_open(toks: &[Tok], start: usize) -> Option<usize> {
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut k = start;
    while k < toks.len() {
        let t = &toks[k];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket -= 1;
        } else if paren == 0 && bracket == 0 {
            if t.is_punct(';') {
                return None; // trait method declaration, no body
            }
            if t.is_punct('{') {
                return Some(k);
            }
        }
        k += 1;
    }
    None
}

fn parse_fn(toks: &[Tok], kw: usize) -> Option<FnItem> {
    let name_tok = toks.get(kw + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let open = fn_body_open(toks, kw + 2)?;
    let close = close_brace(toks, open)?;
    Some(FnItem {
        name: name_tok.text.clone(),
        line: toks[kw].line,
        body: open + 1..close,
    })
}

fn parse_loop(toks: &[Tok], kw: usize) -> Option<LoopItem> {
    let kind = match toks[kw].text.as_str() {
        "loop" => LoopKind::Loop,
        "while" => LoopKind::While,
        "for" => LoopKind::For,
        _ => return None,
    };
    // `for` also appears in `impl Trait for Type` and higher-ranked
    // bounds; a real for-loop is followed by a pattern then `in`.
    // Cheap disambiguation: require `in` before the body brace at
    // depth 0 for LoopKind::For.
    let open = fn_body_open(toks, kw + 1)?;
    if kind == LoopKind::For {
        let head = &toks[kw + 1..open];
        let mut paren = 0i32;
        let mut has_in = false;
        for t in head {
            if t.is_punct('(') {
                paren += 1;
            } else if t.is_punct(')') {
                paren -= 1;
            } else if paren == 0 && t.is_ident("in") {
                has_in = true;
                break;
            }
        }
        if !has_in {
            return None;
        }
    }
    let close = close_brace(toks, open)?;
    Some(LoopItem {
        kind,
        line: toks[kw].line,
        span: kw..close + 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn tree(src: &str) -> (Vec<Tok>, ItemTree) {
        let (toks, _) = lex(src);
        let t = parse(&toks);
        (toks, t)
    }

    #[test]
    fn fn_extents_and_nesting() {
        let src = "\
fn outer(x: u32) -> Result<u32, ()> {
    fn inner() {}
    loop { break; }
    Ok(x)
}
trait T { fn decl(&self); }
";
        let (toks, t) = tree(src);
        let names: Vec<_> = t.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner"]);
        let outer = &t.fns[0];
        // the loop keyword sits inside outer's body
        let l = &t.loops[0];
        assert!(outer.body.contains(&l.span.start));
        assert!(toks[l.span.end - 1].is_punct('}'));
    }

    #[test]
    fn loops_record_head_and_body_while_impl_for_is_skipped() {
        let src = "\
impl Clone for Thing {
    fn clone(&self) -> Thing { Thing }
}
fn f(deadline: u32) {
    while now() < deadline { step(); }
    for x in 0..3 { use_it(x); }
}
";
        let (toks, t) = tree(src);
        assert_eq!(t.loops.len(), 2);
        assert_eq!(t.loops[0].kind, LoopKind::While);
        assert_eq!(t.loops[1].kind, LoopKind::For);
        // the while span includes its condition tokens
        let w = &t.loops[0];
        assert!(toks[w.span.clone()].iter().any(|x| x.is_ident("deadline")));
    }
}
