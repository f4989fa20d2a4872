//! Per-file analysis context: tokens plus the line-level metadata the
//! rules share — which lines are test code, which are attribute-only,
//! where the `lint:allow` suppressions sit and what they target.

use crate::lexer::{lex, Comment, Tok};
use crate::parser::{self, ItemTree};
use std::cell::Cell;

/// Minimum characters of justification a `lint:allow` must carry.
/// Short enough not to be bureaucratic, long enough that "ok" fails.
pub const MIN_JUSTIFICATION: usize = 8;

/// An inline suppression: `// lint:allow(rule): justification`.
#[derive(Debug)]
pub struct Suppression {
    /// Rule name inside the parentheses.
    pub rule: String,
    /// Line the comment sits on.
    pub line: u32,
    /// Line whose findings it silences (the comment's own line for a
    /// trailing comment, else the next code line below it).
    pub target: u32,
    /// Justification text after the closing paren's `:`, if any.
    pub justification: Option<String>,
    /// Set when a finding is actually silenced; an unused allow is
    /// itself reported, so stale suppressions cannot accumulate.
    pub used: Cell<bool>,
}

impl Suppression {
    /// A suppression counts as justified only with a real explanation.
    pub fn justified(&self) -> bool {
        self.justification
            .as_deref()
            .map(str::trim)
            .is_some_and(|j| j.len() >= MIN_JUSTIFICATION)
    }
}

/// One lexed source file with everything a rule needs to run.
pub struct SourceFile {
    /// Path relative to the scan root, forward slashes.
    pub rel: String,
    /// Token stream (comments excluded).
    pub toks: Vec<Tok>,
    /// Comments, in source order.
    pub comments: Vec<Comment>,
    /// `true` when the whole file is test/bench code by location
    /// (`tests/`, `benches/`).
    pub is_test_file: bool,
    /// 1-based line → inside a `#[cfg(test)]`/`#[test]` item.
    test_lines: Vec<bool>,
    /// 1-based line → every token on it belongs to an attribute.
    attr_only: Vec<bool>,
    /// Parsed `lint:allow` suppressions.
    pub suppressions: Vec<Suppression>,
    /// Item tree (fns, loops) for the semantic rules.
    pub items: ItemTree,
}

impl SourceFile {
    /// Lex and analyze one file. `rel` must use forward slashes.
    pub fn new(rel: String, src: &str) -> SourceFile {
        let (toks, comments) = lex(src);
        let n_lines = src.lines().count().max(1) as u32;
        let is_test_file = {
            let r = rel.as_str();
            r.starts_with("tests/")
                || r.starts_with("benches/")
                || r.contains("/tests/")
                || r.contains("/benches/")
        };

        let mut code_lines = vec![false; n_lines as usize + 2];
        for t in &toks {
            if let Some(slot) = code_lines.get_mut(t.line as usize) {
                *slot = true;
            }
        }

        let (attr_only, test_lines) = attribute_and_test_lines(&toks, n_lines);
        let suppressions = parse_suppressions(&comments, &code_lines, n_lines);
        let items = parser::parse(&toks);

        SourceFile {
            rel,
            toks,
            comments,
            is_test_file,
            test_lines,
            attr_only,
            suppressions,
            items,
        }
    }

    /// Is this 1-based line inside test code (file-level or item-level)?
    pub fn is_test_line(&self, line: u32) -> bool {
        self.is_test_file || *self.test_lines.get(line as usize).unwrap_or(&false)
    }

    /// Does this 1-based line consist solely of attribute tokens?
    pub fn is_attr_only_line(&self, line: u32) -> bool {
        *self.attr_only.get(line as usize).unwrap_or(&false)
    }
}

/// Walk the token stream once, marking (a) lines fully covered by
/// attributes and (b) lines inside items annotated with a
/// test-flavoured attribute (`#[test]`, `#[cfg(test)]`,
/// `#[cfg(all(test, ...))]`).
fn attribute_and_test_lines(toks: &[Tok], n_lines: u32) -> (Vec<bool>, Vec<bool>) {
    let mut attr_tok = vec![false; toks.len()];
    let mut test_lines = vec![false; n_lines as usize + 2];
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_punct('#') {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if j < toks.len() && toks[j].is_punct('!') {
            j += 1;
        }
        if j >= toks.len() || !toks[j].is_punct('[') {
            i += 1;
            continue;
        }
        // consume the balanced [...] of the attribute
        let mut depth = 0i32;
        let mut is_test_attr = false;
        let attr_start = i;
        while j < toks.len() {
            if toks[j].is_punct('[') {
                depth += 1;
            } else if toks[j].is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if toks[j].is_ident("test") {
                is_test_attr = true;
            }
            j += 1;
        }
        let attr_end = j.min(toks.len() - 1);
        for slot in attr_tok.iter_mut().take(attr_end + 1).skip(attr_start) {
            *slot = true;
        }
        if is_test_attr {
            mark_item_extent(toks, attr_end + 1, toks[attr_start].line, &mut test_lines);
        }
        i = attr_end + 1;
    }

    // attribute-only lines: every token on the line is an attr token
    let mut attr_only = vec![false; n_lines as usize + 2];
    let mut has_tok = vec![false; n_lines as usize + 2];
    let mut has_non_attr = vec![false; n_lines as usize + 2];
    for (t, is_attr) in toks.iter().zip(&attr_tok) {
        let l = t.line as usize;
        if l < has_tok.len() {
            has_tok[l] = true;
            if !is_attr {
                has_non_attr[l] = true;
            }
        }
    }
    for l in 0..attr_only.len() {
        attr_only[l] = has_tok[l] && !has_non_attr[l];
    }
    (attr_only, test_lines)
}

/// From the token after a test attribute's `]`, find the annotated
/// item's extent (first top-level `{...}` body, or a `;` for bodyless
/// items) and mark its lines — plus any stacked attributes above —
/// as test code.
fn mark_item_extent(toks: &[Tok], start: usize, attr_line: u32, test_lines: &mut [bool]) {
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut k = start;
    let mut end_line = attr_line;
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
        } else if t.is_punct(';') && paren == 0 && bracket == 0 {
            end_line = t.line;
            break;
        } else if t.is_punct('{') && paren == 0 && bracket == 0 {
            // found the body: consume balanced braces
            let mut depth = 0i32;
            while k < toks.len() {
                if toks[k].is_punct('{') {
                    depth += 1;
                } else if toks[k].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k += 1;
            }
            end_line = toks.get(k).map_or(attr_line, |t| t.line);
            break;
        }
        end_line = t.line;
        k += 1;
    }
    for l in attr_line..=end_line {
        if let Some(slot) = test_lines.get_mut(l as usize) {
            *slot = true;
        }
    }
}

/// Extract every `lint:allow(rule)[: justification]` from the comments
/// and resolve each one's target line.
fn parse_suppressions(comments: &[Comment], code_lines: &[bool], n_lines: u32) -> Vec<Suppression> {
    const MARKER: &str = "lint:allow(";
    let mut out = Vec::new();
    for c in comments {
        // A suppression must BE the comment, not be mentioned inside
        // one — prose like "use lint:allow(rule) here" (this crate's
        // own docs included) is not a suppression.
        let Some(after) = c.text.trim_start().strip_prefix(MARKER) else {
            continue;
        };
        let Some(close) = after.find(')') else {
            continue;
        };
        let rule = after[..close].trim().to_string();
        let justification = after[close + 1..]
            .strip_prefix(':')
            .map(|j| j.trim().to_string())
            .filter(|j| !j.is_empty());
        let target = if c.own_line {
            // next line below the comment that carries code
            let mut l = c.end_line + 1;
            while l <= n_lines && !code_lines.get(l as usize).copied().unwrap_or(false) {
                l += 1;
            }
            l
        } else {
            c.line
        };
        out.push(Suppression {
            rule,
            line: c.line,
            target,
            justification,
            used: Cell::new(false),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_is_marked() {
        let src = "\
fn prod() { x.unwrap(); }

#[cfg(test)]
mod tests {
    #[test]
    fn t() { y.unwrap(); }
}
";
        let f = SourceFile::new("crates/core/src/a.rs".into(), src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(3));
        assert!(f.is_test_line(6));
        assert!(f.is_test_line(7));
    }

    #[test]
    fn cfg_test_use_statement_extends_to_semicolon_only() {
        let src = "\
#[cfg(test)]
use std::collections::HashMap;
fn prod() {}
";
        let f = SourceFile::new("a.rs".into(), src);
        assert!(f.is_test_line(2));
        assert!(!f.is_test_line(3));
    }

    #[test]
    fn tests_dir_marks_whole_file() {
        let f = SourceFile::new("crates/core/tests/x.rs".into(), "fn a() {}");
        assert!(f.is_test_file);
        assert!(f.is_test_line(1));
    }

    #[test]
    fn suppression_targets_next_code_line() {
        let src = "\
// lint:allow(nondet-iteration): keys sorted before use below
// more prose
use std::collections::HashMap;
";
        let f = SourceFile::new("a.rs".into(), src);
        assert_eq!(f.suppressions.len(), 1);
        let s = &f.suppressions[0];
        assert_eq!(s.rule, "nondet-iteration");
        assert_eq!(s.target, 3);
        assert!(s.justified());
    }

    #[test]
    fn trailing_suppression_targets_its_own_line() {
        let src = "let m = HashMap::new(); // lint:allow(nondet-iteration): never iterated\n";
        let f = SourceFile::new("a.rs".into(), src);
        assert_eq!(f.suppressions[0].target, 1);
    }

    #[test]
    fn bare_allow_is_unjustified() {
        let src = "// lint:allow(raw-net)\nuse std::net::TcpStream;\n";
        let f = SourceFile::new("a.rs".into(), src);
        assert!(!f.suppressions[0].justified());
        let short = "// lint:allow(raw-net): ok\nuse std::net::TcpStream;\n";
        let f2 = SourceFile::new("a.rs".into(), short);
        assert!(
            !f2.suppressions[0].justified(),
            "two chars is not a justification"
        );
    }

    #[test]
    fn attr_only_lines() {
        let src = "#[target_feature(enable = \"avx2\")]\nunsafe fn k() {}\n";
        let f = SourceFile::new("a.rs".into(), src);
        assert!(f.is_attr_only_line(1));
        assert!(!f.is_attr_only_line(2));
    }
}
