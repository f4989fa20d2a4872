//! `wire-conformance`: cross-file checking of the wire protocol, plus
//! the `--wire-table` layout emitter.
//!
//! The protocol has five places that must agree for every `Payload`
//! variant — the enum's `body_bytes`/`wire_bytes` accounting in
//! crates/comm, and the codec's `kind_of`, `encode_frame` and decode
//! arms plus a unique `KIND_*` constant in crates/net. A variant added
//! to four of the five compiles fine (the decode match is over a `u8`,
//! not the enum) and only fails at runtime when the first frame of the
//! new kind hits a peer. This rule turns that gap into a lint finding:
//! `variant X missing from <site>`.
//!
//! Sites are discovered structurally via [`WorkspaceIndex`]; when a
//! workspace has no payload site or no codec site the rule is silent
//! (there is no protocol to check), so the linter still runs on
//! arbitrary Rust trees.

use crate::index::WorkspaceIndex;
use crate::lexer::TokKind;
use crate::parser::{first_match_arms, ConstItem, FnItem, LoopKind, VariantItem};
use crate::rules::{Finding, WorkspaceRule};
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

pub const RULE: &str = "wire-conformance";

pub struct WireConformance;

impl WorkspaceRule for WireConformance {
    fn name(&self) -> &'static str {
        RULE
    }

    fn check(&self, index: &WorkspaceIndex, out: &mut Vec<(String, Finding)>) {
        let Some(ps) = index.payload_site() else {
            return;
        };
        let Some(en) = ps.items.enum_named("Payload") else {
            return;
        };
        let variants = &en.variants;

        // the enum's own byte accounting must cover every variant
        let body_fn = ps
            .items
            .fn_named("body_bytes")
            .or_else(|| ps.items.fn_named("wire_bytes"));
        if let Some(bf) = body_fn {
            for v in variants {
                if !has_variant(ps, bf.body.clone(), &v.name) {
                    out.push((
                        ps.rel.clone(),
                        Finding {
                            rule: RULE,
                            line: bf.line,
                            message: format!(
                                "variant {} missing from {} ({})",
                                v.name, bf.name, ps.rel
                            ),
                        },
                    ));
                }
            }
        }

        for cs in index.codec_sites() {
            check_codec_site(cs, variants, out);
        }
    }
}

fn check_codec_site(cs: &SourceFile, variants: &[VariantItem], out: &mut Vec<(String, Finding)>) {
    let Some(kf) = cs.items.fn_named("kind_of") else {
        return;
    };
    let km = kind_map(cs, kf);

    // every variant needs a kind_of arm
    for v in variants {
        if !km.iter().any(|(n, _)| n == &v.name) {
            out.push((
                cs.rel.clone(),
                Finding {
                    rule: RULE,
                    line: kf.line,
                    message: format!("variant {} missing from kind_of ({})", v.name, cs.rel),
                },
            ));
        }
    }

    // every variant needs an encode arm
    if let Some(ef) = encode_fn(cs) {
        for v in variants {
            if !has_variant(cs, ef.body.clone(), &v.name) {
                out.push((
                    cs.rel.clone(),
                    Finding {
                        rule: RULE,
                        line: ef.line,
                        message: format!(
                            "variant {} missing from {} ({})",
                            v.name, ef.name, cs.rel
                        ),
                    },
                ));
            }
        }
    }

    // every *wire kind* needs a decode arm. Kind-granular, not
    // variant-granular: SharedParams legitimately decodes as Params
    // because both share KIND_PARAMS.
    if let Some(df) = decode_fn(cs) {
        let covered = decode_covered_kinds(cs, df);
        let mut seen = BTreeSet::new();
        for (v, kind) in &km {
            if seen.insert(kind.clone()) && !covered.contains(kind) {
                out.push((
                    cs.rel.clone(),
                    Finding {
                        rule: RULE,
                        line: df.line,
                        message: format!(
                            "variant {} missing from {} ({}): no {} arm",
                            v, df.name, cs.rel, kind
                        ),
                    },
                ));
            }
        }
    }

    // every referenced kind constant must exist...
    let consts: Vec<&ConstItem> = cs
        .items
        .consts
        .iter()
        .filter(|c| c.name.starts_with("KIND_"))
        .collect();
    let mut seen = BTreeSet::new();
    for (v, kind) in &km {
        if seen.insert(kind.clone()) && !consts.iter().any(|c| &c.name == kind) {
            out.push((
                cs.rel.clone(),
                Finding {
                    rule: RULE,
                    line: kf.line,
                    message: format!(
                        "variant {} maps to {} which is never defined as a const ({})",
                        v, kind, cs.rel
                    ),
                },
            ));
        }
    }

    // ...and kind values must be unique: two constants sharing a byte
    // value means one payload kind silently decodes as another
    let mut by_value: BTreeMap<u64, &ConstItem> = BTreeMap::new();
    for c in &consts {
        let Some(val) = c.value else { continue };
        match by_value.get(&val) {
            Some(first) => out.push((
                cs.rel.clone(),
                Finding {
                    rule: RULE,
                    line: c.line,
                    message: format!(
                        "duplicate wire kind value {}: {} collides with {}",
                        val, c.name, first.name
                    ),
                },
            )),
            None => {
                by_value.insert(val, c);
            }
        }
    }
}

/// Does `Payload::<variant>` appear anywhere in this token range?
fn has_variant(f: &SourceFile, range: Range<usize>, variant: &str) -> bool {
    let toks = &f.toks;
    range.clone().any(|k| {
        toks[k].is_ident("Payload")
            && toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(k + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(k + 3).is_some_and(|t| t.is_ident(variant))
    })
}

/// Parse `kind_of`'s match into (variant, kind-const) pairs, in arm
/// order. Or-patterns map every listed variant to the arm's kind.
fn kind_map(f: &SourceFile, kf: &FnItem) -> Vec<(String, String)> {
    let mut map = Vec::new();
    for arm in first_match_arms(&f.toks, kf.body.clone()) {
        let kind = f.toks[arm.body.clone()]
            .iter()
            .find(|t| t.kind == TokKind::Ident && t.text.starts_with("KIND_"))
            .map(|t| t.text.clone());
        let Some(kind) = kind else { continue };
        for k in arm.pat.clone() {
            if f.toks[k].is_ident("Payload")
                && f.toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
                && f.toks.get(k + 2).is_some_and(|t| t.is_punct(':'))
            {
                if let Some(v) = f.toks.get(k + 3).filter(|t| t.kind == TokKind::Ident) {
                    map.push((v.text.clone(), kind.clone()));
                }
            }
        }
    }
    map
}

/// The codec site's encode fn, the one whose match writes each body:
/// `encode_frame_into` when the codec encodes into caller buffers, else
/// `encode_frame`.
fn encode_fn(f: &SourceFile) -> Option<&FnItem> {
    f.items
        .fn_named("encode_frame_into")
        .or_else(|| f.items.fn_named("encode_frame"))
}

/// The codec site's decode fn: `decode_after_len` by convention, else
/// the first fn whose name starts with `decode`.
fn decode_fn(f: &SourceFile) -> Option<&FnItem> {
    f.items
        .fn_named("decode_after_len")
        .or_else(|| f.items.fns.iter().find(|x| x.name.starts_with("decode")))
}

/// Kind constants that have a decode arm: `KIND_X =>` patterns inside
/// the decode fn. (In `kind_of`/`encode_frame` the `KIND_*` idents sit
/// in arm *bodies*, after the `=>`, so they never match this shape.)
fn decode_covered_kinds(f: &SourceFile, df: &FnItem) -> BTreeSet<String> {
    let toks = &f.toks;
    let mut covered = BTreeSet::new();
    for k in df.body.clone() {
        if toks[k].kind == TokKind::Ident
            && toks[k].text.starts_with("KIND_")
            && toks.get(k + 1).is_some_and(|t| t.is_punct('='))
            && toks.get(k + 2).is_some_and(|t| t.is_punct('>'))
        {
            covered.insert(toks[k].text.clone());
        }
    }
    covered
}

// ---------------------------------------------------------------------
// --wire-table
// ---------------------------------------------------------------------

/// Emit the kind → layout table from the parsed codec, as the markdown
/// table embedded in DESIGN.md §13. ci.sh diffs the two, so the docs
/// cannot drift from the code.
pub fn wire_table(index: &WorkspaceIndex) -> Result<String, String> {
    let ps = index
        .payload_site()
        .ok_or("no payload site (enum Payload + fn body_bytes) found")?;
    let cs = index
        .codec_sites()
        .next()
        .ok_or("no codec site (fn kind_of) found")?;
    let kf = cs
        .items
        .fn_named("kind_of")
        .ok_or("codec site lost its kind_of")?;
    let ef = encode_fn(cs).ok_or("codec site has no encode_frame to derive layouts from")?;
    let _ = ps; // site resolution validated; layouts come from the codec

    let km = kind_map(cs, kf);
    let consts: BTreeMap<&str, u64> = cs
        .items
        .consts
        .iter()
        .filter(|c| c.name.starts_with("KIND_"))
        .filter_map(|c| c.value.map(|v| (c.name.as_str(), v)))
        .collect();

    // variant → layout, from the encode arms
    let mut layout_by_variant: BTreeMap<String, String> = BTreeMap::new();
    for arm in first_match_arms(&cs.toks, ef.body.clone()) {
        let layout = layout_of_arm(cs, arm.body.clone());
        for k in arm.pat.clone() {
            if cs.toks[k].is_ident("Payload")
                && cs.toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
                && cs.toks.get(k + 2).is_some_and(|t| t.is_punct(':'))
            {
                if let Some(v) = cs.toks.get(k + 3).filter(|t| t.kind == TokKind::Ident) {
                    layout_by_variant.insert(v.text.clone(), layout.clone());
                }
            }
        }
    }

    // rows: one per wire kind, variants in kind_of arm order
    let mut variants_by_kind: Vec<(String, Vec<String>)> = Vec::new();
    for (v, kind) in &km {
        match variants_by_kind.iter_mut().find(|(k, _)| k == kind) {
            Some((_, vs)) => vs.push(v.clone()),
            None => variants_by_kind.push((kind.clone(), vec![v.clone()])),
        }
    }
    let mut rows: Vec<(u64, String)> = Vec::new();
    for (kind, vs) in &variants_by_kind {
        let Some(&val) = consts.get(kind.as_str()) else {
            return Err(format!("{kind} has no integer const value"));
        };
        let layout = vs
            .first()
            .and_then(|v| layout_by_variant.get(v))
            .cloned()
            .unwrap_or_else(|| "?".to_string());
        rows.push((
            val,
            format!("| {} | {} | {} | {} |", val, kind, vs.join(", "), layout),
        ));
    }
    rows.sort();

    let mut out = String::new();
    out.push_str("| kind | const | payload variants | body layout |\n");
    out.push_str("|---|---|---|---|\n");
    for (_, row) in &rows {
        out.push_str(row);
        out.push('\n');
    }
    Ok(out)
}

/// Derive one arm's body layout from its `put_*` calls, in call order.
/// `put_*_section` helpers expand to their known shape; scalar puts
/// are labeled from their argument (`.len()` → `count`); puts inside a
/// `for` loop become `count × <ty>` repetition.
fn layout_of_arm(f: &SourceFile, body: Range<usize>) -> String {
    let toks = &f.toks;
    let for_bodies: Vec<Range<usize>> = f
        .items
        .loops
        .iter()
        .filter(|l| l.kind == LoopKind::For && l.span.start >= body.start && l.span.end <= body.end)
        .map(|l| l.span.clone())
        .collect();

    let mut parts: Vec<String> = Vec::new();
    let mut k = body.start;
    while k < body.end {
        let t = &toks[k];
        let is_call = t.kind == TokKind::Ident && toks.get(k + 1).is_some_and(|n| n.is_punct('('));
        if !is_call {
            k += 1;
            continue;
        }
        // argument token range: between the balanced parens
        let open = k + 1;
        let mut depth = 0i32;
        let mut close = open;
        while close < body.end {
            if toks[close].is_punct('(') {
                depth += 1;
            } else if toks[close].is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            close += 1;
        }
        let args = open + 1..close;
        let looped = for_bodies.iter().any(|r| r.contains(&k));
        match t.text.as_str() {
            "put_f32_section" => parts.push("u32 count + count × f32".into()),
            "put_u64_section" => parts.push("u32 count + count × u64".into()),
            "put_u32_section" => parts.push("u32 count + count × u32".into()),
            "put_slice" => parts.push("count × u8".into()),
            n if n.starts_with("put_") => {
                let ty = &n[4..];
                if looped {
                    parts.push(format!("count × {ty}"));
                } else {
                    match arg_label(f, args.clone()) {
                        Some(label) => parts.push(format!("{ty} {label}")),
                        None => parts.push(ty.to_string()),
                    }
                }
            }
            _ => {}
        }
        k = close + 1;
    }
    parts.join(" + ")
}

/// A human label for a scalar put's argument: `x.len() as u32` is a
/// `count`; otherwise the last identifier that is not a cast/type/
/// receiver (`spec.version` → `version`, `*classes as u64` → `classes`).
fn arg_label(f: &SourceFile, args: Range<usize>) -> Option<String> {
    const SKIP: [&str; 10] = [
        "as", "u8", "u16", "u32", "u64", "usize", "f32", "f64", "self", "mut",
    ];
    let toks = &f.toks;
    let mut label = None;
    for k in args.clone() {
        let t = &toks[k];
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "len" && toks.get(k + 1).is_some_and(|n| n.is_punct('(')) {
            return Some("count".into());
        }
        if !SKIP.contains(&t.text.as_str()) {
            // keep overwriting: the last qualifying ident is the field
            label = Some(t.text.clone());
        }
    }
    // `spec.version`: prefer the ident after the final `.`
    label
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_of(files: &[(&str, &str)]) -> WorkspaceIndex {
        WorkspaceIndex {
            files: files
                .iter()
                .map(|(rel, src)| SourceFile::new(rel.to_string(), src))
                .collect(),
        }
    }

    const PAYLOAD: &str = "\
pub enum Payload {
    Alpha(Vec<f32>),
    Beta { tag: u32, values: Vec<f32> },
    Gamma(u64),
}
impl Payload {
    pub fn body_bytes(&self) -> u64 {
        match self {
            Payload::Alpha(v) => 4 + 4 * v.len() as u64,
            Payload::Beta { values, .. } => 8 + 4 * values.len() as u64,
            Payload::Gamma(_) => 8,
        }
    }
}
";

    const CODEC_OK: &str = "\
const KIND_ALPHA: u8 = 0;
const KIND_BETA: u8 = 1;
const KIND_GAMMA: u8 = 2;
fn kind_of(p: &Payload) -> u8 {
    match p {
        Payload::Alpha(_) => KIND_ALPHA,
        Payload::Beta { .. } => KIND_BETA,
        Payload::Gamma(_) => KIND_GAMMA,
    }
}
pub fn encode_frame(p: &Payload) -> Vec<u8> {
    let mut buf = Buf::new();
    match p {
        Payload::Alpha(v) => put_f32_section(&mut buf, v),
        Payload::Beta { tag, values } => {
            buf.put_u32(*tag);
            put_f32_section(&mut buf, values);
        }
        Payload::Gamma(code) => buf.put_u64(*code),
    }
    buf.done()
}
pub fn decode_after_len(buf: &[u8]) -> Result<Payload, Err> {
    let kind = buf[0];
    match kind {
        KIND_ALPHA => alpha(buf),
        KIND_BETA => beta(buf),
        KIND_GAMMA => gamma(buf),
        other => Err(Err::BadKind(other)),
    }
}
";

    fn run_rule(files: &[(&str, &str)]) -> Vec<(String, u32, String)> {
        let idx = index_of(files);
        let mut out = Vec::new();
        WireConformance.check(&idx, &mut out);
        out.into_iter()
            .map(|(rel, f)| (rel, f.line, f.message))
            .collect()
    }

    #[test]
    fn conformant_workspace_is_silent() {
        let f = run_rule(&[
            ("crates/comm/src/fabric.rs", PAYLOAD),
            ("crates/net/src/codec.rs", CODEC_OK),
        ]);
        assert!(f.is_empty(), "unexpected findings: {f:?}");
    }

    #[test]
    fn no_payload_site_means_silence() {
        let f = run_rule(&[("crates/net/src/codec.rs", CODEC_OK)]);
        assert!(f.is_empty());
    }

    #[test]
    fn deleted_decode_arm_is_one_kind_finding() {
        let mutated = CODEC_OK.replace("        KIND_GAMMA => gamma(buf),\n", "");
        let f = run_rule(&[
            ("crates/comm/src/fabric.rs", PAYLOAD),
            ("crates/net/src/codec.rs", &mutated),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].2.contains("Gamma missing from decode_after_len"));
        assert!(f[0].2.contains("no KIND_GAMMA arm"));
    }

    #[test]
    fn duplicate_kind_value_fires_at_second_const() {
        let mutated = CODEC_OK.replace("const KIND_GAMMA: u8 = 2;", "const KIND_GAMMA: u8 = 1;");
        let f = run_rule(&[
            ("crates/comm/src/fabric.rs", PAYLOAD),
            ("crates/net/src/codec.rs", &mutated),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].1, 3); // the KIND_GAMMA const line
        assert!(f[0].2.contains("duplicate wire kind value 1"));
        assert!(f[0].2.contains("KIND_GAMMA collides with KIND_BETA"));
    }

    #[test]
    fn missing_body_bytes_arm_lands_on_payload_site() {
        let payload = PAYLOAD.replace("            Payload::Gamma(_) => 8,\n", "");
        let f = run_rule(&[
            ("crates/comm/src/fabric.rs", &payload),
            ("crates/net/src/codec.rs", CODEC_OK),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].0, "crates/comm/src/fabric.rs");
        assert!(f[0].2.contains("Gamma missing from body_bytes"));
    }

    #[test]
    fn shared_kind_variant_needs_no_own_decode_arm() {
        // a variant that reuses another's kind (the SharedParams idiom)
        let payload = PAYLOAD.replace(
            "    Gamma(u64),\n",
            "    Gamma(u64),\n    Mirror(Vec<f32>),\n",
        );
        let payload = payload.replace(
            "            Payload::Gamma(_) => 8,\n",
            "            Payload::Gamma(_) => 8,\n            Payload::Mirror(v) => 4 + 4 * v.len() as u64,\n",
        );
        let codec = CODEC_OK.replace(
            "        Payload::Alpha(_) => KIND_ALPHA,\n",
            "        Payload::Alpha(_) | Payload::Mirror(_) => KIND_ALPHA,\n",
        );
        let codec = codec.replace(
            "        Payload::Alpha(v) => put_f32_section(&mut buf, v),\n",
            "        Payload::Alpha(v) | Payload::Mirror(v) => put_f32_section(&mut buf, v),\n",
        );
        let f = run_rule(&[
            ("crates/comm/src/fabric.rs", &payload),
            ("crates/net/src/codec.rs", &codec),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn wire_table_derives_layouts() {
        let idx = index_of(&[
            ("crates/comm/src/fabric.rs", PAYLOAD),
            ("crates/net/src/codec.rs", CODEC_OK),
        ]);
        let t = wire_table(&idx).expect("table");
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(
            lines[0],
            "| kind | const | payload variants | body layout |"
        );
        assert_eq!(
            lines[2],
            "| 0 | KIND_ALPHA | Alpha | u32 count + count × f32 |"
        );
        assert_eq!(
            lines[3],
            "| 1 | KIND_BETA | Beta | u32 tag + u32 count + count × f32 |"
        );
        assert_eq!(lines[4], "| 2 | KIND_GAMMA | Gamma | u64 code |");
    }

    /// A codec that encodes into caller buffers keeps its arms in
    /// `encode_frame_into`, and `encode_frame` only delegates: the arms
    /// are checked, and the layouts derived, where they are.
    #[test]
    fn encode_arms_are_read_from_encode_frame_into_when_it_exists() {
        let codec = CODEC_OK.replace(
            "pub fn encode_frame(p: &Payload) -> Vec<u8> {\n    let mut buf = Buf::new();",
            "pub fn encode_frame(p: &Payload) -> Vec<u8> {\n    encode_frame_into(Buf::new(), p)\n}\n\
             fn encode_frame_into(mut buf: Buf, p: &Payload) -> Vec<u8> {",
        );
        assert!(codec.contains("fn encode_frame_into"));
        let files = [
            ("crates/comm/src/fabric.rs", PAYLOAD),
            ("crates/net/src/codec.rs", codec.as_str()),
        ];
        assert!(run_rule(&files).is_empty());
        let t = wire_table(&index_of(&files)).expect("table");
        assert!(t.contains("| 2 | KIND_GAMMA | Gamma | u64 code |"), "{t}");

        let dropped = codec.replace("        Payload::Gamma(code) => buf.put_u64(*code),\n", "");
        let f = run_rule(&[
            ("crates/comm/src/fabric.rs", PAYLOAD),
            ("crates/net/src/codec.rs", &dropped),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].2.contains("Gamma missing from encode_frame_into"));
    }
}
