//! Workspace walking and the per-file source model.
//!
//! Each `.rs` file is lexed once into a [`SourceFile`] carrying three
//! derived views the rules share:
//!
//! * **test regions** — line spans covered by `#[test]` / `#[cfg(test)]`
//!   items, found by token scanning with brace matching. Obs-coverage,
//!   doc-drift and the race rules skip them, and claim tags inside them
//!   count as test citations;
//! * **allow annotations** — `// audit:allow(<rule>) reason` escape
//!   hatches. An annotation suppresses findings of `<rule>` on its own
//!   line and the next code line; a missing reason is itself reported
//!   (rule `allow-annotation`);
//! * **claim tags** — `CLAIM(L2.1)` / `CLAIM(P2.1, P2.2)` markers inside
//!   comments, consumed by the claim-traceability rule.

use crate::lexer::{lex, Token};
use std::path::{Path, PathBuf};

/// A parsed `audit:allow` annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// The rule being suppressed.
    pub rule: String,
    /// 1-based line the annotation sits on.
    pub line: u32,
    /// The stated justification (may be empty — which is a finding).
    pub reason: String,
}

/// A `CLAIM(..)` tag found in a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClaimTag {
    /// Claim identifier, e.g. `L2.1`.
    pub id: String,
    /// 1-based line of the tag.
    pub line: u32,
}

/// A `// race:order(<why>)` justification for a non-`SeqCst` atomic
/// memory ordering, consumed by the `atomic-ordering` rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderNote {
    /// 1-based line the note sits on.
    pub line: u32,
    /// The stated justification (may be empty — which is a finding).
    pub reason: String,
}

/// One lexed workspace source file plus derived views.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the repo root, `/`-separated.
    pub rel_path: String,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// `test_lines[i]` ⇔ 1-based line `i+1` is inside a test item.
    pub test_lines: Vec<bool>,
    /// All allow annotations in the file.
    pub allows: Vec<Allow>,
    /// All claim tags in the file.
    pub claims: Vec<ClaimTag>,
    /// All `race:order(..)` justifications in the file.
    pub orders: Vec<OrderNote>,
}

impl SourceFile {
    /// Lexes `text` and computes the derived views.
    pub fn new(rel_path: String, text: &str) -> SourceFile {
        let tokens = lex(text);
        let line_count = text.lines().count().max(1);
        let test_lines = mark_test_regions(&tokens, line_count);
        let mut allows = Vec::new();
        let mut claims = Vec::new();
        let mut orders = Vec::new();
        for t in &tokens {
            // Only plain `//` comments carry annotations: doc comments
            // (`///`, `//!`, `/** */`) merely *describe* the syntax, and
            // must not trigger the meta-lints.
            if t.kind == crate::lexer::TokenKind::LineComment
                && !t.text.starts_with("///")
                && !t.text.starts_with("//!")
            {
                scan_comment(t, &mut allows, &mut claims, &mut orders);
            }
        }
        SourceFile {
            rel_path,
            tokens,
            test_lines,
            allows,
            claims,
            orders,
        }
    }

    /// Whether this file falls under one of a rule's configured `paths`
    /// (exact file, or directory prefix written with a trailing `/`).
    pub fn in_scope(&self, paths: &[String]) -> bool {
        paths.iter().any(|p| {
            self.rel_path == *p || (p.ends_with('/') && self.rel_path.starts_with(p.as_str()))
        })
    }

    /// Whether 1-based `line` lies in a `#[test]` / `#[cfg(test)]` item.
    pub fn in_test(&self, line: u32) -> bool {
        self.test_lines
            .get((line as usize).saturating_sub(1))
            .copied()
            .unwrap_or(false)
    }

    /// Whether a finding of `rule` at `line` is suppressed by an
    /// `audit:allow` with a non-empty reason on the same or previous
    /// annotation line.
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows.iter().any(|a| {
            a.rule == rule && !a.reason.is_empty() && (a.line == line || covers_next_line(a, line))
        })
    }

    /// Whether a non-`SeqCst` atomic ordering at `line` carries a
    /// `race:order(<why>)` justification with a non-empty reason, under
    /// the same same-line / next-code-line coverage as `audit:allow`.
    pub fn order_justified(&self, line: u32) -> bool {
        self.orders.iter().any(|o| {
            !o.reason.is_empty() && (o.line == line || line == o.line + 1 || line == o.line + 2)
        })
    }
}

/// An annotation on its own line covers the next code line; comments
/// stacked between annotation and code are rare enough that a fixed
/// +1/+2 window keeps the semantics predictable.
fn covers_next_line(a: &Allow, line: u32) -> bool {
    line == a.line + 1 || line == a.line + 2
}

/// Scans one comment token for `audit:allow(rule) reason`,
/// `CLAIM(id, id…)`, and `race:order(why)` markers. A multi-line block
/// comment can contribute several of each; line numbers are adjusted per
/// comment line.
fn scan_comment(
    t: &Token,
    allows: &mut Vec<Allow>,
    claims: &mut Vec<ClaimTag>,
    orders: &mut Vec<OrderNote>,
) {
    for (off, line_text) in t.text.lines().enumerate() {
        let line = t.line + off as u32;
        if let Some(pos) = line_text.find("race:order(") {
            let rest = &line_text[pos + "race:order(".len()..];
            // The reason may itself contain parentheses — take up to the
            // balancing close (or end of line for an unclosed note).
            let mut depth = 1i32;
            let mut end = rest.len();
            for (i, c) in rest.char_indices() {
                match c {
                    '(' => depth += 1,
                    ')' => {
                        depth -= 1;
                        if depth == 0 {
                            end = i;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            orders.push(OrderNote {
                line,
                reason: rest[..end].trim().to_string(),
            });
        }
        if let Some(pos) = line_text.find("audit:allow(") {
            let rest = &line_text[pos + "audit:allow(".len()..];
            if let Some(close) = rest.find(')') {
                let rule = rest[..close].trim().to_string();
                let reason = rest[close + 1..]
                    .trim()
                    .trim_start_matches([':', '-', '—'])
                    .trim()
                    .to_string();
                allows.push(Allow { rule, line, reason });
            }
        }
        let mut search = line_text;
        while let Some(pos) = search.find("CLAIM(") {
            let rest = &search[pos + "CLAIM(".len()..];
            let Some(close) = rest.find(')') else { break };
            for id in rest[..close].split(',') {
                let id = id.trim();
                if !id.is_empty() {
                    claims.push(ClaimTag {
                        id: id.to_string(),
                        line,
                    });
                }
            }
            search = &rest[close + 1..];
        }
    }
}

/// Marks lines covered by test items. Token-level heuristic: whenever an
/// attribute `#[…]` mentions the identifier `test` (`#[test]`,
/// `#[cfg(test)]`, `#[cfg(all(test, …))]`), the next item's braced body
/// — from its opening `{` through the matching `}` — is a test region.
fn mark_test_regions(tokens: &[Token], line_count: usize) -> Vec<bool> {
    let mut marked = vec![false; line_count];
    let code: Vec<(usize, &Token)> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_comment())
        .collect();
    let mut i = 0usize;
    while i < code.len() {
        let (_, t) = code[i];
        if t.is_punct('#') && i + 1 < code.len() && code[i + 1].1.is_punct('[') {
            // scan the attribute's bracket group for ident `test`
            let mut depth = 0i32;
            let mut j = i + 1;
            let mut is_test_attr = false;
            while j < code.len() {
                let tok = code[j].1;
                if tok.is_punct('[') {
                    depth += 1;
                } else if tok.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if tok.is_ident("test") {
                    is_test_attr = true;
                }
                j += 1;
            }
            if is_test_attr {
                // find the item's opening brace (skipping nested
                // attributes), then mark through the matching close.
                let mut k = j + 1;
                let mut brace = 0i32;
                let mut start_line = None;
                while k < code.len() {
                    let tok = code[k].1;
                    if tok.is_punct('{') {
                        brace += 1;
                        if start_line.is_none() {
                            start_line = Some(tok.line);
                        }
                    } else if tok.is_punct('}') {
                        brace -= 1;
                        if brace == 0 && start_line.is_some() {
                            break;
                        }
                    } else if tok.is_punct(';') && start_line.is_none() {
                        break; // braceless item (e.g. `#[cfg(test)] use …;`)
                    }
                    k += 1;
                }
                if let Some(start) = start_line {
                    let end = code.get(k).map(|(_, t)| t.line).unwrap_or(start);
                    // include the attribute's own line(s)
                    let attr_line = t.line;
                    for line in attr_line..=end {
                        if let Some(slot) = marked.get_mut((line as usize).saturating_sub(1)) {
                            *slot = true;
                        }
                    }
                    i = k + 1;
                    continue;
                }
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    marked
}

/// Recursively collects `.rs` files under `root`, skipping `excluded`
/// path prefixes (relative, `/`-separated) and hidden/`target`
/// directories. Paths come back sorted for deterministic reports.
pub fn collect_rs_files(root: &Path, roots: &[String], excluded: &[String]) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for r in roots {
        let dir = root.join(r);
        if dir.is_file() {
            out.push(dir);
        } else {
            walk(root, &dir, excluded, &mut out);
        }
    }
    out.sort();
    out.dedup();
    out
}

fn walk(root: &Path, dir: &Path, excluded: &[String], out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let rel = rel_str(root, &path);
        if excluded.iter().any(|e| rel.starts_with(e.as_str())) {
            continue;
        }
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(root, &path, excluded, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// `path` relative to `root` as a `/`-separated string.
pub fn rel_str(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_regions_cover_cfg_test_mod() {
        let src = "pub fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   \x20   #[test]\n\
                   \x20   fn t() { y.unwrap(); }\n\
                   }\n\
                   pub fn after() {}\n";
        let f = SourceFile::new("x.rs".into(), src);
        assert!(!f.in_test(1));
        assert!(f.in_test(2));
        assert!(f.in_test(5));
        assert!(f.in_test(6));
        assert!(!f.in_test(7));
    }

    #[test]
    fn allow_and_claim_annotations_are_parsed() {
        let src = "// audit:allow(spawn-containment) joined by the caller\n\
                   let h = std::thread::spawn(f);\n\
                   // CLAIM(L2.1, C2.1): bound window\n\
                   // audit:allow(obs-coverage)\n\
                   fn f() {}\n";
        let f = SourceFile::new("x.rs".into(), src);
        assert!(f.allowed("spawn-containment", 2));
        assert!(!f.allowed("obs-coverage", 5), "reasonless allow is inert");
        assert_eq!(f.claims.len(), 2);
        assert_eq!(f.claims[0].id, "L2.1");
        assert_eq!(f.claims[1].id, "C2.1");
        assert_eq!(f.claims[1].line, 3);
    }

    #[test]
    fn race_order_notes_parse_with_nested_parens() {
        let src = "// race:order(counter is a statistic (read after join))\n\
                   c.fetch_add(1, Ordering::Relaxed);\n\
                   fn g() {}\n\
                   fn h() {}\n\
                   x.load(Ordering::Relaxed); // race:order()\n\
                   /// race:order(doc comments do not carry annotations)\n\
                   fn f() {}\n";
        let f = SourceFile::new("x.rs".into(), src);
        assert_eq!(f.orders.len(), 2);
        assert_eq!(f.orders[0].line, 1);
        assert_eq!(
            f.orders[0].reason,
            "counter is a statistic (read after join)"
        );
        assert!(f.order_justified(2), "note covers the next code line");
        assert!(f.orders[1].reason.is_empty(), "reasonless note is recorded");
        assert!(!f.order_justified(5), "reasonless note justifies nothing");
    }
}
