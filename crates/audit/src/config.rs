//! `audit.toml` — per-rule configuration.
//!
//! A deliberately small TOML subset (sections, string / bool /
//! string-array values, `#` comments) parsed by hand: the analyzer is
//! zero-dependency, and this is all the configuration surface it needs.
//!
//! ```toml
//! [obs-coverage]
//! level = "deny"
//! paths = ["crates/core/src/exact.rs", "crates/core/src/approx/"]
//! ```
//!
//! Every rule accepts `level = "deny" | "warn" | "allow"`: `deny` fails
//! the run, `warn` prints but passes, `allow` disables the rule.

use crate::rules;
use std::collections::BTreeMap;
use std::fmt;

/// How a rule's findings are treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Level {
    /// Findings fail the run (exit 1).
    #[default]
    Deny,
    /// Findings are printed but do not fail the run.
    Warn,
    /// The rule does not run.
    Allow,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Level::Deny => "deny",
            Level::Warn => "warn",
            Level::Allow => "allow",
        })
    }
}

/// A configuration value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `key = "text"`
    Str(String),
    /// `key = true` / `key = false`
    Bool(bool),
    /// `key = ["a", "b"]` (may span lines)
    List(Vec<String>),
}

/// One `[section]` of the file.
#[derive(Debug, Clone, Default)]
pub struct Section {
    entries: BTreeMap<String, Value>,
}

impl Section {
    /// String value of `key`, if present and a string.
    pub fn str(&self, key: &str) -> Option<&str> {
        match self.entries.get(key) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// List value of `key`; empty slice if absent.
    pub fn list(&self, key: &str) -> &[String] {
        match self.entries.get(key) {
            Some(Value::List(v)) => v,
            _ => &[],
        }
    }

    /// The rule level; defaults to `deny` when unset or malformed.
    pub fn level(&self) -> Level {
        match self.str("level") {
            Some("warn") => Level::Warn,
            Some("allow") => Level::Allow,
            _ => Level::Deny,
        }
    }
}

/// Parsed `audit.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    sections: BTreeMap<String, Section>,
}

/// A malformed `audit.toml` line.
#[derive(Debug)]
pub struct ConfigError {
    /// 1-based line of the problem.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "audit.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// The section for `rule`, or an empty default (level `deny`, no
    /// overrides) when the file does not mention it.
    pub fn rule(&self, rule: &str) -> Section {
        self.sections.get(rule).cloned().unwrap_or_default()
    }

    /// Parses the TOML subset. Unknown syntax is an error: a config
    /// typo silently disabling a lint would defeat the gate. So is a
    /// `[section]` that is neither `[audit]` nor a rule in
    /// [`rules::ALL`]: a misspelled or retired rule's settings would
    /// otherwise be ignored without a word.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut sections: BTreeMap<String, Section> = BTreeMap::new();
        let mut current = String::new();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                current = name.trim().to_string();
                if current != "audit" && !rules::ALL.contains(&current.as_str()) {
                    return Err(ConfigError {
                        line: idx + 1,
                        message: format!(
                            "unknown section [{current}]: not [audit] and not one of the rules {}",
                            rules::ALL.join(", ")
                        ),
                    });
                }
                sections.entry(current.clone()).or_default();
                continue;
            }
            let Some((key, rest)) = line.split_once('=') else {
                return Err(ConfigError {
                    line: idx + 1,
                    message: format!("expected `key = value` or `[section]`, got {line:?}"),
                });
            };
            let key = key.trim().to_string();
            let mut rest = rest.trim().to_string();
            // A list may span lines until its closing bracket.
            if rest.starts_with('[') {
                while !balanced_list(&rest) {
                    match lines.next() {
                        Some((_, extra)) => {
                            rest.push(' ');
                            rest.push_str(extra.trim());
                        }
                        None => {
                            return Err(ConfigError {
                                line: idx + 1,
                                message: "unterminated list".to_string(),
                            })
                        }
                    }
                }
            }
            let value = parse_value(&rest).ok_or_else(|| ConfigError {
                line: idx + 1,
                message: format!("unsupported value {rest:?}"),
            })?;
            sections
                .entry(current.clone())
                .or_default()
                .entries
                .insert(key, value);
        }
        Ok(Config { sections })
    }
}

/// Whether a list literal has its closing `]` outside any string.
fn balanced_list(s: &str) -> bool {
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => in_str = !in_str,
            ']' if !in_str => return true,
            _ => {}
        }
    }
    false
}

fn parse_value(s: &str) -> Option<Value> {
    let s = strip_trailing_comment(s);
    if s == "true" {
        return Some(Value::Bool(true));
    }
    if s == "false" {
        return Some(Value::Bool(false));
    }
    if let Some(q) = s.strip_prefix('"').and_then(|r| r.strip_suffix('"')) {
        return Some(Value::Str(q.to_string()));
    }
    let inner = s.strip_prefix('[')?.strip_suffix(']')?;
    let mut items = Vec::new();
    for part in split_list(inner) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let q = part.strip_prefix('"')?.strip_suffix('"')?;
        items.push(q.to_string());
    }
    Some(Value::List(items))
}

/// Drops a `# comment` that follows the value, respecting strings.
fn strip_trailing_comment(s: &str) -> &str {
    let mut in_str = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return s[..i].trim_end(),
            _ => {}
        }
    }
    s.trim_end()
}

/// Splits a list body on commas outside strings.
fn split_list(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0usize;
    let mut in_str = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_strings_and_lists() {
        let c = Config::parse(
            r#"
# top comment
[obs-coverage]
level = "warn"   # trailing comment
paths = ["a.rs",
         "b/"]

[doc-drift]
readme = "README.md"
enabled = true
"#,
        )
        .unwrap();
        let oc = c.rule("obs-coverage");
        assert_eq!(oc.level(), Level::Warn);
        assert_eq!(oc.list("paths"), ["a.rs".to_string(), "b/".to_string()]);
        assert_eq!(c.rule("doc-drift").str("readme"), Some("README.md"));
        assert_eq!(c.rule("absent").level(), Level::Deny);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Config::parse("not a kv line").is_err());
        assert!(Config::parse("k = [\"unterminated\"").is_err());
        assert!(Config::parse("k = 42").is_err(), "ints unsupported");
    }

    #[test]
    fn rejects_sections_that_name_no_rule() {
        let err = Config::parse("[audit]\n\n[obs-coverag]\nlevel = \"warn\"\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("[obs-coverag]"), "{err}");
        for name in rules::ALL.iter().chain(&["audit"]) {
            assert!(Config::parse(&format!("[{name}]")).is_ok(), "{name}");
        }
    }
}
