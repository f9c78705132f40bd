//! Findings and their rendering.

use crate::config::Level;
use std::fmt;

/// One rule finding, anchored to a file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The rule that fired (e.g. `obs-coverage`).
    pub rule: String,
    /// Repo-relative `/`-separated path.
    pub file: String,
    /// 1-based line (1 for whole-file findings).
    pub line: u32,
    /// Human-readable description of the problem.
    pub message: String,
}

impl Violation {
    /// Builds a finding.
    pub fn new(rule: &str, file: &str, line: u32, message: impl Into<String>) -> Violation {
        Violation {
            rule: rule.to_string(),
            file: file.to_string(),
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Sorts findings for deterministic output: by file, line, rule.
pub fn sort(violations: &mut [(Level, Violation)]) {
    violations.sort_by(|a, b| {
        (a.1.file.as_str(), a.1.line, a.1.rule.as_str()).cmp(&(
            b.1.file.as_str(),
            b.1.line,
            b.1.rule.as_str(),
        ))
    });
}
