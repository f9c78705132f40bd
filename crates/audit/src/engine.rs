//! The audit engine: walk, lex, run rules, apply annotations, report.

use crate::config::{Config, Level};
use crate::report::{self, Violation};
use crate::rules::{self, claims, doc_drift, obs_coverage, race};
use crate::source::{collect_rs_files, rel_str, SourceFile};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// The jp-race shared-state model, kept on the [`Outcome`] so the
/// `race` subcommand can print it and `check` can write the DOT.
#[derive(Debug)]
pub struct RaceSummary {
    /// Per-file models for every file in any race rule's scope.
    pub models: Vec<(String, race::FileModel)>,
    /// Rendered lock-order graph, present when `lock-order` is
    /// enforced over a non-empty path scope.
    pub dot: Option<String>,
}

/// Result of one audit run.
#[derive(Debug)]
pub struct Outcome {
    /// Findings that survived annotation filtering, with their levels.
    pub violations: Vec<(Level, Violation)>,
    /// The rendered claims matrix (present unless the rule is `allow`ed).
    pub matrix: Option<String>,
    /// The shared-state model (present when any race rule is enforced).
    pub race: Option<RaceSummary>,
}

impl Outcome {
    /// Whether any `deny`-level finding remains.
    pub fn failed(&self) -> bool {
        self.violations.iter().any(|(l, _)| *l == Level::Deny)
    }
}

/// Runs every configured rule over the workspace at `root`.
pub fn run(root: &Path, config: &Config) -> std::io::Result<Outcome> {
    let audit = config.rule("audit");
    let source_roots = if audit.list("source_roots").is_empty() {
        vec!["src".to_string(), "crates".to_string()]
    } else {
        audit.list("source_roots").to_vec()
    };
    let excluded = audit.list("exclude").to_vec();
    let mut files = Vec::new();
    for path in collect_rs_files(root, &source_roots, &excluded) {
        let text = std::fs::read_to_string(&path)?;
        files.push(SourceFile::new(rel_str(root, &path), &text));
    }

    let mut raw: Vec<Violation> = Vec::new();
    let mut matrix = None;

    // obs-coverage + component cross-check
    let oc = config.rule(obs_coverage::NAME);
    if oc.level() != Level::Allow {
        let mut seen = BTreeSet::new();
        for f in files.iter().filter(|f| f.in_scope(oc.list("paths"))) {
            obs_coverage::check(f, &mut seen, &mut raw);
        }
        obs_coverage::check_components(oc.list("components"), &seen, "audit.toml", &mut raw);
    }

    // claim-traceability + matrix
    let ct = config.rule(claims::NAME);
    if ct.level() != Level::Allow {
        let mut paper_texts = Vec::new();
        for doc in ct.list("paper_docs") {
            let text = std::fs::read_to_string(root.join(doc))?;
            paper_texts.push((doc.clone(), text));
        }
        let idx = claims::build_index(&paper_texts, &files);
        claims::check(&idx, ct.list("headline"), "audit.toml", &mut raw);
        matrix = Some(claims::matrix(&idx, ct.list("headline")));
    }

    // doc-drift between the flag-parsing sources and the README,
    // both directions: undocumented flags and stale README rows
    let dd = config.rule(doc_drift::NAME);
    if dd.level() != Level::Allow {
        let srcs = if dd.list("srcs").is_empty() {
            vec![dd.str("cli_src").unwrap_or("crates/cli/src/").to_string()]
        } else {
            dd.list("srcs").to_vec()
        };
        let mut flags = BTreeMap::new();
        for f in files.iter().filter(|f| f.in_scope(&srcs)) {
            doc_drift::collect_flags(f, &mut flags);
        }
        let readme_path = dd.str("readme").unwrap_or("README.md");
        let readme = std::fs::read_to_string(root.join(readme_path))?;
        doc_drift::check(&flags, &readme, &mut raw);
        doc_drift::check_readme_rows(&flags, &readme, readme_path, &mut raw);
    }

    // jp-race: build the shared-state model once over the union of the
    // four rules' scopes, then drive each rule over its own scope.
    let ao = config.rule(race::ATOMIC_ORDERING);
    let lo = config.rule(race::LOCK_ORDER);
    let gc = config.rule(race::GUARD_ACROSS_CALL);
    let sc = config.rule(race::SPAWN_CONTAINMENT);
    let race_rules = [&ao, &lo, &gc, &sc];
    let mut race_summary = None;
    if race_rules.iter().any(|r| r.level() != Level::Allow) {
        let forbidden: Vec<String> = if gc.list("calls").is_empty() {
            race::DEFAULT_FORBIDDEN_CALLS
                .iter()
                .map(|s| s.to_string())
                .collect()
        } else {
            gc.list("calls").to_vec()
        };
        let mut models: Vec<(usize, race::FileModel)> = Vec::new();
        for (idx, f) in files.iter().enumerate() {
            let wanted = race_rules
                .iter()
                .any(|r| r.level() != Level::Allow && f.in_scope(r.list("paths")));
            if wanted {
                models.push((idx, race::extract(f, &forbidden)));
            }
        }
        if ao.level() != Level::Allow {
            for (idx, m) in &models {
                let f = &files[*idx];
                if f.in_scope(ao.list("paths")) {
                    race::check_atomic_ordering(f, m, &mut raw);
                }
            }
        }
        let mut dot = None;
        if lo.level() != Level::Allow {
            let graph = race::lock_graph(
                models
                    .iter()
                    .filter(|(idx, _)| files[*idx].in_scope(lo.list("paths")))
                    .map(|(idx, m)| (files[*idx].rel_path.as_str(), m)),
            );
            race::check_lock_order(&graph, &mut raw);
            if !lo.list("paths").is_empty() {
                dot = Some(race::lock_order_dot(&graph));
            }
        }
        if gc.level() != Level::Allow {
            for (idx, m) in &models {
                let f = &files[*idx];
                if f.in_scope(gc.list("paths")) {
                    race::check_guard_across_call(f, m, &mut raw);
                }
            }
        }
        if sc.level() != Level::Allow {
            for (idx, m) in &models {
                let f = &files[*idx];
                if f.in_scope(sc.list("paths")) {
                    race::check_spawn_containment(f, m, &mut raw);
                }
            }
        }
        race_summary = Some(RaceSummary {
            models: models
                .into_iter()
                .map(|(idx, m)| (files[idx].rel_path.clone(), m))
                .collect(),
            dot,
        });
    }

    // allow-annotation hygiene: every escape hatch names a real rule and
    // states a reason — the annotations themselves are auditable.
    let aa = config.rule(rules::ALLOW_ANNOTATION);
    if aa.level() != Level::Allow {
        for f in &files {
            for a in &f.allows {
                if !rules::ALL.contains(&a.rule.as_str()) {
                    raw.push(Violation::new(
                        rules::ALLOW_ANNOTATION,
                        &f.rel_path,
                        a.line,
                        format!("audit:allow names unknown rule \"{}\"", a.rule),
                    ));
                } else if a.reason.is_empty() {
                    raw.push(Violation::new(
                        rules::ALLOW_ANNOTATION,
                        &f.rel_path,
                        a.line,
                        format!(
                            "audit:allow({}) has no reason — escape hatches must say why",
                            a.rule
                        ),
                    ));
                }
            }
        }
    }

    // apply annotations, attach levels, sort
    let by_path: BTreeMap<&str, &SourceFile> =
        files.iter().map(|f| (f.rel_path.as_str(), f)).collect();
    let mut violations: Vec<(Level, Violation)> = raw
        .into_iter()
        .filter(|v| {
            // allow-annotation findings cannot be allow-annotated away
            v.rule == rules::ALLOW_ANNOTATION
                || !by_path
                    .get(v.file.as_str())
                    .is_some_and(|f| f.allowed(&v.rule, v.line))
        })
        .map(|v| (config.rule(&v.rule).level(), v))
        .collect();
    report::sort(&mut violations);
    Ok(Outcome {
        violations,
        matrix,
        race: race_summary,
    })
}
