//! Baseline comparison with per-counter noise tolerances.
//!
//! The committed `BENCH_pebbling.json` records, per (family, solver,
//! threads) case, the *work counters* the solvers emitted. Work is the
//! paper's cost model, and most counters are exactly reproducible, so a
//! drift is a real behavioural change — but not all counters are equal.
//! [`check_against`] classifies every `component.name` key:
//!
//! * **Answer** keys (`portfolio.winner_cost`, `portfolio.floor`, and
//!   jp-serve's `serve.cost_sum` and request-outcome counters) admit
//!   zero tolerance: any difference is a **hard** finding — the solver
//!   changed its output or its certified bound. An answer key missing on
//!   one side counts as zero there, so a `serve.errors` count that a
//!   clean baseline never emitted still fails the check.
//! * **Scheduling** keys (`par.*`, `portfolio.winner.*`,
//!   `portfolio.completed` / `abandoned`, `exact.abandoned_at_mask`)
//!   depend on thread interleaving; drift is reported as **soft** (never
//!   failing) and only when it exceeds [`Tolerances::soft_rel`].
//! * **Memory** keys (`mem.*`, published by the jp-pulse allocation
//!   accounting) gate allocation regressions: drift beyond
//!   [`Tolerances::mem_rel`] *and* [`Tolerances::mem_abs`] is **hard**
//!   (the absolute floor is a full mebibyte — allocation byte counts
//!   jitter with scheduling, so only megabyte-scale drift is signal).
//!   A `mem.*` key missing from the run is always **soft** — the
//!   tracking allocator is feature-gated and may be compiled out.
//! * **Work** keys (everything else: `exact.dp_states`,
//!   `bb.nodes_expanded`, `memo.hit`, …) are deterministic for a fixed
//!   input and thread count; drift beyond [`Tolerances::hard_rel`]
//!   *and* [`Tolerances::hard_abs`] is **hard**, as is a deterministic
//!   counter disappearing entirely.
//! * Span **timings** and wall clock are machine-dependent: always
//!   soft, reported only past `soft_rel`.
//!
//! A check passes iff it produced no hard finding; `trace check` turns
//! that into the CI exit code.

use crate::analyze::Analysis;
use jp_obs::StatsSnapshot;
use serde::Deserialize;
use std::collections::BTreeSet;

/// One `(family, solver, threads)` entry of `BENCH_pebbling.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct BaselineCase {
    /// Graph family name, e.g. `spider_10`.
    pub family: String,
    /// Solver name, e.g. `portfolio`.
    pub solver: String,
    /// Worker threads the case was measured with.
    pub threads: u64,
    /// Edge count of the instance.
    pub edges: u64,
    /// The scheme cost the solver reported.
    pub effective_cost: u64,
    /// Wall time of the measured run (informational only).
    pub wall_micros: u64,
    /// The captured counter/span aggregation.
    pub stats: StatsSnapshot,
}

/// Parses the full baseline file (a JSON array of cases).
pub fn load_baseline(text: &str) -> Result<Vec<BaselineCase>, String> {
    serde_json::from_str::<Vec<BaselineCase>>(text).map_err(|e| format!("baseline: {e}"))
}

/// Finds the case matching `(family, solver, threads)`.
pub fn find_case<'a>(
    cases: &'a [BaselineCase],
    family: &str,
    solver: &str,
    threads: u64,
) -> Option<&'a BaselineCase> {
    cases
        .iter()
        .find(|c| c.family == family && c.solver == solver && c.threads == threads)
}

/// Severity of a finding: soft findings are advisory, a single hard
/// finding fails the check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory — expected run-to-run or machine-to-machine noise.
    Soft,
    /// Regression — deterministic work changed beyond tolerance.
    Hard,
}

/// One observed difference.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Severity class.
    pub severity: Severity,
    /// The `component.name` key (or `wall_micros` / `span:*`).
    pub key: String,
    /// Baseline value, if the key existed there.
    pub baseline: Option<u64>,
    /// Observed value, if the key exists in the run.
    pub observed: Option<u64>,
    /// Human-readable explanation.
    pub detail: String,
}

/// The outcome of a comparison.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// All findings, hard first, then by key.
    pub findings: Vec<Finding>,
}

impl DiffReport {
    /// Whether any hard finding was produced (the check failed).
    pub fn has_hard(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Hard)
    }

    fn push(&mut self, f: Finding) {
        self.findings.push(f);
    }

    fn finish(mut self) -> Self {
        self.findings
            .sort_by(|a, b| b.severity.cmp(&a.severity).then(a.key.cmp(&b.key)));
        self
    }

    /// Renders the findings (and the verdict line).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let sev = match f.severity {
                Severity::Hard => "HARD",
                Severity::Soft => "soft",
            };
            let base = f.baseline.map_or("absent".to_string(), |v| v.to_string());
            let obs = f.observed.map_or("absent".to_string(), |v| v.to_string());
            out.push_str(&format!(
                "{sev}  {key:<40} baseline {base:>12} observed {obs:>12}  {detail}\n",
                key = f.key,
                detail = f.detail
            ));
        }
        let hard = self
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Hard)
            .count();
        out.push_str(&format!(
            "{} finding(s), {} hard — {}\n",
            self.findings.len(),
            hard,
            if hard == 0 { "PASS" } else { "FAIL" }
        ));
        out
    }
}

/// Noise tolerances, per severity class. The defaults are the
/// documented gate used by CI:
///
/// * `hard_rel` = 0.10, `hard_abs` = 2 — a work counter fails only when
///   it drifts by more than 10% *and* more than 2 absolute units, so
///   tiny counters don't flap;
/// * `soft_rel` = 0.50 — scheduling counters and timings are only worth
///   mentioning past 50% drift;
/// * `mem_rel` = 0.25, `mem_abs` = 1 MiB — allocation accounting fails
///   only past 25% *and* 1 MiB drift: byte counts jitter with thread
///   scheduling, portfolio abort timing, and std internals, so only
///   megabyte-scale regressions are signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    /// Relative drift above which a work counter is a hard finding.
    pub hard_rel: f64,
    /// Absolute drift a work counter must also exceed to be hard.
    pub hard_abs: u64,
    /// Relative drift above which soft-class keys are reported at all.
    pub soft_rel: f64,
    /// Relative drift above which a `mem.*` key is a hard finding.
    pub mem_rel: f64,
    /// Absolute drift a `mem.*` key must also exceed to be hard.
    pub mem_abs: u64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            hard_rel: 0.10,
            hard_abs: 2,
            soft_rel: 0.50,
            mem_rel: 0.25,
            mem_abs: 1024 * 1024,
        }
    }
}

/// Whether `key` is an **Answer** or **Work** key: deterministic for a
/// fixed input and thread count, unlike the scheduling-dependent and
/// memory keys. Span timings are never deterministic.
pub fn is_deterministic(key: &str) -> bool {
    matches!(class_of(key), Class::Answer | Class::Work)
}

/// The counter classes; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Answer,
    Scheduling,
    Memory,
    Work,
}

fn class_of(key: &str) -> Class {
    match key {
        "portfolio.winner_cost" | "portfolio.floor" => Class::Answer,
        // jp-serve request outcomes and the cost sum: for a fixed
        // workload these are exact invariants of the serving stack — any
        // drift means a lost, failed, or wrongly answered request
        "serve.cost_sum" | "serve.completed" | "serve.errors" | "serve.rejected" => Class::Answer,
        "portfolio.completed" | "portfolio.abandoned" | "exact.abandoned_at_mask" => {
            Class::Scheduling
        }
        _ if key.starts_with("par.") || key.starts_with("portfolio.winner.") => Class::Scheduling,
        _ if key.starts_with("mem.") => Class::Memory,
        _ => Class::Work,
    }
}

fn rel_drift(baseline: u64, observed: u64) -> f64 {
    let diff = baseline.abs_diff(observed) as f64;
    diff / (baseline.max(1)) as f64
}

fn compare_key(
    report: &mut DiffReport,
    key: &str,
    label: &str,
    baseline: Option<u64>,
    observed: Option<u64>,
    timing: bool,
    tol: &Tolerances,
) {
    let class = if timing {
        Class::Scheduling
    } else {
        class_of(key)
    };
    let (baseline, observed) = match class {
        // counters are emitted only when nonzero: absent means zero
        Class::Answer => (baseline.or(Some(0)), observed.or(Some(0))),
        _ => (baseline, observed),
    };
    match (baseline, observed) {
        (Some(b), Some(o)) if b == o => {}
        (Some(b), Some(o)) => {
            let rel = rel_drift(b, o);
            let abs = b.abs_diff(o);
            match class {
                Class::Answer => report.push(Finding {
                    severity: Severity::Hard,
                    key: key.to_string(),
                    baseline: Some(b),
                    observed: Some(o),
                    detail: format!("{label} admits zero tolerance (solver answer changed)"),
                }),
                Class::Work if rel > tol.hard_rel && abs > tol.hard_abs => {
                    report.push(Finding {
                        severity: Severity::Hard,
                        key: key.to_string(),
                        baseline: Some(b),
                        observed: Some(o),
                        detail: format!(
                            "{label} drifted {:.0}% (> {:.0}% and > {} absolute)",
                            rel * 100.0,
                            tol.hard_rel * 100.0,
                            tol.hard_abs
                        ),
                    });
                }
                Class::Memory if rel > tol.mem_rel && abs > tol.mem_abs => {
                    report.push(Finding {
                        severity: Severity::Hard,
                        key: key.to_string(),
                        baseline: Some(b),
                        observed: Some(o),
                        detail: format!(
                            "allocation drifted {:.0}% (> {:.0}% and > {} absolute)",
                            rel * 100.0,
                            tol.mem_rel * 100.0,
                            tol.mem_abs
                        ),
                    });
                }
                Class::Work | Class::Scheduling | Class::Memory if rel > tol.soft_rel => {
                    report.push(Finding {
                        severity: Severity::Soft,
                        key: key.to_string(),
                        baseline: Some(b),
                        observed: Some(o),
                        detail: format!("{label} drifted {:.0}% (within gate)", rel * 100.0),
                    });
                }
                _ => {}
            }
        }
        (Some(b), None) => {
            let severity = match class {
                Class::Answer | Class::Work if !timing => Severity::Hard,
                _ => Severity::Soft,
            };
            report.push(Finding {
                severity,
                key: key.to_string(),
                baseline: Some(b),
                observed: None,
                detail: format!("{label} present in baseline but missing from the run"),
            });
        }
        (None, Some(o)) => report.push(Finding {
            severity: Severity::Soft,
            key: key.to_string(),
            baseline: None,
            observed: Some(o),
            detail: format!("{label} emitted by the run but absent from the baseline"),
        }),
        (None, None) => {}
    }
}

/// Checks a run's aggregation against one baseline case. The run is
/// usually an [`Analysis`] of a per-case trace produced by the baseline
/// bench with `--trace-dir`.
pub fn check_against(case: &BaselineCase, run: &Analysis, tol: &Tolerances) -> DiffReport {
    let mut report = DiffReport::default();
    let keys: BTreeSet<&String> = case
        .stats
        .counters
        .keys()
        .chain(run.counters.keys())
        .collect();
    for key in keys {
        compare_key(
            &mut report,
            key,
            "work counter",
            case.stats.counters.get(key).copied(),
            run.counters.get(key).copied(),
            false,
            tol,
        );
    }
    let span_keys: BTreeSet<&String> = case
        .stats
        .span_counts
        .keys()
        .chain(run.spans.keys())
        .collect();
    for key in span_keys {
        compare_key(
            &mut report,
            &format!("span-count:{key}"),
            "span count",
            case.stats.span_counts.get(key).copied(),
            run.spans.get(key).map(|s| s.count),
            false,
            tol,
        );
        compare_key(
            &mut report,
            &format!("span-micros:{key}"),
            "span timing",
            case.stats.span_micros.get(key).copied(),
            run.spans.get(key).map(|s| s.total),
            true,
            tol,
        );
    }
    report.finish()
}

/// Symmetric comparison of two analyzed runs (`trace diff A B`): every
/// difference is soft — this is a lens, not a gate.
pub fn diff_analyses(a: &Analysis, b: &Analysis, tol: &Tolerances) -> DiffReport {
    let mut report = DiffReport::default();
    let keys: BTreeSet<&String> = a.counters.keys().chain(b.counters.keys()).collect();
    for key in keys {
        let (va, vb) = (a.counters.get(key).copied(), b.counters.get(key).copied());
        if va != vb {
            let rel = match (va, vb) {
                (Some(x), Some(y)) => rel_drift(x, y),
                _ => f64::INFINITY,
            };
            report.push(Finding {
                severity: Severity::Soft,
                key: key.to_string(),
                baseline: va,
                observed: vb,
                detail: format!("counter differs by {:.0}%", rel.min(9.99) * 100.0),
            });
        }
    }
    let span_keys: BTreeSet<&String> = a.spans.keys().chain(b.spans.keys()).collect();
    for key in span_keys {
        let ca = a.spans.get(key).map(|s| s.count);
        let cb = b.spans.get(key).map(|s| s.count);
        if ca != cb {
            report.push(Finding {
                severity: Severity::Soft,
                key: format!("span-count:{key}"),
                baseline: ca,
                observed: cb,
                detail: "span count differs".to_string(),
            });
        }
        let ta = a.spans.get(key).map(|s| s.total).unwrap_or(0);
        let tb = b.spans.get(key).map(|s| s.total).unwrap_or(0);
        if rel_drift(ta, tb) > tol.soft_rel {
            report.push(Finding {
                severity: Severity::Soft,
                key: format!("span-micros:{key}"),
                baseline: Some(ta),
                observed: Some(tb),
                detail: format!("span timing differs by {:.0}%", rel_drift(ta, tb) * 100.0),
            });
        }
    }
    report.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jp_obs::Event;

    fn counter_event(seq: u64, key: (&str, &str), value: u64) -> Event {
        let mut e = Event::counter(key.0, key.1, value);
        e.seq = seq;
        e.thread = 1;
        e
    }

    fn span_event(seq: u64, key: (&str, &str), micros: u64) -> Event {
        let mut e = Event::span(key.0, key.1, micros);
        e.seq = seq;
        e.thread = 1;
        e
    }

    fn baseline_case(counters: &[(&str, u64)]) -> BaselineCase {
        let mut stats = StatsSnapshot::default();
        for (k, v) in counters {
            stats.counters.insert(k.to_string(), *v);
        }
        BaselineCase {
            family: "spider_10".into(),
            solver: "portfolio".into(),
            threads: 1,
            edges: 20,
            effective_cost: 24,
            wall_micros: 1000,
            stats,
        }
    }

    #[test]
    fn identical_runs_pass_with_no_findings() {
        let case = baseline_case(&[("exact.dp_states", 1000), ("par.steals", 3)]);
        let run = Analysis::from_events(&[
            counter_event(0, ("exact", "dp_states"), 1000),
            counter_event(1, ("par", "steals"), 3),
        ]);
        let report = check_against(&case, &run, &Tolerances::default());
        assert!(report.findings.is_empty(), "{}", report.render());
        assert!(!report.has_hard());
        assert!(report.render().contains("PASS"));
    }

    #[test]
    fn doubled_dp_states_is_a_hard_finding_naming_the_counter() {
        let case = baseline_case(&[("exact.dp_states", 1000)]);
        let run = Analysis::from_events(&[counter_event(0, ("exact", "dp_states"), 2000)]);
        let report = check_against(&case, &run, &Tolerances::default());
        assert!(report.has_hard());
        let hard = report
            .findings
            .iter()
            .find(|f| f.severity == Severity::Hard)
            .unwrap();
        assert_eq!(hard.key, "exact.dp_states");
        assert!(report.render().contains("FAIL"));
        assert!(report.render().contains("exact.dp_states"));
    }

    #[test]
    fn small_absolute_noise_on_tiny_counters_is_tolerated() {
        // 1 → 2 is +100% relative but only 1 absolute: within hard_abs.
        let case = baseline_case(&[("memo.miss", 1)]);
        let run = Analysis::from_events(&[counter_event(0, ("memo", "miss"), 2)]);
        let report = check_against(&case, &run, &Tolerances::default());
        assert!(!report.has_hard(), "{}", report.render());
    }

    #[test]
    fn scheduling_counters_never_fail_the_check() {
        let case = baseline_case(&[("par.steals", 2), ("portfolio.completed", 8)]);
        let run = Analysis::from_events(&[
            counter_event(0, ("par", "steals"), 40),
            counter_event(1, ("portfolio", "completed"), 3),
        ]);
        let report = check_against(&case, &run, &Tolerances::default());
        assert!(!report.has_hard(), "{}", report.render());
        assert!(!report.findings.is_empty(), "big drift is still reported");
    }

    #[test]
    fn answer_counters_admit_zero_tolerance() {
        let case = baseline_case(&[("portfolio.winner_cost", 24)]);
        let run = Analysis::from_events(&[counter_event(0, ("portfolio", "winner_cost"), 25)]);
        let report = check_against(&case, &run, &Tolerances::default());
        assert!(report.has_hard());
    }

    #[test]
    fn an_answer_counter_absent_from_the_baseline_counts_as_zero() {
        let case = baseline_case(&[("serve.completed", 100)]);
        let run = Analysis::from_events(&[
            counter_event(0, ("serve", "completed"), 100),
            counter_event(1, ("serve", "errors"), 1),
        ]);
        let report = check_against(&case, &run, &Tolerances::default());
        assert!(report.has_hard(), "{}", report.render());
        assert!(report.render().contains("serve.errors"));
    }

    #[test]
    fn missing_work_counter_is_hard_missing_scheduling_is_soft() {
        let case = baseline_case(&[("exact.dp_states", 100), ("par.steals", 5)]);
        let run = Analysis::from_events(&[]);
        let report = check_against(&case, &run, &Tolerances::default());
        let by_key = |k: &str| {
            report
                .findings
                .iter()
                .find(|f| f.key == k)
                .map(|f| f.severity)
        };
        assert_eq!(by_key("exact.dp_states"), Some(Severity::Hard));
        assert_eq!(by_key("par.steals"), Some(Severity::Soft));
    }

    #[test]
    fn span_timings_are_soft_even_when_wildly_off() {
        let mut case = baseline_case(&[]);
        case.stats.span_counts.insert("exact.solve".into(), 1);
        case.stats.span_micros.insert("exact.solve".into(), 10);
        let run = Analysis::from_events(&[span_event(0, ("exact", "solve"), 10_000)]);
        let report = check_against(&case, &run, &Tolerances::default());
        assert!(!report.has_hard(), "{}", report.render());
        assert!(report
            .findings
            .iter()
            .any(|f| f.key == "span-micros:exact.solve"));
    }

    #[test]
    fn memory_keys_gate_only_large_allocation_regressions() {
        // +12% and ~1.2 MB over baseline: within mem_rel → not hard.
        let case = baseline_case(&[("mem.solver.bytes_peak", 10_000_000)]);
        let run =
            Analysis::from_events(&[counter_event(0, ("mem", "solver.bytes_peak"), 11_200_000)]);
        let report = check_against(&case, &run, &Tolerances::default());
        assert!(!report.has_hard(), "{}", report.render());

        // +50% and ~5 MB: past both gates → hard, naming the key.
        let run =
            Analysis::from_events(&[counter_event(0, ("mem", "solver.bytes_peak"), 15_000_000)]);
        let report = check_against(&case, &run, &Tolerances::default());
        assert!(report.has_hard(), "{}", report.render());
        assert!(report.render().contains("mem.solver.bytes_peak"));

        // +50% but only 3 bytes absolute: tiny counters never flap.
        let case = baseline_case(&[("mem.memo.allocs", 6)]);
        let run = Analysis::from_events(&[counter_event(0, ("mem", "memo.allocs"), 9)]);
        let report = check_against(&case, &run, &Tolerances::default());
        assert!(!report.has_hard(), "{}", report.render());
    }

    #[test]
    fn missing_memory_counter_is_soft_not_hard() {
        // The tracking allocator is feature-gated: a run without it must
        // not fail against a baseline that recorded allocation counters.
        let case = baseline_case(&[("mem.total.bytes_peak", 5_000_000)]);
        let run = Analysis::from_events(&[]);
        let report = check_against(&case, &run, &Tolerances::default());
        assert!(!report.has_hard(), "{}", report.render());
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].severity, Severity::Soft);
    }

    #[test]
    fn diff_analyses_is_soft_only() {
        let a = Analysis::from_events(&[counter_event(0, ("exact", "dp_states"), 10)]);
        let b = Analysis::from_events(&[counter_event(0, ("exact", "dp_states"), 99)]);
        let report = diff_analyses(&a, &b, &Tolerances::default());
        assert!(!report.has_hard());
        assert_eq!(report.findings.len(), 1);
    }

    #[test]
    fn baseline_file_round_trips() {
        let case = baseline_case(&[("exact.dp_states", 7)]);
        let json = format!(
            r#"[{{"family":"{}","solver":"{}","threads":{},"edges":{},"effective_cost":{},"wall_micros":{},"stats":{}}}]"#,
            case.family,
            case.solver,
            case.threads,
            case.edges,
            case.effective_cost,
            case.wall_micros,
            serde_json::to_string(&case.stats).unwrap()
        );
        let cases = load_baseline(&json).unwrap();
        assert_eq!(cases.len(), 1);
        assert!(find_case(&cases, "spider_10", "portfolio", 1).is_some());
        assert!(find_case(&cases, "spider_10", "portfolio", 2).is_none());
    }
}
