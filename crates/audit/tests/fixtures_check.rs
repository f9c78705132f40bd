//! End-to-end checks of the analyzer against the seeded fixture trees
//! under `tests/fixtures/`: exact findings via the library engine, exit
//! codes via the real binary. The fixture sources never compile — the
//! analyzer works at the token level, so the trees only need to *lex*.

use jp_audit::{config::Config, engine, Level};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run_engine(name: &str, config_text: &str) -> engine::Outcome {
    let config = Config::parse(config_text).unwrap();
    engine::run(&fixture(name), &config).unwrap()
}

fn fixture_config(name: &str) -> String {
    std::fs::read_to_string(fixture(name).join("audit.toml")).unwrap()
}

#[test]
fn violations_fixture_reports_exact_findings() {
    let outcome = run_engine("violations", &fixture_config("violations"));
    assert!(outcome.failed());
    let got: Vec<(String, u32, String)> = outcome
        .violations
        .iter()
        .map(|(level, v)| {
            assert_eq!(*level, Level::Deny, "{v}");
            (v.file.clone(), v.line, v.rule.clone())
        })
        .collect();
    let want: Vec<(String, u32, String)> = [
        // the README table's `--retired` row names a flag nothing parses
        ("README.md", 11, "doc-drift"),
        // headline T1.1 is cited by no test
        ("audit.toml", 1, "claim-traceability"),
        // "ghost.component" is configured but never emitted
        ("audit.toml", 1, "obs-coverage"),
        // --budget is parsed but absent from the README
        ("src/cli/run.rs", 5, "doc-drift"),
        // pub fn `solve` opens no span
        ("src/solver/exact.rs", 4, "obs-coverage"),
        // audit:allow with no reason
        ("src/solver/exact.rs", 9, "allow-annotation"),
        // pub fn `annotated_without_reason` opens no span — the
        // reason-less annotation does not suppress it
        ("src/solver/exact.rs", 10, "obs-coverage"),
        // audit:allow naming an unknown rule
        ("src/solver/exact.rs", 14, "allow-annotation"),
        // CLAIM(T9.9) cites an ID the paper does not contain
        ("src/solver/exact.rs", 19, "claim-traceability"),
    ]
    .into_iter()
    .map(|(f, l, r)| (f.to_string(), l, r.to_string()))
    .collect();
    assert_eq!(got, want);
}

#[test]
fn clean_fixture_has_no_findings_and_a_cited_matrix() {
    let outcome = run_engine("clean", &fixture_config("clean"));
    assert!(!outcome.failed());
    assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
    let matrix = outcome.matrix.expect("matrix must render");
    assert!(matrix.contains("| T1.1 | the fixture solver terminates | 1 |"));
    assert!(matrix.contains("✓"));
}

#[test]
fn warn_level_findings_do_not_fail_the_run() {
    let warned = fixture_config("violations").replace("\"deny\"", "\"warn\"");
    let outcome = run_engine("violations", &warned);
    assert!(!outcome.failed(), "warn findings must not gate");
    assert!(!outcome.violations.is_empty());
    assert!(outcome
        .violations
        .iter()
        .all(|(level, _)| *level == Level::Warn));
}

#[test]
fn allow_level_disables_a_rule_entirely() {
    let silenced = fixture_config("violations").replace(
        "[obs-coverage]\nlevel = \"deny\"",
        "[obs-coverage]\nlevel = \"allow\"",
    );
    let outcome = run_engine("violations", &silenced);
    assert!(outcome
        .violations
        .iter()
        .all(|(_, v)| v.rule != "obs-coverage"));
}

#[test]
fn binary_fails_on_the_seeded_violations_fixture() {
    let out = Command::new(env!("CARGO_BIN_EXE_jp-audit"))
        .args(["check", "--root"])
        .arg(fixture("violations"))
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "must exit non-zero:\n{stdout}");
    assert!(
        stdout
            .contains("src/solver/exact.rs:14: [allow-annotation] audit:allow names unknown rule"),
        "{stdout}"
    );
    assert!(stdout.contains("9 denied, 0 warned"), "{stdout}");
}

#[test]
fn binary_passes_on_the_clean_fixture() {
    let out = Command::new(env!("CARGO_BIN_EXE_jp-audit"))
        .args(["check", "--root"])
        .arg(fixture("clean"))
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "must exit zero:\n{stdout}");
    assert!(stdout.contains("0 denied, 0 warned"), "{stdout}");
}

#[test]
fn race_violations_fixture_reports_exact_findings() {
    let outcome = run_engine("race_violations", &fixture_config("race_violations"));
    assert!(outcome.failed());
    let got: Vec<(String, u32, String)> = outcome
        .violations
        .iter()
        .map(|(level, v)| {
            assert_eq!(*level, Level::Deny, "{v}");
            (v.file.clone(), v.line, v.rule.clone())
        })
        .collect();
    let want: Vec<(String, u32, String)> = [
        // ALPHA -> BETA, half of the seeded cycle
        ("src/conc/locks.rs", 6, "lock-order"),
        // BETA -> ALPHA, the other half
        ("src/conc/locks.rs", 12, "lock-order"),
        // flush_sink() while guard `inner` is live
        ("src/conc/locks.rs", 18, "guard-across-call"),
        // detached thread::spawn
        ("src/conc/spawn.rs", 4, "spawn-containment"),
        // fetch_add(Relaxed) with no race:order note
        ("src/conc/state.rs", 5, "atomic-ordering"),
        // race:order() with no reason
        ("src/conc/state.rs", 9, "atomic-ordering"),
        // load(Acquire) — the reason-less note does not justify it
        ("src/conc/state.rs", 10, "atomic-ordering"),
        // a note covering no relaxed op (stale)
        ("src/conc/state.rs", 14, "atomic-ordering"),
    ]
    .into_iter()
    .map(|(f, l, r)| (f.to_string(), l, r.to_string()))
    .collect();
    assert_eq!(got, want);
    let race = outcome.race.expect("race summary present");
    let dot = race.dot.expect("lock-order scope is non-empty");
    assert!(dot.contains("color=red"), "cycle must render red:\n{dot}");
}

#[test]
fn race_clean_fixture_is_quiet_with_an_acyclic_graph() {
    let outcome = run_engine("race_clean", &fixture_config("race_clean"));
    assert!(!outcome.failed());
    assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
    let race = outcome.race.expect("race summary present");
    let dot = race.dot.expect("lock-order scope is non-empty");
    assert!(dot.contains("\"ALPHA\" -> \"BETA\""), "{dot}");
    assert!(!dot.contains("color=red"), "{dot}");
    // the annotated detached spawn stays in the model even though the
    // audit:allow suppresses its finding
    let spawns: usize = race.models.iter().map(|(_, m)| m.spawns.len()).sum();
    assert_eq!(spawns, 2);
}

#[test]
fn race_rules_at_warn_level_do_not_gate() {
    let warned = fixture_config("race_violations").replace("\"deny\"", "\"warn\"");
    let outcome = run_engine("race_violations", &warned);
    assert!(!outcome.failed(), "warn findings must not gate");
    assert_eq!(outcome.violations.len(), 8);
}

#[test]
fn binary_race_fails_on_the_seeded_violations_and_writes_the_dot() {
    let dot_path = std::env::temp_dir().join(format!(
        "jp_audit_race_violations_{}.dot",
        std::process::id()
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_jp-audit"))
        .args(["race", "--root"])
        .arg(fixture("race_violations"))
        .arg("--dot")
        .arg(&dot_path)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let dot = std::fs::read_to_string(&dot_path).expect("DOT must be written");
    let _ = std::fs::remove_file(&dot_path);
    assert_eq!(out.status.code(), Some(1), "deny findings:\n{stdout}");
    assert!(
        stdout.contains("shared-state model (3 files in scope):"),
        "{stdout}"
    );
    assert!(stdout.contains("closes a lock-order cycle"), "{stdout}");
    assert!(
        stdout.contains("src/conc/spawn.rs:4: [spawn-containment]"),
        "{stdout}"
    );
    assert!(dot.contains("color=red"), "{dot}");
}

#[test]
fn binary_race_passes_on_the_clean_tree() {
    let dot_path =
        std::env::temp_dir().join(format!("jp_audit_race_clean_{}.dot", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_jp-audit"))
        .args(["race", "--root"])
        .arg(fixture("race_clean"))
        .arg("--dot")
        .arg(&dot_path)
        .args(["--model"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let dot = std::fs::read_to_string(&dot_path).expect("DOT must be written");
    let _ = std::fs::remove_file(&dot_path);
    assert_eq!(
        out.status.code(),
        Some(0),
        "clean tree must pass:\n{stdout}"
    );
    assert!(
        stdout.contains("[justified]"),
        "--model marks the note:\n{stdout}"
    );
    assert!(stdout.contains("ALPHA -> BETA"), "{stdout}");
    assert!(!dot.contains("color=red"), "{dot}");
}

#[test]
fn a_section_naming_no_rule_is_a_config_error() {
    let err = Config::parse(&fixture_config("unknown_section")).unwrap_err();
    assert_eq!(err.line, 9, "{err}");
    assert!(err.message.contains("[panic-freedom]"), "{err}");
    let out = Command::new(env!("CARGO_BIN_EXE_jp-audit"))
        .args(["check", "--root"])
        .arg(fixture("unknown_section"))
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "config errors exit 2:\n{stderr}"
    );
    assert!(
        stderr.contains("audit.toml:9: unknown section [panic-freedom]"),
        "{stderr}"
    );
}
