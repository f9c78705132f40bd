//! `jp-audit` command line: `check`, `matrix`, `rules`.

use jp_audit::{config::Config, engine, Level};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
jp-audit — workspace-native static analysis

USAGE:
  jp-audit check  [--root DIR] [--config FILE]   run all rules; exit 1 on deny findings
  jp-audit matrix [--root DIR] [--config FILE]   print the claim-traceability matrix
  jp-audit race   [--root DIR] [--config FILE] [--model] [--dot FILE]
                                                 shared-state model + concurrency findings
  jp-audit rules  [--root DIR] [--config FILE]   list rules and configured levels

`check` also rewrites the matrix file configured under
[claim-traceability] matrix (default figures/claims_matrix.md) and the
lock graph configured under [lock-order] dot (default
figures/lock_order.dot). `race` prints the per-file shared-state model
summary (--model for the full inventory), writes the same DOT file
(--dot overrides the destination), and exits 1 on deny-level findings
from the four concurrency rules.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("jp-audit: error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let mut cmd = None;
    let mut root = None;
    let mut config_path = None;
    let mut full_model = false;
    let mut dot_override = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                root = Some(PathBuf::from(need_value(args, i, "--root")?));
                i += 2;
            }
            "--config" => {
                config_path = Some(PathBuf::from(need_value(args, i, "--config")?));
                i += 2;
            }
            "--model" => {
                full_model = true;
                i += 1;
            }
            "--dot" => {
                dot_override = Some(need_value(args, i, "--dot")?.to_string());
                i += 2;
            }
            "help" | "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            c if cmd.is_none() && !c.starts_with('-') => {
                cmd = Some(c.to_string());
                i += 1;
            }
            other => return Err(format!("unexpected argument {other:?}\n\n{USAGE}").into()),
        }
    }
    let root = root.unwrap_or_else(default_root);
    let config_path = config_path.unwrap_or_else(|| root.join("audit.toml"));
    let config_text = std::fs::read_to_string(&config_path)
        .map_err(|e| format!("reading {}: {e}", config_path.display()))?;
    let config = Config::parse(&config_text)?;

    match cmd.as_deref() {
        Some("check") | None => {
            let outcome = engine::run(&root, &config)?;
            if let Some(matrix) = &outcome.matrix {
                let target = config
                    .rule("claim-traceability")
                    .str("matrix")
                    .unwrap_or("figures/claims_matrix.md")
                    .to_string();
                let path = root.join(&target);
                if let Some(dir) = path.parent() {
                    std::fs::create_dir_all(dir)?;
                }
                std::fs::write(&path, matrix)?;
                println!("wrote {target}");
            }
            if let Some(dot) = outcome.race.as_ref().and_then(|r| r.dot.as_deref()) {
                write_dot(&root, &config, dot, dot_override.as_deref())?;
            }
            let (mut denies, mut warns) = (0usize, 0usize);
            for (level, v) in &outcome.violations {
                match level {
                    Level::Deny => denies += 1,
                    Level::Warn => warns += 1,
                    Level::Allow => continue,
                }
                println!("{level}: {v}");
            }
            println!(
                "jp-audit: {denies} denied, {warns} warned ({} rule{} enforced)",
                jp_audit::rules::ALL.len(),
                if jp_audit::rules::ALL.len() == 1 {
                    ""
                } else {
                    "s"
                },
            );
            Ok(if outcome.failed() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        Some("matrix") => {
            let outcome = engine::run(&root, &config)?;
            match outcome.matrix {
                Some(m) => {
                    print!("{m}");
                    Ok(ExitCode::SUCCESS)
                }
                None => Err("claim-traceability is set to allow; no matrix produced".into()),
            }
        }
        Some("race") => {
            let outcome = engine::run(&root, &config)?;
            let Some(summary) = &outcome.race else {
                return Err("all four race rules are set to allow; no model produced".into());
            };
            let race_rules = [
                jp_audit::rules::race::ATOMIC_ORDERING,
                jp_audit::rules::race::LOCK_ORDER,
                jp_audit::rules::race::GUARD_ACROSS_CALL,
                jp_audit::rules::race::SPAWN_CONTAINMENT,
            ];
            let (mut atomics, mut locks, mut edges, mut spawns, mut channels) = (0, 0, 0, 0, 0);
            println!(
                "shared-state model ({} files in scope):",
                summary.models.len()
            );
            for (path, m) in &summary.models {
                println!(
                    "  {path}: {} atomic op{}, {} lock site{}, {} edge{}, {} spawn{}, {} channel{}",
                    m.atomics.len(),
                    plural(m.atomics.len()),
                    m.locks.len(),
                    plural(m.locks.len()),
                    m.edges.len(),
                    plural(m.edges.len()),
                    m.spawns.len(),
                    plural(m.spawns.len()),
                    m.channels.len(),
                    plural(m.channels.len()),
                );
                if full_model {
                    for op in &m.atomics {
                        let orders: Vec<&str> =
                            op.orderings.iter().map(|(v, _)| v.as_str()).collect();
                        println!(
                            "    atomic {}:{} {}({}){}",
                            path,
                            op.line,
                            op.method,
                            orders.join(", "),
                            if op.justified { " [justified]" } else { "" },
                        );
                    }
                    for l in &m.locks {
                        println!("    lock   {}:{} {}.{}()", path, l.line, l.name, l.op);
                    }
                    for e in &m.edges {
                        println!("    edge   {}:{} {} -> {}", path, e.line, e.first, e.second);
                    }
                    for s in &m.spawns {
                        let kind = if s.scoped { "scoped" } else { "detached" };
                        println!("    spawn  {}:{} {kind}", path, s.line);
                    }
                    for c in &m.channels {
                        println!("    chan   {}:{} {}", path, c.line, c.what);
                    }
                }
                atomics += m.atomics.len();
                locks += m.locks.len();
                edges += m.edges.len();
                spawns += m.spawns.len();
                channels += m.channels.len();
            }
            println!(
                "totals: {atomics} atomic ops, {locks} lock sites, {edges} lock edges, \
                 {spawns} spawns, {channels} channel endpoints",
            );
            if let Some(dot) = summary.dot.as_deref() {
                write_dot(&root, &config, dot, dot_override.as_deref())?;
            }
            let mut denied = false;
            for (level, v) in &outcome.violations {
                if !race_rules.contains(&v.rule.as_str()) || *level == Level::Allow {
                    continue;
                }
                denied |= *level == Level::Deny;
                println!("{level}: {v}");
            }
            Ok(if denied {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        Some("rules") => {
            for rule in jp_audit::rules::ALL {
                println!("{rule:<20} {}", config.rule(rule).level());
            }
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command {other:?}\n\n{USAGE}").into()),
    }
}

/// Writes the lock-order DOT to `--dot FILE`, the `[lock-order] dot`
/// config key, or `figures/lock_order.dot`, in that order.
fn write_dot(
    root: &std::path::Path,
    config: &Config,
    dot: &str,
    over: Option<&str>,
) -> std::io::Result<()> {
    let lo = config.rule("lock-order");
    let target = over
        .or_else(|| lo.str("dot"))
        .unwrap_or("figures/lock_order.dot")
        .to_string();
    let path = root.join(&target);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&path, dot)?;
    println!("wrote {target}");
    Ok(())
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

fn need_value<'a>(args: &'a [String], i: usize, flag: &str) -> Result<&'a str, String> {
    args.get(i + 1)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// The workspace root: walk up from the manifest dir (when run via
/// `cargo run -p jp-audit`) or the current directory until `audit.toml`
/// appears.
fn default_root() -> PathBuf {
    let start = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|| std::env::current_dir().ok())
        .unwrap_or_else(|| PathBuf::from("."));
    let mut dir = start.clone();
    loop {
        if dir.join("audit.toml").is_file() {
            return dir;
        }
        if !dir.pop() {
            return start;
        }
    }
}
