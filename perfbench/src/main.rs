//! The repository benchmark: one workload per invocation, inputs derived
//! from `--seed`, a timed window of `--seconds`, every answer checked,
//! and one JSON result object as the last line of standard output.
//!
//! ```text
//! bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! run from the repository root; the script builds this package and
//! runs it pinned to one CPU (see its comment for why).
//!
//! Workloads (`BENCHMARK.json` records why each exists):
//!
//! * `serve_warm` — a closed-loop client replays a Zipf mix of the
//!   `jp loadgen` query pool to an in-process `jp serve` whose memo was
//!   warmed with that pool during set-up, so every component is served
//!   by a recognizer or a validated cache hit;
//! * `serve_cold` — the same server and set-up, sent the same families at
//!   parameters the pool does not hold, with a new random block in three
//!   of every four requests that runs the solver ladder down to the
//!   exact rung;
//! * `join_triangle` — Leapfrog Triejoin on the skewed triangle instance
//!   (the star workload of experiment E23);
//! * `join_clique4` — generic join on random 4-clique instances.
//!
//! `--trace 0` reports the end-to-end metrics with jp-obs off: the median
//! latency, the answers per second, and the median set-up time (set-up
//! is repeated through the window), all read from the stretches of the
//! window in which the host ran at its quiet speed (from all of it when
//! too few were quiet) and rescaled to a reference host speed, by a
//! probe of the host taken every quarter second (see `stats`).
//! `--trace 1` runs the same window with a jp-obs sink installed and
//! reports where the time went, layer by layer; the difference between
//! its `traced_p50_ms` and the untraced `p50_ms` is the tracing overhead.

#![forbid(unsafe_code)]

mod join;
mod serve;
mod stats;

use std::process::ExitCode;
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeWarm,
    ServeCold,
    JoinTriangle,
    JoinClique4,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve_warm" => Some(Workload::ServeWarm),
            "serve_cold" => Some(Workload::ServeCold),
            "join_triangle" => Some(Workload::JoinTriangle),
            "join_clique4" => Some(Workload::JoinClique4),
            _ => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    window: Duration,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload serve_warm|serve_cold|join_triangle|join_clique4 \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        window: Duration::from_secs(seconds),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Per-layer metrics. The two time layers exist in every workload;
/// the serving overheads are shares of the mean latency, 0 for a join,
/// which is not served, and each count is 0 where its layer is absent.
#[derive(Debug, Default)]
pub struct Layers {
    /// Mean time per operation in the structure answers are looked up
    /// in: for a served request the self time of the memo spans
    /// (recognizers, canonical labeling, probe, re-validation), for a
    /// join the building of every atom's trie, timed on passes that
    /// build without joining. Microseconds.
    pub index_us: f64,
    /// Mean time per operation in the algorithm proper: the self time of
    /// the solver spans of a served request; for a join its `wcoj` span
    /// less the mean trie build. Microseconds.
    pub compute_us: f64,
    /// Serve: share of the mean latency spent between admission and
    /// execution, percent.
    pub queue_pct: f64,
    /// Serve: share spent encoding and writing the response, percent.
    pub wire_pct: f64,
    /// Serve: share the client waited outside the server's spans
    /// (request encode, socket transfer, frame decode, admission,
    /// response decode), percent.
    pub frame_pct: f64,
    /// Serve: share of the answered join-graph components the memo
    /// served without solving (recognized or validated hit).
    pub memo_served_ratio: f64,
    /// Join: mean trie cursor moves per query (the `wcoj.seek` counter).
    pub seeks_per_query: f64,
    /// Join: mean partial bindings per query (`wcoj.intermediate`).
    pub intermediate_per_query: f64,
}

/// What one workload run measured.
pub struct Run {
    /// Every answer matched the benchmark's own oracle.
    pub correct: bool,
    /// Operations issued in the window.
    pub attempted: u64,
    /// Operations that got no answer.
    pub failed: u64,
    /// The end-to-end figures.
    pub summary: stats::Summary,
    /// Filled only by a traced run.
    pub layers: Layers,
}

fn metric(name: &str, value: f64, unit: &str) -> Result<String, String> {
    if !value.is_finite() {
        return Err(format!("metric {name} is not a finite number: {value}"));
    }
    Ok(format!(
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    ))
}

fn result_line(run: &Run, trace: bool) -> Result<String, String> {
    let summary = &run.summary;
    eprintln!(
        "perfbench: counted {} of {} segments and {} of {} set-ups; \
         median probe {:.0} us, p50 as measured {:.4} ms",
        summary.counted.0,
        summary.total.0,
        summary.counted.1,
        summary.total.1,
        summary.probe_us,
        summary.measured_p50_us / 1e3
    );
    let p50_ms = summary.p50_us / 1e3;
    let metrics = if trace {
        let l = &run.layers;
        vec![
            metric("index_us", l.index_us, "us")?,
            metric("compute_us", l.compute_us, "us")?,
            metric("queue_pct", l.queue_pct, "%")?,
            metric("wire_pct", l.wire_pct, "%")?,
            metric("frame_pct", l.frame_pct, "%")?,
            metric("memo_served_ratio", l.memo_served_ratio, "ratio")?,
            metric("seeks_per_query", l.seeks_per_query, "count")?,
            metric("intermediate_per_query", l.intermediate_per_query, "count")?,
            metric("traced_p50_ms", p50_ms, "ms")?,
        ]
    } else {
        vec![
            metric("p50_ms", p50_ms, "ms")?,
            metric("throughput", summary.throughput, "1/s")?,
            metric("setup_s", summary.setup_s, "s")?,
        ]
    };
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.correct,
        run.attempted,
        run.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload {
        Workload::ServeWarm | Workload::ServeCold => serve::run(
            args.workload == Workload::ServeCold,
            args.seed,
            args.window,
            args.trace,
        ),
        Workload::JoinTriangle | Workload::JoinClique4 => join::run(
            args.workload == Workload::JoinClique4,
            args.seed,
            args.window,
            args.trace,
        ),
    };
    match run.and_then(|r| result_line(&r, args.trace)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
