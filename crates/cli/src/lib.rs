//! Implementation of the `jp` command-line tool.
//!
//! Kept as a library so the command dispatch and argument parsing are
//! unit-testable; [`run`] writes to any `Write` sink.

mod args;
mod commands;

pub use args::{CliError, ParsedArgs};

/// Top-level usage text.
pub const USAGE: &str = "\
jp — the join-predicates pebbling toolbox (PODS 2001 reproduction)

USAGE:
  jp generate <family> [params…] [--out FILE]   create a join graph
  jp info <graph.json>                          stats, bounds, classification
  jp pebble <graph.json> [--algo A] [--threads N] [--memo true]
            [--memo-file F] [--out F] [--steps true]
                                                pebble a join graph
  jp realize <graph.json> --as KIND             build a join instance for it
  jp join --workload W [opts]                   run join algorithms
  jp replay <scheme.json> <graph.json>          validate a stored scheme
  jp fragment <graph.json> [--p P] [--q Q]      §5 fragment-mapping plan
  jp buffers <graph.json> [--b B]               B-buffer fetch schedule
  jp explain <triangle|clique4|bowtie> [--n N] [--deg D] [--seed S]
           [--algo lftj|generic|cascade] [--skewed true] [--threads N]
           [--json true] [--out F]              the worst-case-optimal plan
                                                (variable order, trie key
                                                orders, AGM bound) annotated
                                                with observed run counters
  jp trace summary <trace.jsonl>                aggregate a recorded trace
  jp trace flame <trace.jsonl> [--out F] [--request ID]
                                                folded stacks for flamegraphs
                                                (optionally one request only)
  jp trace diff <a.jsonl> <b.jsonl>             compare two recorded runs
  jp trace check <trace.jsonl> --baseline BENCH.json
           --family F --solver S [--threads N]  gate against a baseline
  jp trace request <id|all> <trace.jsonl> [--json true] [--min-complete PCT]
                                                one request's cross-thread
                                                critical path + blame breakdown
                                                (`all`: table + completeness
                                                gate for CI)
  jp pulse top <pulse.jsonl> [--watch N] [--every-ms M]
                                                render the latest live-metrics
                                                snapshot (N refreshes when
                                                watching, default 500 ms apart)
  jp pulse export <pulse.jsonl> [--out F]       Prometheus-style text exposition
  jp serve [--addr A] [--threads N] [--memo-file F]
           [--max-pending N] [--max-edges N] [--budget NODES]
           [--max-requests N] [--slow-us µS] [--xray-file F] [--xray-ring N]
                                                long-lived planning service over
                                                a warm memo store; --xray-file
                                                tail-samples slow/errored
                                                requests (see SERVING)
  jp loadgen [--addr A] [--clients N] [--requests N] [--theta T]
           [--seed S] [--pool K] [--verify false] [--shutdown true]
           [--out F]                            drive a server with a Zipf-skewed
                                                query mix, verifying every answer
  jp help                                       this text

GLOBAL OPTIONS (any command):
  --trace FILE   append instrumentation events (counters, span timings)
                 as JSON Lines to FILE
  --stats        print an aggregated counter/span summary (with exact
                 p50/p95/p99/max span percentiles) after the command finishes
  --pulse        sample live metrics (counters, gauges, histograms, memory
                 scopes) into pulse.jsonl while the command runs
  --pulse-file FILE        write the pulse samples to FILE instead
  --pulse-interval MS      sampler period in milliseconds (default 25)

FAMILIES (jp generate):
  complete-bipartite K L      equijoin component K_{K,L} (Lemma 3.2)
  matching M                  M disjoint edges (Lemma 2.4)
  path M | cycle K | star N   classic traceable families
  spider N                    the Figure 1 worst-case family G_N (Thm 3.3)
  random K L P SEED           Erdős–Rényi bipartite G(K,L,P)
  random-connected K L M SEED connected with exactly M edges

ALGORITHMS (jp pebble --algo):
  auto       equijoin pebbler when applicable, else dfs (default)
  equijoin   Theorem 4.1 linear-time perfect pebbler (equijoin graphs only)
  dfs        Theorem 3.1 construction, guaranteed ≤ 1.25m
  euler      linear-time Euler-trail pebbler
  cover      greedy path cover
  nn         nearest neighbour
  exact      exact-DP optimum (components ≤ 20 edges)
  bb         branch-and-bound optimum (budgeted, [--budget NODES])
  portfolio  race the whole ladder on a work-stealing runtime
  all        run every applicable solver and compare

  --threads N  worker threads for portfolio and bb (default 1); the
               returned cost is identical for every thread count

MEMOIZATION (jp pebble / jp join):
  --memo true     cache solved components under their canonical form —
                  closed-form families (complete bipartite, matching,
                  path, even cycle, spider) are recognized outright, and
                  isomorphic repeats become validated hash lookups
                  (applies to --algo auto, exact and portfolio)
  --memo-file F   persist the cache as JSON Lines and reload it on the
                  next run (implies --memo true; corrupt lines are
                  skipped per entry, never fatal)

REALIZATIONS (jp realize --as):
  containment   Lemma 3.3: r_i = {i}, s_j = {neighbours of j}
  spatial       comb-shaped rectilinear regions (universal)
  equijoin      only for unions of complete bipartite graphs

WORKLOADS (jp join --workload):
  zipf    equijoin on Zipf keys    [--n N] [--keys K] [--theta T] [--seed S]
  sets    set containment          [--n N] [--universe U] [--planted P] [--seed S]
  rects   spatial overlap          [--n N] [--extent E] [--side L] [--seed S]

  triangle | clique4 | bowtie      worst-case-optimal multiway joins over
          trie indexes             [--n N] [--deg D] [--seed S] [--threads N]
  --algo lftj|generic|cascade|all  Leapfrog Triejoin, generic join, the
                  binary nested-loops cascade baseline, or all three
                  (default all); output rows are checked against the AGM
                  fractional-cover bound on every run
  --skewed true   (triangle only) the adversarial star instance: the
                  cascade materializes a quadratic intermediate result,
                  the worst-case-optimal engines stay linear

  --pebble true   also build the workload's join graph and schedule it
                  with the pebbling solver (honours --memo, --memo-file
                  and --threads); conjunctive queries pebble the disjoint
                  union of their pairwise shared-variable equijoin graphs

SERVING (jp serve / jp loadgen):
  jp serve answers length-prefixed JSON frames over TCP from a shared
  warm memo store. Each request is solved on its connection's thread;
  at most --threads requests solve at once, the rest wait for a slot.
  Admission control rejects with a named reason instead of queueing
  without bound: --max-edges caps graph size, --max-pending caps
  admitted-but-unanswered jobs, --budget bounds branch-and-bound
  requests. A Shutdown request (jp loadgen --shutdown true) drains
  in-flight work, then the memo is checkpointed atomically to
  --memo-file. jp loadgen replays a deterministic Zipf mix (--pool
  shapes, skew --theta, base --seed) from --clients concurrent
  connections, --requests each, checking every cost against the
  sequential solver unless --verify false.

  Every frame carries a client-minted tracing id, stamped into each
  jp-obs event the request causes across threads. With --xray-file the
  server tail-samples: requests slower than --slow-us (or errored)
  keep every span, the rest shrink to their root span, bounded by the
  --xray-ring buffer. jp trace request <id> rebuilds one request's
  critical path and blames queue/solve/memo/wcoj/wire; the loadgen's
  --out JSON records the ids of the slowest-p99 and mismatched
  requests to feed it.
";

/// The global options every subcommand accepts, stripped out of the
/// argument list before subcommand parsing sees them.
struct GlobalOpts {
    rest: Vec<String>,
    trace: Option<String>,
    stats: bool,
    /// Pulse file to sample live metrics into, when `--pulse` (default
    /// `pulse.jsonl`) or `--pulse-file FILE` was given.
    pulse: Option<String>,
    /// Sampler period in milliseconds (`--pulse-interval`, default 25).
    pulse_interval_ms: u64,
}

/// Strips the global observability options (`--trace FILE`, `--stats`,
/// `--pulse`, `--pulse-file FILE`, `--pulse-interval MS`) out of `args`
/// before subcommand parsing sees them. `--stats` and `--pulse` are the
/// only value-less options in the CLI, so they are handled here rather
/// than in [`ParsedArgs`].
fn split_global_opts(args: &[String]) -> Result<GlobalOpts, CliError> {
    let mut rest = Vec::with_capacity(args.len());
    let mut trace = None;
    let mut stats = false;
    let mut pulse: Option<String> = None;
    let mut pulse_interval_ms = 25u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trace" => {
                let Some(path) = args.get(i + 1).filter(|v| !v.starts_with("--")) else {
                    return Err(CliError::Usage("option --trace needs a file path".into()));
                };
                if trace.replace(path.clone()).is_some() {
                    return Err(CliError::Usage("option --trace given twice".into()));
                }
                i += 2;
            }
            "--stats" => {
                stats = true;
                i += 1;
            }
            "--pulse" => {
                // value-less: the pulse file defaults to pulse.jsonl so
                // `jp pebble g.json --pulse` can't eat a positional arg
                pulse.get_or_insert_with(|| "pulse.jsonl".to_string());
                i += 1;
            }
            "--pulse-file" => {
                let Some(path) = args.get(i + 1).filter(|v| !v.starts_with("--")) else {
                    return Err(CliError::Usage(
                        "option --pulse-file needs a file path".into(),
                    ));
                };
                pulse = Some(path.clone());
                i += 2;
            }
            "--pulse-interval" => {
                let parsed = args.get(i + 1).and_then(|v| v.parse::<u64>().ok());
                let Some(ms) = parsed else {
                    return Err(CliError::Usage(
                        "option --pulse-interval needs a millisecond count".into(),
                    ));
                };
                pulse_interval_ms = ms;
                i += 2;
            }
            _ => {
                rest.push(args[i].clone());
                i += 1;
            }
        }
    }
    Ok(GlobalOpts {
        rest,
        trace,
        stats,
        pulse,
        pulse_interval_ms,
    })
}

/// Runs the CLI with the given arguments, writing reports to `out`.
pub fn run(args: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let GlobalOpts {
        rest: args,
        trace,
        stats,
        pulse,
        pulse_interval_ms,
    } = split_global_opts(args)?;
    let Some((cmd, rest)) = args.split_first() else {
        return Err(CliError::Usage("no command given".into()));
    };

    // One capture scope for the duration of the command: the requested
    // sinks, and the live registry when a pulse file was asked for. The
    // scope serializes concurrent `run` calls that both request
    // instrumentation (the sink and registry are process-wide); runs
    // with no option never touch it.
    let stats_sink = stats.then(|| std::sync::Arc::new(jp_obs::StatsSink::new()));
    let mut sinks: Vec<std::sync::Arc<dyn jp_obs::Sink>> = Vec::new();
    if let Some(path) = &trace {
        let jsonl = jp_obs::JsonlSink::to_file(path)
            .map_err(|e| CliError::Runtime(format!("opening trace file {path}: {e}")))?;
        sinks.push(std::sync::Arc::new(jsonl));
    }
    if let Some(s) = &stats_sink {
        sinks.push(s.clone());
    }
    let sink: Option<std::sync::Arc<dyn jp_obs::Sink>> = match sinks.len() {
        0 => None,
        1 => sinks.pop(),
        _ => Some(std::sync::Arc::new(jp_obs::FanoutSink::new(sinks))),
    };
    let scope = (sink.is_some() || pulse.is_some())
        .then(|| jp_obs::ScopedSink::open(sink, pulse.is_some()));

    // The pulse sampler runs for the duration of the command and stops
    // (writing one final snapshot) before the report below, so the last
    // snapshot always carries the run's final counter values.
    let sampler = match &pulse {
        Some(path) => Some(
            jp_pulse::Sampler::start(
                std::path::Path::new(path),
                std::time::Duration::from_millis(pulse_interval_ms),
            )
            .map_err(|e| CliError::Runtime(format!("opening pulse file {path}: {e}")))?,
        ),
        None => None,
    };

    let result = match cmd.as_str() {
        "generate" => commands::generate(rest, out),
        "info" => commands::info(rest, out),
        "pebble" => commands::pebble(rest, out),
        "realize" => commands::realize(rest, out),
        "join" => commands::join(rest, out),
        "replay" => commands::replay(rest, out),
        "fragment" => commands::fragment(rest, out),
        "buffers" => commands::buffers(rest, out),
        "trace" => commands::trace(rest, out),
        "explain" => commands::explain(rest, out),
        "pulse" => commands::pulse(rest, out),
        "serve" => commands::serve(rest, out),
        "loadgen" => commands::loadgen(rest, out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}").map_err(CliError::io)?;
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    };

    let sampled = sampler.map(jp_pulse::Sampler::stop);
    drop(scope); // flush the trace file before reporting
    if let Some(report) = sampled {
        if result.is_ok() {
            if let Some(path) = &pulse {
                writeln!(
                    out,
                    "pulse: {} snapshot(s) written to {path}",
                    report.snapshots
                )
                .map_err(CliError::io)?;
                if report.write_errors > 0 {
                    writeln!(
                        out,
                        "pulse: WARNING — {} snapshot write error(s); {path} is missing data",
                        report.write_errors
                    )
                    .map_err(CliError::io)?;
                }
            }
        }
    }
    if result.is_ok() {
        if let Some(s) = &stats_sink {
            write!(
                out,
                "\n== observability summary ==\n{}",
                s.snapshot().render()
            )
            .map_err(CliError::io)?;
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(args: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        run(&args, &mut buf)?;
        Ok(String::from_utf8(buf).unwrap())
    }

    #[test]
    fn help_prints_usage() {
        let out = run_str(&["help"]).unwrap();
        assert!(out.contains("jp generate"));
    }

    #[test]
    fn no_command_is_usage_error() {
        assert!(matches!(run_str(&[]), Err(CliError::Usage(_))));
    }

    #[test]
    fn unknown_command_is_usage_error() {
        assert!(matches!(run_str(&["frobnicate"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn generate_info_pebble_pipeline() {
        let dir = std::env::temp_dir().join(format!("jp-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.json");
        let p = path.to_str().unwrap();

        let out = run_str(&["generate", "spider", "6", "--out", p]).unwrap();
        assert!(out.contains("m = 12"));

        let out = run_str(&["info", p]).unwrap();
        assert!(out.contains("β₀ = 1"));
        assert!(out.contains("equijoin-realizable: no"));

        let out = run_str(&["pebble", p, "--algo", "exact"]).unwrap();
        assert!(out.contains("π = 14"), "G_6 optimum is 14, got:\n{out}");

        let out = run_str(&["pebble", p, "--algo", "dfs"]).unwrap();
        assert!(out.contains("jumps"));

        let out = run_str(&["pebble", p, "--algo", "all"]).unwrap();
        assert!(out.contains("exact"));
        assert!(out.contains("euler-trails"));

        let out = run_str(&["realize", p, "--as", "containment"]).unwrap();
        assert!(out.contains("round-trip: ok"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pebble_equijoin_on_wrong_graph_is_runtime_error() {
        let dir = std::env::temp_dir().join(format!("jp-cli-test2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.json");
        let p = path.to_str().unwrap();
        run_str(&["generate", "spider", "3", "--out", p]).unwrap();
        let err = run_str(&["pebble", p, "--algo", "equijoin"]).unwrap_err();
        assert!(matches!(err, CliError::Runtime(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_and_fragment_commands() {
        let dir = std::env::temp_dir().join(format!("jp-cli-test3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let gp = dir.join("g.json");
        let sp = dir.join("s.json");
        run_str(&["generate", "spider", "5", "--out", gp.to_str().unwrap()]).unwrap();
        run_str(&[
            "pebble",
            gp.to_str().unwrap(),
            "--algo",
            "euler",
            "--out",
            sp.to_str().unwrap(),
        ])
        .unwrap();
        let out = run_str(&["replay", sp.to_str().unwrap(), gp.to_str().unwrap()]).unwrap();
        assert!(out.contains("scheme is valid"));
        let out = run_str(&["fragment", gp.to_str().unwrap(), "--p", "2", "--q", "2"]).unwrap();
        assert!(out.contains("sub-joins scheduled"));
        // a zero-sized grid is a classified usage error, not a panic
        for (p, q) in [("0", "2"), ("2", "0"), ("0", "0")] {
            let err = run_str(&["fragment", gp.to_str().unwrap(), "--p", p, "--q", q]).unwrap_err();
            match err {
                CliError::Usage(m) => assert!(m.contains("at least 1"), "{m}"),
                other => panic!("--p {p} --q {q}: expected Usage error, got {other:?}"),
            }
        }
        let out = run_str(&["buffers", gp.to_str().unwrap(), "--b", "3"]).unwrap();
        assert!(out.contains("loads"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_and_loadgen_round_trip() {
        // grab a free loopback port, then hand it to `jp serve`
        let addr = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap().to_string()
        };
        let serve_addr = addr.clone();
        let server = std::thread::spawn(move || run_str(&["serve", "--addr", &serve_addr]));
        // wait for the listener to come up
        let mut up = false;
        for _ in 0..200 {
            if std::net::TcpStream::connect(addr.as_str()).is_ok() {
                up = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        assert!(up, "server never started listening on {addr}");
        let out = run_str(&[
            "loadgen",
            "--addr",
            &addr,
            "--clients",
            "3",
            "--requests",
            "5",
            "--shutdown",
            "true",
        ])
        .unwrap();
        assert!(out.contains("15 sent, 15 ok"), "{out}");
        assert!(out.contains("0 mismatch(es)"), "{out}");
        assert!(out.contains("latency p50"), "{out}");
        let served = server.join().unwrap().unwrap();
        assert!(served.contains("drained cleanly"), "{served}");
        assert!(served.contains("15 completed"), "{served}");
    }

    #[test]
    fn explain_annotates_the_plan_with_observed_counters() {
        let out = run_str(&[
            "explain", "triangle", "--n", "120", "--deg", "4", "--seed", "7",
        ])
        .unwrap();
        assert!(out.contains("variable order:"), "{out}");
        assert!(out.contains("AGM bound"), "{out}");
        assert!(out.contains("trie key order"), "{out}");
        assert!(out.contains("intersect"), "{out}");
        assert!(out.contains("— match"), "{out}");
        assert!(!out.contains("MISMATCH"), "{out}");

        // the skewed star instance and the other query shapes all render
        let out = run_str(&["explain", "triangle", "--n", "96", "--skewed", "true"]).unwrap();
        assert!(out.contains("(skewed)"), "{out}");
        for (wl, algo) in [("clique4", "generic"), ("bowtie", "cascade")] {
            let out = run_str(&["explain", wl, "--n", "80", "--algo", algo]).unwrap();
            assert!(out.contains("— match"), "{wl}/{algo}: {out}");
        }

        // JSON mode carries the counter-match verdict and the plan
        let dir = std::env::temp_dir().join(format!("jp-cli-explain-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let j = dir.join("explain.json");
        let out = run_str(&[
            "explain",
            "bowtie",
            "--n",
            "60",
            "--json",
            "true",
            "--out",
            j.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("written to"), "{out}");
        let text = std::fs::read_to_string(&j).unwrap();
        for needle in [
            "\"counters_match\": true",
            "\"variable_order\"",
            "\"agm_bound\"",
            "wcoj.seek",
            "wcoj.words",
            "wcoj.emit",
            "wcoj.intermediate",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        std::fs::remove_dir_all(&dir).ok();

        // misuse is classified
        let err = run_str(&["explain", "nonsense"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        let err = run_str(&["explain", "clique4", "--skewed", "true"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn trace_request_reconstructs_a_traced_serve_run() {
        let dir = std::env::temp_dir().join(format!("jp-cli-xray-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("serve.jsonl");
        let xray = dir.join("xray.jsonl");
        let addr = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap().to_string()
        };
        let serve_args: Vec<String> = [
            "serve",
            "--addr",
            &addr,
            "--slow-us",
            "0",
            "--xray-file",
            xray.to_str().unwrap(),
            "--xray-ring",
            "32",
            "--trace",
            trace.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let server = std::thread::spawn(move || {
            let mut buf = Vec::new();
            run(&serve_args, &mut buf).map(|()| String::from_utf8(buf).unwrap())
        });
        let mut up = false;
        for _ in 0..200 {
            if std::net::TcpStream::connect(addr.as_str()).is_ok() {
                up = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        assert!(up, "server never started listening on {addr}");
        let out = run_str(&[
            "loadgen",
            "--addr",
            &addr,
            "--clients",
            "3",
            "--requests",
            "5",
            "--shutdown",
            "true",
        ])
        .unwrap();
        assert!(out.contains("slowest request id"), "{out}");
        // the loadgen names its slowest request's tracing id — the handle
        // `jp trace request` takes
        let id = out
            .lines()
            .find_map(|l| l.strip_prefix("loadgen: slowest request id "))
            .and_then(|r| r.split_whitespace().next())
            .expect("a slowest-request id in the loadgen output")
            .to_string();
        let served = server.join().unwrap().unwrap();
        assert!(served.contains("serve: xray"), "{served}");
        assert!(served.contains("exemplar(s)"), "{served}");

        // The capture reconstructs this run's 15 requests. The
        // loadgen's wire-only stats and shutdown frames add entries
        // with no `serve.request` root, so assert on the floor and on
        // our own request, not on an exact total.
        // "N request(s), M complete (P%)" → (N, M)
        fn head_counts(report: &str) -> (u64, u64) {
            report
                .lines()
                .next()
                .and_then(|l| {
                    let mut nums = l
                        .split(|c: char| !c.is_ascii_digit())
                        .filter(|s| !s.is_empty())
                        .map(|s| s.parse::<u64>().unwrap());
                    Some((nums.next()?, nums.next()?))
                })
                .unwrap_or((0, 0))
        }
        let all = run_str(&["trace", "request", "all", trace.to_str().unwrap()]).unwrap();
        let (seen, complete) = head_counts(&all);
        assert!(seen >= 15, "expected ≥15 requests, got {seen}:\n{all}");
        assert!(
            complete >= 15,
            "expected ≥15 complete, got {complete}:\n{all}"
        );

        // our slowest request: blame breakdown + critical path, and a
        // flamegraph filtered to just that request
        let one = run_str(&["trace", "request", &id, trace.to_str().unwrap()]).unwrap();
        assert!(one.contains("COMPLETE"), "{one}");
        assert!(one.contains("serve.request"), "{one}");
        assert!(one.contains("blame"), "{one}");
        let folded =
            run_str(&["trace", "flame", trace.to_str().unwrap(), "--request", &id]).unwrap();
        assert!(!folded.is_empty());
        for line in folded.lines() {
            assert!(line.starts_with("thread-"), "{line}");
        }

        // the tail-sampled xray file: at --slow-us 0 every finished
        // request is an exemplar — 15 pebble solves plus the stats and
        // shutdown frames — and each flushed request is self-contained
        // (outside parent links severed), so the 15 rooted ones
        // reconstruct COMPLETE from the sidecar alone
        let xout = run_str(&["trace", "request", "all", xray.to_str().unwrap()]).unwrap();
        let (xseen, xcomplete) = head_counts(&xout);
        assert!(
            xseen >= 15,
            "expected ≥15 xray requests, got {xseen}:\n{xout}"
        );
        assert!(
            xcomplete >= 15,
            "expected ≥15 complete xray requests, got {xcomplete}:\n{xout}"
        );

        // unknown ids and bad gates are classified
        let err = run_str(&["trace", "request", "0", trace.to_str().unwrap()]).unwrap_err();
        assert!(matches!(err, CliError::Runtime(_)));
        let err = run_str(&["trace", "request", "bogus", trace.to_str().unwrap()]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_request_min_complete_gate_fails_on_orphaned_requests() {
        let dir = std::env::temp_dir().join(format!("jp-cli-xray2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        // request 5 is complete (a rooted serve.request span); request 6
        // is a wire span whose parent resolves nowhere in the capture
        let mut ok = jp_obs::Event::span("serve", "request", 300);
        ok.seq = 1;
        ok.request = Some(5);
        let mut orphaned = jp_obs::Event::span("serve", "wire", 10);
        orphaned.seq = 3;
        orphaned.request = Some(6);
        orphaned.parent = Some(99);
        let text = format!(
            "{}\n{}\n",
            serde_json::to_string(&ok).unwrap(),
            serde_json::to_string(&orphaned).unwrap()
        );
        std::fs::write(&path, text).unwrap();

        let out = run_str(&["trace", "request", "all", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("2 request(s), 1 complete (50%)"), "{out}");
        assert!(out.contains("INCOMPLETE"), "{out}");
        let err = run_str(&[
            "trace",
            "request",
            "all",
            path.to_str().unwrap(),
            "--min-complete",
            "95",
        ])
        .unwrap_err();
        match err {
            CliError::Runtime(m) => assert!(m.contains("50% of 2 request(s)"), "{m}"),
            other => panic!("expected Runtime error, got {other:?}"),
        }
        // at or below the observed rate the gate passes
        run_str(&[
            "trace",
            "request",
            "all",
            path.to_str().unwrap(),
            "--min-complete",
            "50",
        ])
        .unwrap();
        // the single-request view names the hole
        let one = run_str(&["trace", "request", "6", path.to_str().unwrap()]).unwrap();
        assert!(one.contains("INCOMPLETE"), "{one}");
        assert!(one.contains("orphaned"), "{one}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loadgen_zero_clients_is_a_usage_error() {
        for args in [
            &["loadgen", "--clients", "0"][..],
            &["loadgen", "--requests", "0"][..],
            &["serve", "--threads", "0"][..],
        ] {
            let err = run_str(args).unwrap_err();
            match err {
                CliError::Usage(m) => assert!(m.contains("at least 1"), "{m}"),
                other => panic!("{args:?}: expected Usage error, got {other:?}"),
            }
        }
    }

    #[test]
    fn bb_budget_exhaustion_is_reported_cleanly() {
        let dir = std::env::temp_dir().join(format!("jp-cli-test4-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("g.json");
        run_str(&["generate", "spider", "8", "--out", p.to_str().unwrap()]).unwrap();
        let err = run_str(&[
            "pebble",
            p.to_str().unwrap(),
            "--algo",
            "bb",
            "--budget",
            "1",
        ])
        .unwrap_err();
        match err {
            CliError::Runtime(m) => {
                assert!(m.contains("budget of 1 exhausted"), "{m}");
                assert!(m.contains("larger --budget"), "{m}");
            }
            other => panic!("expected Runtime error, got {other:?}"),
        }
        // a generous budget succeeds on the same graph
        let out = run_str(&[
            "pebble",
            p.to_str().unwrap(),
            "--algo",
            "bb",
            "--budget",
            "5000000",
        ])
        .unwrap();
        assert!(out.contains("π = 19"), "G_8 optimum is 19, got:\n{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pebble_portfolio_with_threads() {
        let dir = std::env::temp_dir().join(format!("jp-cli-test6-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("g.json");
        run_str(&["generate", "spider", "6", "--out", p.to_str().unwrap()]).unwrap();
        // the portfolio returns the same (optimal) cost at any thread count
        for threads in ["1", "4"] {
            let out = run_str(&[
                "pebble",
                p.to_str().unwrap(),
                "--algo",
                "portfolio",
                "--threads",
                threads,
            ])
            .unwrap();
            assert!(out.contains("π = 14"), "threads {threads}, got:\n{out}");
        }
        // bb accepts the flag too
        let out = run_str(&[
            "pebble",
            p.to_str().unwrap(),
            "--algo",
            "bb",
            "--threads",
            "2",
        ])
        .unwrap();
        assert!(out.contains("π = 14"), "{out}");
        let err = run_str(&[
            "pebble",
            p.to_str().unwrap(),
            "--algo",
            "portfolio",
            "--threads",
            "0",
        ])
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_writes_jsonl_and_stats_prints_summary() {
        let dir = std::env::temp_dir().join(format!("jp-cli-test5-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = dir.join("g.json");
        let t = dir.join("t.jsonl");
        run_str(&["generate", "spider", "6", "--out", g.to_str().unwrap()]).unwrap();
        let out = run_str(&[
            "pebble",
            g.to_str().unwrap(),
            "--algo",
            "all",
            "--trace",
            t.to_str().unwrap(),
            "--stats",
        ])
        .unwrap();
        assert!(out.contains("exact"));
        assert!(out.contains("== observability summary =="), "{out}");

        // the --stats summary now carries exact span percentiles
        assert!(out.contains("p50"), "{out}");
        assert!(out.contains("p95"), "{out}");

        // Every line must round-trip as an Event; seqs are distinct (a
        // span reserves its seq when it opens, so emission order is not
        // seq order) and every parent link resolves to an earlier span.
        let text = std::fs::read_to_string(&t).unwrap();
        let mut spans = std::collections::HashMap::<String, usize>::new();
        let mut counters = std::collections::HashMap::<String, usize>::new();
        let mut seqs = std::collections::HashSet::new();
        for line in text.lines() {
            let ev: jp_obs::Event = serde_json::from_str(line).unwrap();
            assert!(seqs.insert(ev.seq), "seq {} repeated", ev.seq);
            if let Some(p) = ev.parent {
                assert!(p < ev.seq, "parent seq {} not before child {}", p, ev.seq);
            }
            match ev.kind {
                jp_obs::EventKind::Span => *spans.entry(ev.component).or_default() += 1,
                jp_obs::EventKind::Counter => *counters.entry(ev.component).or_default() += 1,
            }
        }
        // and the jp-lens reader consumes the file without a single skip
        let (events, report) = jp_trace::parse_trace(&text);
        assert_eq!(report.skipped(), 0, "{:?}", report.samples);
        let analysis = jp_trace::Analysis::from_events(&events);
        assert_eq!(analysis.orphans, 0, "orphaned parent links in trace");
        for component in [
            "exact",
            "bb",
            "approx.dfs_partition",
            "approx.euler_trails",
            "approx.path_cover",
            "approx.matching_cover",
            "approx.nn",
        ] {
            assert!(
                spans.get(component).copied().unwrap_or(0) >= 1,
                "expected a span from {component}; spans: {spans:?}"
            );
            assert!(
                counters.get(component).copied().unwrap_or(0) >= 3,
                "expected ≥3 counters from {component}; counters: {counters:?}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_subcommands_consume_a_recorded_portfolio_run() {
        let dir = std::env::temp_dir().join(format!("jp-cli-test8-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = dir.join("g.json");
        let t = dir.join("t.jsonl");
        let folded = dir.join("flame.folded");
        run_str(&["generate", "spider", "6", "--out", g.to_str().unwrap()]).unwrap();
        run_str(&[
            "pebble",
            g.to_str().unwrap(),
            "--algo",
            "portfolio",
            "--threads",
            "4",
            "--trace",
            t.to_str().unwrap(),
        ])
        .unwrap();

        let out = run_str(&["trace", "summary", t.to_str().unwrap()]).unwrap();
        assert!(out.contains("threads:"), "{out}");
        assert!(out.contains("orphaned parents 0"), "{out}");
        assert!(out.contains("p50"), "{out}");

        let out = run_str(&[
            "trace",
            "flame",
            t.to_str().unwrap(),
            "--out",
            folded.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("folded format"), "{out}");
        // every folded line is `frame(;frame)* value` with a thread root
        let text = std::fs::read_to_string(&folded).unwrap();
        assert!(!text.is_empty());
        for line in text.lines() {
            let (stack, value) = line.rsplit_once(' ').unwrap();
            assert!(stack.starts_with("thread-"), "{line}");
            value.parse::<u64>().unwrap();
        }
        // a 4-thread portfolio run fans tasks out across worker threads
        let threads: std::collections::HashSet<&str> =
            text.lines().filter_map(|l| l.split(';').next()).collect();
        assert!(
            threads.len() > 1,
            "expected multi-thread stacks: {threads:?}"
        );

        // a trace diffed against itself has no hard findings
        let out = run_str(&["trace", "diff", t.to_str().unwrap(), t.to_str().unwrap()]).unwrap();
        assert!(out.contains("PASS"), "{out}");

        let err = run_str(&["trace", "nonsense"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        let err = run_str(&["trace", "check", t.to_str().unwrap()]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_trace_is_usage_error() {
        let err = run_str(&["help", "--trace", "a", "--trace", "b"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        let err = run_str(&["help", "--trace"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn pebble_memo_persists_and_reloads() {
        let dir = std::env::temp_dir().join(format!("jp-cli-test7-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = dir.join("g.json");
        let f = dir.join("memo.jsonl");
        let fp = f.to_str().unwrap();
        // a shape with no closed form, so the cache (not a recognizer)
        // must serve the repeat
        run_str(&[
            "generate",
            "random-connected",
            "4",
            "4",
            "9",
            "7",
            "--out",
            g.to_str().unwrap(),
        ])
        .unwrap();
        let out = run_str(&[
            "pebble",
            g.to_str().unwrap(),
            "--algo",
            "exact",
            "--memo-file",
            fp,
        ])
        .unwrap();
        assert!(out.contains("memo:"), "{out}");
        assert!(out.contains("written to"), "{out}");
        // second run reloads the file and reports the reuse
        let out = run_str(&[
            "pebble",
            g.to_str().unwrap(),
            "--algo",
            "exact",
            "--memo-file",
            fp,
        ])
        .unwrap();
        assert!(out.contains("loaded"), "{out}");
        // a memoized K_{5,5} sails past the Held–Karp wall (Lemma 3.2)
        run_str(&[
            "generate",
            "complete-bipartite",
            "5",
            "5",
            "--out",
            g.to_str().unwrap(),
        ])
        .unwrap();
        let err = run_str(&["pebble", g.to_str().unwrap(), "--algo", "exact"]).unwrap_err();
        assert!(matches!(err, CliError::Runtime(_)));
        let out = run_str(&[
            "pebble",
            g.to_str().unwrap(),
            "--algo",
            "exact",
            "--memo",
            "true",
        ])
        .unwrap();
        assert!(out.contains("π = 25"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn join_pebble_with_memo_reports_cache_stats() {
        let out = run_str(&[
            "join",
            "--workload",
            "zipf",
            "--n",
            "120",
            "--keys",
            "12",
            "--pebble",
            "true",
            "--memo",
            "true",
        ])
        .unwrap();
        assert!(out.contains("pebbling π ="), "{out}");
        assert!(out.contains("memo:"), "{out}");
    }

    #[test]
    fn join_workloads_run() {
        let out = run_str(&["join", "--workload", "zipf", "--n", "200"]).unwrap();
        assert!(out.contains("hash_join"));
        let out = run_str(&["join", "--workload", "sets", "--n", "80"]).unwrap();
        assert!(out.contains("inverted_index"));
        let out = run_str(&["join", "--workload", "rects", "--n", "150"]).unwrap();
        assert!(out.contains("rtree"));
    }

    /// Pulls `"memo: R recognized, H hits, M misses, I inserts, …"`
    /// apart into (recognized, hits, misses, inserts).
    fn memo_stats_line(out: &str) -> (u64, u64, u64, u64) {
        let line = out
            .lines()
            .find(|l| l.starts_with("memo:") && l.contains("recognized"))
            .unwrap_or_else(|| panic!("no memo stats line in:\n{out}"));
        let nums: Vec<u64> = line
            .split(|c: char| !c.is_ascii_digit())
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().unwrap())
            .collect();
        (nums[0], nums[1], nums[2], nums[3])
    }

    /// Runs `jp pebble g --memo true` with a pulse file under `algo` and
    /// `threads`, checks that the final snapshot carries exactly the
    /// memo counters the run printed and that the run touched the memo
    /// at all, and returns that snapshot's samples.
    fn pebble_memo_pulse(
        g: &std::path::Path,
        pf: &std::path::Path,
        algo: &str,
        threads: &str,
    ) -> std::collections::BTreeMap<String, u64> {
        let out = run_str(&[
            "pebble",
            g.to_str().unwrap(),
            "--algo",
            algo,
            "--threads",
            threads,
            "--memo",
            "true",
            "--pulse-file",
            pf.to_str().unwrap(),
            "--pulse-interval",
            "5",
        ])
        .unwrap();
        assert!(out.contains("snapshot(s) written to"), "{out}");
        let (recognized, hits, misses, inserts) = memo_stats_line(&out);

        // The pulse file parses with the damage-tolerant trace reader and
        // its final snapshot carries the run's final memo counters — the
        // live registry and the jp-obs/memo accounting must agree exactly.
        let (events, report) = jp_trace::read_trace(pf).unwrap();
        assert_eq!(report.skipped(), 0, "pulse file has corrupt lines");
        let snaps = jp_trace::pulse_snapshots(&events);
        let last = snaps
            .last()
            .expect("no snapshots in pulse file")
            .samples
            .clone();
        let sample = |k: &str| last.get(k).copied().unwrap_or(0);
        assert_eq!(sample("memo.recognized"), recognized);
        assert_eq!(sample("memo.hit"), hits);
        assert_eq!(sample("memo.miss"), misses);
        assert_eq!(sample("memo.insert"), inserts);
        assert!(
            recognized + hits + misses > 0,
            "run exercised no memo path at all:\n{out}"
        );
        last
    }

    #[test]
    fn portfolio_on_one_thread_probes_the_memo() {
        let dir = std::env::temp_dir().join(format!("jp-cli-pulse3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = dir.join("g.json");
        let pf = dir.join("pulse.jsonl");
        run_str(&["generate", "spider", "10", "--out", g.to_str().unwrap()]).unwrap();
        // The memo is probed before the race, so the recognizer answers
        // the spider.
        let last = pebble_memo_pulse(&g, &pf, "portfolio", "1");
        assert!(
            last.get("memo.recognized").copied().unwrap_or(0) > 0,
            "{last:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn portfolio_on_four_threads_probes_the_memo() {
        let dir = std::env::temp_dir().join(format!("jp-cli-pulse4-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = dir.join("g.json");
        let pf = dir.join("pulse.jsonl");
        run_str(&["generate", "spider", "10", "--out", g.to_str().unwrap()]).unwrap();
        // On several threads a heuristic can meet the floor before the
        // exact strategy starts; the memo must be read all the same.
        let last = pebble_memo_pulse(&g, &pf, "portfolio", "4");
        assert!(
            last.get("memo.recognized").copied().unwrap_or(0) > 0,
            "{last:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pulse_snapshot_matches_final_memo_counters_and_top_renders_workers() {
        let dir = std::env::temp_dir().join(format!("jp-cli-pulse-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = dir.join("g.json");
        let pf = dir.join("pulse.jsonl");
        // Two components: one a recognizer knows and one it does not,
        // so every run takes the memo's recognized and miss paths, and
        // the miss is raced on four workers.
        run_str(&[
            "generate",
            "random",
            "8",
            "8",
            "0.25",
            "3",
            "--out",
            g.to_str().unwrap(),
        ])
        .unwrap();
        let samples = pebble_memo_pulse(&g, &pf, "auto", "4");

        // the par runtime published per-worker utilization gauges
        assert!(
            samples.keys().any(|k| k.starts_with("par.worker.")),
            "no worker gauges in final snapshot: {:?}",
            samples.keys().collect::<Vec<_>>()
        );

        // `pulse top` renders the worker gauges as bars…
        let top = run_str(&["pulse", "top", pf.to_str().unwrap()]).unwrap();
        assert!(top.contains("jp pulse · snapshot #"), "{top}");
        assert!(top.contains("worker "), "{top}");
        // …and `pulse export` writes Prometheus-style exposition.
        let ef = dir.join("pulse.prom");
        let out = run_str(&[
            "pulse",
            "export",
            pf.to_str().unwrap(),
            "--out",
            ef.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("exported to"), "{out}");
        let expo = std::fs::read_to_string(&ef).unwrap();
        assert!(expo.contains("# TYPE jp_par_workers gauge"), "{expo}");
        assert!(expo.contains("jp_memo_recognized"), "{expo}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pulse_snapshot_counters_equal_the_stats_aggregation() {
        let dir = std::env::temp_dir().join(format!("jp-cli-pulse6-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = dir.join("g.json");
        let pf = dir.join("pulse.jsonl");
        let gp = g.to_str().unwrap();
        run_str(&["generate", "random", "8", "8", "0.25", "3", "--out", gp]).unwrap();
        let out = run_str(&[
            "pebble",
            gp,
            "--algo",
            "auto",
            "--threads",
            "4",
            "--memo",
            "true",
            "--pulse-file",
            pf.to_str().unwrap(),
            "--stats",
        ])
        .unwrap();
        // The `--stats` counter block: `  component.name  value` lines.
        let stats: Vec<(String, u64)> = out
            .split("counters:\n")
            .nth(1)
            .expect("a counters block")
            .lines()
            .take_while(|l| l.starts_with("  "))
            .map(|l| {
                let mut parts = l.split_whitespace();
                let key = parts.next().unwrap().to_string();
                (key, parts.next().unwrap().parse().unwrap())
            })
            .collect();
        assert!(stats.iter().any(|(k, _)| k.starts_with("par.")), "{out}");
        let (events, _) = jp_trace::read_trace(&pf).unwrap();
        let snaps = jp_trace::pulse_snapshots(&events);
        let live = &snaps.last().expect("a final snapshot").samples;
        for (key, value) in &stats {
            assert_eq!(live.get(key), Some(value), "{key}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bare_pulse_flag_defaults_to_pulse_jsonl_and_keeps_positionals() {
        // --pulse is value-less: the graph path after it must survive as
        // a positional argument, and samples land in ./pulse.jsonl.
        let dir = std::env::temp_dir().join(format!("jp-cli-pulse2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = dir.join("g.json");
        run_str(&["generate", "path", "6", "--out", g.to_str().unwrap()]).unwrap();
        let opts = split_global_opts(&[
            "pebble".into(),
            "--pulse".into(),
            g.to_str().unwrap().to_string(),
        ])
        .unwrap();
        assert_eq!(opts.pulse.as_deref(), Some("pulse.jsonl"));
        assert_eq!(opts.rest.len(), 2, "positional after --pulse kept");
        assert_eq!(opts.pulse_interval_ms, 25, "default sampler period");
        std::fs::remove_dir_all(&dir).ok();

        let err = run_str(&["pebble", "--pulse-interval"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        let err = run_str(&["pebble", "--pulse-file"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn pulse_subcommand_usage_and_missing_snapshots() {
        let err = run_str(&["pulse"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        let err = run_str(&["pulse", "flop", "x.jsonl"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));

        // a trace with events but no pulse markers is a runtime error
        let dir = std::env::temp_dir().join(format!("jp-cli-pulse5-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let t = dir.join("t.jsonl");
        let g = dir.join("g.json");
        run_str(&["generate", "path", "5", "--out", g.to_str().unwrap()]).unwrap();
        run_str(&[
            "pebble",
            g.to_str().unwrap(),
            "--algo",
            "dfs",
            "--trace",
            t.to_str().unwrap(),
        ])
        .unwrap();
        let err = run_str(&["pulse", "top", t.to_str().unwrap()]).unwrap_err();
        match err {
            CliError::Runtime(m) => assert!(m.contains("no pulse snapshots"), "{m}"),
            other => panic!("expected Runtime error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_summary_on_empty_or_corrupt_file_is_classified_error() {
        let dir = std::env::temp_dir().join(format!("jp-cli-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // an empty file: runtime error naming the path and the zero counts
        let empty = dir.join("empty.jsonl");
        std::fs::write(&empty, "").unwrap();
        for cmd in ["summary", "flame"] {
            let err = run_str(&["trace", cmd, empty.to_str().unwrap()]).unwrap_err();
            match err {
                CliError::Runtime(m) => {
                    assert!(m.contains("is empty"), "trace {cmd}: {m}");
                    assert!(m.contains("0 lines"), "trace {cmd}: {m}");
                }
                other => panic!("trace {cmd}: expected Runtime error, got {other:?}"),
            }
        }

        // all-corrupt input: the classified skip counts and a line number
        let garbage = dir.join("garbage.jsonl");
        std::fs::write(&garbage, "not json\n{\"also\": \"not an event\"}\n").unwrap();
        let err = run_str(&["trace", "summary", garbage.to_str().unwrap()]).unwrap_err();
        match err {
            CliError::Runtime(m) => {
                assert!(m.contains("corrupt"), "{m}");
                assert!(m.contains("line 1"), "{m}");
            }
            other => panic!("expected Runtime error, got {other:?}"),
        }

        // `trace diff` is covered by the same loader on either side
        let err = run_str(&[
            "trace",
            "diff",
            empty.to_str().unwrap(),
            garbage.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(matches!(err, CliError::Runtime(_)));

        std::fs::remove_dir_all(&dir).ok();
    }
}
