//! Emits `BENCH_pebbling.json`: a seed performance/effort baseline for
//! the pebbling solver ladder on fixed graph families.
//!
//! For every (family, solver) pair the baseline records wall time plus
//! the solver's own effort counters (branch-and-bound nodes expanded,
//! Held–Karp subset iterations, local-search improving moves, …) as
//! captured through `jp-obs`. Timings vary run to run and machine to
//! machine; the counters are deterministic, so regressions in *work
//! done* — the signal that matters — diff cleanly against the committed
//! baseline.
//!
//! The parallel solvers (the portfolio racer and the parallel branch
//! and bound) are additionally measured along a `threads` axis
//! ([`THREAD_AXIS`]), recording the speedup curve. For the portfolio the
//! speedup is *algorithmic*, not just hardware: more workers means the
//! cheap certified heuristics finish first and abort the exponential
//! exact strategy mid-flight, so the curve is meaningful even on one
//! core.
//!
//! ```text
//! cargo run -p jp-bench --bin baseline --release -- \
//!     [out.json] [--families spider_10,repeated_blocks_x20] [--trace-dir DIR]
//! ```
//!
//! With `--trace-dir` each case additionally streams its full event
//! trace to `DIR/{family}_{solver}_t{threads}.jsonl` — the files
//! `jp trace summary|flame|check` consume. `--families` restricts the
//! run to a comma-separated subset (unknown names are a hard error so a
//! CI typo cannot silently gate nothing).

use jp_bench::{capture, capture_traced};
use jp_graph::{generators, line_graph, BipartiteGraph};
use jp_obs::StatsSnapshot;
use serde::Serialize;
use std::path::PathBuf;

/// Attribute every allocation to the active pulse memory scope, so each
/// case's stats carry the `mem.*` axis (peak-RSS-equivalent per case).
#[cfg(feature = "alloc-track")]
#[global_allocator]
static ALLOC: jp_pulse::TrackingAlloc = jp_pulse::TrackingAlloc;

/// A named solver entry point producing a scheme (or `None` when the
/// solver does not apply to the graph).
type Solver = (
    &'static str,
    fn(&BipartiteGraph) -> Option<jp_pebble::PebblingScheme>,
);

/// A parallel solver entry point: same contract as [`Solver`] plus the
/// worker-thread count.
type ParSolver = (
    &'static str,
    fn(&BipartiteGraph, usize) -> Option<jp_pebble::PebblingScheme>,
);

/// Thread counts measured for the parallel solvers — the speedup curve
/// axis. `1` is the sequential schedule on the same code path, so the
/// curve isolates scheduling gains from implementation differences.
const THREAD_AXIS: [usize; 3] = [1, 2, 4];

/// One (family, solver, threads) measurement.
#[derive(Debug, Clone, Serialize)]
struct Case {
    family: String,
    solver: String,
    /// Worker threads used (1 = sequential schedule).
    threads: usize,
    edges: u64,
    effective_cost: u64,
    wall_micros: u64,
    stats: StatsSnapshot,
}

fn families() -> Vec<(String, BipartiteGraph)> {
    vec![
        ("spider_8".into(), generators::spider(8)),
        ("spider_10".into(), generators::spider(10)),
        (
            "complete_bipartite_4x5".into(),
            generators::complete_bipartite(4, 5),
        ),
        ("path_12".into(), generators::path(12)),
        (
            "random_connected_8x8_m16_seed5".into(),
            generators::random_connected_bipartite(8, 8, 16, 5),
        ),
    ]
}

/// Parsed command line: output path plus the optional family filter and
/// trace directory.
struct Options {
    out_path: String,
    families: Option<Vec<String>>,
    trace_dir: Option<PathBuf>,
}

fn parse_args() -> Options {
    let mut out_path = None;
    let mut families = None;
    let mut trace_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--families" => {
                let Some(v) = args.next() else {
                    eprintln!("--families needs a comma-separated list");
                    std::process::exit(2);
                };
                families = Some(
                    v.split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect::<Vec<String>>(),
                );
            }
            "--trace-dir" => {
                let Some(v) = args.next() else {
                    eprintln!("--trace-dir needs a directory");
                    std::process::exit(2);
                };
                trace_dir = Some(PathBuf::from(v));
            }
            other if !other.starts_with("--") && out_path.is_none() => {
                out_path = Some(other.to_string());
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    Options {
        out_path: out_path.unwrap_or_else(|| "BENCH_pebbling.json".to_string()),
        families,
        trace_dir,
    }
}

/// Captures `f`, writing its event trace to
/// `<trace_dir>/<stem>.jsonl` when a trace directory was requested.
fn measure<T>(
    trace_dir: Option<&std::path::Path>,
    stem: &str,
    f: impl FnOnce() -> T,
) -> (T, u64, StatsSnapshot) {
    match trace_dir {
        Some(dir) => {
            capture_traced(&dir.join(format!("{stem}.jsonl")), f).expect("trace file written")
        }
        None => capture(f),
    }
}

fn main() {
    let opts = parse_args();
    const BB_BUDGET: u64 = 50_000_000;
    let solvers: Vec<Solver> = vec![
        ("dfs_partition", |g| {
            jp_pebble::approx::pebble_dfs_partition(g).ok()
        }),
        ("euler_trails", |g| {
            jp_pebble::approx::pebble_euler_trails(g).ok()
        }),
        ("path_cover", |g| {
            jp_pebble::approx::pebble_path_cover(g).ok()
        }),
        ("matching_cover", |g| {
            jp_pebble::approx::pebble_matching_cover(g).ok()
        }),
        ("nearest_neighbor", |g| {
            jp_pebble::approx::pebble_nearest_neighbor(g).ok()
        }),
        ("exact_held_karp", |g| {
            jp_pebble::exact::optimal_scheme(g).ok()
        }),
        ("exact_bb", |g| {
            jp_pebble::exact_bb::optimal_scheme_bb(g, BB_BUDGET).ok()
        }),
        ("two_opt_ladder", |g| {
            // nearest neighbour + 2-opt + or-opt, the E15 ladder
            let lg = line_graph(g);
            let tsp = jp_pebble::tsp::Tsp12::new(lg.clone());
            let mut tour = jp_pebble::approx::nearest_neighbor::nearest_neighbor_tour(&lg);
            jp_pebble::approx::improve_two_opt(&tsp, &mut tour, 10);
            jp_pebble::approx::improve_or_opt(&tsp, &mut tour, 10);
            let order: Vec<usize> = tour.iter().map(|&e| e as usize).collect();
            jp_pebble::PebblingScheme::from_edge_sequence(g, &order).ok()
        }),
    ];

    let par_solvers: Vec<ParSolver> = vec![
        ("portfolio", |g, threads| {
            jp_pebble::portfolio::portfolio_scheme(g, threads).ok()
        }),
        ("exact_bb_par", |g, threads| {
            jp_pebble::exact_bb::optimal_scheme_bb_par(g, BB_BUDGET, threads).ok()
        }),
    ];

    // The memo axis: one workload built from *repeated* component
    // shapes — isomorphic random blocks under different labels, plus
    // closed-form families — solved with the canonical-form cache off
    // (plain portfolio) and on (`solve_with_memo`). With the cache on,
    // every shape is solved once and each repeat is a validated hash
    // lookup; the `memo.hit` / `memo.miss` / `memo.recognized` counters
    // in the captured stats are the measured hit rate.
    let repeated = {
        let block_a = generators::random_connected_bipartite(4, 4, 9, 1);
        let block_b = generators::random_connected_bipartite(4, 4, 10, 2);
        let spider = generators::spider(6);
        let kb = generators::complete_bipartite(3, 4);
        let mut g = block_a.clone();
        for _ in 0..5 {
            g = g.disjoint_union(&block_a);
        }
        for _ in 0..6 {
            g = g.disjoint_union(&block_b);
        }
        for _ in 0..4 {
            g = g.disjoint_union(&spider);
        }
        for _ in 0..4 {
            g = g.disjoint_union(&kb);
        }
        g
    };
    let memo_solvers: Vec<ParSolver> = vec![
        ("portfolio_memo_off", |g, threads| {
            jp_pebble::portfolio::portfolio_scheme(g, threads).ok()
        }),
        ("portfolio_memo_on", |g, threads| {
            let memo = jp_pebble::memo::Memo::new();
            jp_pebble::memo::solve_with_memo(g, &memo, threads).ok()
        }),
    ];

    // The worst-case-optimal join axis: conjunctive-query workloads run
    // through each multiway engine at one thread (the counters are
    // deterministic). `edges` records output rows and `effective_cost`
    // the intermediate-tuple count — the quantity worst-case optimality
    // bounds, and on the skewed triangle the ≥10x lftj-vs-cascade gap
    // the acceptance gate checks; the `wcoj.*` counters in the captured
    // stats gate seek/emit work through `jp trace check`.
    let wcoj_families: Vec<(
        String,
        jp_relalg::ConjunctiveQuery,
        Vec<jp_relalg::MultiRelation>,
    )> = {
        let mk = |name: &str, (q, rels)| (name.to_string(), q, rels);
        vec![
            mk(
                "wcoj_triangle_skew_96",
                jp_relalg::workload::triangle_skewed(96, 901),
            ),
            mk(
                "wcoj_triangle_rand_240",
                jp_relalg::workload::triangle_random(240, 4, 902),
            ),
            mk(
                "wcoj_clique4_rand_160",
                jp_relalg::workload::clique4_random(160, 3, 903),
            ),
        ]
    };

    // Validate the family filter against everything this binary can
    // run, so a CI typo cannot silently gate nothing.
    let all_families = families();
    if let Some(filter) = &opts.families {
        let known: Vec<&str> = ["repeated_blocks_x20", "serve_loadgen"]
            .into_iter()
            .chain(all_families.iter().map(|(name, _)| name.as_str()))
            .chain(wcoj_families.iter().map(|(name, _, _)| name.as_str()))
            .collect();
        for f in filter {
            if !known.contains(&f.as_str()) {
                eprintln!("unknown family {f}; known: {}", known.join(", "));
                std::process::exit(2);
            }
        }
    }
    let want = |name: &str| {
        opts.families
            .as_ref()
            .is_none_or(|f| f.iter().any(|x| x == name))
    };
    let trace_dir = opts.trace_dir.as_deref();

    let mut cases = Vec::new();
    if want("repeated_blocks_x20") {
        for (solver, run) in &memo_solvers {
            for threads in THREAD_AXIS {
                let stem = format!("repeated_blocks_x20_{solver}_t{threads}");
                let (scheme, wall_micros, stats) =
                    measure(trace_dir, &stem, || run(&repeated, threads));
                let Some(scheme) = scheme else { continue };
                cases.push(Case {
                    family: "repeated_blocks_x20".into(),
                    solver: solver.to_string(),
                    threads,
                    edges: repeated.edge_count() as u64,
                    effective_cost: scheme.effective_cost(&repeated) as u64,
                    wall_micros,
                    stats,
                });
            }
        }
    }
    // The serving axis: an in-process jp-serve instance under the
    // deterministic loadgen mix — the same workload CI's serve-check
    // job replays over a real socket. One solver slot means one solve
    // at a time, so the memo/solver counters and the `serve.*` outcome
    // counters and totals are exact invariants of the workload; the `par.*`
    // span families are stripped because they are scheduling, not work
    // done. The `serve.request` span values stay: they are the
    // serve-latency axis.
    if want("serve_loadgen") {
        let pool = jp_serve::loadgen::query_pool(8);
        let edges: u64 = pool.iter().map(|g| g.edge_count() as u64).sum();
        let serve_round = |verify: bool| {
            let server = jp_serve::Server::bind(jp_serve::ServeConfig::default())
                .expect("bind an ephemeral loopback port");
            let addr = server.local_addr().expect("local addr").to_string();
            let serving = std::thread::spawn(move || server.run());
            let driving = std::thread::spawn(move || {
                jp_serve::run_loadgen(&jp_serve::LoadgenConfig {
                    addr,
                    verify,
                    shutdown: true,
                    ..jp_serve::LoadgenConfig::default()
                })
            });
            let loadgen = driving
                .join()
                .expect("loadgen thread")
                .expect("loadgen run");
            let served = serving.join().expect("server thread").expect("server run");
            (loadgen, served)
        };
        // Answers first, outside any capture: a verified pass checks
        // every response against the sequential solver.
        let (checked, _) = serve_round(true);
        assert_eq!(checked.mismatches, 0, "serve answers diverged: {checked:?}");
        assert_eq!(checked.errors, 0, "serve errored under load: {checked:?}");
        // Then the captured pass runs with verification off so the
        // loadgen side executes no solver at all. The capture holds only
        // the server's work either way: the server adopts the ticket
        // taken at bind, inside the capture, while the loadgen thread
        // adopts none (CI's serve-check runs the loadgen as a separate
        // process).
        let ((loadgen, served), wall_micros, mut stats) =
            measure(trace_dir, "serve_loadgen_serve_t1", || serve_round(false));
        assert_eq!(loadgen.errors, 0, "serve errored under load: {loadgen:?}");
        assert_eq!(
            loadgen.ok, loadgen.sent,
            "requests were dropped: {loadgen:?}"
        );
        assert_eq!(
            served.cost_sum, checked.cost_sum,
            "the captured pass answered differently from the verified pass"
        );
        assert!(served.drained, "serve did not drain: {served:?}");
        stats.span_counts.retain(|k, _| !k.starts_with("par."));
        stats.span_micros.retain(|k, _| !k.starts_with("par."));
        stats.span_values.retain(|k, _| !k.starts_with("par."));
        // The mem.* axis is the bench harness's allocator bridge; the
        // CLI writes traces without one, so for this case the keys
        // would read "missing" on every CI check — drop them.
        stats.counters.retain(|k, _| !k.starts_with("mem."));
        // Admission-to-slot wait is a duration that depends on arrival
        // timing, not on work done.
        stats.counters.remove("serve.queue_wait_us");
        cases.push(Case {
            family: "serve_loadgen".into(),
            solver: "serve".to_string(),
            threads: 1,
            edges,
            effective_cost: served.cost_sum,
            wall_micros,
            stats,
        });
    }
    for (family, q, rels) in &wcoj_families {
        if !want(family) {
            continue;
        }
        for algo in [
            jp_relalg::MultiwayAlgo::Lftj,
            jp_relalg::MultiwayAlgo::Generic,
            jp_relalg::MultiwayAlgo::Cascade,
        ] {
            let stem = format!("{family}_{}_t1", algo.name());
            let (out, wall_micros, stats) = measure(trace_dir, &stem, || {
                jp_relalg::multiway_solve(q, rels, algo, 1)
            });
            let out = out.expect("multiway workloads are statically well-formed");
            assert!(
                out.rows.len() as f64 <= out.agm_bound,
                "{family}/{}: output above the AGM bound",
                algo.name()
            );
            cases.push(Case {
                family: family.clone(),
                solver: algo.name().to_string(),
                threads: 1,
                edges: out.rows.len() as u64,
                effective_cost: out.stats.intermediate,
                wall_micros,
                stats,
            });
        }
    }
    for (family, g) in all_families {
        if !want(&family) {
            continue;
        }
        for (solver, run) in &solvers {
            let stem = format!("{family}_{solver}_t1");
            let (scheme, wall_micros, stats) = measure(trace_dir, &stem, || run(&g));
            let Some(scheme) = scheme else { continue };
            cases.push(Case {
                family: family.clone(),
                solver: solver.to_string(),
                threads: 1,
                edges: g.edge_count() as u64,
                effective_cost: scheme.effective_cost(&g) as u64,
                wall_micros,
                stats,
            });
        }
        for (solver, run) in &par_solvers {
            for threads in THREAD_AXIS {
                let stem = format!("{family}_{solver}_t{threads}");
                let (scheme, wall_micros, stats) = measure(trace_dir, &stem, || run(&g, threads));
                let Some(scheme) = scheme else { continue };
                cases.push(Case {
                    family: family.clone(),
                    solver: solver.to_string(),
                    threads,
                    edges: g.edge_count() as u64,
                    effective_cost: scheme.effective_cost(&g) as u64,
                    wall_micros,
                    stats,
                });
            }
        }
    }
    let json = serde_json::to_string_pretty(&cases).expect("baseline serializes");
    std::fs::write(&opts.out_path, json + "\n").expect("baseline written");
    eprintln!("{} cases written to {}", cases.len(), opts.out_path);
}
