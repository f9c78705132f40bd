//! The `jp` subcommands.

use crate::args::{CliError, ParsedArgs};
use jp_graph::{betti_number, generators, properties, BipartiteGraph};
use jp_pebble::analysis::SchemeReport;
use jp_pebble::approx::{
    pebble_dfs_partition, pebble_equijoin, pebble_euler_trails, pebble_nearest_neighbor,
    pebble_path_cover,
};
use jp_pebble::memo::Memo;
use jp_pebble::{bounds, exact, exact_bb, PebblingScheme};
use jp_relalg::{algorithms, realize, workload};
use std::io::Write;
use std::time::Instant;

type Out<'a> = &'a mut dyn Write;

fn rt(msg: impl std::fmt::Display) -> CliError {
    CliError::Runtime(msg.to_string())
}

fn flag_true(a: &ParsedArgs, key: &str) -> bool {
    a.opt(key)
        .is_some_and(|v| v == "true" || v == "1" || v == "yes")
}

/// Parses `--memo true` / `--memo-file PATH` into an optional component
/// cache, preloading persisted entries when the file already exists
/// (corrupt lines are skipped per entry, reported, and never fatal).
fn open_memo(a: &ParsedArgs, out: Out) -> Result<(Option<Memo>, Option<String>), CliError> {
    let memo_file = a.opt("memo-file").map(str::to_string);
    if !flag_true(a, "memo") && memo_file.is_none() {
        return Ok((None, None));
    }
    let memo = Memo::new();
    if let Some(path) = &memo_file {
        if std::path::Path::new(path).exists() {
            let (loaded, skipped) = memo
                .load_jsonl(std::path::Path::new(path))
                .map_err(|e| rt(format!("reading memo file {path}: {e}")))?;
            writeln!(
                out,
                "memo: loaded {loaded} entries from {path} ({skipped} corrupt lines skipped)"
            )
            .map_err(CliError::io)?;
        }
    }
    Ok((Some(memo), memo_file))
}

/// Prints the memo's hit statistics and persists it when a
/// `--memo-file` was given.
fn close_memo(memo: &Option<Memo>, memo_file: &Option<String>, out: Out) -> Result<(), CliError> {
    let Some(m) = memo else {
        return Ok(());
    };
    let st = m.stats();
    writeln!(
        out,
        "memo: {} recognized, {} hits, {} misses, {} inserts, {} rejected",
        st.recognized, st.hits, st.misses, st.inserts, st.rejects
    )
    .map_err(CliError::io)?;
    if let Some(path) = memo_file {
        m.save_jsonl(std::path::Path::new(path))
            .map_err(|e| rt(format!("writing memo file {path}: {e}")))?;
        writeln!(out, "memo ({} entries) written to {path}", m.len()).map_err(CliError::io)?;
    }
    Ok(())
}

fn load_graph(path: &str) -> Result<BipartiteGraph, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| rt(format!("reading {path}: {e}")))?;
    serde_json::from_str(&text).map_err(|e| rt(format!("parsing {path}: {e}")))
}

/// `jp generate <family> [params…] [--out FILE]`
pub fn generate(args: &[String], out: Out) -> Result<(), CliError> {
    let a = ParsedArgs::parse(args)?;
    let family = a.pos(0, "family name")?;
    let g = match family {
        "complete-bipartite" => {
            generators::complete_bipartite(a.pos_parse(1, "K")?, a.pos_parse(2, "L")?)
        }
        "matching" => generators::matching(a.pos_parse(1, "M")?),
        "path" => generators::path(a.pos_parse(1, "M")?),
        "cycle" => generators::cycle(a.pos_parse(1, "K")?),
        "star" => generators::star(a.pos_parse(1, "N")?),
        "spider" => generators::spider(a.pos_parse(1, "N")?),
        "random" => generators::random_bipartite(
            a.pos_parse(1, "K")?,
            a.pos_parse(2, "L")?,
            a.pos_parse(3, "P")?,
            a.pos_parse(4, "SEED")?,
        ),
        "random-connected" => generators::random_connected_bipartite(
            a.pos_parse(1, "K")?,
            a.pos_parse(2, "L")?,
            a.pos_parse(3, "M")?,
            a.pos_parse(4, "SEED")?,
        ),
        other => return Err(CliError::Usage(format!("unknown family `{other}`"))),
    };
    match a.opt("out") {
        Some(path) => {
            writeln!(
                out,
                "generated {family}: |R| = {}, |S| = {}, m = {}, β₀ = {}",
                g.left_count(),
                g.right_count(),
                g.edge_count(),
                betti_number(&g)
            )
            .map_err(CliError::io)?;
            let json = serde_json::to_string_pretty(&g).map_err(rt)?;
            std::fs::write(path, json).map_err(|e| rt(format!("writing {path}: {e}")))?;
            writeln!(out, "written to {path}").map_err(CliError::io)?;
        }
        None => {
            // JSON only: `jp generate … > g.json` must stay loadable
            let json = serde_json::to_string(&g).map_err(rt)?;
            writeln!(out, "{json}").map_err(CliError::io)?;
        }
    }
    Ok(())
}

/// `jp info <graph.json>`
pub fn info(args: &[String], out: Out) -> Result<(), CliError> {
    let a = ParsedArgs::parse(args)?;
    let g = load_graph(a.pos(0, "graph file")?)?;
    let m = g.edge_count();
    writeln!(
        out,
        "vertices: |R| = {}, |S| = {}",
        g.left_count(),
        g.right_count()
    )
    .map_err(CliError::io)?;
    writeln!(out, "edges (join output size): m = {m}").map_err(CliError::io)?;
    writeln!(out, "components: β₀ = {}", betti_number(&g)).map_err(CliError::io)?;
    if let Some((dmin, dmax)) = properties::degree_range(&g) {
        writeln!(out, "degrees: {dmin}..{dmax}").map_err(CliError::io)?;
    }
    let equi = properties::is_equijoin_graph(&g);
    writeln!(
        out,
        "equijoin-realizable: {}",
        if equi { "yes" } else { "no" }
    )
    .map_err(CliError::io)?;
    writeln!(
        out,
        "pebbling bounds: {} ≤ π(G) ≤ {} (Theorem 3.1 upper bound: {})",
        bounds::best_lower_bound(&g),
        bounds::weak_upper_bound_effective(&g),
        bounds::upper_bound_effective(&g)
    )
    .map_err(CliError::io)?;
    let metrics = jp_graph::metrics::metrics(&g);
    writeln!(
        out,
        "structure: density {:.3}, diameter {}, {} leaves, largest component {} edges",
        metrics.density, metrics.diameter, metrics.leaves, metrics.largest_component_edges
    )
    .map_err(CliError::io)?;
    Ok(())
}

/// Default branch-and-bound node budget for `jp pebble --algo bb`.
const DEFAULT_BB_BUDGET: u64 = 50_000_000;

fn run_pebbler(
    algo: &str,
    g: &BipartiteGraph,
    budget: u64,
    threads: usize,
    memo: Option<&Memo>,
) -> Result<PebblingScheme, CliError> {
    match (algo, memo) {
        // memoized entry points: recognizers + cache in front of the solver
        ("auto", Some(m)) => jp_pebble::memo::solve_with_memo(g, m, threads).map_err(rt),
        ("exact", Some(m)) => exact::optimal_scheme_memo(g, m).map_err(rt),
        ("portfolio", Some(m)) => jp_pebble::portfolio::portfolio_scheme_memo(g, threads, Some(m))
            .map(|(s, _)| s)
            .map_err(rt),
        ("auto", None) => {
            if properties::is_equijoin_graph(g) {
                pebble_equijoin(g).map_err(rt)
            } else {
                pebble_dfs_partition(g).map_err(rt)
            }
        }
        ("equijoin", _) => pebble_equijoin(g).map_err(rt),
        ("dfs", _) => pebble_dfs_partition(g).map_err(rt),
        ("euler", _) => pebble_euler_trails(g).map_err(rt),
        ("cover", _) => pebble_path_cover(g).map_err(rt),
        ("nn", _) => pebble_nearest_neighbor(g).map_err(rt),
        ("exact", None) => exact::optimal_scheme(g).map_err(rt),
        ("bb", _) => exact_bb::optimal_scheme_bb_par(g, budget, threads).map_err(rt),
        ("portfolio", None) => jp_pebble::portfolio::portfolio_scheme(g, threads).map_err(rt),
        (other, _) => Err(CliError::Usage(format!("unknown algorithm `{other}`"))),
    }
}

/// `jp pebble <graph.json> [--algo A] [--budget NODES] [--threads N]
/// [--memo true] [--memo-file F] [--out scheme.json]`
pub fn pebble(args: &[String], out: Out) -> Result<(), CliError> {
    let a = ParsedArgs::parse(args)?;
    let g = load_graph(a.pos(0, "graph file")?)?;
    let algo = a.opt("algo").unwrap_or("auto");
    let budget: u64 = a.opt_parse("budget", DEFAULT_BB_BUDGET)?;
    let threads: usize = a.opt_parse("threads", 1)?;
    if threads == 0 {
        return Err(CliError::Usage("--threads must be at least 1".into()));
    }
    if algo == "all" {
        for (name, report) in jp_pebble::analysis::compare_all(&g) {
            writeln!(out, "{name:<28} {report}").map_err(CliError::io)?;
        }
        return Ok(());
    }
    let (memo, memo_file) = open_memo(&a, &mut *out)?;
    let t0 = Instant::now();
    let scheme = run_pebbler(algo, &g, budget, threads, memo.as_ref())?;
    let dt = t0.elapsed();
    scheme.validate(&g).map_err(rt)?;
    let report = SchemeReport::new(&g, &scheme);
    writeln!(out, "algorithm: {algo}").map_err(CliError::io)?;
    writeln!(out, "{report}").map_err(CliError::io)?;
    writeln!(
        out,
        "π = {} ({}), {:.3} ms",
        report.effective_cost,
        if report.is_perfect() {
            "perfect"
        } else {
            "imperfect"
        },
        dt.as_secs_f64() * 1e3
    )
    .map_err(CliError::io)?;
    if a.opt("steps")
        .is_some_and(|v| v == "true" || v == "1" || v == "yes")
    {
        writeln!(out, "\nstep  configuration        deletes").map_err(CliError::io)?;
        for st in scheme.replay(&g) {
            writeln!(
                out,
                "{:>4}  {:<18}  {}",
                st.index,
                st.config.to_string(),
                match st.deletes {
                    Some(e) => {
                        let (l, r) = g.edges()[e];
                        format!("edge {e} = (r{l}, s{r})")
                    }
                    None => "— (jump)".to_string(),
                }
            )
            .map_err(CliError::io)?;
        }
    }
    if let Some(path) = a.opt("out") {
        let json = serde_json::to_string(&scheme).map_err(rt)?;
        std::fs::write(path, json).map_err(|e| rt(format!("writing {path}: {e}")))?;
        writeln!(out, "scheme written to {path}").map_err(CliError::io)?;
    }
    close_memo(&memo, &memo_file, out)?;
    Ok(())
}

/// `jp realize <graph.json> --as containment|spatial|equijoin`
pub fn realize(args: &[String], out: Out) -> Result<(), CliError> {
    let a = ParsedArgs::parse(args)?;
    let g = load_graph(a.pos(0, "graph file")?)?;
    let kind = a
        .opt("as")
        .ok_or_else(|| CliError::Usage("realize needs --as containment|spatial|equijoin".into()))?;
    match kind {
        "containment" => {
            let (r, s) = realize::set_containment_instance(&g);
            let rebuilt = jp_relalg::containment_graph(&r, &s).map_err(rt)?;
            writeln!(
                out,
                "Lemma 3.3 instance: {r}, {s}; join graph round-trip: {}",
                if rebuilt == g { "ok" } else { "MISMATCH" }
            )
            .map_err(CliError::io)?;
            if rebuilt != g {
                return Err(rt("round-trip failed (this falsifies Lemma 3.3!)"));
            }
        }
        "spatial" => {
            let (r, s) = realize::spatial_universal_instance(&g);
            let rebuilt = jp_relalg::spatial_graph(&r, &s).map_err(rt)?;
            writeln!(
                out,
                "spatial comb instance: {r}, {s}; join graph round-trip: {}",
                if rebuilt == g { "ok" } else { "MISMATCH" }
            )
            .map_err(CliError::io)?;
            if rebuilt != g {
                return Err(rt("round-trip failed"));
            }
        }
        "equijoin" => {
            match realize::equijoin_instance(&g) {
                Some((r, s)) => {
                    let rebuilt = jp_relalg::equijoin_graph(&r, &s).map_err(rt)?;
                    writeln!(
                        out,
                        "equijoin instance: {r}, {s}; join graph round-trip: {}",
                        if rebuilt == g { "ok" } else { "MISMATCH" }
                    )
                    .map_err(CliError::io)?;
                }
                None => return Err(rt(
                    "graph is not equijoin-realizable (some component is not complete bipartite)",
                )),
            }
        }
        other => return Err(CliError::Usage(format!("unknown realization `{other}`"))),
    }
    Ok(())
}

/// `jp replay <scheme.json> <graph.json>` — validate a stored scheme.
pub fn replay(args: &[String], out: Out) -> Result<(), CliError> {
    let a = ParsedArgs::parse(args)?;
    let scheme_path = a.pos(0, "scheme file")?;
    let text = std::fs::read_to_string(scheme_path)
        .map_err(|e| rt(format!("reading {scheme_path}: {e}")))?;
    let scheme: PebblingScheme =
        serde_json::from_str(&text).map_err(|e| rt(format!("parsing {scheme_path}: {e}")))?;
    let g = load_graph(a.pos(1, "graph file")?)?;
    match scheme.validate(&g) {
        Ok(()) => {
            let report = SchemeReport::new(&g, &scheme);
            writeln!(out, "scheme is valid for the graph").map_err(CliError::io)?;
            writeln!(out, "{report}").map_err(CliError::io)?;
            Ok(())
        }
        Err(e) => Err(rt(format!("scheme invalid: {e}"))),
    }
}

/// `jp fragment <graph.json> [--p P] [--q Q] [--slack S]` — the §5 plan.
pub fn fragment(args: &[String], out: Out) -> Result<(), CliError> {
    use jp_pebble::fragmentation::{
        balanced_capacity, component_pack, connected_lower_bound, local_search,
    };
    let a = ParsedArgs::parse(args)?;
    let g = load_graph(a.pos(0, "graph file")?)?;
    let p: u32 = a.opt_parse("p", 4)?;
    let q: u32 = a.opt_parse("q", 4)?;
    if p == 0 || q == 0 {
        // a 0×q or p×0 grid has no fragment to host any tuple; letting
        // it through panics in the packer instead of reporting misuse
        return Err(CliError::Usage(
            "--p and --q must be at least 1 (a fragment grid needs at least one cell)".into(),
        ));
    }
    let slack: usize = a.opt_parse("slack", 1)?;
    let cap_l = balanced_capacity(g.left_count() as usize, p) + slack;
    let cap_r = balanced_capacity(g.right_count() as usize, q) + slack;
    let m = local_search(&g, component_pack(&g, p, q, cap_l, cap_r), cap_l, cap_r, 4);
    m.validate(&g, cap_l, cap_r).map_err(rt)?;
    writeln!(
        out,
        "fragment plan: {p}×{q} grid, caps {cap_l}/{cap_r}: {} sub-joins scheduled (full grid {}, connected lower bound {})",
        m.cost(&g),
        p * q,
        connected_lower_bound(&g, cap_l, cap_r),
    )
    .map_err(CliError::io)?;
    Ok(())
}

/// `jp buffers <graph.json> [--b B]` — the B-buffer schedule (E21).
pub fn buffers(args: &[String], out: Out) -> Result<(), CliError> {
    use jp_pebble::buffers::{lower_bound, schedule_greedy};
    let a = ParsedArgs::parse(args)?;
    let g = load_graph(a.pos(0, "graph file")?)?;
    let b: usize = a.opt_parse("b", 2)?;
    let s = schedule_greedy(&g, b).map_err(rt)?;
    s.validate(&g, b).map_err(rt)?;
    writeln!(
        out,
        "B = {b}: {} loads (floor = every vertex once = {}; B = 2 is the paper's two-pebble game)",
        s.cost(),
        lower_bound(&g),
    )
    .map_err(CliError::io)?;
    Ok(())
}

/// `jp join --workload zipf|sets|rects|triangle|clique4|bowtie [opts]
/// [--algo lftj|generic|cascade|all] [--skewed true] [--pebble true]
/// [--memo true] [--memo-file F] [--threads N]`
///
/// The first three workloads are binary joins; the last three are
/// conjunctive queries run through the worst-case-optimal multiway
/// engines (`--algo` picks Leapfrog Triejoin, generic join, the binary
/// nested-loops cascade baseline, or all three; `--skewed true` swaps
/// the triangle instance for the star workload whose cascade
/// intermediate result is quadratic).
///
/// With `--pebble true` the workload's join graph is built and scheduled
/// through the pebbling solver — the memo options put the canonical-form
/// component cache in front of it, which is where repeated-shape
/// workloads (an equijoin is a union of `K_{k,l}` blocks, one per key)
/// collapse to hash lookups. Conjunctive queries pebble the disjoint
/// union of their pairwise shared-variable equijoin graphs.
pub fn join(args: &[String], out: Out) -> Result<(), CliError> {
    let a = ParsedArgs::parse(args)?;
    let wl = a.opt("workload").ok_or_else(|| {
        CliError::Usage("join needs --workload zipf|sets|rects|triangle|clique4|bowtie".into())
    })?;
    let n: usize = a.opt_parse("n", 1_000)?;
    let seed: u64 = a.opt_parse("seed", 42)?;
    let want_pebble = flag_true(&a, "pebble");
    let mut join_graph: Option<BipartiteGraph> = None;
    let timed = |name: &str, f: &dyn Fn() -> usize, out: &mut dyn Write| -> Result<(), CliError> {
        let t0 = Instant::now();
        let count = f();
        writeln!(
            out,
            "  {name:<16} {count:>8} pairs  {:>9.3} ms",
            t0.elapsed().as_secs_f64() * 1e3
        )
        .map_err(CliError::io)
    };
    match wl {
        "zipf" => {
            let keys: usize = a.opt_parse("keys", n / 10 + 1)?;
            let theta: f64 = a.opt_parse("theta", 0.8)?;
            let (r, s) = workload::zipf_equijoin(n, n, keys, theta, seed);
            writeln!(
                out,
                "equijoin workload: {r} ⋈ {s}, {keys} keys, θ = {theta}"
            )
            .map_err(CliError::io)?;
            timed(
                "hash_join",
                &|| algorithms::equi::hash_join(&r, &s).len(),
                out,
            )?;
            timed(
                "sort_merge",
                &|| algorithms::equi::sort_merge(&r, &s).len(),
                out,
            )?;
            timed(
                "index_nl",
                &|| algorithms::equi::index_nested_loops(&r, &s).len(),
                out,
            )?;
            if want_pebble {
                join_graph = Some(jp_relalg::equijoin_graph(&r, &s).map_err(rt)?);
            }
        }
        "sets" => {
            let universe: u32 = a.opt_parse("universe", 2_000)?;
            let planted: f64 = a.opt_parse("planted", 0.4)?;
            let (r, s) = workload::set_workload(n, n, universe, 3..=8, 8..=20, planted, seed);
            writeln!(out, "containment workload: {r} ⋈ {s}, universe {universe}")
                .map_err(CliError::io)?;
            timed(
                "inverted_index",
                &|| algorithms::containment::inverted_index(&r, &s).len(),
                out,
            )?;
            timed(
                "signature",
                &|| algorithms::containment::signature(&r, &s).len(),
                out,
            )?;
            timed(
                "partitioned",
                &|| algorithms::containment::partitioned(&r, &s, 64).len(),
                out,
            )?;
            if want_pebble {
                join_graph = Some(jp_relalg::containment_graph(&r, &s).map_err(rt)?);
            }
        }
        "rects" => {
            let extent: i64 = a.opt_parse("extent", 20_000)?;
            let side: i64 = a.opt_parse("side", 80)?;
            let r = workload::uniform_rects(n, extent, side, seed);
            let s = workload::uniform_rects(n, extent, side, seed + 1);
            writeln!(
                out,
                "spatial workload: {r} ⋈ {s}, extent {extent}, max side {side}"
            )
            .map_err(CliError::io)?;
            timed("sweep", &|| algorithms::spatial::sweep(&r, &s).len(), out)?;
            timed("pbsm", &|| algorithms::spatial::pbsm(&r, &s).len(), out)?;
            timed("rtree", &|| algorithms::spatial::rtree(&r, &s).len(), out)?;
            timed(
                "rtree_inl",
                &|| algorithms::spatial::index_nested_loops(&r, &s).len(),
                out,
            )?;
            if want_pebble {
                join_graph = Some(jp_relalg::spatial_graph(&r, &s).map_err(rt)?);
            }
        }
        "triangle" | "clique4" | "bowtie" => {
            let deg: usize = a.opt_parse("deg", 4)?;
            let threads: usize = a.opt_parse("threads", 1)?;
            if threads == 0 {
                return Err(CliError::Usage("--threads must be at least 1".into()));
            }
            let skewed = flag_true(&a, "skewed");
            if skewed && wl != "triangle" {
                return Err(CliError::Usage(
                    "--skewed only applies to the triangle workload".into(),
                ));
            }
            let (q, rels) = match wl {
                "triangle" if skewed => workload::triangle_skewed(n, seed),
                "triangle" => workload::triangle_random(n, deg, seed),
                "clique4" => workload::clique4_random(n, deg, seed),
                _ => workload::bowtie_random(n, deg, seed),
            };
            let sizes: Vec<String> = rels
                .iter()
                .map(|r| format!("|{}| = {}", r.name(), r.len()))
                .collect();
            writeln!(
                out,
                "multiway workload `{}`{}: {}",
                q.name(),
                if skewed { " (skewed)" } else { "" },
                sizes.join(", ")
            )
            .map_err(CliError::io)?;
            let algo_opt = a.opt("algo").unwrap_or("all");
            let algos: Vec<jp_relalg::MultiwayAlgo> = if algo_opt == "all" {
                vec![
                    jp_relalg::MultiwayAlgo::Lftj,
                    jp_relalg::MultiwayAlgo::Generic,
                    jp_relalg::MultiwayAlgo::Cascade,
                ]
            } else {
                vec![algo_opt.parse().map_err(rt)?]
            };
            for algo in algos {
                let t0 = Instant::now();
                let res = jp_relalg::multiway_solve(&q, &rels, algo, threads).map_err(rt)?;
                if res.rows.len() as f64 > res.agm_bound {
                    return Err(rt(format!(
                        "{} emitted {} rows above the AGM bound {:.1}",
                        algo.name(),
                        res.rows.len(),
                        res.agm_bound
                    )));
                }
                writeln!(
                    out,
                    "  {:<8} {:>8} rows  {:>9.3} ms  seeks {:>9}  intermediate {:>9}  \
                     AGM bound {:.1}",
                    algo.name(),
                    res.rows.len(),
                    t0.elapsed().as_secs_f64() * 1e3,
                    res.stats.seeks,
                    res.stats.intermediate,
                    res.agm_bound
                )
                .map_err(CliError::io)?;
            }
            if want_pebble {
                join_graph = Some(jp_relalg::query_join_graph(&q, &rels).map_err(rt)?);
            }
        }
        other => return Err(CliError::Usage(format!("unknown workload `{other}`"))),
    }
    if let Some(g) = join_graph {
        let threads: usize = a.opt_parse("threads", 1)?;
        if threads == 0 {
            return Err(CliError::Usage("--threads must be at least 1".into()));
        }
        let (memo, memo_file) = open_memo(&a, &mut *out)?;
        let t0 = Instant::now();
        let scheme = match &memo {
            Some(m) => jp_pebble::memo::solve_with_memo(&g, m, threads).map_err(rt)?,
            None => jp_pebble::portfolio::portfolio_scheme(&g, threads).map_err(rt)?,
        };
        let dt = t0.elapsed();
        scheme.validate(&g).map_err(rt)?;
        writeln!(
            out,
            "join graph: m = {}, β₀ = {}; pebbling π = {} in {:.3} ms",
            g.edge_count(),
            betti_number(&g),
            scheme.effective_cost(&g),
            dt.as_secs_f64() * 1e3
        )
        .map_err(CliError::io)?;
        close_memo(&memo, &memo_file, out)?;
    }
    Ok(())
}

/// Tracing ids for `jp explain` runs. The solve is stamped like a serve
/// request (same id scheme as the serve client's mint: process id high,
/// process-wide counter low), so the tap capture can be filtered down to
/// exactly this run's events even when other threads in the process are
/// emitting concurrently.
fn mint_explain_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    (u64::from(std::process::id()) << 32) | (n & 0xFFFF_FFFF)
}

/// Renders a variable list as paper-style names: `x0, x1, x2`.
fn var_list(vars: &[u32]) -> String {
    let names: Vec<String> = vars.iter().map(|v| format!("x{v}")).collect();
    names.join(", ")
}

/// One atom of the `jp explain --json` document.
#[derive(serde::Serialize)]
struct ExplainAtomDoc {
    relation: String,
    vars: Vec<u32>,
    weight: f64,
    rows: usize,
    key_order: Vec<u32>,
}

/// The plan half of the `jp explain --json` document.
#[derive(serde::Serialize)]
struct ExplainPlanDoc {
    variable_order: Vec<u32>,
    atoms: Vec<ExplainAtomDoc>,
    levels: Vec<Vec<usize>>,
    agm_bound: f64,
}

/// The observed-run half of the `jp explain --json` document.
#[derive(serde::Serialize)]
struct ExplainObservedDoc {
    request: u64,
    rows: usize,
    estimated_rows: f64,
    seeks: u64,
    emits: u64,
    intermediate: u64,
    counters: std::collections::BTreeMap<String, u64>,
    counters_match: bool,
    millis: f64,
}

/// The `jp explain --json` / `--out` document.
#[derive(serde::Serialize)]
struct ExplainDoc {
    query: String,
    skewed: bool,
    n: usize,
    deg: usize,
    seed: u64,
    algo: String,
    threads: usize,
    plan: ExplainPlanDoc,
    observed: ExplainObservedDoc,
}

/// `jp explain <triangle|clique4|bowtie> [--n N] [--deg D] [--seed S]
/// [--algo lftj|generic|cascade] [--skewed true] [--threads N]
/// [--json true] [--out F]` — render the plan the worst-case-optimal
/// engines run (variable ordering, per-atom trie key orders, fractional
/// cover weights, AGM bound) annotated with *observed* counters: the
/// same `(q, rels)` instance is solved under a jp-obs tap stamped with
/// a minted tracing id, and the plan's estimated output (the AGM bound)
/// is reported next to the actual rows, seeks and intermediates. The
/// command fails if the run's `wcoj.seek`/`wcoj.emit`/
/// `wcoj.intermediate` counters disagree with the solver's returned
/// stats — the emitted telemetry must be the truth.
pub fn explain(args: &[String], out: Out) -> Result<(), CliError> {
    let a = ParsedArgs::parse(args)?;
    let wl = a.pos(0, "workload (triangle | clique4 | bowtie)")?;
    let n: usize = a.opt_parse("n", 1_000)?;
    let deg: usize = a.opt_parse("deg", 4)?;
    let seed: u64 = a.opt_parse("seed", 42)?;
    let threads: usize = a.opt_parse("threads", 1)?;
    if threads == 0 {
        return Err(CliError::Usage("--threads must be at least 1".into()));
    }
    let skewed = flag_true(&a, "skewed");
    if skewed && wl != "triangle" {
        return Err(CliError::Usage(
            "--skewed only applies to the triangle workload".into(),
        ));
    }
    let (q, rels) = match wl {
        "triangle" if skewed => workload::triangle_skewed(n, seed),
        "triangle" => workload::triangle_random(n, deg, seed),
        "clique4" => workload::clique4_random(n, deg, seed),
        "bowtie" => workload::bowtie_random(n, deg, seed),
        other => {
            return Err(CliError::Usage(format!(
                "unknown workload `{other}` (triangle | clique4 | bowtie)"
            )))
        }
    };
    let algo: jp_relalg::MultiwayAlgo = a.opt("algo").unwrap_or("lftj").parse().map_err(rt)?;
    let plan = jp_relalg::explain_plan(&q, &rels).map_err(rt)?;

    // The observed half: run the exact same instance under a tap,
    // stamped with a minted tracing id, then keep only this run's
    // wcoj counters (the tap is process-wide; the stamp is not).
    let tap_sink = std::sync::Arc::new(jp_obs::MemorySink::new());
    let tap = jp_obs::set_tap(tap_sink.clone() as std::sync::Arc<dyn jp_obs::Sink>);
    let run_id = mint_explain_id();
    let t0 = Instant::now();
    let solve_result = {
        let _req = jp_obs::with_request(Some(run_id));
        jp_relalg::multiway_solve(&q, &rels, algo, threads)
    };
    let dt = t0.elapsed();
    drop(tap);
    let res = solve_result.map_err(rt)?;
    let mut observed: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for e in tap_sink.events() {
        if e.request == Some(run_id)
            && e.kind == jp_obs::EventKind::Counter
            && e.component == "wcoj"
        {
            *observed
                .entry(format!("{}.{}", e.component, e.name))
                .or_default() += e.value;
        }
    }
    let obs = |key: &str| observed.get(key).copied().unwrap_or(0);
    let counters_match = obs("wcoj.seek") == res.stats.seeks
        && obs("wcoj.emit") == res.stats.emits
        && obs("wcoj.intermediate") == res.stats.intermediate
        && res.stats.emits == res.rows.len() as u64;

    if flag_true(&a, "json") || a.opt("out").is_some() {
        let doc = ExplainDoc {
            query: q.name().to_string(),
            skewed,
            n,
            deg,
            seed,
            algo: algo.name().to_string(),
            threads,
            plan: ExplainPlanDoc {
                variable_order: plan.order.clone(),
                atoms: plan
                    .atoms
                    .iter()
                    .map(|at| ExplainAtomDoc {
                        relation: rels
                            .get(at.relation)
                            .map_or_else(|| "?".to_string(), |r| r.name().to_string()),
                        vars: at.vars.clone(),
                        weight: at.weight,
                        rows: at.rows,
                        key_order: at.key_order.clone(),
                    })
                    .collect(),
                levels: plan.levels.clone(),
                agm_bound: plan.agm_bound,
            },
            observed: ExplainObservedDoc {
                request: run_id,
                rows: res.rows.len(),
                estimated_rows: plan.agm_bound,
                seeks: res.stats.seeks,
                emits: res.stats.emits,
                intermediate: res.stats.intermediate,
                counters: observed.clone(),
                counters_match,
                millis: dt.as_secs_f64() * 1e3,
            },
        };
        let text = serde_json::to_string_pretty(&doc).map_err(rt)?;
        match a.opt("out") {
            Some(dest) => {
                std::fs::write(dest, text.as_bytes())
                    .map_err(|e| rt(format!("writing {dest}: {e}")))?;
                writeln!(out, "explain report written to {dest}").map_err(CliError::io)?;
            }
            None => writeln!(out, "{text}").map_err(CliError::io)?,
        }
    } else {
        writeln!(
            out,
            "query `{}`{}: {} atom(s) over {} relation(s), algo {}, threads {}",
            q.name(),
            if skewed { " (skewed)" } else { "" },
            plan.atoms.len(),
            rels.len(),
            algo.name(),
            threads
        )
        .map_err(CliError::io)?;
        let order_names: Vec<String> = plan.order.iter().map(|v| format!("x{v}")).collect();
        writeln!(
            out,
            "variable order: {}  (most-constrained first)",
            order_names.join(" → ")
        )
        .map_err(CliError::io)?;
        writeln!(
            out,
            "atoms (fractional edge cover → AGM bound {:.1} rows):",
            plan.agm_bound
        )
        .map_err(CliError::io)?;
        for at in &plan.atoms {
            let name = rels.get(at.relation).map_or("?", |r| r.name());
            writeln!(
                out,
                "  {name}({})  weight {:.2}  {:>8} rows  trie key order ({})",
                var_list(&at.vars),
                at.weight,
                at.rows,
                var_list(&at.key_order)
            )
            .map_err(CliError::io)?;
        }
        writeln!(out, "levels:").map_err(CliError::io)?;
        for (d, members) in plan.levels.iter().enumerate() {
            let names: Vec<&str> = members
                .iter()
                .filter_map(|&i| plan.atoms.get(i))
                .filter_map(|at| rels.get(at.relation).map(|r| r.name()))
                .collect();
            let var = plan.order.get(d).copied().unwrap_or(0);
            writeln!(out, "  bind x{var}: intersect {{ {} }}", names.join(", "))
                .map_err(CliError::io)?;
        }
        writeln!(
            out,
            "observed run (request id {run_id}, {:.3} ms):",
            dt.as_secs_f64() * 1e3
        )
        .map_err(CliError::io)?;
        writeln!(
            out,
            "  rows {} (estimated ≤ {:.1} from AGM; {:.1}% of bound)",
            res.rows.len(),
            plan.agm_bound,
            if plan.agm_bound > 0.0 {
                res.rows.len() as f64 * 100.0 / plan.agm_bound
            } else {
                0.0
            }
        )
        .map_err(CliError::io)?;
        writeln!(
            out,
            "  seeks {}  emits {}  intermediates {}",
            res.stats.seeks, res.stats.emits, res.stats.intermediate
        )
        .map_err(CliError::io)?;
        writeln!(
            out,
            "  obs counters wcoj.seek/emit/intermediate = {}/{}/{} — {}",
            obs("wcoj.seek"),
            obs("wcoj.emit"),
            obs("wcoj.intermediate"),
            if counters_match { "match" } else { "MISMATCH" }
        )
        .map_err(CliError::io)?;
    }
    if !counters_match {
        return Err(rt(format!(
            "observed counters diverge from the solver's stats: \
             wcoj.seek/emit/intermediate = {}/{}/{} but stats say {}/{}/{} ({} rows)",
            obs("wcoj.seek"),
            obs("wcoj.emit"),
            obs("wcoj.intermediate"),
            res.stats.seeks,
            res.stats.emits,
            res.stats.intermediate,
            res.rows.len()
        )));
    }
    Ok(())
}

/// `jp trace <summary|flame|diff|check|request> …` — the jp-lens
/// analysis toolbox over recorded `--trace` files.
pub fn trace(args: &[String], out: Out) -> Result<(), CliError> {
    let Some((sub, rest)) = args.split_first() else {
        return Err(CliError::Usage(
            "trace needs a subcommand: summary | flame | diff | check | request".into(),
        ));
    };
    match sub.as_str() {
        "summary" => trace_summary(rest, out),
        "flame" => trace_flame(rest, out),
        "diff" => trace_diff(rest, out),
        "check" => trace_check(rest, out),
        "request" => trace_request(rest, out),
        other => Err(CliError::Usage(format!(
            "unknown trace subcommand `{other}` (summary | flame | diff | check | request)"
        ))),
    }
}

/// Reads a trace into events, surfacing skip warnings. A file with
/// zero parseable events is an error, not an all-zero summary —
/// classified (empty vs. all-lines-skipped) and line-numbered so the
/// operator sees *why* nothing parsed.
fn load_events(path: &str, out: Out) -> Result<Vec<jp_obs::Event>, CliError> {
    let (events, report) =
        jp_trace::read_trace(path).map_err(|e| rt(format!("reading {path}: {e}")))?;
    if events.is_empty() {
        return Err(empty_trace_error(path, &report));
    }
    let warnings = report.render();
    if !warnings.is_empty() {
        write!(out, "{warnings}").map_err(CliError::io)?;
    }
    Ok(events)
}

/// Reads a trace and analyzes what parsed; see [`load_events`].
fn load_analysis(path: &str, out: Out) -> Result<jp_trace::Analysis, CliError> {
    let events = load_events(path, out)?;
    Ok(jp_trace::Analysis::from_events(&events))
}

/// The classified error for a trace no event could be read from.
fn empty_trace_error(path: &str, report: &jp_trace::ReadReport) -> CliError {
    if report.lines == 0 {
        return rt(format!("trace file {path} is empty (0 lines, 0 events)"));
    }
    let mut msg = format!(
        "trace file {path} contains no parseable events: {} line(s), \
         {} corrupt, {} unknown kind, {} unsupported version",
        report.lines,
        report.skipped_corrupt,
        report.skipped_unknown_kind,
        report.skipped_unsupported_version
    );
    for sample in &report.samples {
        msg.push_str(&format!("\n  line {}: {}", sample.line, sample.reason));
    }
    rt(msg)
}

/// `jp trace summary FILE`
fn trace_summary(args: &[String], out: Out) -> Result<(), CliError> {
    let a = ParsedArgs::parse(args)?;
    let path = a.pos(0, "trace file")?;
    let analysis = load_analysis(path, out)?;
    write!(out, "{}", analysis.render()).map_err(CliError::io)
}

/// `jp trace flame FILE [--out FILE] [--request ID]` — with
/// `--request` the folded stacks cover only the events stamped with
/// that serve tracing id: the flamegraph of one request.
fn trace_flame(args: &[String], out: Out) -> Result<(), CliError> {
    let a = ParsedArgs::parse(args)?;
    let path = a.pos(0, "trace file")?;
    let mut events = load_events(path, out)?;
    if let Some(raw) = a.opt("request") {
        let id: u64 = raw.parse().map_err(|_| {
            CliError::Usage(format!("--request needs a numeric tracing id, got {raw:?}"))
        })?;
        events.retain(|e| e.request == Some(id));
        if events.is_empty() {
            return Err(rt(format!(
                "no event in {path} is stamped with request id {id}"
            )));
        }
    }
    let analysis = jp_trace::Analysis::from_events(&events);
    let folded = jp_trace::flame::render(&analysis);
    match a.opt("out") {
        Some(dest) => {
            std::fs::write(dest, &folded).map_err(|e| rt(format!("writing {dest}: {e}")))?;
            writeln!(
                out,
                "{} stack(s) written to {dest} (inferno/flamegraph.pl folded format)",
                folded.lines().count()
            )
            .map_err(CliError::io)
        }
        None => write!(out, "{folded}").map_err(CliError::io),
    }
}

/// `jp trace diff A B`
fn trace_diff(args: &[String], out: Out) -> Result<(), CliError> {
    let a = ParsedArgs::parse(args)?;
    let path_a = a.pos(0, "first trace file")?;
    let path_b = a.pos(1, "second trace file")?;
    let run_a = load_analysis(path_a, out)?;
    let run_b = load_analysis(path_b, out)?;
    let report = jp_trace::diff::diff_analyses(&run_a, &run_b, &jp_trace::Tolerances::default());
    write!(out, "{}", report.render()).map_err(CliError::io)
}

/// `jp trace check FILE --baseline BENCH.json --family F --solver S
/// [--threads N]` — exits non-zero on any hard finding.
fn trace_check(args: &[String], out: Out) -> Result<(), CliError> {
    let a = ParsedArgs::parse(args)?;
    let path = a.pos(0, "trace file")?;
    let Some(baseline_path) = a.opt("baseline") else {
        return Err(CliError::Usage("trace check needs --baseline FILE".into()));
    };
    let Some(family) = a.opt("family") else {
        return Err(CliError::Usage("trace check needs --family NAME".into()));
    };
    let Some(solver) = a.opt("solver") else {
        return Err(CliError::Usage("trace check needs --solver NAME".into()));
    };
    let threads: u64 = a.opt_parse("threads", 1)?;
    let baseline_text = std::fs::read_to_string(baseline_path)
        .map_err(|e| rt(format!("reading {baseline_path}: {e}")))?;
    let cases = jp_trace::diff::load_baseline(&baseline_text).map_err(rt)?;
    let Some(case) = jp_trace::diff::find_case(&cases, family, solver, threads) else {
        return Err(rt(format!(
            "no baseline case ({family}, {solver}, threads={threads}) among {} cases in {baseline_path}",
            cases.len()
        )));
    };
    let analysis = load_analysis(path, out)?;
    let report = jp_trace::diff::check_against(case, &analysis, &jp_trace::Tolerances::default());
    writeln!(
        out,
        "checking {path} against ({family}, {solver}, threads={threads})"
    )
    .map_err(CliError::io)?;
    write!(out, "{}", report.render()).map_err(CliError::io)?;
    if report.has_hard() {
        return Err(rt(format!(
            "trace check failed: hard regression against {baseline_path}"
        )));
    }
    Ok(())
}

/// `jp trace request <id|all> FILE [--json true] [--min-complete PCT]`
/// — reconstruct the cross-thread critical path and blame breakdown of
/// one serve request (or every stamped request, slowest first). With
/// `all`, `--min-complete` turns completeness into a gate: the command
/// exits non-zero when fewer than PCT percent of the requests
/// reconstruct with zero orphaned spans and a `serve.request` root.
fn trace_request(args: &[String], out: Out) -> Result<(), CliError> {
    let a = ParsedArgs::parse(args)?;
    let which = a.pos(0, "request id (or `all`)")?;
    let path = a.pos(1, "trace file")?;
    let events = load_events(path, out)?;
    let json = flag_true(&a, "json");
    if which == "all" {
        let min: u64 = a.opt_parse("min-complete", 0)?;
        let summary = jp_trace::reconstruct_all(&events);
        if json {
            let text = serde_json::to_string_pretty(&summary).map_err(rt)?;
            writeln!(out, "{text}").map_err(CliError::io)?;
        } else {
            write!(out, "{}", summary.render()).map_err(CliError::io)?;
        }
        if summary.complete_pct < min {
            return Err(rt(format!(
                "request reconstruction gate failed: {}% of {} request(s) complete \
                 (< --min-complete {min}%)",
                summary.complete_pct, summary.requests
            )));
        }
        return Ok(());
    }
    let id: u64 = which.parse().map_err(|_| {
        CliError::Usage(format!(
            "request id must be a number or `all`, got {which:?}"
        ))
    })?;
    let Some(trace) = jp_trace::reconstruct(&events, id) else {
        return Err(rt(format!(
            "no event in {path} is stamped with request id {id}"
        )));
    };
    if json {
        let text = serde_json::to_string_pretty(&trace).map_err(rt)?;
        writeln!(out, "{text}").map_err(CliError::io)
    } else {
        write!(out, "{}", trace.render()).map_err(CliError::io)
    }
}

/// `jp pulse <top|export> FILE …` — the live-metrics toolbox over pulse
/// files recorded by the `--pulse` sampler.
pub fn pulse(args: &[String], out: Out) -> Result<(), CliError> {
    let Some((sub, rest)) = args.split_first() else {
        return Err(CliError::Usage(
            "pulse needs a subcommand: top | export".into(),
        ));
    };
    match sub.as_str() {
        "top" => pulse_top(rest, out),
        "export" => pulse_export(rest, out),
        other => Err(CliError::Usage(format!(
            "unknown pulse subcommand `{other}` (top | export)"
        ))),
    }
}

/// Reads a pulse file into snapshots; zero snapshots is an error.
fn load_pulse_snapshots(path: &str) -> Result<Vec<jp_trace::PulseSnapshot>, CliError> {
    let (events, report) =
        jp_trace::read_trace(path).map_err(|e| rt(format!("reading {path}: {e}")))?;
    let snaps = jp_trace::pulse_snapshots(&events);
    if snaps.is_empty() {
        return Err(rt(format!(
            "no pulse snapshots in {path} ({} line(s), {} event(s) parsed) — \
             was the run recorded with --pulse?",
            report.lines, report.events
        )));
    }
    Ok(snaps)
}

/// `jp pulse top FILE [--watch N] [--every-ms M]` — renders the latest
/// snapshot; with `--watch N` it re-reads the file N times at the given
/// cadence (default 500 ms), clearing the screen between frames, so a
/// terminal pointed at a live `--pulse` file becomes a `top`-style view.
fn pulse_top(args: &[String], out: Out) -> Result<(), CliError> {
    let a = ParsedArgs::parse(args)?;
    let path = a.pos(0, "pulse file")?;
    let watch: u64 = a.opt_parse("watch", 0)?;
    let every_ms: u64 = a.opt_parse("every-ms", 500)?;
    let frames = watch.max(1);
    for frame in 0..frames {
        let snaps = load_pulse_snapshots(path)?;
        let Some(last) = snaps.last() else {
            return Ok(()); // unreachable: load_pulse_snapshots errors on empty
        };
        if watch > 0 {
            // clear screen + home, the classic live-refresh sequence
            write!(out, "\x1b[2J\x1b[H").map_err(CliError::io)?;
        }
        write!(
            out,
            "{}",
            jp_pulse::top::render_top(last.ordinal, last.at_micros, &last.samples)
        )
        .map_err(CliError::io)?;
        out.flush().map_err(CliError::io)?;
        if frame + 1 < frames {
            std::thread::sleep(std::time::Duration::from_millis(every_ms));
        }
    }
    Ok(())
}

/// `jp pulse export FILE [--out F]` — Prometheus-style text exposition
/// of the latest snapshot, to stdout or a file.
fn pulse_export(args: &[String], out: Out) -> Result<(), CliError> {
    let a = ParsedArgs::parse(args)?;
    let path = a.pos(0, "pulse file")?;
    let snaps = load_pulse_snapshots(path)?;
    let Some(last) = snaps.last() else {
        return Ok(()); // unreachable: load_pulse_snapshots errors on empty
    };
    let text = jp_pulse::expo::render_exposition(&last.samples);
    match a.opt("out") {
        Some(dest) => {
            std::fs::write(dest, &text).map_err(|e| rt(format!("writing {dest}: {e}")))?;
            writeln!(
                out,
                "{} metric(s) from snapshot #{} exported to {dest}",
                last.samples.len(),
                last.ordinal
            )
            .map_err(CliError::io)
        }
        None => write!(out, "{text}").map_err(CliError::io),
    }
}

/// `jp serve [--addr A] [--threads N] [--memo-file F] [--max-pending N]
/// [--max-edges N] [--budget NODES] [--max-requests N] [--slow-us µS]
/// [--xray-file F] [--xray-ring N]` — run the long-lived planning
/// service until a shutdown request (or the `--max-requests` bound)
/// drains it. With `--xray-file` the tail sampler buffers each
/// request's spans and writes full detail only for requests slower
/// than `--slow-us` (or errored); everything else is reduced to its
/// root span.
pub fn serve(args: &[String], out: Out) -> Result<(), CliError> {
    let a = ParsedArgs::parse(args)?;
    let threads: usize = a.opt_parse("threads", 1)?;
    if threads == 0 {
        return Err(CliError::Usage("--threads must be at least 1".into()));
    }
    let cfg = jp_serve::ServeConfig {
        addr: a.opt("addr").unwrap_or("127.0.0.1:7411").to_string(),
        threads,
        max_pending: a.opt_parse("max-pending", 64)?,
        max_edges: a.opt_parse("max-edges", 4096)?,
        budget: a.opt_parse("budget", 50_000_000)?,
        memo_file: a.opt("memo-file").map(std::path::PathBuf::from),
        max_requests: a.opt_parse("max-requests", 0)?,
        slow_us: a.opt_parse("slow-us", 5_000)?,
        xray_file: a.opt("xray-file").map(std::path::PathBuf::from),
        xray_ring: a.opt_parse("xray-ring", 64)?,
    };
    let xray_file = cfg.xray_file.clone();
    let requested = cfg.addr.clone();
    let server =
        jp_serve::Server::bind(cfg).map_err(|e| rt(format!("binding {requested}: {e}")))?;
    let addr = server.local_addr().map_err(rt)?;
    writeln!(
        out,
        "serve: listening on {addr} ({} memo entries preloaded)",
        server.preloaded()
    )
    .map_err(CliError::io)?;
    out.flush().map_err(CliError::io)?;
    let report = server
        .run()
        .map_err(|e| rt(format!("serving on {addr}: {e}")))?;
    writeln!(
        out,
        "serve: {} connection(s), {} admitted, {} completed, {} rejected, {} error(s), cost sum {}",
        report.connections,
        report.accepted,
        report.completed,
        report.rejected,
        report.errors,
        report.cost_sum
    )
    .map_err(CliError::io)?;
    writeln!(
        out,
        "serve: drained {}; memo holds {} entries ({} recognized, {} hits, {} misses)",
        if report.drained {
            "cleanly"
        } else {
            "INCOMPLETE"
        },
        report.memo_entries,
        report.memo.recognized,
        report.memo.hits,
        report.memo.misses
    )
    .map_err(CliError::io)?;
    if let Some(path) = &xray_file {
        writeln!(
            out,
            "serve: xray {} exemplar(s), {} downsampled, {} dropped → {}",
            report.exemplars,
            report.downsampled,
            report.xray_dropped,
            path.display()
        )
        .map_err(CliError::io)?;
    }
    if report.errors > 0 {
        return Err(rt(format!("{} request(s) failed", report.errors)));
    }
    Ok(())
}

/// `jp loadgen [--addr A] [--clients N] [--requests N] [--theta T]
/// [--seed S] [--pool K] [--verify false] [--shutdown true] [--out F]`
/// — replay a Zipf-skewed query mix against a running server and
/// report client-observed latencies.
pub fn loadgen(args: &[String], out: Out) -> Result<(), CliError> {
    let a = ParsedArgs::parse(args)?;
    let clients: usize = a.opt_parse("clients", 4)?;
    let requests: usize = a.opt_parse("requests", 25)?;
    if clients == 0 || requests == 0 {
        return Err(CliError::Usage(
            "--clients and --requests must be at least 1".into(),
        ));
    }
    let cfg = jp_serve::LoadgenConfig {
        addr: a.opt("addr").unwrap_or("127.0.0.1:7411").to_string(),
        clients,
        requests,
        theta: a.opt_parse("theta", 0.8)?,
        seed: a.opt_parse("seed", 42)?,
        pool: a.opt_parse("pool", 8)?,
        // verification is on unless explicitly refused
        verify: !matches!(a.opt("verify"), Some("false") | Some("0") | Some("no")),
        shutdown: flag_true(&a, "shutdown"),
    };
    let report =
        jp_serve::run_loadgen(&cfg).map_err(|e| rt(format!("driving {}: {e}", cfg.addr)))?;
    writeln!(
        out,
        "loadgen: {} sent, {} ok, {} rejected, {} error(s), {} mismatch(es) \
         over {} client(s) in {:.1} ms",
        report.sent,
        report.ok,
        report.rejected,
        report.errors,
        report.mismatches,
        cfg.clients,
        report.wall_micros as f64 / 1000.0
    )
    .map_err(CliError::io)?;
    writeln!(
        out,
        "loadgen: latency p50 {} µs, p95 {} µs, p99 {} µs",
        report.p50_us, report.p95_us, report.p99_us
    )
    .map_err(CliError::io)?;
    if let Some(slowest) = report.slowest_p99.first() {
        writeln!(
            out,
            "loadgen: slowest request id {} ({} µs); {} id(s) at/above p99 \
             recorded for `jp trace request`",
            slowest.request,
            slowest.micros,
            report.slowest_p99.len()
        )
        .map_err(CliError::io)?;
    }
    if !report.mismatch_requests.is_empty() {
        writeln!(
            out,
            "loadgen: mismatched request id(s): {:?}",
            report.mismatch_requests
        )
        .map_err(CliError::io)?;
    }
    if let Some(s) = &report.server {
        writeln!(
            out,
            "server: {} memo entries, {} completed, {} rejected, {} error(s), \
             warm serve rate {:.1}%",
            s.entries,
            s.completed,
            s.rejected,
            s.errors,
            s.serve_rate() * 100.0
        )
        .map_err(CliError::io)?;
    }
    if let Some(path) = a.opt("out") {
        let json = serde_json::to_string_pretty(&report).map_err(rt)?;
        std::fs::write(path, json).map_err(|e| rt(format!("writing {path}: {e}")))?;
        writeln!(out, "loadgen report written to {path}").map_err(CliError::io)?;
    }
    if report.mismatches > 0 {
        return Err(rt(format!(
            "{} answer(s) diverged from the sequential solver",
            report.mismatches
        )));
    }
    Ok(())
}
