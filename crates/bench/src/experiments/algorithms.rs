//! E5, E6, E10, E11: the algorithmic claims of §3–§4.

use crate::table::Table;
use jp_graph::generators;
use jp_pebble::approx::{
    pebble_dfs_partition, pebble_equijoin, pebble_euler_trails, pebble_nearest_neighbor,
    pebble_path_cover,
};
use jp_pebble::exact;
use jp_relalg::{equijoin_graph, workload};
use std::fmt::Write;
use std::time::Instant;

fn report_header(id: &str, claim: &str) -> String {
    format!("## {id}\n\n**Claim (paper).** {claim}\n\n")
}

fn verdict_line(out: &mut String, pass: bool) {
    writeln!(
        out,
        "\n**Verdict: {}**\n",
        if pass { "PASS" } else { "FAIL" }
    )
    .unwrap();
}

/// E5 — Theorem 3.1 / Lemma 3.1: the DFS-partition construction pebbles
/// every connected bipartite graph within `⌈1.25m⌉`, across sizes and
/// densities; the heuristic ladder (Euler trails, path cover, nearest
/// neighbour) is measured alongside.
pub fn e5_dfs_partition() -> (String, bool) {
    let mut out = report_header(
        "E5",
        "Any connected bipartite graph can be pebbled with π ≤ 1.25m, constructively \
         (DFS tree of L(G), twin elimination, path peeling).",
    );
    let mut table = Table::new([
        "k×l, m",
        "π(dfs)/m",
        "π(euler)/m",
        "π(cover)/m",
        "π(nn)/m",
        "dfs ≤ 1.25m",
    ]);
    let mut pass = true;
    let shapes = [
        (10u32, 10u32, 25usize),
        (20, 20, 60),
        (40, 40, 110),
        (60, 60, 150),
        (25, 100, 200),
        (80, 80, 400),
        (100, 100, 1_000),
    ];
    for (i, &(k, l, m)) in shapes.iter().enumerate() {
        let g = generators::random_connected_bipartite(k, l, m, 1_000 + i as u64);
        let run = |s: Result<jp_pebble::PebblingScheme, _>| -> f64 {
            let s = s.expect("pebbler succeeds");
            debug_assert!(s.validate(&g).is_ok());
            s.effective_cost(&g) as f64 / m as f64
        };
        let dfs = run(pebble_dfs_partition(&g));
        let euler = run(pebble_euler_trails(&g));
        let cover = run(pebble_path_cover(&g));
        let nn = run(pebble_nearest_neighbor(&g));
        let ok = dfs * (m as f64) <= (5.0 * m as f64 / 4.0).ceil() + 1e-9;
        pass &= ok;
        table.row([
            format!("{k}×{l}, {m}"),
            format!("{dfs:.4}"),
            format!("{euler:.4}"),
            format!("{cover:.4}"),
            format!("{nn:.4}"),
            ok.to_string(),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nThe guaranteed construction respects 1.25m everywhere; the unguaranteed \
         heuristics often do better on random graphs but carry no worst-case bound \
         (the spider family of E8 defeats nearest-neighbour, for example).\n",
    );
    verdict_line(&mut out, pass);
    (out, pass)
}

/// E6 — Lemma 3.2 / Theorem 3.2: equijoin join graphs (from real Zipf
/// workloads through the hash-join graph builder) always pebble
/// perfectly: `π = m`, `π̂ = m + β₀`.
pub fn e6_equijoin_perfect() -> (String, bool) {
    let mut out = report_header(
        "E6",
        "The join graph of an equijoin can always be pebbled perfectly: π(G) = m \
         (every component is complete bipartite; boustrophedon order).",
    );
    let mut table = Table::new([
        "|R|,|S|", "keys", "θ", "m", "β₀", "π̂", "π", "π/m", "perfect",
    ]);
    let mut pass = true;
    for (n, keys, theta, seed) in [
        (100usize, 20usize, 0.0f64, 11u64),
        (300, 40, 0.5, 12),
        (1_000, 100, 1.0, 13),
        (3_000, 50, 1.2, 14),
        (10_000, 1_000, 0.8, 15),
    ] {
        let (r, s) = workload::zipf_equijoin(n, n, keys, theta, seed);
        let g = equijoin_graph(&r, &s).unwrap();
        let m = g.edge_count();
        let scheme = pebble_equijoin(&g).expect("equijoin graph");
        let ok = scheme.validate(&g).is_ok() && scheme.effective_cost(&g) == m;
        pass &= ok;
        table.row([
            format!("{n},{n}"),
            keys.to_string(),
            format!("{theta:.1}"),
            m.to_string(),
            jp_graph::betti_number(&g).to_string(),
            scheme.cost().to_string(),
            scheme.effective_cost(&g).to_string(),
            format!("{:.3}", scheme.effective_cost(&g) as f64 / m as f64),
            ok.to_string(),
        ]);
    }
    out.push_str(&table.render());
    verdict_line(&mut out, pass);
    (out, pass)
}

/// E10 — Theorem 4.1: the equijoin pebbler runs in linear time — wall
/// time per edge stays flat across three orders of magnitude (and the
/// Euler-trail pebbler matches on general graphs).
pub fn e10_linear_time() -> (String, bool) {
    let mut out = report_header(
        "E10",
        "PEBBLE can be solved in linear time for equijoin graphs (Theorem 4.1).",
    );
    let mut table = Table::new([
        "m",
        "equijoin pebble ms",
        "ns/edge",
        "euler pebble ms",
        "ns/edge",
    ]);
    let mut per_edge: Vec<f64> = Vec::new();
    for exp in [3u32, 4, 5, 6] {
        let m_target = 10usize.pow(exp);
        // many K_{5,20} components (100 edges each), built in one pass
        let comps = (m_target / 100) as u32;
        let mut edges = Vec::with_capacity(m_target);
        for c in 0..comps {
            for i in 0..5u32 {
                for j in 0..20u32 {
                    edges.push((c * 5 + i, c * 20 + j));
                }
            }
        }
        let g = jp_graph::BipartiteGraph::new(comps * 5, comps * 20, edges);
        let m = g.edge_count();
        let t0 = Instant::now();
        let s = pebble_equijoin(&g).expect("equijoin graph");
        let dt = t0.elapsed();
        assert_eq!(s.effective_cost(&g), m);
        let ns_edge = dt.as_nanos() as f64 / m as f64;
        per_edge.push(ns_edge);
        let t1 = Instant::now();
        let s2 = pebble_euler_trails(&g).expect("pebbler succeeds");
        let dt2 = t1.elapsed();
        assert!(s2.effective_cost(&g) >= m);
        table.row([
            m.to_string(),
            format!("{:.2}", dt.as_secs_f64() * 1e3),
            format!("{ns_edge:.0}"),
            format!("{:.2}", dt2.as_secs_f64() * 1e3),
            format!("{:.0}", dt2.as_nanos() as f64 / m as f64),
        ]);
    }
    // linearity: per-edge time at 10^6 within 8x of per-edge time at 10^3
    // (slack for cache effects on a shared machine)
    let pass = per_edge.last().unwrap() / per_edge.first().unwrap() < 8.0;
    out.push_str(&table.render());
    out.push_str("\nPer-edge cost stays flat across 10³–10⁶ edges: linear time.\n");
    verdict_line(&mut out, pass);
    (out, pass)
}

/// E11 — Theorem 4.2 (NP-completeness, empirically): exact `PEBBLE`
/// explodes exponentially with `m` while the 1.25-approximation stays
/// linear — on *spatial-overlap join graphs* (every instance here is
/// spatially realized per Lemma 3.4's machinery and re-derived from the
/// geometry before solving).
pub fn e11_exact_scaling() -> (String, bool) {
    let mut out = report_header(
        "E11",
        "PEBBLE(D) is NP-complete, even for spatial-overlap join graphs (Theorem 4.2). \
         Empirical signature: exact solving is exponential in m; approximation is not.",
    );
    let mut table = Table::new([
        "m (spatial join graph)",
        "exact ms",
        "approx ms",
        "π exact",
        "π approx",
    ]);
    let mut times: Vec<f64> = Vec::new();
    let mut pass = true;
    for m in [12usize, 14, 16, 18, 20] {
        let g0 = generators::random_connected_bipartite(5, 5, m, 42 + m as u64);
        // realize spatially, then recover the join graph from geometry
        let (r, s) = jp_relalg::realize::spatial_universal_instance(&g0);
        let g = jp_relalg::spatial_graph(&r, &s).unwrap();
        assert_eq!(g, g0, "spatial realization must reproduce the graph");
        let t0 = Instant::now();
        let pi = exact::optimal_effective_cost(&g).expect("within solver limit");
        let exact_ms = t0.elapsed().as_secs_f64() * 1e3;
        times.push(exact_ms);
        let t1 = Instant::now();
        let approx = pebble_dfs_partition(&g).unwrap().effective_cost(&g);
        let approx_ms = t1.elapsed().as_secs_f64() * 1e3;
        pass &= approx >= pi && (approx as f64) <= 1.25 * m as f64 + 1.0;
        table.row([
            m.to_string(),
            format!("{exact_ms:.2}"),
            format!("{approx_ms:.3}"),
            pi.to_string(),
            approx.to_string(),
        ]);
    }
    // exponential growth: time roughly quadruples per +2 edges; require
    // the last/first ratio to exceed 16 (theory: 2^8 = 256)
    let growth = times.last().unwrap() / times.first().unwrap().max(1e-3);
    pass &= growth > 16.0;
    out.push_str(&table.render());
    writeln!(
        out,
        "\nExact-time growth ratio across m = 12 → 20: {growth:.0}× (the layered exact \
         DP is Θ((J+1)·2^m·m); a polynomial algorithm would contradict Theorem 4.2 unless P = NP)."
    )
    .unwrap();
    verdict_line(&mut out, pass);
    (out, pass)
}
