//! A guided tour through every theorem of the paper, executed.
//!
//! ```text
//! cargo run --example complexity_tour --release
//! ```
//!
//! Walks §2 (the pebble game and its TSP view), §3 (the combinatorial
//! separation) and §4 (the computational separation) with live numbers.

use join_predicates::graph::{generators, hamilton, line_graph};
use join_predicates::pebble::approx::{pebble_dfs_partition, pebble_equijoin};
use join_predicates::pebble::{bounds, exact, families, tsp::Tsp12};

fn main() {
    println!("═══ §2: the pebble game ═══\n");
    let g = generators::spider(4);
    println!("take G_4 (Figure 1): {g}");
    let m = g.edge_count();
    println!(
        "Lemma 2.1/2.3 bounds: {} ≤ π̂ ≤ {}, {} ≤ π ≤ {}",
        m + 1,
        2 * m,
        m,
        2 * m - 1
    );
    let pi = exact::optimal_effective_cost(&g).unwrap();
    println!("exact: π(G_4) = {pi}\n");

    println!("§2.2: pebbling is TSP(1,2) over the line graph:");
    let lg = line_graph(&g);
    let (tour, jumps) = exact::min_jump_tour(&lg);
    let tsp = Tsp12::from_join_graph(&g);
    println!(
        "  optimal tour {tour:?} has {jumps} jumps, cost {} = π − 1 ✓",
        tsp.tour_cost(&tour)
    );
    println!(
        "  Prop 2.1: L(G_4) traceable? {} — so π > m ({} > {})\n",
        hamilton::has_hamiltonian_path(&lg),
        pi,
        m
    );

    println!("═══ §3: combinatorial separation ═══\n");
    println!("equijoins (Theorem 3.2): every component is complete bipartite;");
    let kg = generators::complete_bipartite(4, 6);
    let s = pebble_equijoin(&kg).unwrap();
    println!(
        "  K_4,6 pebbles perfectly: π = {} = m = {}\n",
        s.effective_cost(&kg),
        kg.edge_count()
    );

    println!("general bipartite graphs (Theorem 3.1): π ≤ 1.25m, constructively;");
    let rg = generators::random_connected_bipartite(30, 30, 100, 5);
    let s = pebble_dfs_partition(&rg).unwrap();
    println!(
        "  random m=100 graph: construction gives π = {} (≤ ⌈1.25m⌉ = 125)\n",
        s.effective_cost(&rg)
    );

    println!("the worst case exists and is a *join graph* (Theorems 3.3, L3.3, L3.4):");
    for n in [4u64, 6, 8] {
        println!(
            "  G_{n}: m = {}, π = {} = 1.25m − 1 (pendant certificate: {})",
            2 * n,
            families::spider_optimal_cost(n),
            bounds::pendant_lower_bound(&generators::spider(n as u32))
        );
    }
    println!("  … realizable by set-containment (Lemma 3.3) and rectangles (Lemma 3.4),");
    println!("  … never by an equijoin (not complete bipartite).\n");

    println!("═══ §4: computational separation ═══\n");
    println!("Theorem 4.1: equijoin pebbling is linear-time (see example `quickstart`,");
    println!("experiment E10 for the scaling table).\n");

    println!("Theorem 4.2: PEBBLE(D) is NP-complete. Exact cost of the decision:");
    for m in [12usize, 16, 20] {
        let g = generators::random_connected_bipartite(5, 5, m, 42 + m as u64);
        let t0 = std::time::Instant::now();
        let pi = exact::optimal_effective_cost(&g).unwrap();
        println!(
            "  m = {m}: π = {pi}, the exact DP took {:.1} ms (doubling per edge)",
            t0.elapsed().as_secs_f64() * 1e3
        );
    }

    println!("\nTheorem 4.4: PEBBLE is MAX-SNP-complete — no PTAS unless P = NP;");
    println!("the constant-factor world is the best possible: 1.25 constructive here,");
    println!("7/6 known (Papadimitriou–Yannakakis), 1 + ε impossible for small ε.");
    println!("(Run experiments E12/E13 for the verified L-reduction inequalities.)");
}
