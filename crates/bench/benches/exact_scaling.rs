//! Exact-solver scaling — the empirical face of Theorem 4.2's
//! NP-completeness: exact-DP time doubles (×2) per added edge, while the
//! guaranteed approximation stays polynomial.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jp_graph::generators;
use jp_pebble::approx::pebble_dfs_partition;
use jp_pebble::exact;

fn bench_exact_vs_approx(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_vs_approx");
    group.sample_size(10);
    for m in [12usize, 14, 16, 18] {
        let g = generators::random_connected_bipartite(5, 5, m, 42 + m as u64);
        group.bench_with_input(BenchmarkId::new("held_karp", m), &g, |b, g| {
            b.iter(|| exact::optimal_effective_cost(g).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("dfs_partition", m), &g, |b, g| {
            b.iter(|| pebble_dfs_partition(g).unwrap())
        });
    }
    group.finish();
}

fn bench_decision_procedure(c: &mut Criterion) {
    let g = generators::spider(8); // m = 16
    let pi = exact::optimal_effective_cost(&g).unwrap();
    c.bench_function("pebble_decision_G8", |b| {
        b.iter(|| exact::pebble_decision(&g, pi).unwrap())
    });
}

criterion_group!(benches, bench_exact_vs_approx, bench_decision_procedure);
criterion_main!(benches);
