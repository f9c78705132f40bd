//! A `--memo-file` written under an earlier canonical labeling must
//! load safely under the current one.
//!
//! `fixtures/memo_wl_keys.jsonl` was written by `Memo::save_jsonl` when
//! keys came from degree refinement plus an exhaustive search over
//! per-class permutations. It holds the entries left by solving the
//! jp-serve loadgen pool's 16 random blocks
//! (`random_connected_bipartite(4, 4, 9 + i % 3, 100 + i)` for
//! `i ≡ 2 mod 4`, `i < 64`) and `crown(4)` through `solve_with_memo`.
//! Today's labeling gives most of those components other keys. Such a
//! line must be skipped and counted, never served under a key that no
//! longer means its graph.

use jp_graph::canon::canonical_form;
use jp_graph::{generators, BipartiteGraph};
use jp_pebble::memo::{memoized_effective_cost, Memo};
use std::path::Path;

fn fixture() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/memo_wl_keys.jsonl")
}

/// The graphs whose solves wrote the fixture.
fn workload() -> Vec<BipartiteGraph> {
    let mut graphs: Vec<BipartiteGraph> = (0..64u64)
        .filter(|i| i % 4 == 2)
        .map(|i| generators::random_connected_bipartite(4, 4, 9 + (i % 3) as usize, 100 + i))
        .collect();
    graphs.push(generators::crown(4));
    graphs
}

#[derive(serde::Deserialize)]
struct Line {
    left: u32,
    right: u32,
    edges: Vec<(u32, u32)>,
}

#[test]
fn old_keys_load_as_counted_skips_and_never_change_an_answer() {
    let text = std::fs::read_to_string(fixture()).unwrap();
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(lines.len(), 13, "12 distinct random blocks and crown(4)");
    // which lines still carry the canonical key of the graph they name
    let still_canonical = lines
        .iter()
        .filter(|line| {
            let rec: Line = serde_json::from_str(line).unwrap();
            let g = BipartiteGraph::new(rec.left, rec.right, rec.edges.clone());
            let key = canonical_form(&g)
                .expect("≤ 8 vertices always canonicalize")
                .key;
            (key.left, key.right, key.edges) == (rec.left, rec.right, rec.edges)
        })
        .count();

    let loaded_memo = Memo::new();
    let (loaded, skipped) = loaded_memo.load_jsonl(&fixture()).unwrap();
    assert_eq!(loaded + skipped, lines.len());
    assert_eq!(
        loaded, still_canonical,
        "exactly the still-canonical lines load"
    );
    assert_eq!(skipped, lines.len() - still_canonical);
    assert_eq!(loaded_memo.stats().poisoned, skipped as u64);
    assert_eq!(loaded_memo.len(), loaded);

    let fresh_memo = Memo::new();
    for g in workload() {
        assert_eq!(
            memoized_effective_cost(&g, &loaded_memo, 1).unwrap(),
            memoized_effective_cost(&g, &fresh_memo, 1).unwrap(),
            "{g}"
        );
    }
    // no loaded entry was rejected on use: skipping happened at load
    assert_eq!(loaded_memo.stats().rejects, 0);
}
