//! E23 — worst-case-optimal multiway joins: the AGM bound holds
//! empirically, the engines agree with the binary cascade, and skew
//! opens the intermediate-tuple gap worst-case optimality eliminates.

use crate::table::Table;
use jp_relalg::{multiway_solve, query_join_graph, workload, MultiwayAlgo};
use std::fmt::Write;

/// E23 — Leapfrog Triejoin and generic join over trie indexes: on the
/// triangle, 4-clique, and bowtie queries every engine emits the same
/// sorted rows as the binary nested-loops cascade, the output never
/// exceeds the AGM fractional-cover bound, and on the adversarially
/// skewed triangle the cascade materializes ≥10x more intermediate
/// tuples than the worst-case-optimal engines — while the query join
/// graphs themselves stay in the paper's *easy* class (unions of
/// complete bipartite blocks, pebbled perfectly by the memo pipeline).
pub fn e23_wcoj() -> (String, bool) {
    let mut out = String::from(
        "## E23\n\n**Claim (extension; AGM 2008, Veldhuizen 2012, NPRR 2012).** \
         Worst-case-optimal multiway joins bound their *intermediate* work by \
         the AGM fractional-cover bound, which a binary join cascade cannot: \
         on a skewed triangle the cascade's intermediate result is quadratic \
         while LFTJ and generic join stay linear. Meanwhile each *pairwise* \
         join graph of these conjunctive queries is an equijoin graph, so the \
         paper's pebbling hierarchy places the per-pair page access problem in \
         the easy class — the multiway blowup is a property of the join \
         *plan*, not of the predicates.\n\n",
    );
    let mut table = Table::new([
        "workload",
        "algo",
        "rows",
        "AGM bound",
        "seeks",
        "words",
        "intermediate",
        "vs cascade",
    ]);
    let mut pass = true;

    let instances = vec![
        (
            "triangle rand n=240",
            workload::triangle_random(240, 4, 902),
        ),
        ("triangle skew n=96", workload::triangle_skewed(96, 901)),
        ("4-clique rand n=160", workload::clique4_random(160, 3, 903)),
        ("bowtie rand n=160", workload::bowtie_random(160, 3, 904)),
    ];
    let mut skew_gap = 0.0_f64;
    for (label, (q, rels)) in &instances {
        let cascade = match multiway_solve(q, rels, MultiwayAlgo::Cascade, 1) {
            Ok(o) => o,
            Err(e) => {
                let _ = writeln!(out, "cascade failed on {label}: {e}");
                return (out, false);
            }
        };
        for algo in [
            MultiwayAlgo::Lftj,
            MultiwayAlgo::Generic,
            MultiwayAlgo::Cascade,
        ] {
            let res = match multiway_solve(q, rels, algo, 1) {
                Ok(o) => o,
                Err(e) => {
                    let _ = writeln!(out, "{} failed on {label}: {e}", algo.name());
                    return (out, false);
                }
            };
            // byte-identical sorted output across all engines
            pass &= res.rows == cascade.rows;
            // the empirical AGM bound
            pass &= res.rows.len() as f64 <= res.agm_bound;
            let gap = cascade.stats.intermediate as f64 / res.stats.intermediate.max(1) as f64;
            if *label == "triangle skew n=96" && algo == MultiwayAlgo::Lftj {
                skew_gap = gap;
            }
            table.row([
                label.to_string(),
                algo.name().into(),
                res.rows.len().to_string(),
                format!("{:.0}", res.agm_bound),
                res.stats.seeks.to_string(),
                res.stats.words.to_string(),
                res.stats.intermediate.to_string(),
                format!("{gap:.1}x"),
            ]);
        }
        // thread parity: 2 and 8 workers reproduce the single-thread rows
        for threads in [2, 8] {
            for algo in [MultiwayAlgo::Lftj, MultiwayAlgo::Generic] {
                pass &= multiway_solve(q, rels, algo, threads)
                    .map(|r| r.rows == cascade.rows)
                    .unwrap_or(false);
            }
        }
    }
    // the acceptance gate: ≥10x intermediate-tuple gap on the skewed triangle
    pass &= skew_gap >= 10.0;

    // the pebbling link: every query join graph is in the easy class
    let mut perfect = true;
    for (_, (q, rels)) in &instances {
        let Ok(g) = query_join_graph(q, rels) else {
            perfect = false;
            break;
        };
        let (g, _, _) = g.strip_isolated();
        perfect &= jp_graph::properties::is_equijoin_graph(&g);
        let memo = jp_pebble::memo::Memo::new();
        perfect &= jp_pebble::memo::memoized_effective_cost(&g, &memo, 1)
            .map(|c| c == g.edge_count())
            .unwrap_or(false);
    }
    pass &= perfect;

    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "\nAll three engines emit byte-identical sorted rows (also at 2 and 8 \
         threads) and never exceed the AGM bound. On the skewed triangle the \
         cascade materializes {skew_gap:.0}x the intermediate tuples of LFTJ — \
         the quadratic-vs-linear separation worst-case optimality removes. \
         Every pairwise join graph is an equijoin graph pebbled perfectly \
         (π = m) through the memo pipeline: per-pair page scheduling is easy \
         even when the binary join *plan* is catastrophically worse than the \
         multiway one. The engines walk CSR tries (per level, the distinct \
         keys plus child and row offsets): `open` and `advance` are O(1) and \
         a seek binary-searches only the current node's distinct keys. A node \
         whose keys span fewer 64-key words than it has keys also stores a \
         bitset, and a level where every participant's node is such a bitset \
         is intersected by ANDing the aligned words (the words column) \
         instead of seeking; a sparse or mixed level seeks as before. The \
         rows and intermediate counts do not depend on which path a level \
         takes.",
    );
    let _ = writeln!(
        out,
        "\n**Verdict: {}**\n",
        if pass { "PASS" } else { "FAIL" }
    );
    (out, pass)
}
