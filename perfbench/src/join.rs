//! The multiway-join workloads: one query at a time through
//! `jp_relalg::multiway_solve`, as `jp join` runs it (tries built per
//! query, one thread), round-robin over a few seeded instances.
//!
//! The program receives each instance as unsorted tuples; its set-up is
//! loading them into relations (sorted and deduplicated) and planning
//! every query.

use crate::stats::{self, mix, Window};
use crate::{Layers, Run};
use jp_relalg::{
    explain_plan, multiway_solve, workload, ConjunctiveQuery, MultiRelation, MultiwayAlgo,
    PlanExplain, TrieIndex,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Instances per run, cycled through in the window.
const INSTANCES: u64 = 16;
/// Triangle: tuples per relation of the skewed star instance.
const TRIANGLE_N: usize = 1000;
/// 4-clique: edges of the random graph, and its average degree.
const CLIQUE_N: usize = 1000;
const CLIQUE_DEG: usize = 8;
/// In a traced run every this-many-th pass over the instances builds
/// their tries instead of joining, so no timed join follows a timed
/// build of the same tries.
const BUILD_PASS_EVERY: usize = 4;

/// One query's input as the program receives it: per relation its
/// name, arity and tuples, in no particular order.
struct Input {
    q: ConjunctiveQuery,
    relations: Vec<(String, usize, Vec<Vec<i64>>)>,
}

struct Instance {
    q: ConjunctiveQuery,
    rels: Vec<MultiRelation>,
    plan: PlanExplain,
}

/// The seeded inputs: each workload instance's tuples, shuffled.
fn generate(clique: bool, seed: u64) -> Vec<Input> {
    (0..INSTANCES)
        .map(|i| {
            let s = mix(seed, i);
            let (q, rels) = if clique {
                workload::clique4_random(CLIQUE_N, CLIQUE_DEG, s)
            } else {
                workload::triangle_skewed(TRIANGLE_N, s)
            };
            let mut rng = SmallRng::seed_from_u64(s);
            let relations = rels
                .iter()
                .map(|r| {
                    let mut tuples: Vec<Vec<i64>> = r.tuples().map(<[i64]>::to_vec).collect();
                    for k in (1..tuples.len()).rev() {
                        tuples.swap(k, rng.random_range(0..=k));
                    }
                    (r.name().to_string(), r.arity(), tuples)
                })
                .collect();
            Input { q, relations }
        })
        .collect()
}

/// The set-up: load every input's relations and plan its query.
fn load(inputs: &[Input]) -> Result<Vec<Instance>, String> {
    inputs
        .iter()
        .map(|input| {
            let rels = input
                .relations
                .iter()
                .map(|(name, arity, tuples)| {
                    MultiRelation::new(name.as_str(), *arity, tuples.iter().cloned())
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            let plan = explain_plan(&input.q, &rels).map_err(|e| e.to_string())?;
            Ok(Instance {
                q: input.q.clone(),
                rels,
                plan,
            })
        })
        .collect()
}

/// Binary-atom index used by the oracle.
struct AtomIndex {
    vars: [u32; 2],
    forward: HashMap<i64, Vec<i64>>,
    backward: HashMap<i64, Vec<i64>>,
    pairs: HashSet<(i64, i64)>,
}

/// An oracle for queries of binary atoms that shares no code with the
/// trie engines: backtracking over variables `0, 1, …`, each drawn from
/// whichever atom linking it to a bound variable offers the fewest
/// candidates, then checked against every atom it completes.
struct Oracle {
    atoms: Vec<AtomIndex>,
    binding: Vec<i64>,
    out: Vec<Vec<i64>>,
}

impl Oracle {
    fn new(q: &ConjunctiveQuery, rels: &[MultiRelation]) -> Result<Oracle, String> {
        let mut atoms = Vec::new();
        let mut nvars = 0;
        for atom in q.atoms() {
            let &[a, b] = atom.vars.as_slice() else {
                return Err("the oracle handles binary atoms only".to_string());
            };
            let rel = rels
                .get(atom.relation)
                .ok_or("atom names a missing relation")?;
            let mut idx = AtomIndex {
                vars: [a, b],
                forward: HashMap::new(),
                backward: HashMap::new(),
                pairs: HashSet::new(),
            };
            for t in rel.tuples() {
                let &[x, y] = t else {
                    return Err("relation is not binary".to_string());
                };
                idx.forward.entry(x).or_default().push(y);
                idx.backward.entry(y).or_default().push(x);
                idx.pairs.insert((x, y));
            }
            nvars = nvars.max(a.max(b) as usize + 1);
            atoms.push(idx);
        }
        Ok(Oracle {
            atoms,
            binding: vec![0; nvars],
            out: Vec::new(),
        })
    }

    /// Candidates for variable `k` given bindings of `0..k`.
    fn candidates(&self, k: u32) -> Vec<i64> {
        let mut best: Option<&Vec<i64>> = None;
        for a in &self.atoms {
            let [x, y] = a.vars;
            let list = if y == k && x < k {
                self.binding.get(x as usize).and_then(|v| a.forward.get(v))
            } else if x == k && y < k {
                self.binding.get(y as usize).and_then(|v| a.backward.get(v))
            } else {
                continue;
            };
            let Some(list) = list else {
                return Vec::new();
            };
            if best.is_none_or(|b| list.len() < b.len()) {
                best = Some(list);
            }
        }
        match best {
            Some(list) => list.clone(),
            None => {
                // no bound neighbour: every value the variable takes
                let mut all = BTreeSet::new();
                for a in &self.atoms {
                    if a.vars[0] == k {
                        all.extend(a.forward.keys().copied());
                    } else if a.vars[1] == k {
                        all.extend(a.backward.keys().copied());
                    }
                }
                all.into_iter().collect()
            }
        }
    }

    fn extend(&mut self, k: u32) {
        if k as usize == self.binding.len() {
            self.out.push(self.binding.clone());
            return;
        }
        for v in self.candidates(k) {
            if let Some(slot) = self.binding.get_mut(k as usize) {
                *slot = v;
            }
            let b = &self.binding;
            let consistent = self.atoms.iter().all(|a| {
                let [x, y] = a.vars;
                x.max(y) != k
                    || match (b.get(x as usize), b.get(y as usize)) {
                        (Some(&bx), Some(&by)) => a.pairs.contains(&(bx, by)),
                        _ => false,
                    }
            });
            if consistent {
                self.extend(k + 1);
            }
        }
    }

    /// Every answer, as rows in `order` (variable ids), sorted.
    fn rows(mut self, order: &[u32]) -> Vec<Vec<i64>> {
        self.extend(0);
        let mut rows: Vec<Vec<i64>> = self
            .out
            .iter()
            .map(|b| {
                order
                    .iter()
                    .filter_map(|&v| b.get(v as usize).copied())
                    .collect()
            })
            .collect();
        rows.sort_unstable();
        rows
    }
}

/// Per instance: the expected rows, and each atom's relation with the
/// column permutation of the trie the plan builds for it.
struct Prepared {
    expected: Vec<Vec<i64>>,
    tries: Vec<(usize, Vec<u32>)>,
}

fn prepare(inst: &Instance) -> Result<Prepared, String> {
    let expected = Oracle::new(&inst.q, &inst.rels)?.rows(&inst.plan.order);
    let tries = inst
        .plan
        .atoms
        .iter()
        .map(|a| {
            let perm = a
                .key_order
                .iter()
                .filter_map(|v| a.vars.iter().position(|w| w == v).map(|c| c as u32))
                .collect();
            (a.relation, perm)
        })
        .collect();
    Ok(Prepared { expected, tries })
}

/// Times building every trie of one instance, as `multiway_solve` does
/// before joining.
fn build_tries(inst: &Instance, prep: &Prepared) -> Result<f64, String> {
    let t0 = Instant::now();
    for (rel, perm) in &prep.tries {
        let rel = inst.rels.get(*rel).ok_or("plan names a missing relation")?;
        std::hint::black_box(TrieIndex::build(rel, perm).map_err(|e| e.to_string())?);
    }
    Ok(stats::micros_since(t0))
}

/// What jp-obs reports of the traced joins: the `wcoj` span of each
/// solve (trie build plus join) and its work counters.
#[derive(Default)]
struct WcojSink {
    totals: Mutex<WcojTotals>,
}

#[derive(Default, Clone, Copy)]
struct WcojTotals {
    solves: u64,
    span_us: u64,
    seeks: u64,
    intermediate: u64,
}

impl jp_obs::Sink for WcojSink {
    fn record(&self, event: &jp_obs::Event) {
        if event.component != "wcoj" {
            return;
        }
        let mut t = self.totals.lock().unwrap_or_else(|e| e.into_inner());
        match (event.kind, event.name.as_str()) {
            (jp_obs::EventKind::Span, _) => {
                t.solves += 1;
                t.span_us += event.value;
            }
            (jp_obs::EventKind::Counter, "seek") => t.seeks += event.value,
            (jp_obs::EventKind::Counter, "intermediate") => t.intermediate += event.value,
            _ => {}
        }
    }
}

pub fn run(clique: bool, seed: u64, length: Duration, trace: bool) -> Result<Run, String> {
    let inputs = generate(clique, seed);
    let mut window = Window::new(length);
    let instances = window.time_setup(|| load(&inputs))?;
    let prepared = instances
        .iter()
        .map(prepare)
        .collect::<Result<Vec<_>, _>>()?;
    let algo = if clique {
        MultiwayAlgo::Generic
    } else {
        MultiwayAlgo::Lftj
    };

    let sink = trace.then(|| {
        let sink = Arc::new(WcojSink::default());
        jp_obs::set_sink(sink.clone());
        sink
    });
    let mut reload = || load(&inputs).map(drop);
    let mut build_us = Vec::new();
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut next = 0usize;
    while window.next(Some(&mut reload))? {
        let i = next % instances.len();
        let pass = next / instances.len();
        next += 1;
        let (Some(inst), Some(prep)) = (instances.get(i), prepared.get(i)) else {
            break;
        };
        if trace && pass % BUILD_PASS_EVERY == BUILD_PASS_EVERY - 1 {
            build_us.push(build_tries(inst, prep)?);
            continue;
        }
        attempted += 1;
        let t0 = Instant::now();
        match multiway_solve(&inst.q, &inst.rels, algo, 1) {
            Ok(out) => {
                window.answered(t0);
                correct &= out.rows == prep.expected && (out.rows.len() as f64) <= out.agm_bound;
            }
            Err(_) => failed += 1,
        }
    }

    let mut layers = Layers::default();
    if let Some(sink) = sink {
        jp_obs::clear_sink();
        let t = *sink.totals.lock().unwrap_or_else(|e| e.into_inner());
        let n = t.solves.max(1) as f64;
        layers.index_us = stats::mean(&build_us);
        layers.compute_us = (t.span_us as f64 / n - layers.index_us).max(0.0);
        layers.seeks_per_query = t.seeks as f64 / n;
        layers.intermediate_per_query = t.intermediate as f64 / n;
    }
    Ok(Run {
        correct,
        attempted,
        failed,
        summary: window.summary(),
        layers,
    })
}
