//! The served workloads: an in-process `jp serve` on an ephemeral
//! loopback port, driven over the real wire protocol by one closed-loop
//! client: it sends its next request when the previous answer arrives,
//! so each latency is the service's own, with no queueing behind other
//! clients. (On a two-core machine, two or four clients made the
//! run-to-run spread several times wider.)
//!
//! The traffic is the one `jp loadgen` sends: its query pool of four
//! join-graph families — spiders, complete bipartite blocks, random
//! connected 4 + 4-vertex blocks, and a matching beside a path (two or
//! more components). Set-up binds a server and warms its memo by solving
//! every pool graph once. `serve_warm` then replays a Zipf mix of the
//! pool, so each component is served by a recognizer or a validated
//! cache hit; `serve_cold` sends the same four families at parameters the
//! pool does not hold. Its random blocks (7 + 7 vertices, 15 edges),
//! three in every four requests, are new per request, so the memo holds
//! none of them and they run the solver ladder down to the exact rung.
//! (Smaller random blocks repeat up to isomorphism within a few thousand
//! requests and then hit the memo.)
//!
//! Every component stays within the exact solver's 20 edges, so every
//! answer is optimal and has to equal the sequential solver's answer
//! (`loadgen::expected_costs`), whatever the memo held.

use crate::stats::{self, mix, SetUp, Window};
use crate::{Layers, Run};
use jp_graph::{generators, BipartiteGraph};
use jp_relalg::workload::Zipf;
use jp_serve::loadgen::{expected_costs, query_pool};
use jp_serve::{Client, PebbleAlgo, RequestBody, ResponseBody, ServeConfig, ServeReport, Server};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Graphs in the warm pool.
const POOL: usize = 64;
/// Zipf skew of the warm mix — the loadgen default.
const THETA: f64 = 0.8;
/// Complete bipartite blocks of the cold stream, none in the pool.
const COLD_BLOCKS: [(u32, u32); 6] = [(2, 6), (2, 7), (2, 8), (2, 9), (2, 10), (3, 6)];

/// A server running on its own thread.
struct Running {
    addr: SocketAddr,
    handle: JoinHandle<std::io::Result<ServeReport>>,
}

impl Running {
    /// Binds with the `jp serve` defaults (one solver thread) on an
    /// ephemeral loopback port and starts serving.
    fn start() -> Result<Running, String> {
        let server = Server::bind(ServeConfig::default()).map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        let handle = std::thread::spawn(move || server.run());
        Ok(Running { addr, handle })
    }

    /// Asks the server to drain and joins its thread. If the request
    /// cannot be sent the thread is left running and the error returned,
    /// since joining it would wait forever.
    fn stop(self) -> Result<ServeReport, String> {
        Client::connect(self.addr)
            .and_then(|mut c| c.request(RequestBody::Shutdown))
            .map_err(|e| format!("shutdown request: {e}"))?;
        self.handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))
    }
}

/// One set-up: bind, then solve every pool graph once. Returns the
/// server and its answers.
fn set_up(pool: &[BipartiteGraph]) -> Result<(Running, Vec<u64>), String> {
    let running = Running::start()?;
    let warmed = Client::connect(running.addr).and_then(|mut client| {
        let mut costs = Vec::with_capacity(pool.len());
        for g in pool {
            match client.request(pebble(g.clone()))?.body {
                ResponseBody::Cost { cost, .. } => costs.push(cost),
                other => return Err(std::io::Error::other(format!("answered {other:?}"))),
            }
        }
        Ok(costs)
    });
    match warmed {
        Ok(costs) => Ok((running, costs)),
        Err(e) => {
            let _ = running.stop();
            Err(format!("warm-up: {e}"))
        }
    }
}

/// A request's graph, named by a key it can be rebuilt from: a pool
/// index when warm, a cold-stream key (see [`cold_key`]) when cold.
struct Shapes {
    cold: bool,
    seed: u64,
    pool: Vec<BipartiteGraph>,
}

impl Shapes {
    fn graph(&self, key: u64) -> Option<BipartiteGraph> {
        if !self.cold {
            return self.pool.get(key as usize).cloned();
        }
        let k = key / 4;
        Some(match key % 4 {
            0 => generators::spider(8 + k as u32),
            1 => {
                let &(a, b) = COLD_BLOCKS.get(k as usize)?;
                generators::complete_bipartite(a, b)
            }
            2 => generators::random_connected_bipartite(7, 7, 15, mix(self.seed, k)),
            _ => generators::matching(5 + (k % 3) as u32)
                .disjoint_union(&generators::path(7 + (k / 3) as u32)),
        })
    }
}

/// The key of the `i`-th cold request. Of every four requests three are
/// random blocks, never repeating a key, and one is a closed-form
/// family, the three in turn, each cycling through its parameters:
/// spiders of 8 to 10 legs, the blocks of [`COLD_BLOCKS`], a matching of
/// 5 to 7 edges beside a path of 7 to 12. (With the pool's one random
/// block in four, the median latency fell among the closed-form
/// requests that follow an exact solve, whose latency moved by a fifth
/// from run to run with the host; the recognizers these requests reach
/// are measured by `serve_warm` as well.)
fn cold_key(i: u64) -> u64 {
    let (slot, k) = (i % 4, i / 4);
    let (family, j) = match (slot, k % 3) {
        (0, 0) => (0, k / 3 % 3),
        (0, 1) => (1, k / 3 % COLD_BLOCKS.len() as u64),
        (0, _) => (3, k / 3 % 18),
        _ => (2, 3 * k + slot - 1),
    };
    4 * j + family
}

fn pebble(graph: BipartiteGraph) -> RequestBody {
    RequestBody::Pebble {
        graph,
        algo: PebbleAlgo::Auto,
    }
}

/// What the client saw: per answer the shape key and the cost.
#[derive(Default)]
struct ClientLog {
    answers: Vec<(u64, u64)>,
    attempted: u64,
    failed: u64,
    /// Join-graph components answered, and those the memo served
    /// without solving (recognized or validated hit).
    components: u64,
    served: u64,
}

impl ClientLog {
    /// Sends `keys` in turn, one at a time, until the window passes. A
    /// connection error ends the loop, since the connection is then
    /// unusable.
    fn drive(
        &mut self,
        addr: SocketAddr,
        shapes: &Shapes,
        mut keys: impl Iterator<Item = u64>,
        window: &mut Window,
        mut setup: Option<SetUp>,
    ) -> Result<(), String> {
        let Ok(mut client) = Client::connect(addr) else {
            self.attempted += 1;
            self.failed += 1;
            return Ok(());
        };
        while window.next(setup.as_deref_mut())? {
            let Some(key) = keys.next() else { break };
            self.attempted += 1;
            let Some(graph) = shapes.graph(key) else {
                self.failed += 1;
                continue;
            };
            let t0 = Instant::now();
            match client.request(pebble(graph)).map(|r| r.body) {
                Ok(ResponseBody::Cost {
                    cost,
                    components,
                    served,
                    ..
                }) => {
                    window.answered(t0);
                    self.answers.push((key, cost));
                    self.components += components;
                    self.served += served;
                }
                Ok(_) => self.failed += 1,
                Err(_) => {
                    self.failed += 1;
                    break;
                }
            }
        }
        Ok(())
    }
}

/// The sequential solver's answer to every pool graph, solved once per
/// distinct graph: the pool repeats its closed-form graphs, and one of
/// them, K(4,5), takes the exact solver most of a second.
fn pool_costs(pool: &[BipartiteGraph]) -> Result<Vec<u64>, String> {
    let mut distinct: Vec<BipartiteGraph> = Vec::new();
    let index: Vec<usize> = pool
        .iter()
        .map(|g| {
            distinct.iter().position(|d| d == g).unwrap_or_else(|| {
                distinct.push(g.clone());
                distinct.len() - 1
            })
        })
        .collect();
    let costs = expected_costs(&distinct).map_err(|e| e.to_string())?;
    Ok(index
        .iter()
        .filter_map(|&i| costs.get(i).copied())
        .collect())
}

/// Every answer must equal the sequential solver's answer to its graph:
/// a pool graph's from `pool`, a cold graph's solved once per key.
fn verify(shapes: &Shapes, answers: &[(u64, u64)], pool: &[u64]) -> Result<bool, String> {
    let expected: HashMap<u64, u64> = if shapes.cold {
        let mut keys: Vec<u64> = answers.iter().map(|&(k, _)| k).collect();
        keys.sort_unstable();
        keys.dedup();
        let graphs = keys
            .iter()
            .map(|&k| shapes.graph(k).ok_or("answer to an unknown key"))
            .collect::<Result<Vec<_>, _>>()?;
        keys.into_iter()
            .zip(expected_costs(&graphs).map_err(|e| e.to_string())?)
            .collect()
    } else {
        (0..).zip(pool.iter().copied()).collect()
    };
    Ok(answers
        .iter()
        .all(|(k, cost)| expected.get(k) == Some(cost)))
}

/// Per-layer blame of the traced window. Events are buffered per
/// request id only until the request's `serve.wire` span, the last event
/// it causes, arrives; `jp_trace::reconstruct` then folds that request
/// into running sums, so memory stays bounded by the requests in flight.
#[derive(Default)]
struct BlameSink {
    state: Mutex<BlameState>,
}

#[derive(Default)]
struct BlameState {
    open: HashMap<u64, Vec<jp_obs::Event>>,
    requests: u64,
    queue_us: u64,
    memo_us: u64,
    solve_us: u64,
    wire_us: u64,
}

impl jp_obs::Sink for BlameSink {
    fn record(&self, event: &jp_obs::Event) {
        let Some(id) = event.request else { return };
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.open.entry(id).or_default().push(event.clone());
        let last = event.kind == jp_obs::EventKind::Span
            && event.component == "serve"
            && event.name == "wire";
        if !last {
            return;
        }
        let events = st.open.remove(&id).unwrap_or_default();
        if let Some(b) = jp_trace::reconstruct(&events, id).map(|t| t.blame) {
            st.requests += 1;
            st.queue_us += b.queue_us;
            st.memo_us += b.memo_us;
            st.solve_us += b.solve_us + b.wcoj_us;
            st.wire_us += b.wire_us;
        }
    }
}

impl BlameSink {
    /// Mean blame per request into `layers`, with the serving overheads
    /// as shares of the client-observed mean latency.
    fn fill(&self, latencies: &[f64], layers: &mut Layers) {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let n = st.requests.max(1) as f64;
        let (queue, wire) = (st.queue_us as f64 / n, st.wire_us as f64 / n);
        layers.index_us = st.memo_us as f64 / n;
        layers.compute_us = st.solve_us as f64 / n;
        let mean = stats::mean(latencies).max(f64::MIN_POSITIVE);
        let covered = queue + wire + layers.index_us + layers.compute_us;
        layers.queue_pct = 100.0 * queue / mean;
        layers.wire_pct = 100.0 * wire / mean;
        layers.frame_pct = 100.0 * (mean - covered).max(0.0) / mean;
    }
}

pub fn run(cold: bool, seed: u64, length: Duration, trace: bool) -> Result<Run, String> {
    let pool = query_pool(POOL);
    let expected_warm = pool_costs(&pool)?;
    let mut window = Window::new(length);
    let (running, warm) = window.time_setup(|| set_up(&pool))?;
    // the timed set-up repeats, each on a server of its own
    let mut again = || {
        let (server, costs) = set_up(&pool)?;
        server.stop()?;
        (costs == warm)
            .then_some(())
            .ok_or_else(|| "a repeated set-up answered differently".to_string())
    };
    let shapes = Shapes {
        cold,
        seed,
        pool: pool.clone(),
    };

    let sink = trace.then(|| {
        let sink = Arc::new(BlameSink::default());
        jp_obs::set_sink(sink.clone());
        sink
    });
    // a traced run repeats no set-up, whose requests the sink would count
    let setup: Option<SetUp> = if trace { None } else { Some(&mut again) };
    let mut log = ClientLog::default();
    let driven = if cold {
        log.drive(
            running.addr,
            &shapes,
            (0..).map(cold_key),
            &mut window,
            setup,
        )
    } else {
        let zipf = Zipf::new(POOL, THETA);
        let mut rng = SmallRng::seed_from_u64(seed);
        let keys = std::iter::repeat_with(|| zipf.sample(&mut rng) as u64);
        log.drive(running.addr, &shapes, keys, &mut window, setup)
    };
    if sink.is_some() {
        jp_obs::clear_sink();
    }
    let report = running.stop()?;
    driven?;
    let correct = warm == expected_warm
        && verify(&shapes, &log.answers, &expected_warm)?
        && report.drained
        && report.errors == 0;

    let mut layers = Layers::default();
    if let Some(sink) = sink {
        sink.fill(window.latencies(), &mut layers);
        layers.memo_served_ratio = log.served as f64 / log.components.max(1) as f64;
    }
    Ok(Run {
        correct,
        attempted: log.attempted,
        failed: log.failed,
        summary: window.summary(),
        layers,
    })
}
