//! End-to-end tests for jp-serve: a real server on an ephemeral port,
//! real TCP clients from the loadgen, and the acceptance criteria of
//! the serving design checked directly — answer parity with the
//! sequential solver under concurrency, exact admission bounds, clean
//! drains, and a warm restart that serves from the checkpoint.

use jp_serve::loadgen::{expected_costs, query_pool, run_loadgen, LoadgenConfig};
use jp_serve::proto::{PebbleAlgo, Request, RequestBody, ResponseBody, WIRE_VERSION};
use jp_serve::{Client, ServeConfig, ServeReport, Server};
use std::path::PathBuf;

/// Binds a server on an ephemeral loopback port and runs it on a
/// spawned thread; returns the address and the join handle.
fn start_server(
    cfg: ServeConfig,
) -> (
    String,
    std::thread::JoinHandle<std::io::Result<ServeReport>>,
) {
    let server = Server::bind(cfg).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jp-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn concurrent_load_gets_sequential_answers_and_a_clean_drain() {
    // eight clients into one solver slot, into two, and into one slot
    // each
    for threads in [1, 2, 8] {
        let (addr, handle) = start_server(ServeConfig {
            threads,
            ..ServeConfig::default()
        });
        let cfg = LoadgenConfig {
            addr,
            clients: 8,
            requests: 15,
            verify: true,
            shutdown: true,
            ..LoadgenConfig::default()
        };
        let report = run_loadgen(&cfg).expect("loadgen run");
        let served = handle.join().expect("server thread").expect("server run");

        // every single answer equals the sequential solver's answer
        assert_eq!(report.mismatches, 0, "threads {threads}: {report:?}");
        assert_eq!(report.errors, 0, "threads {threads}: {report:?}");
        assert_eq!(report.sent, 8 * 15);
        assert_eq!(report.ok, report.sent, "threads {threads}: {report:?}");
        assert!(report.p50_us <= report.p95_us && report.p95_us <= report.p99_us);

        // the two sides of the wire agree on what happened
        assert_eq!(served.completed, report.ok, "threads {threads}: {served:?}");
        assert_eq!(
            served.cost_sum, report.cost_sum,
            "threads {threads}: {served:?}"
        );
        assert_eq!(served.errors, 0, "threads {threads}: {served:?}");
        // 8 workload clients + the stats/shutdown probe connection
        assert_eq!(served.connections, 9, "threads {threads}: {served:?}");
        assert!(
            served.drained,
            "shutdown must drain in-flight work at threads {threads}: {served:?}"
        );
    }
}

#[test]
fn oversized_graphs_are_rejected_with_the_flag_named() {
    let (addr, handle) = start_server(ServeConfig {
        max_edges: 5,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr.as_str()).expect("connect");
    let big = jp_graph::generators::complete_bipartite(4, 4); // 16 edges
    let resp = client
        .request(RequestBody::Pebble {
            graph: big,
            algo: PebbleAlgo::Auto,
        })
        .expect("request");
    match resp.body {
        ResponseBody::Rejected { reason } => {
            assert!(reason.contains("--max-edges"), "{reason}");
            assert!(reason.contains("16"), "{reason}");
        }
        other => panic!("expected a rejection, got {other:?}"),
    }
    let _ = client.request(RequestBody::Shutdown).expect("shutdown");
    let served = handle.join().expect("server thread").expect("server run");
    assert_eq!(served.rejected, 1, "{served:?}");
    assert_eq!(served.completed, 0, "{served:?}");
}

#[test]
fn the_pending_bound_rejects_rather_than_queueing_without_limit() {
    // max_pending = 0: no pebble job can ever claim a slot, so every
    // one must bounce with the admission reason — never hang, never
    // queue.
    let (addr, handle) = start_server(ServeConfig {
        max_pending: 0,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr.as_str()).expect("connect");
    for _ in 0..3 {
        let resp = client
            .request(RequestBody::Pebble {
                graph: jp_graph::generators::spider(4),
                algo: PebbleAlgo::Auto,
            })
            .expect("request");
        match resp.body {
            ResponseBody::Rejected { reason } => {
                assert!(reason.contains("--max-pending"), "{reason}")
            }
            other => panic!("expected a rejection, got {other:?}"),
        }
    }
    let _ = client.request(RequestBody::Shutdown).expect("shutdown");
    let served = handle.join().expect("server thread").expect("server run");
    assert_eq!(served.rejected, 3, "{served:?}");
    assert!(served.drained, "{served:?}");
}

#[test]
fn budget_exhaustion_is_back_pressure_not_an_error() {
    let (addr, handle) = start_server(ServeConfig {
        budget: 1, // one node: any real bb search exhausts immediately
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr.as_str()).expect("connect");
    let resp = client
        .request(RequestBody::Pebble {
            graph: jp_graph::generators::spider(6), // a 1-node budget cannot prove a spider
            algo: PebbleAlgo::Bb,
        })
        .expect("request");
    match resp.body {
        ResponseBody::Rejected { reason } => assert!(reason.contains("--budget"), "{reason}"),
        other => panic!("expected a budget rejection, got {other:?}"),
    }
    let _ = client.request(RequestBody::Shutdown).expect("shutdown");
    let served = handle.join().expect("server thread").expect("server run");
    assert_eq!((served.rejected, served.errors), (1, 0), "{served:?}");
}

#[test]
fn wire_version_mismatch_is_answered_not_dropped() {
    let (addr, handle) = start_server(ServeConfig::default());
    // speak the framing by hand so we can lie about the version
    let mut stream = std::net::TcpStream::connect(addr.as_str()).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("timeout");
    let req = Request {
        v: WIRE_VERSION + 7,
        id: 3,
        request: None,
        body: RequestBody::Ping,
    };
    jp_serve::proto::write_message(&mut stream, &req).expect("write");
    let payload = match jp_serve::proto::read_frame(&mut stream).expect("read") {
        jp_serve::proto::FrameRead::Frame(p) => p,
        other => panic!("expected a frame, got {other:?}"),
    };
    let resp = jp_serve::proto::parse_response(&payload).expect("parse");
    match resp.body {
        ResponseBody::Error { reason } => {
            assert!(reason.contains("unsupported wire version"), "{reason}")
        }
        other => panic!("expected an error response, got {other:?}"),
    }
    drop(stream);
    let mut client = Client::connect(addr.as_str()).expect("connect");
    let _ = client.request(RequestBody::Shutdown).expect("shutdown");
    let served = handle.join().expect("server thread").expect("server run");
    assert_eq!(served.errors, 1, "{served:?}");
}

#[test]
fn warm_restart_serves_the_second_pass_from_the_checkpoint() {
    let dir = fresh_dir("warm");
    let memo_file = dir.join("memo.jsonl");

    // first lifetime: cold store, mixed workload, checkpoint at exit
    let (addr, handle) = start_server(ServeConfig {
        memo_file: Some(memo_file.clone()),
        ..ServeConfig::default()
    });
    let cfg = LoadgenConfig {
        addr,
        clients: 4,
        requests: 20,
        verify: true,
        shutdown: true,
        ..LoadgenConfig::default()
    };
    let first = run_loadgen(&cfg).expect("first loadgen");
    let served1 = handle.join().expect("server thread").expect("server run");
    assert_eq!(first.mismatches, 0, "{first:?}");
    assert!(memo_file.exists(), "checkpoint must be written at shutdown");
    assert!(served1.memo_entries > 0, "{served1:?}");

    // second lifetime: same checkpoint, same workload — the warm
    // store (plus recognizers) must serve ≥90% of lookups without
    // running the solver ladder, at identical answers
    let (addr2, handle2) = start_server(ServeConfig {
        memo_file: Some(memo_file.clone()),
        ..ServeConfig::default()
    });
    let cfg2 = LoadgenConfig { addr: addr2, ..cfg };
    let second = run_loadgen(&cfg2).expect("second loadgen");
    let served2 = handle2.join().expect("server thread").expect("server run");
    assert_eq!(second.mismatches, 0, "{second:?}");
    assert_eq!(
        second.cost_sum, first.cost_sum,
        "same workload, same answers"
    );
    assert!(served2.preloaded > 0, "{served2:?}");
    let snap = second.server.expect("final stats probe");
    assert!(
        snap.serve_rate() >= 0.90,
        "second pass must be served warm: rate {:.3}, {snap:?}",
        snap.serve_rate()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_tail_sampler_keeps_slow_requests_and_downsamples_fast_ones() {
    let dir = fresh_dir("xray");

    // first lifetime: a 0µs threshold makes every request an exemplar
    let slow_file = dir.join("all-slow.jsonl");
    let (addr, handle) = start_server(ServeConfig {
        slow_us: 0,
        xray_file: Some(slow_file.clone()),
        ..ServeConfig::default()
    });
    let cfg = LoadgenConfig {
        addr,
        clients: 2,
        requests: 5,
        verify: true,
        shutdown: true,
        ..LoadgenConfig::default()
    };
    let report = run_loadgen(&cfg).expect("loadgen");
    let served = handle.join().expect("server thread").expect("server run");
    assert_eq!(report.mismatches, 0, "{report:?}");
    assert!(report.mismatch_requests.is_empty(), "{report:?}");
    // the client-side tail carries tracing ids to chase with
    // `jp trace request`
    assert!(!report.slowest_p99.is_empty(), "{report:?}");
    assert!(
        report.slowest_p99.iter().all(|s| s.request > 0),
        "{report:?}"
    );
    assert!(
        served.exemplars >= report.ok,
        "every pebble request must be an exemplar at slow_us=0: {served:?}"
    );
    assert_eq!(served.xray_dropped, 0, "{served:?}");
    let text = std::fs::read_to_string(&slow_file).expect("xray file");
    let roots = text
        .lines()
        .filter(|l| l.contains("\"component\":\"serve\"") && l.contains("\"name\":\"request\""))
        .count() as u64;
    assert_eq!(roots, served.completed, "one root span per answer: {text}");
    assert!(
        text.lines().all(|l| l.contains("\"request\":")),
        "the sampler only keeps request-stamped events"
    );

    // second lifetime: an unreachable threshold downsamples everything
    // to its root span — latency accounting survives, detail does not
    let fast_file = dir.join("all-fast.jsonl");
    let (addr2, handle2) = start_server(ServeConfig {
        slow_us: u64::MAX,
        xray_file: Some(fast_file.clone()),
        ..ServeConfig::default()
    });
    let cfg2 = LoadgenConfig { addr: addr2, ..cfg };
    let report2 = run_loadgen(&cfg2).expect("loadgen");
    let served2 = handle2.join().expect("server thread").expect("server run");
    assert_eq!(report2.errors, 0, "{report2:?}");
    assert_eq!(served2.exemplars, 0, "{served2:?}");
    assert!(served2.downsampled > 0, "{served2:?}");
    let text2 = std::fs::read_to_string(&fast_file).expect("xray file");
    assert_eq!(text2.lines().count() as u64, served2.completed, "{text2}");
    assert!(
        text2
            .lines()
            .all(|l| l.contains("\"name\":\"request\"") && l.contains("\"request\":")),
        "downsampled requests keep exactly their root span: {text2}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sends one pebble request stamped with tracing id `request` over a
/// connection of its own and returns the answer.
fn pebble_traced_as(addr: &str, request: u64, graph: jp_graph::BipartiteGraph) -> ResponseBody {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("timeout");
    let req = Request {
        v: WIRE_VERSION,
        id: 1,
        request: Some(request),
        body: RequestBody::Pebble {
            graph,
            algo: PebbleAlgo::Auto,
        },
    };
    jp_serve::proto::write_message(&mut stream, &req).expect("write");
    match jp_serve::proto::read_frame(&mut stream).expect("read") {
        jp_serve::proto::FrameRead::Frame(p) => {
            jp_serve::proto::parse_response(&p).expect("parse").body
        }
        other => panic!("expected a frame, got {other:?}"),
    }
}

#[test]
fn two_servers_in_one_process_keep_their_xray_files_apart() {
    let dir = fresh_dir("two-xrays");
    let start = |file: &str| {
        start_server(ServeConfig {
            slow_us: 0,
            xray_file: Some(dir.join(file)),
            ..ServeConfig::default()
        })
    };
    let (addr_a, handle_a) = start("a.jsonl");
    let (addr_b, handle_b) = start("b.jsonl");
    // The same tracing ids on both servers, B first: a sampler that also
    // buffered the other server's events would flush them with its own
    // request of the same id.
    let ids = [7_001u64, 7_002, 7_003];
    for id in ids {
        for addr in [&addr_b, &addr_a] {
            let body = pebble_traced_as(addr, id, jp_graph::generators::spider(5));
            assert!(matches!(body, ResponseBody::Cost { .. }), "{body:?}");
        }
    }
    for (addr, handle, file) in [(addr_a, handle_a, "a.jsonl"), (addr_b, handle_b, "b.jsonl")] {
        let mut client = Client::connect(addr.as_str()).expect("connect");
        let _ = client.request(RequestBody::Shutdown).expect("shutdown");
        let served = handle.join().expect("server thread").expect("server run");
        // every request is an exemplar at slow_us=0, the shutdown too
        assert_eq!(served.exemplars, ids.len() as u64 + 1, "{file}: {served:?}");
        assert_eq!(served.xray_dropped, 0, "{file}: {served:?}");
        let text = std::fs::read_to_string(dir.join(file)).expect("xray file");
        for id in ids {
            let stamp = format!("\"request\":{id}}}");
            let count = |name: &str| {
                text.lines()
                    .filter(|l| l.ends_with(&stamp) && l.contains(name))
                    .count()
            };
            assert_eq!(
                count("\"name\":\"request\""),
                1,
                "{file}, request {id}:\n{text}"
            );
            assert_eq!(
                count("\"name\":\"wire\""),
                1,
                "{file}, request {id}:\n{text}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_verification_pool_is_deterministic_and_solvable() {
    // the loadgen's ground truth must itself be stable: same pool,
    // same costs, run to run
    let a = query_pool(8);
    let b = query_pool(8);
    assert_eq!(a, b);
    let ca = expected_costs(&a).expect("solve pool");
    let cb = expected_costs(&b).expect("solve pool");
    assert_eq!(ca, cb);
    assert!(ca.iter().all(|&c| c > 0), "{ca:?}");
}

#[test]
fn max_requests_bound_shuts_the_server_down_by_itself() {
    let (addr, handle) = start_server(ServeConfig {
        max_requests: 5,
        ..ServeConfig::default()
    });
    let cfg = LoadgenConfig {
        addr,
        clients: 2,
        requests: 10,
        verify: false,
        shutdown: false, // the server must stop on its own
        ..LoadgenConfig::default()
    };
    let report = run_loadgen(&cfg).expect("loadgen");
    let served = handle.join().expect("server thread").expect("server run");
    assert!(served.completed >= 5, "{served:?}");
    assert!(served.drained, "{served:?}");
    // whatever was answered before the bound fired is correct
    assert_eq!(report.mismatches, 0, "{report:?}");
}
