//! Versioned wire format for the jp-serve TCP service.
//!
//! Every message — request or response — travels as one *frame*:
//!
//! ```text
//! +----------------------+--------------------------+
//! | length: u32 (BE)     | payload: `length` bytes  |
//! +----------------------+--------------------------+
//! ```
//!
//! The payload is a single JSON document, so a captured conversation
//! replays with any JSONL tooling once the frames are stripped. The
//! length prefix makes message boundaries explicit on a stream socket: a
//! reader never has to guess where one JSON document ends and the next
//! begins, and a partial write is detected as a short frame instead of
//! being misparsed.
//!
//! The codec is written by hand for these types (the private `wire`
//! module): [`encode_request`] and [`encode_response`] write a whole
//! frame, header included, in one pass into one buffer, reading a graph
//! through its accessors; [`parse_request`] and [`parse_response`] pull
//! the message straight out of the payload. The JSON is byte for byte
//! what the vendored `serde_json` writes for these types, and the parser
//! accepts and rejects what `serde_json::from_str` does, with the same
//! error classes; the unit tests hold both to that, with `serde_json` as
//! the oracle. Everything else the workspace stores as JSON — memo
//! JSONL, trace JSONL, xray sidecars and CLI graph files — still goes
//! through the generic `serde_json` path.
//!
//! Versioning: [`Request::v`] / [`Response::v`] carry [`WIRE_VERSION`].
//! A server answers a request with an unknown version with
//! [`ResponseBody::Error`] naming both versions, never by guessing.
//!
//! Reading is poll-friendly: sockets used by the server carry a short
//! read timeout, and [`read_frame`] reports a timeout *before any byte
//! of a frame* as [`FrameRead::Idle`] so the caller can check its
//! shutdown flag and come back. A timeout *inside* a frame is retried
//! (bounded), because the bytes are already in flight.

use crate::wire;
use jp_graph::BipartiteGraph;
use std::io::{self, Read};

/// Version stamped into every frame payload; bump on any breaking
/// change to the message types below.
pub const WIRE_VERSION: u32 = 1;

/// Upper bound on a single frame payload. Large enough for any graph
/// the admission control would accept anyway, small enough that a
/// corrupt or hostile length prefix cannot OOM the server.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// How many consecutive timed-out reads *mid-frame* are tolerated
/// before the connection is declared stalled. With the server's 50 ms
/// read timeout this allows a peer roughly 10 s to finish a frame it
/// has started.
const MAX_MID_FRAME_STALLS: u32 = 200;

/// One client request.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(test, derive(serde::Serialize, serde::Deserialize))]
pub struct Request {
    /// Wire format version ([`WIRE_VERSION`]).
    pub v: u32,
    /// Client-chosen correlation id, echoed in the [`Response`].
    /// Scoped to one connection (the client numbers its own frames).
    pub id: u64,
    /// Process-unique tracing id minted by [`crate::Client`], carried
    /// into every jp-obs event the request causes server-side (the
    /// `request` field of schema v2) so `jp trace request <id>` can
    /// reconstruct its critical path.
    ///
    /// A *compatible* frame extension within [`WIRE_VERSION`] 1: the
    /// parser reads a missing key as `None` (old client → new server)
    /// and ignores unknown keys (new client → old server), so peers on
    /// either side of the extension interoperate.
    pub request: Option<u64>,
    /// What is being asked.
    pub body: RequestBody,
}

/// The request payload variants.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(test, derive(serde::Serialize, serde::Deserialize))]
pub enum RequestBody {
    /// Liveness probe; answered with [`ResponseBody::Pong`].
    Ping,
    /// Plan a join graph: compute its effective pebbling cost.
    Pebble {
        /// The join graph to pebble.
        graph: BipartiteGraph,
        /// Which rung of the solver ladder to use.
        algo: PebbleAlgo,
    },
    /// Ask for server-lifetime counters and warm-store statistics.
    Stats,
    /// Ask the server to drain in-flight work and exit.
    Shutdown,
}

/// Solver selection for a [`RequestBody::Pebble`] request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(test, derive(serde::Serialize, serde::Deserialize))]
pub enum PebbleAlgo {
    /// The memoized portfolio: recognizers and the warm store first,
    /// the full race on a miss. This is what a planning service wants.
    Auto,
    /// Branch-and-bound exact search under the server's node budget;
    /// exhaustion is reported as a rejection, not an error.
    Bb,
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(test, derive(serde::Serialize, serde::Deserialize))]
pub struct Response {
    /// Wire format version ([`WIRE_VERSION`]).
    pub v: u32,
    /// The correlation id of the request being answered (0 when the
    /// request was too malformed to carry one).
    pub id: u64,
    /// The answer.
    pub body: ResponseBody,
}

/// The response payload variants.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(test, derive(serde::Serialize, serde::Deserialize))]
pub enum ResponseBody {
    /// Answer to [`RequestBody::Ping`].
    Pong,
    /// A completed pebbling answer.
    Cost {
        /// Effective pebbling cost of the submitted graph.
        cost: u64,
        /// Connected components the graph decomposed into.
        components: u64,
        /// Components served by a recognizer or the warm store.
        served: u64,
        /// Components that ran the full solver ladder.
        fresh: u64,
        /// Server-side service time for this request, microseconds.
        micros: u64,
    },
    /// The request was refused by admission control (queue full, graph
    /// too large, budget exhausted, or the server is shutting down).
    /// The reason names the limit that fired.
    Rejected {
        /// Human-readable reason, naming the flag/limit involved.
        reason: String,
    },
    /// The request failed (malformed frame, version mismatch, solver
    /// error). The connection stays usable unless framing itself broke.
    Error {
        /// Human-readable description of what went wrong.
        reason: String,
    },
    /// Answer to [`RequestBody::Stats`].
    Stats {
        /// Entries currently in the warm memo store.
        entries: u64,
        /// Memo lookups served from the cache (validated hits).
        hits: u64,
        /// Memo lookups that found nothing usable.
        misses: u64,
        /// Memo lookups answered by a closed-form recognizer.
        recognized: u64,
        /// Pebble requests answered with a cost since startup.
        completed: u64,
        /// Requests refused by admission control since startup.
        rejected: u64,
        /// Requests that failed since startup.
        errors: u64,
    },
    /// Answer to [`RequestBody::Shutdown`], and to any request that
    /// arrives while the server is draining.
    ShuttingDown,
}

/// Outcome of one [`read_frame`] call.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// The peer closed the connection cleanly at a frame boundary.
    Eof,
    /// The read timed out before any byte of a new frame arrived; the
    /// connection is healthy, there is just nothing to read yet.
    Idle,
}

/// Whether an I/O error is a read-timeout (both kinds a timed-out
/// socket read can surface, depending on platform and socket mode).
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads until `buf` holds `want` bytes. Returns `Ok(false)` when the
/// very first read of an empty `buf` reports EOF (clean close) or a
/// timeout (idle) — the caller distinguishes the two via `buf` still
/// being empty plus the returned `idle` flag in [`read_frame`].
fn fill(r: &mut impl Read, buf: &mut Vec<u8>, want: usize) -> io::Result<Fill> {
    let mut chunk = [0u8; 4096];
    let mut stalls = 0u32;
    while buf.len() < want {
        let need = (want - buf.len()).min(chunk.len());
        let dst = match chunk.get_mut(..need) {
            Some(d) => d,
            None => break, // unreachable: need ≤ chunk.len()
        };
        match r.read(dst) {
            Ok(0) => {
                return if buf.is_empty() {
                    Ok(Fill::Eof)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    ))
                };
            }
            Ok(n) => {
                buf.extend_from_slice(chunk.get(..n).unwrap_or(&[]));
                stalls = 0;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                if buf.is_empty() {
                    return Ok(Fill::Idle);
                }
                stalls += 1;
                if stalls > MAX_MID_FRAME_STALLS {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "peer stalled mid-frame",
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(Fill::Full)
}

/// Internal outcome of [`fill`].
enum Fill {
    /// `buf` holds `want` bytes.
    Full,
    /// EOF before the first byte.
    Eof,
    /// Timeout before the first byte.
    Idle,
}

/// Reads one length-prefixed frame. See [`FrameRead`] for the
/// non-error outcomes; errors mean the connection is no longer usable
/// (mid-frame close, stall, oversized length prefix, or a genuine I/O
/// failure).
pub fn read_frame(r: &mut impl Read) -> io::Result<FrameRead> {
    let mut header: Vec<u8> = Vec::with_capacity(4);
    match fill(r, &mut header, 4)? {
        Fill::Eof => return Ok(FrameRead::Eof),
        Fill::Idle => return Ok(FrameRead::Idle),
        Fill::Full => {}
    }
    let len = header
        .iter()
        .fold(0usize, |acc, &b| (acc << 8) | usize::from(b));
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut payload: Vec<u8> = Vec::with_capacity(len);
    loop {
        match fill(r, &mut payload, len)? {
            Fill::Full => return Ok(FrameRead::Frame(payload)),
            Fill::Eof if len == 0 => return Ok(FrameRead::Frame(payload)),
            Fill::Eof => {
                // the header arrived but the peer closed before the
                // first payload byte: a truncated frame, not a message
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ));
            }
            // the header already arrived, so the frame has started:
            // keep waiting for the payload under fill's stall budget
            Fill::Idle => {}
        }
    }
}

/// Encodes `req` as one frame, header and payload, replacing the
/// contents of `frame`; send it with a single `write_all`.
pub fn encode_request(req: &Request, frame: &mut Vec<u8>) -> io::Result<()> {
    encode_frame(frame, |out| wire::encode_request(req, out))
}

/// Encodes `resp` as one frame, header and payload, replacing the
/// contents of `frame`; send it with a single `write_all`.
pub fn encode_response(resp: &Response, frame: &mut Vec<u8>) -> io::Result<()> {
    encode_frame(frame, |out| wire::encode_response(resp, out))
}

/// Reserves the 4-byte header, lets `payload` append the payload, and
/// fills the header in.
fn encode_frame(frame: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
    frame.clear();
    frame.extend_from_slice(&[0; 4]);
    payload(frame);
    let len = frame.len() - 4;
    let header = u32::try_from(len)
        .ok()
        .filter(|_| len <= MAX_FRAME_BYTES)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("refusing to write a {len}-byte frame (cap {MAX_FRAME_BYTES})"),
            )
        })?;
    if let Some(h) = frame.get_mut(..4) {
        h.copy_from_slice(&header.to_be_bytes());
    }
    Ok(())
}

/// Parses a frame payload as a [`Request`], enforcing the wire
/// version. The error string is what goes into the
/// [`ResponseBody::Error`] reply.
pub fn parse_request(payload: &[u8]) -> Result<Request, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("frame is not UTF-8: {e}"))?;
    let req = wire::decode_request(text).map_err(|e| format!("malformed request JSON: {e}"))?;
    if req.v != WIRE_VERSION {
        return Err(format!(
            "unsupported wire version {} (this server speaks {WIRE_VERSION})",
            req.v
        ));
    }
    Ok(req)
}

/// Parses a frame payload as a [`Response`], enforcing the wire
/// version.
pub fn parse_response(payload: &[u8]) -> Result<Response, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("frame is not UTF-8: {e}"))?;
    let resp = wire::decode_response(text).map_err(|e| format!("malformed response JSON: {e}"))?;
    if resp.v != WIRE_VERSION {
        return Err(format!(
            "unsupported wire version {} (this client speaks {WIRE_VERSION})",
            resp.v
        ));
    }
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jp_graph::generators;

    /// `payload` behind its length header.
    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u32).to_be_bytes().to_vec();
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn frames_round_trip() {
        let buf = [frame(b"hello"), frame(b""), frame(b"world")].concat();
        let mut r = io::Cursor::new(buf);
        for want in [&b"hello"[..], b"", b"world"] {
            match read_frame(&mut r).unwrap() {
                FrameRead::Frame(p) => assert_eq!(p, want),
                other => panic!("expected a frame, got {other:?}"),
            }
        }
        assert!(matches!(read_frame(&mut r).unwrap(), FrameRead::Eof));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_not_allocated() {
        // 0xFFFF_FFFF length prefix: must error out without trying to
        // read (or reserve) 4 GiB.
        let mut r = io::Cursor::new(vec![0xFF, 0xFF, 0xFF, 0xFF]);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn mid_frame_close_is_an_error_not_a_short_frame() {
        let mut buf = frame(b"full payload");
        buf.truncate(9); // header + 5 of 12 payload bytes
        let mut r = io::Cursor::new(buf);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn requests_round_trip_through_the_wire_format() {
        let g = generators::spider(4);
        let req = Request {
            v: WIRE_VERSION,
            id: 7,
            request: Some(1009),
            body: RequestBody::Pebble {
                graph: g,
                algo: PebbleAlgo::Auto,
            },
        };
        let mut buf: Vec<u8> = Vec::new();
        encode_request(&req, &mut buf).unwrap();
        assert_eq!(buf, frame(&serde_json::to_vec(&req).unwrap()));
        let mut r = io::Cursor::new(buf);
        let FrameRead::Frame(p) = read_frame(&mut r).unwrap() else {
            panic!("expected a frame");
        };
        assert_eq!(parse_request(&p).unwrap(), req);
    }

    #[test]
    fn responses_round_trip_through_the_wire_format() {
        let resp = Response {
            v: WIRE_VERSION,
            id: 9,
            body: ResponseBody::Cost {
                cost: 12,
                components: 3,
                served: 2,
                fresh: 1,
                micros: 480,
            },
        };
        let mut buf: Vec<u8> = Vec::new();
        encode_response(&resp, &mut buf).unwrap();
        assert_eq!(buf, frame(&serde_json::to_vec(&resp).unwrap()));
        let mut r = io::Cursor::new(buf);
        let FrameRead::Frame(p) = read_frame(&mut r).unwrap() else {
            panic!("expected a frame");
        };
        assert_eq!(parse_response(&p).unwrap(), resp);
    }

    #[test]
    fn wrong_version_is_refused_with_both_versions_named() {
        let req = Request {
            v: WIRE_VERSION + 1,
            id: 1,
            request: None,
            body: RequestBody::Ping,
        };
        let payload = serde_json::to_vec(&req).unwrap();
        let err = parse_request(&payload).unwrap_err();
        assert!(err.contains(&format!("{}", WIRE_VERSION + 1)), "{err}");
        assert!(err.contains(&format!("{WIRE_VERSION}")), "{err}");
    }

    #[test]
    fn frames_without_the_request_field_still_parse() {
        // A frame from a client built before the tracing-id extension:
        // same wire version, no `request` key. Must parse with `None`,
        // not error — the extension is compatible, not breaking.
        let legacy = format!(r#"{{"v":{WIRE_VERSION},"id":3,"body":"Ping"}}"#);
        let req = parse_request(legacy.as_bytes()).unwrap();
        assert_eq!(req.id, 3);
        assert_eq!(req.request, None);
        assert_eq!(req.body, RequestBody::Ping);
    }

    #[test]
    fn unknown_request_keys_are_ignored_like_old_servers_do() {
        // The mirror direction: an old server reading a stamped frame
        // ignores the key it does not know. Our deserializer has the
        // same skip-unknown-keys semantics, demonstrated with a key no
        // build declares.
        let stamped =
            format!(r#"{{"v":{WIRE_VERSION},"id":4,"request":88,"zz_later":1,"body":"Ping"}}"#);
        let req = parse_request(stamped.as_bytes()).unwrap();
        assert_eq!(req.request, Some(88));
        assert_eq!(req.body, RequestBody::Ping);
    }

    #[test]
    fn garbage_payload_is_a_classified_error() {
        assert!(parse_request(b"not json")
            .unwrap_err()
            .contains("malformed"));
        let bad_utf8 = [0xC0u8, 0x80];
        assert!(parse_request(&bad_utf8).unwrap_err().contains("UTF-8"));
    }

    #[test]
    fn deeply_nested_payload_is_a_classified_error() {
        // A 1 MiB frame of `[` (and one of `{"a":`) is far below the
        // frame limit. A parser without a nesting bound recurses once
        // per byte and overflows the stack, which aborts the process
        // instead of returning an error. The parse runs on a thread with
        // a small stack so such an overflow shows up at once.
        let object = br#"{"a":"#.repeat(1 << 18);
        for payload in [vec![b'['; 1 << 20], object] {
            let err = std::thread::Builder::new()
                .stack_size(256 * 1024)
                .spawn(move || parse_request(&payload))
                .unwrap()
                .join()
                .unwrap()
                .unwrap_err();
            assert!(err.contains("malformed request JSON"), "{err}");
            assert!(err.contains("nesting depth"), "{err}");
        }
    }
}
