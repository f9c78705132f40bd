//! Equivalence of the hand-written codec with the vendored serde path.
//!
//! The encoders must write the bytes `serde_json::to_vec` writes, on
//! random messages of every variant. The parsers must agree with
//! `serde_json::from_str` on random valid frames and on mutated ones:
//! the same message, or both an error of the same class (not UTF-8,
//! nesting too deep, otherwise malformed, or a wrong version).
//!
//! Mutations work on the message's `Content` tree and its rendering:
//! permuted, unknown, duplicate and dropped keys, `null` values, other
//! enum tags and two-key enum maps, number spellings (`-0`, leading
//! zeros, floats, negative, out of `u32` or `u64` range), edges out of
//! range, escaped keys and strings, whitespace, deep nesting, and byte
//! edits on the finished payload (truncation, bad UTF-8, stray bytes).
//! No mutation makes a valid graph with more than 99 vertices a side,
//! so no case allocates more than a small graph.

use crate::proto::{
    parse_request, parse_response, PebbleAlgo, Request, RequestBody, Response, ResponseBody,
    WIRE_VERSION,
};
use crate::wire::{self, MAX_DEPTH};
use jp_graph::BipartiteGraph;
use proptest::prelude::*;
use proptest::TestRng;
use serde::{Content, Serialize};
use std::time::{Duration, Instant};

/// The parser this crate used before its own: the vendored tree parser.
fn tree_request(payload: &[u8]) -> Result<Request, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("frame is not UTF-8: {e}"))?;
    let req: Request =
        serde_json::from_str(text).map_err(|e| format!("malformed request JSON: {e}"))?;
    if req.v != WIRE_VERSION {
        return Err(format!(
            "unsupported wire version {} (this server speaks {WIRE_VERSION})",
            req.v
        ));
    }
    Ok(req)
}

/// [`tree_request`] for responses.
fn tree_response(payload: &[u8]) -> Result<Response, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("frame is not UTF-8: {e}"))?;
    let resp: Response =
        serde_json::from_str(text).map_err(|e| format!("malformed response JSON: {e}"))?;
    if resp.v != WIRE_VERSION {
        return Err(format!(
            "unsupported wire version {} (this client speaks {WIRE_VERSION})",
            resp.v
        ));
    }
    Ok(resp)
}

/// A parse outcome with the error reduced to its class.
fn class<T>(outcome: Result<T, String>) -> Result<T, &'static str> {
    outcome.map_err(|e| {
        const CLASSES: [&str; 5] = [
            "frame is not UTF-8",
            "malformed request JSON: nesting depth exceeds 128",
            "malformed response JSON: nesting depth exceeds 128",
            "malformed",
            "unsupported wire version",
        ];
        CLASSES
            .into_iter()
            .find(|c| e.starts_with(c))
            .unwrap_or_else(|| panic!("unclassified error: {e}"))
    })
}

/// Both parsers on one request payload; panics with the payload if they
/// disagree. Returns the shared outcome.
fn agree_request(payload: &[u8]) -> Result<Request, &'static str> {
    let (new, old) = (parse_request(payload), tree_request(payload));
    let (new_class, old_class) = (class(new.clone()), class(old.clone()));
    assert_eq!(
        new_class,
        old_class,
        "payload {:?}\nnew: {new:?}\nold: {old:?}",
        String::from_utf8_lossy(payload)
    );
    new_class
}

/// [`agree_request`] for responses.
fn agree_response(payload: &[u8]) -> Result<Response, &'static str> {
    let (new, old) = (parse_response(payload), tree_response(payload));
    let (new_class, old_class) = (class(new.clone()), class(old.clone()));
    assert_eq!(
        new_class,
        old_class,
        "payload {:?}\nnew: {new:?}\nold: {old:?}",
        String::from_utf8_lossy(payload)
    );
    new_class
}

/// Draws from one seed.
struct Draw(TestRng);

impl Draw {
    fn below(&mut self, n: u64) -> u64 {
        self.0.next_u64() % n.max(1)
    }

    /// True with probability `per_mille` / 1000.
    fn chance(&mut self, per_mille: u64) -> bool {
        self.below(1000) < per_mille
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    /// A number from the edges of the ranges as often as from inside.
    fn u64(&mut self) -> u64 {
        match self.below(6) {
            0 => 0,
            1 => u64::MAX,
            2 => u64::from(u32::MAX),
            3 => self.below(10),
            _ => self.0.next_u64(),
        }
    }

    /// A string of characters that need escaping or are not ASCII.
    fn text(&mut self) -> String {
        const CHARS: [char; 18] = [
            'a', 'Z', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}',
            '\u{7f}', 'é', '€', '😀', '\u{2028}',
        ];
        let len = self.below(12);
        (0..len).map(|_| *self.pick(&CHARS)).collect()
    }

    fn graph(&mut self) -> BipartiteGraph {
        let (left, right) = (self.below(6) as u32, self.below(6) as u32);
        let m = if left == 0 || right == 0 {
            0
        } else {
            self.below(12)
        };
        let edges = (0..m)
            .map(|_| {
                (
                    self.below(u64::from(left)) as u32,
                    self.below(u64::from(right)) as u32,
                )
            })
            .collect();
        BipartiteGraph::new(left, right, edges)
    }

    fn request(&mut self) -> Request {
        let body = match self.below(5) {
            0 => RequestBody::Ping,
            1 => RequestBody::Stats,
            2 => RequestBody::Shutdown,
            _ => RequestBody::Pebble {
                graph: self.graph(),
                algo: *self.pick(&[PebbleAlgo::Auto, PebbleAlgo::Bb]),
            },
        };
        Request {
            v: if self.chance(900) {
                WIRE_VERSION
            } else {
                self.u64() as u32
            },
            id: self.u64(),
            request: self.chance(700).then(|| self.u64()),
            body,
        }
    }

    fn response(&mut self) -> Response {
        let body = match self.below(6) {
            0 => ResponseBody::Pong,
            1 => ResponseBody::ShuttingDown,
            2 => ResponseBody::Cost {
                cost: self.u64(),
                components: self.u64(),
                served: self.u64(),
                fresh: self.u64(),
                micros: self.u64(),
            },
            3 => ResponseBody::Rejected {
                reason: self.text(),
            },
            4 => ResponseBody::Error {
                reason: self.text(),
            },
            _ => ResponseBody::Stats {
                entries: self.u64(),
                hits: self.u64(),
                misses: self.u64(),
                recognized: self.u64(),
                completed: self.u64(),
                rejected: self.u64(),
                errors: self.u64(),
            },
        };
        Response {
            v: if self.chance(900) {
                WIRE_VERSION
            } else {
                self.u64() as u32
            },
            id: self.u64(),
            body,
        }
    }

    /// A small value of any JSON type, for unknown and duplicate keys.
    fn junk(&mut self) -> Content {
        match self.below(7) {
            0 => Content::Null,
            1 => Content::Bool(self.chance(500)),
            2 => Content::U64(self.below(100)),
            3 => Content::F64(0.25),
            4 => Content::Str(self.text()),
            5 => Content::Seq(vec![Content::U64(1), Content::Str("x".to_string())]),
            _ => Content::Map(vec![("k".to_string(), Content::Null)]),
        }
    }

    /// A copy of `c` with its maps, tags and numbers mutated, each node
    /// with probability `rate` per mille.
    fn mutate(&mut self, c: &Content, rate: u64) -> Content {
        match c {
            Content::Map(entries) => {
                let mut entries: Vec<(String, Content)> = entries
                    .iter()
                    .map(|(k, v)| (k.clone(), self.mutate(v, rate)))
                    .collect();
                if self.chance(rate) && !entries.is_empty() {
                    // a duplicate key, first or second
                    let i = self.below(entries.len() as u64) as usize;
                    let key = entries[i].0.clone();
                    let dup = (key, self.junk());
                    let at = self.below(entries.len() as u64 + 1) as usize;
                    entries.insert(at, dup);
                }
                if self.chance(rate) {
                    let at = self.below(entries.len() as u64 + 1) as usize;
                    let name = self.pick(&["zz", "request", "Ping", "v", ""]).to_string();
                    let junk = self.junk();
                    entries.insert(at, (name, junk));
                }
                if self.chance(rate) && !entries.is_empty() {
                    let i = self.below(entries.len() as u64) as usize;
                    if self.chance(500) {
                        entries.remove(i);
                    } else {
                        entries[i].1 = Content::Null;
                    }
                }
                if self.chance(rate) {
                    // permute
                    for i in (1..entries.len()).rev() {
                        let j = self.below(i as u64 + 1) as usize;
                        entries.swap(i, j);
                    }
                }
                if self.chance(rate / 2) && entries.len() == 1 {
                    // another tag for a one-key enum map
                    let tag = self.pick(&["Pebble", "Cost", "Ping", "Stats", "Error"]);
                    entries[0].0 = tag.to_string();
                }
                Content::Map(entries)
            }
            Content::Seq(items) => {
                let mut items: Vec<Content> = items.iter().map(|v| self.mutate(v, rate)).collect();
                if self.chance(rate / 2) {
                    // a third endpoint, or one short
                    if self.chance(500) {
                        items.push(Content::U64(0));
                    } else {
                        items.pop();
                    }
                }
                Content::Seq(items)
            }
            Content::Str(_) if self.chance(rate) => Content::Str(
                self.pick(&[
                    "Ping",
                    "Stats",
                    "Shutdown",
                    "Pebble",
                    "Pong",
                    "ShuttingDown",
                    "Cost",
                    "Auto",
                    "Bb",
                    "auto",
                    "",
                ])
                .to_string(),
            ),
            Content::U64(n) if self.chance(rate) => match self.below(6) {
                // small values only: a graph stays small whatever its
                // sizes read
                0 => Content::U64(n.saturating_add(1).min(8)),
                1 => Content::U64(1 << 32),
                2 => Content::I64(-1),
                3 => Content::F64(1.5),
                4 => Content::Str("1".to_string()),
                _ => Content::Null,
            },
            other => other.clone(),
        }
    }
}

/// Renders a `Content` tree as JSON, spelling tokens in the ways JSON
/// allows and sometimes in ways it does not.
struct Render<'d> {
    draw: &'d mut Draw,
    /// Per-mille chance of an unusual spelling at each token.
    rate: u64,
    out: String,
}

impl Render<'_> {
    fn ws(&mut self) {
        if self.draw.chance(self.rate) {
            let ws = *self
                .draw
                .pick(&[" ", "\t", "\n", "\r", " \n ", "\u{c}", "\u{a0}"]);
            self.out.push_str(ws);
        }
    }

    fn string(&mut self, s: &str) {
        self.out.push('"');
        for ch in s.chars() {
            match ch {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 && self.draw.chance(self.rate) => {
                    // raw, which JSON forbids
                    self.out.push(c);
                }
                c if (c as u32) < 0x20 => self.out.push_str(&format!("\\u{:04x}", c as u32)),
                c if self.draw.chance(self.rate) => {
                    // the same character as an escape
                    let mut units = [0u16; 2];
                    for unit in c.encode_utf16(&mut units) {
                        self.out.push_str(&format!("\\u{unit:04X}"));
                    }
                }
                c => self.out.push(c),
            }
        }
        if self.draw.chance(self.rate / 4) {
            let bad = *self
                .draw
                .pick(&["\\x", "\\u12", "\\ud800", "\\udc00x", "\\u+041"]);
            self.out.push_str(bad);
        }
        self.out.push('"');
    }

    fn number(&mut self, n: u64) {
        if self.draw.chance(self.rate) {
            let spelled = match self.draw.below(7) {
                0 if n == 0 => "-0".to_string(),
                1 => format!("0{n}"),
                2 => format!("{n}.0"),
                3 => format!("{n}e0"),
                4 => format!("{n}."),
                5 => "18446744073709551616".to_string(),
                _ => "-".to_string(),
            };
            self.out.push_str(&spelled);
        } else {
            self.out.push_str(&n.to_string());
        }
    }

    fn value(&mut self, c: &Content) {
        self.ws();
        match c {
            Content::Null => self.out.push_str("null"),
            Content::Bool(b) => self.out.push_str(if *b { "true" } else { "false" }),
            Content::U64(n) => self.number(*n),
            Content::I64(n) => self.out.push_str(&n.to_string()),
            Content::F64(f) => self.out.push_str(&format!("{f:?}")),
            Content::Str(s) => self.string(s),
            Content::Seq(items) => {
                self.out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        self.out.push(',');
                    }
                    self.value(item);
                    self.ws();
                }
                self.out.push(']');
            }
            Content::Map(entries) => {
                self.out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        self.out.push(',');
                    }
                    self.ws();
                    self.string(k);
                    self.ws();
                    self.out.push(':');
                    self.value(v);
                    self.ws();
                }
                self.out.push('}');
            }
        }
        self.ws();
    }
}

/// Random edits on the finished payload.
fn corrupt(draw: &mut Draw, payload: &mut Vec<u8>) {
    match draw.below(8) {
        0 => payload.truncate(draw.below(payload.len() as u64) as usize),
        1 => {
            let at = draw.below(payload.len() as u64 + 1) as usize;
            let bad: [&[u8]; 4] = [&[0xFF], &[0xC0, 0x80], &[0xE2, 0x82], &[0xED, 0xA0, 0x80]];
            let bad = *draw.pick(&bad);
            payload.splice(at..at, bad.iter().copied());
        }
        2 if !payload.is_empty() => {
            let at = draw.below(payload.len() as u64) as usize;
            payload[at] = *draw.pick(b"{}[],:\"\\-0 x\x01");
        }
        3 if !payload.is_empty() => {
            let at = draw.below(payload.len() as u64) as usize;
            payload.remove(at);
        }
        4 => {
            let tails: [&[u8]; 4] = [b" x", b"}", b"\n", b"0"];
            let tail = *draw.pick(&tails);
            payload.extend_from_slice(tail);
        }
        _ => {}
    }
}

/// `depth` nested arrays around `inner`.
fn nested(depth: usize, inner: &str) -> String {
    format!("{}{inner}{}", "[".repeat(depth), "]".repeat(depth))
}

/// Renders `c`, mutated and corrupted per the seed.
fn variant(draw: &mut Draw, c: &Content) -> Vec<u8> {
    let rate = *draw.pick(&[0, 20, 80, 250]);
    let tree = draw.mutate(c, rate);
    let mut render = Render {
        draw,
        rate,
        out: String::new(),
    };
    render.value(&tree);
    let mut payload = render.out.into_bytes();
    if draw.chance(150) {
        // nesting right at the bound or one past it, inside an unknown
        // key of the top object, which is itself one level
        let depth = MAX_DEPTH - 1 + draw.below(2) as usize;
        if payload.first() == Some(&b'{') {
            let deep = format!("{{\"zz\":{},", nested(depth, "0"));
            payload.splice(0..1, deep.into_bytes());
        }
    }
    if draw.chance(300) {
        corrupt(draw, &mut payload);
    }
    payload
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn request_encoder_writes_serde_json_bytes(seed in any::<u64>()) {
        let req = Draw(TestRng::new(seed)).request();
        let mut ours = Vec::new();
        wire::encode_request(&req, &mut ours);
        prop_assert_eq!(ours, serde_json::to_vec(&req).unwrap());
    }

    #[test]
    fn response_encoder_writes_serde_json_bytes(seed in any::<u64>()) {
        let resp = Draw(TestRng::new(seed)).response();
        let mut ours = Vec::new();
        wire::encode_response(&resp, &mut ours);
        prop_assert_eq!(ours, serde_json::to_vec(&resp).unwrap());
    }

    #[test]
    fn request_parsers_agree_on_valid_and_mutated_frames(seed in any::<u64>()) {
        let mut draw = Draw(TestRng::new(seed));
        let req = draw.request();
        let valid = serde_json::to_vec(&req).unwrap();
        let parsed = agree_request(&valid);
        if req.v == WIRE_VERSION {
            prop_assert_eq!(parsed, Ok(req.clone()));
        }
        for _ in 0..8 {
            let _ = agree_request(&variant(&mut draw, &req.to_content()));
        }
    }

    #[test]
    fn response_parsers_agree_on_valid_and_mutated_frames(seed in any::<u64>()) {
        let mut draw = Draw(TestRng::new(seed));
        let resp = draw.response();
        let valid = serde_json::to_vec(&resp).unwrap();
        let parsed = agree_response(&valid);
        if resp.v == WIRE_VERSION {
            prop_assert_eq!(parsed, Ok(resp.clone()));
        }
        for _ in 0..8 {
            let _ = agree_response(&variant(&mut draw, &resp.to_content()));
        }
    }
}

#[test]
fn mutations_reach_every_outcome() {
    // the properties above are only as good as the variety of their
    // payloads: each outcome class has to come up
    let mut seen = std::collections::BTreeMap::new();
    let mut draw = Draw(TestRng::new(7));
    for _ in 0..400 {
        let req = draw.request();
        let payload = variant(&mut draw, &req.to_content());
        let outcome = agree_request(&payload).map(|_| "ok");
        *seen.entry(outcome.unwrap_or_else(|c| c)).or_insert(0) += 1;
    }
    eprintln!("{seen:?}");
    for class in [
        "ok",
        "frame is not UTF-8",
        "malformed request JSON: nesting depth exceeds 128",
        "malformed",
        "unsupported wire version",
    ] {
        assert!(
            seen.get(class).is_some_and(|&n| n >= 4),
            "{class}: {seen:?}"
        );
    }
}

#[test]
fn hand_picked_frames_agree() {
    let graph = r#"{"left":2,"right":2,"edges":[[0,1],[1,0]]}"#;
    let requests = [
        r#"{"v":1,"id":1,"body":"Ping"}"#.to_string(),
        r#"{"v":1,"id":1,"request":null,"body":"Ping"}"#.to_string(),
        r#"{"v":1,"id":-0,"body":"Ping"}"#.to_string(),
        r#"{"v":-0,"id":1,"body":"Ping"}"#.to_string(),
        r#"{"v":1,"id":01,"body":"Ping"}"#.to_string(),
        r#"{"v":1,"id":1.0,"body":"Ping"}"#.to_string(),
        r#"{"v":1,"id":-,"body":"Ping"}"#.to_string(),
        r#"{"v":4294967296,"id":1,"body":"Ping"}"#.to_string(),
        r#"{"v":1,"id":18446744073709551615,"body":"Ping"}"#.to_string(),
        r#"{"v":1,"id":18446744073709551616,"body":"Ping"}"#.to_string(),
        r#"{"v":1,"id":1,"body":"Ping","body":{"Nope":1}}"#.to_string(),
        r#"{"v":1,"id":1,"body":{"Nope":1},"body":"Ping"}"#.to_string(),
        r#"{"v":1,"id":1,"body":{"Ping":null}}"#.to_string(),
        r#"{"v":1,"id":1,"body":{}}"#.to_string(),
        r#"{"v":1,"id":1,"body":"Ping"}"#.to_string(),
        format!(r#"{{"v":1,"id":1,"body":{{"Pebble":{{"graph":{graph},"algo":"Bb"}}}}}}"#),
        format!(r#"{{"v":1,"id":1,"body":{{"Pebble":{{"algo":"Bb","graph":{graph},"x":[]}}}}}}"#),
        format!(r#"{{"v":1,"id":1,"body":{{"Pebble":{{"graph":{graph},"algo":"Bb"}},"x":1}}}}"#),
        r#"{"v":1,"id":1,"body":{"Pebble":{"graph":{"left":1,"right":1,"edges":[[0,1]]},"algo":"Bb"}}}"#.to_string(),
        r#"{"v":1,"id":1,"body":{"Pebble":{"graph":{"left":1,"right":1,"edges":[[0,0,0]]},"algo":"Bb"}}}"#.to_string(),
        r#"{"v":1,"id":1,"body":{"Pebble":{"graph":{"left":1,"right":1,"edges":[[0]]},"algo":"Bb"}}}"#.to_string(),
        r#"{"v":1,"id":1,"body":{"Pebble":{"graph":{"left":1,"right":1,"edges":[0]},"algo":"Bb"}}}"#.to_string(),
        r#"{"v":2,"id":1,"body":{"Pebble":{"graph":{"left":1,"right":1,"edges":[[0,5]]},"algo":"Bb"}}}"#.to_string(),
        r#"{"v":"1","id":1,"body":"Ping","zz":[}"#.to_string(),
        format!(r#"{{"v":"1","id":1,"body":"Ping","zz":{}}}"#, nested(127, "")),
        format!(r#"{{"v":"1","id":1,"body":"Ping","zz":{}}}"#, nested(128, "")),
        format!(r#"{{"v":1,"id":1,"body":"Ping","zz":{}}}"#, nested(127, "1")),
        format!(r#"{{"v":1,"id":1,"body":"Ping","zz":{}}}"#, nested(128, "1")),
        "{\"v\":1,\"id\":1,\"body\":\"Pi\u{1}ng\"}".to_string(),
        r#"{"v":1,"id":1,"body":"Ping"} x"#.to_string(),
        r#"{"v":1,"id":1,"body":"Ping",}"#.to_string(),
        r#"{"v":1,"id":1,"body":"😀"}"#.to_string(),
        String::new(),
        " ".to_string(),
        "[".to_string(),
    ];
    for payload in &requests {
        let _ = agree_request(payload.as_bytes());
    }
    let responses = [
        r#"{"v":1,"id":1,"body":{"Error":{"reason":"a\"b\\c\né"}}}"#,
        r#"{"v":1,"id":1,"body":{"Rejected":{"reason":1}}}"#,
        r#"{"v":1,"id":1,"body":{"Cost":{"cost":1,"components":1,"served":1,"fresh":1}}}"#,
        r#"{"v":1,"id":1,"body":{"Cost":{"cost":1,"components":1,"served":1,"fresh":1,"micros":2,"cost":-1}}}"#,
        r#"{"v":1,"id":1,"body":"Stats"}"#,
        r#"{"v":1,"id":1,"body":{"Pong":{}}}"#,
    ];
    for payload in responses {
        let _ = agree_response(payload.as_bytes());
    }
}

#[test]
fn an_8_mib_string_parses_in_linear_time() {
    let reason = "ab\u{e9}\\".repeat(2 << 20);
    let resp = Response {
        v: WIRE_VERSION,
        id: 1,
        body: ResponseBody::Error {
            reason: reason.clone(),
        },
    };
    let mut payload = Vec::new();
    wire::encode_response(&resp, &mut payload);
    let t0 = Instant::now();
    assert_eq!(parse_response(&payload), Ok(resp));
    // and skipped, as an unknown key's value
    let skipped = format!(r#"{{"zz":"{reason}x","v":1,"id":2,"body":"Ping"}}"#).replace('\\', "/");
    assert_eq!(parse_request(skipped.as_bytes()).map(|r| r.id), Ok(2));
    assert!(t0.elapsed() < Duration::from_secs(5), "{:?}", t0.elapsed());
}
