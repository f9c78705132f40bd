//! The codec of the wire types: [`Request`] and [`Response`] are
//! written straight into a frame buffer and parsed by a pull parser
//! over the payload, with no intermediate JSON tree.
//!
//! The JSON is the one the vendored `serde_json` writes for these
//! types (fields in declaration order, enums externally tagged), and
//! the parser accepts exactly the documents its tree parser accepts,
//! with the same meaning:
//!
//! * keys and strings are borrowed from the payload unless they hold an
//!   escape;
//! * unknown keys are skipped, and of two equal keys the first counts;
//! * a missing or `null` `request` reads as `None`;
//! * a syntax error (nesting deeper than [`MAX_DEPTH`] included) wins
//!   over a type error: on a type error the whole document is validated
//!   again before the error is reported.
//!
//! Skipping a value is iterative, so no input can exhaust the stack.

use crate::proto::{PebbleAlgo, Request, RequestBody, Response, ResponseBody};
use jp_graph::BipartiteGraph;
use std::borrow::Cow;
use std::fmt;

/// The deepest nesting of arrays and objects a payload may have, the
/// bound of the vendored `serde_json` parser.
pub(crate) const MAX_DEPTH: usize = 128;

// ---------------------------------------------------------------------------
// encoding
// ---------------------------------------------------------------------------

/// Appends `req`'s JSON document to `out`.
pub(crate) fn encode_request(req: &Request, out: &mut Vec<u8>) {
    out.extend_from_slice(b"{\"v\":");
    push_u64(out, u64::from(req.v));
    out.extend_from_slice(b",\"id\":");
    push_u64(out, req.id);
    out.extend_from_slice(b",\"request\":");
    match req.request {
        Some(r) => push_u64(out, r),
        None => out.extend_from_slice(b"null"),
    }
    out.extend_from_slice(b",\"body\":");
    match &req.body {
        RequestBody::Ping => out.extend_from_slice(b"\"Ping\""),
        RequestBody::Stats => out.extend_from_slice(b"\"Stats\""),
        RequestBody::Shutdown => out.extend_from_slice(b"\"Shutdown\""),
        RequestBody::Pebble { graph, algo } => {
            out.extend_from_slice(b"{\"Pebble\":{\"graph\":{\"left\":");
            push_u64(out, u64::from(graph.left_count()));
            out.extend_from_slice(b",\"right\":");
            push_u64(out, u64::from(graph.right_count()));
            out.extend_from_slice(b",\"edges\":[");
            for (i, &(l, r)) in graph.edges().iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                out.push(b'[');
                push_u64(out, u64::from(l));
                out.push(b',');
                push_u64(out, u64::from(r));
                out.push(b']');
            }
            out.extend_from_slice(b"]},\"algo\":");
            out.extend_from_slice(match algo {
                PebbleAlgo::Auto => b"\"Auto\"",
                PebbleAlgo::Bb => b"\"Bb\"",
            });
            out.extend_from_slice(b"}}");
        }
    }
    out.push(b'}');
}

/// Appends `resp`'s JSON document to `out`.
pub(crate) fn encode_response(resp: &Response, out: &mut Vec<u8>) {
    out.extend_from_slice(b"{\"v\":");
    push_u64(out, u64::from(resp.v));
    out.extend_from_slice(b",\"id\":");
    push_u64(out, resp.id);
    out.extend_from_slice(b",\"body\":");
    let fields = |out: &mut Vec<u8>, variant: &str, fields: &[(&str, u64)]| {
        out.extend_from_slice(b"{\"");
        out.extend_from_slice(variant.as_bytes());
        out.extend_from_slice(b"\":{");
        for (i, (name, value)) in fields.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            out.push(b'"');
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(b"\":");
            push_u64(out, *value);
        }
        out.extend_from_slice(b"}}");
    };
    let reason = |out: &mut Vec<u8>, variant: &str, reason: &str| {
        out.extend_from_slice(b"{\"");
        out.extend_from_slice(variant.as_bytes());
        out.extend_from_slice(b"\":{\"reason\":");
        push_str(out, reason);
        out.extend_from_slice(b"}}");
    };
    match &resp.body {
        ResponseBody::Pong => out.extend_from_slice(b"\"Pong\""),
        ResponseBody::ShuttingDown => out.extend_from_slice(b"\"ShuttingDown\""),
        ResponseBody::Cost {
            cost,
            components,
            served,
            fresh,
            micros,
        } => fields(
            out,
            "Cost",
            &[
                ("cost", *cost),
                ("components", *components),
                ("served", *served),
                ("fresh", *fresh),
                ("micros", *micros),
            ],
        ),
        ResponseBody::Rejected { reason: r } => reason(out, "Rejected", r),
        ResponseBody::Error { reason: r } => reason(out, "Error", r),
        ResponseBody::Stats {
            entries,
            hits,
            misses,
            recognized,
            completed,
            rejected,
            errors,
        } => fields(
            out,
            "Stats",
            &[
                ("entries", *entries),
                ("hits", *hits),
                ("misses", *misses),
                ("recognized", *recognized),
                ("completed", *completed),
                ("rejected", *rejected),
                ("errors", *errors),
            ],
        ),
    }
    out.push(b'}');
}

/// Appends `v` in decimal, without allocating.
fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    for slot in digits.iter_mut().rev() {
        // v % 10 < 10, so the cast is exact
        *slot = b'0' + (v % 10) as u8;
        start -= 1;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(digits.get(start..).unwrap_or(&[]));
}

/// Appends `s` as a JSON string literal, escaped as the vendored
/// `serde_json` escapes it: `"`, `\`, `\n`, `\r` and `\t` by name, the
/// other control characters as `\u00xx`, everything else verbatim.
fn push_str(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let named: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1F => b"",
            _ => continue,
        };
        out.extend_from_slice(bytes.get(run..i).unwrap_or(&[]));
        run = i + 1;
        if named.is_empty() {
            out.extend_from_slice(b"\\u00");
            out.push(HEX.get(usize::from(b >> 4)).copied().unwrap_or(b'0'));
            out.push(HEX.get(usize::from(b & 0xF)).copied().unwrap_or(b'0'));
        } else {
            out.extend_from_slice(named);
        }
    }
    out.extend_from_slice(bytes.get(run..).unwrap_or(&[]));
    out.push(b'"');
}

// ---------------------------------------------------------------------------
// decoding
// ---------------------------------------------------------------------------

/// Why a decode stopped.
#[derive(Debug)]
enum Fault {
    /// The payload is not JSON (or nests too deep) at this point.
    Syntax(String),
    /// The payload is JSON so far, but not the expected message.
    Type(String),
}

impl Fault {
    /// Names the struct field a type error was found in.
    fn in_field(self, strukt: &str, field: &str) -> Fault {
        match self {
            Fault::Type(m) => Fault::Type(format!("field `{field}` of `{strukt}`: {m}")),
            syntax => syntax,
        }
    }
}

type Decoded<T> = Result<T, Fault>;

/// Decodes a request payload (already known to be UTF-8). The wire
/// version is not checked here.
pub(crate) fn decode_request(text: &str) -> Result<Request, String> {
    decode(text, |r| {
        let mut fields = Fields::new(r, format_args!("struct Request"))?;
        let (mut v, mut id, mut request, mut body) = (None, None, None, None);
        while let Some(key) = fields.next(r)? {
            match key.as_ref() {
                "v" if v.is_none() => v = Some(field(r.u32(), "Request", "v")?),
                "id" if id.is_none() => id = Some(field(r.u64(), "Request", "id")?),
                "request" if request.is_none() => {
                    request = Some(field(r.option_u64(), "Request", "request")?)
                }
                "body" if body.is_none() => body = Some(field(request_body(r), "Request", "body")?),
                _ => r.skip()?,
            }
        }
        Ok(DraftRequest {
            v: required(v, "Request", "v")?,
            id: required(id, "Request", "id")?,
            request: request.flatten(),
            body: required(body, "Request", "body")?,
        })
    })
    .and_then(DraftRequest::build)
}

/// Decodes a response payload (already known to be UTF-8). The wire
/// version is not checked here.
pub(crate) fn decode_response(text: &str) -> Result<Response, String> {
    decode(text, |r| {
        let mut fields = Fields::new(r, format_args!("struct Response"))?;
        let (mut v, mut id, mut body) = (None, None, None);
        while let Some(key) = fields.next(r)? {
            match key.as_ref() {
                "v" if v.is_none() => v = Some(field(r.u32(), "Response", "v")?),
                "id" if id.is_none() => id = Some(field(r.u64(), "Response", "id")?),
                "body" if body.is_none() => {
                    body = Some(field(response_body(r), "Response", "body")?)
                }
                _ => r.skip()?,
            }
        }
        Ok(Response {
            v: required(v, "Response", "v")?,
            id: required(id, "Response", "id")?,
            body: required(body, "Response", "body")?,
        })
    })
}

/// Runs `message` over the whole of `text`. A type error is reported
/// only if the document is otherwise valid JSON; if not, its first
/// syntax error is.
fn decode<T>(text: &str, message: impl FnOnce(&mut Reader<'_>) -> Decoded<T>) -> Result<T, String> {
    let mut r = Reader::new(text);
    r.ws();
    let decoded = message(&mut r).and_then(|v| r.end().map(|()| v));
    match decoded {
        Ok(v) => Ok(v),
        Err(Fault::Syntax(m)) => Err(m),
        Err(Fault::Type(m)) => {
            let mut check = Reader::new(text);
            check.ws();
            match check.skip().and_then(|()| check.end()) {
                Err(Fault::Syntax(syntax)) => Err(syntax),
                _ => Err(m),
            }
        }
    }
}

/// Tags a field's type error with the field's name.
fn field<T>(value: Decoded<T>, strukt: &str, name: &str) -> Decoded<T> {
    value.map_err(|f| f.in_field(strukt, name))
}

/// A field that must be present.
fn required<T>(value: Option<T>, strukt: &str, name: &str) -> Decoded<T> {
    value.ok_or_else(|| Fault::Type(format!("missing field `{name}` of `{strukt}`")))
}

/// A request whose graph is not built yet: the graph is built once the
/// whole payload has parsed, so a payload that fails later never pays
/// for (or allocates) a graph.
struct DraftRequest {
    v: u32,
    id: u64,
    request: Option<u64>,
    body: DraftBody,
}

enum DraftBody {
    Ready(RequestBody),
    Pebble { graph: GraphData, algo: PebbleAlgo },
}

/// A graph's persisted form: partition sizes and the edge list.
struct GraphData {
    left: u32,
    right: u32,
    edges: Vec<(u32, u32)>,
}

impl DraftRequest {
    /// Builds the graph through [`BipartiteGraph::try_new`], which
    /// range-checks the edges and caps the vertex count.
    fn build(self) -> Result<Request, String> {
        let body = match self.body {
            DraftBody::Ready(body) => body,
            DraftBody::Pebble {
                graph: GraphData { left, right, edges },
                algo,
            } => RequestBody::Pebble {
                graph: BipartiteGraph::try_new(left, right, edges).map_err(|e| {
                    format!("field `body` of `Request`: field `graph` of `RequestBody`: {e}")
                })?,
                algo,
            },
        };
        Ok(Request {
            v: self.v,
            id: self.id,
            request: self.request,
            body,
        })
    }
}

/// Parses a [`RequestBody`]: a unit variant's name, or a one-key object
/// naming `Pebble`.
fn request_body(r: &mut Reader<'_>) -> Decoded<DraftBody> {
    let invalid = || Fault::Type("invalid value for enum RequestBody".to_string());
    if r.peek() == Some(b'"') {
        return match r.string()?.as_ref() {
            "Ping" => Ok(DraftBody::Ready(RequestBody::Ping)),
            "Stats" => Ok(DraftBody::Ready(RequestBody::Stats)),
            "Shutdown" => Ok(DraftBody::Ready(RequestBody::Shutdown)),
            _ => Err(invalid()),
        };
    }
    let mut tag = Fields::new(r, format_args!("enum RequestBody"))?;
    let body = match tag.next(r)? {
        Some(variant) if variant == "Pebble" => pebble(r)?,
        _ => return Err(invalid()),
    };
    match tag.next(r)? {
        None => Ok(body),
        Some(_) => Err(invalid()),
    }
}

/// Parses the fields of `RequestBody::Pebble`.
fn pebble(r: &mut Reader<'_>) -> Decoded<DraftBody> {
    const ENUM: &str = "RequestBody";
    let mut fields = Fields::new(r, format_args!("variant Pebble"))?;
    let (mut graph, mut algo) = (None, None);
    while let Some(key) = fields.next(r)? {
        match key.as_ref() {
            "graph" if graph.is_none() => graph = Some(field(graph_data(r), ENUM, "graph")?),
            "algo" if algo.is_none() => algo = Some(field(pebble_algo(r), ENUM, "algo")?),
            _ => r.skip()?,
        }
    }
    Ok(DraftBody::Pebble {
        graph: required(graph, ENUM, "graph")?,
        algo: required(algo, ENUM, "algo")?,
    })
}

/// Parses a graph's persisted form.
fn graph_data(r: &mut Reader<'_>) -> Decoded<GraphData> {
    const DATA: &str = "BipartiteGraphData";
    let mut fields = Fields::new(r, format_args!("struct {DATA}"))?;
    let (mut left, mut right, mut edges) = (None, None, None);
    while let Some(key) = fields.next(r)? {
        match key.as_ref() {
            "left" if left.is_none() => left = Some(field(r.u32(), DATA, "left")?),
            "right" if right.is_none() => right = Some(field(r.u32(), DATA, "right")?),
            "edges" if edges.is_none() => edges = Some(field(edge_list(r), DATA, "edges")?),
            _ => r.skip()?,
        }
    }
    Ok(GraphData {
        left: required(left, DATA, "left")?,
        right: required(right, DATA, "right")?,
        edges: required(edges, DATA, "edges")?,
    })
}

/// Parses an array of `[l, r]` pairs.
fn edge_list(r: &mut Reader<'_>) -> Decoded<Vec<(u32, u32)>> {
    let pair = || Fault::Type("expected array of length 2".to_string());
    if r.peek() != Some(b'[') {
        return Err(Fault::Type("expected array".to_string()));
    }
    r.open()?;
    let mut edges = Vec::new();
    let mut first = true;
    while r.next_item(first)? {
        first = false;
        if r.peek() != Some(b'[') {
            return Err(pair());
        }
        r.open()?;
        if !r.next_item(true)? {
            return Err(pair());
        }
        let left = r.u32()?;
        if !r.next_item(false)? {
            return Err(pair());
        }
        let right = r.u32()?;
        if r.next_item(false)? {
            return Err(pair());
        }
        edges.push((left, right));
    }
    Ok(edges)
}

/// Parses a [`PebbleAlgo`]: a unit variant's name.
fn pebble_algo(r: &mut Reader<'_>) -> Decoded<PebbleAlgo> {
    let invalid = || Fault::Type("invalid value for enum PebbleAlgo".to_string());
    if r.peek() != Some(b'"') {
        return Err(invalid());
    }
    match r.string()?.as_ref() {
        "Auto" => Ok(PebbleAlgo::Auto),
        "Bb" => Ok(PebbleAlgo::Bb),
        _ => Err(invalid()),
    }
}

/// Parses a [`ResponseBody`]: a unit variant's name, or a one-key
/// object naming a variant with fields.
fn response_body(r: &mut Reader<'_>) -> Decoded<ResponseBody> {
    const ENUM: &str = "ResponseBody";
    let invalid = || Fault::Type("invalid value for enum ResponseBody".to_string());
    if r.peek() == Some(b'"') {
        return match r.string()?.as_ref() {
            "Pong" => Ok(ResponseBody::Pong),
            "ShuttingDown" => Ok(ResponseBody::ShuttingDown),
            _ => Err(invalid()),
        };
    }
    let mut tag = Fields::new(r, format_args!("enum {ENUM}"))?;
    let Some(variant) = tag.next(r)? else {
        return Err(invalid());
    };
    let body = match variant.as_ref() {
        "Cost" => {
            let [cost, components, served, fresh, micros] = counts(
                r,
                "Cost",
                ["cost", "components", "served", "fresh", "micros"],
            )?;
            ResponseBody::Cost {
                cost,
                components,
                served,
                fresh,
                micros,
            }
        }
        "Stats" => {
            let [entries, hits, misses, recognized, completed, rejected, errors] = counts(
                r,
                "Stats",
                [
                    "entries",
                    "hits",
                    "misses",
                    "recognized",
                    "completed",
                    "rejected",
                    "errors",
                ],
            )?;
            ResponseBody::Stats {
                entries,
                hits,
                misses,
                recognized,
                completed,
                rejected,
                errors,
            }
        }
        "Rejected" => ResponseBody::Rejected {
            reason: reason(r, "Rejected")?,
        },
        "Error" => ResponseBody::Error {
            reason: reason(r, "Error")?,
        },
        _ => return Err(invalid()),
    };
    match tag.next(r)? {
        None => Ok(body),
        Some(_) => Err(invalid()),
    }
}

/// Parses a variant's fields that are all `u64`, named by `names`.
fn counts<const N: usize>(
    r: &mut Reader<'_>,
    variant: &str,
    names: [&str; N],
) -> Decoded<[u64; N]> {
    const ENUM: &str = "ResponseBody";
    let mut fields = Fields::new(r, format_args!("variant {variant}"))?;
    let mut values = [None; N];
    while let Some(key) = fields.next(r)? {
        let slot = names
            .iter()
            .position(|&n| n == key.as_ref())
            .and_then(|i| values.get_mut(i))
            .filter(|slot| slot.is_none());
        match slot {
            Some(slot) => *slot = Some(field(r.u64(), ENUM, &key)?),
            None => r.skip()?,
        }
    }
    let mut out = [0; N];
    for ((o, v), name) in out.iter_mut().zip(values).zip(names) {
        *o = required(v, ENUM, name)?;
    }
    Ok(out)
}

/// Parses the one `reason` field of `Rejected` or `Error`.
fn reason(r: &mut Reader<'_>, variant: &str) -> Decoded<String> {
    const ENUM: &str = "ResponseBody";
    let mut fields = Fields::new(r, format_args!("variant {variant}"))?;
    let mut reason = None;
    while let Some(key) = fields.next(r)? {
        match key.as_ref() {
            "reason" if reason.is_none() => {
                if r.peek() != Some(b'"') {
                    return Err(Fault::Type(format!(
                        "field `reason` of `{ENUM}`: expected string"
                    )));
                }
                reason = Some(r.string()?.into_owned());
            }
            _ => r.skip()?,
        }
    }
    required(reason, ENUM, "reason")
}

/// Walks the keys of one object: each call to [`Fields::next`] consumes
/// up to the next key's `:` and returns the key, or consumes the closing
/// `}` and returns `None`. The caller consumes each value.
struct Fields {
    first: bool,
}

impl Fields {
    /// Opens the object at the cursor; a type error if there is none.
    fn new(r: &mut Reader<'_>, what: fmt::Arguments<'_>) -> Decoded<Fields> {
        if r.peek() != Some(b'{') {
            return Err(Fault::Type(format!("expected object for {what}")));
        }
        r.open()?;
        Ok(Fields { first: true })
    }

    fn next<'a>(&mut self, r: &mut Reader<'a>) -> Decoded<Option<Cow<'a, str>>> {
        r.ws();
        match r.peek() {
            Some(b'}') => {
                r.close();
                return Ok(None);
            }
            Some(b',') if !self.first => {
                r.pos += 1;
                r.ws();
            }
            _ if self.first => {}
            _ => {
                return Err(Fault::Syntax(format!(
                    "expected `,` or `}}` at byte {}",
                    r.pos
                )))
            }
        }
        self.first = false;
        r.key().map(Some)
    }
}

/// A number token: what the tree parser would have made of it.
enum Number {
    /// A non-negative integer (`-0` included).
    Unsigned(u64),
    /// A negative integer in `i64` range.
    Negative,
    /// A number with a fraction or an exponent.
    Float,
}

/// The cursor over one payload.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            pos: 0,
            depth: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Decoded<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Fault::Syntax(format!(
                "expected `{}` at byte {}",
                char::from(b),
                self.pos
            )))
        }
    }

    /// Requires the end of the payload, after trailing whitespace.
    fn end(&mut self) -> Decoded<()> {
        self.ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(Fault::Syntax(format!(
                "trailing characters at byte {}",
                self.pos
            )))
        }
    }

    /// Consumes the `[` or `{` at the cursor, refusing to open more than
    /// [`MAX_DEPTH`] at once.
    fn open(&mut self) -> Decoded<()> {
        if self.depth >= MAX_DEPTH {
            return Err(Fault::Syntax(format!(
                "nesting depth exceeds {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        self.pos += 1;
        Ok(())
    }

    /// Consumes the `]` or `}` at the cursor.
    fn close(&mut self) {
        self.depth = self.depth.saturating_sub(1);
        self.pos += 1;
    }

    /// Steps to the next element of the open array: `true` with the
    /// cursor on it, or `false` after consuming the closing `]`.
    fn next_item(&mut self, first: bool) -> Decoded<bool> {
        self.ws();
        match self.peek() {
            Some(b']') => {
                self.close();
                return Ok(false);
            }
            Some(b',') if !first => {
                self.pos += 1;
                self.ws();
            }
            _ if first => {}
            _ => {
                return Err(Fault::Syntax(format!(
                    "expected `,` or `]` at byte {}",
                    self.pos
                )))
            }
        }
        Ok(true)
    }

    fn u64(&mut self) -> Decoded<u64> {
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => match self.number()? {
                Number::Unsigned(v) => Ok(v),
                Number::Negative => Err(Fault::Type(
                    "expected unsigned integer, found integer".to_string(),
                )),
                Number::Float => Err(Fault::Type(
                    "expected unsigned integer, found number".to_string(),
                )),
            },
            _ => Err(Fault::Type("expected unsigned integer".to_string())),
        }
    }

    fn u32(&mut self) -> Decoded<u32> {
        let v = self.u64()?;
        u32::try_from(v).map_err(|_| Fault::Type(format!("integer {v} out of range for u32")))
    }

    /// A `u64` or `null`.
    fn option_u64(&mut self) -> Decoded<Option<u64>> {
        if self.peek() == Some(b'n') {
            self.literal("null")?;
            Ok(None)
        } else {
            self.u64().map(Some)
        }
    }

    fn literal(&mut self, word: &str) -> Decoded<()> {
        let matches = self
            .text
            .as_bytes()
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(word.as_bytes()));
        if matches {
            self.pos += word.len();
            Ok(())
        } else {
            Err(Fault::Syntax(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    /// Lexes one number by the JSON grammar. An integer out of `u64`
    /// (or, negative, `i64`) range is a syntax error, as it is for the
    /// tree parser.
    fn number(&mut self) -> Decoded<Number> {
        let start = self.pos;
        let invalid = |r: &Self| Fault::Syntax(format!("invalid number at byte {}", r.pos));
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let mut magnitude: Option<u64> = Some(0);
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while let Some(d @ b'0'..=b'9') = self.peek() {
                    magnitude = magnitude
                        .and_then(|m| m.checked_mul(10))
                        .and_then(|m| m.checked_add(u64::from(d - b'0')));
                    self.pos += 1;
                }
            }
            _ => return Err(invalid(self)),
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            if !self.digits() {
                return Err(invalid(self));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits() {
                return Err(invalid(self));
            }
        }
        if float {
            return Ok(Number::Float);
        }
        let out_of_range = || {
            let text = self.text.get(start..self.pos).unwrap_or_default();
            Fault::Syntax(format!("integer out of range `{text}`"))
        };
        match (negative, magnitude) {
            (_, None) => Err(out_of_range()),
            (_, Some(0)) => Ok(Number::Unsigned(0)),
            (false, Some(m)) => Ok(Number::Unsigned(m)),
            (true, Some(m)) if m <= 1 << 63 => Ok(Number::Negative),
            (true, Some(_)) => Err(out_of_range()),
        }
    }

    /// Skips a run of ASCII digits; whether there was at least one.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// Parses one string literal, borrowing it from the payload unless
    /// it holds an escape.
    fn string(&mut self) -> Decoded<Cow<'a, str>> {
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            // the run ends at an ASCII byte or the end of the payload, so
            // it is a whole number of characters
            let run = self.text.get(start..self.pos).unwrap_or_default();
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let mut s = owned.take().unwrap_or_default();
                    s.push_str(run);
                    self.pos += 1;
                    s.push(self.escape()?);
                    owned = Some(s);
                }
                Some(_) => {
                    return Err(Fault::Syntax(format!(
                        "control character in string at byte {}",
                        self.pos
                    )))
                }
                None => return Err(Fault::Syntax("unterminated string".to_string())),
            }
        }
    }

    /// Parses the escape after a `\`: the character it stands for. A
    /// UTF-16 surrogate pair of `\u` escapes is one character.
    fn escape(&mut self) -> Decoded<char> {
        let ch = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000C}',
            Some(b'u') => {
                self.pos += 1;
                let lone = || Fault::Syntax("lone surrogate in \\u escape".to_string());
                let high = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&high) {
                    if self.literal("\\u").is_err() {
                        return Err(lone());
                    }
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(lone());
                    }
                    0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    high
                };
                return char::from_u32(code).ok_or_else(lone);
            }
            _ => return Err(Fault::Syntax("invalid escape sequence".to_string())),
        };
        self.pos += 1;
        Ok(ch)
    }

    /// Parses the four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Decoded<u32> {
        let hex = self
            .text
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Fault::Syntax("truncated \\u escape".to_string()))?;
        let mut code = 0;
        for &h in hex {
            let digit = char::from(h)
                .to_digit(16)
                .ok_or_else(|| Fault::Syntax("invalid \\u escape".to_string()))?;
            code = code * 16 + digit;
        }
        self.pos += 4;
        Ok(code)
    }

    /// Skips one value, checking its syntax. Iterative: `objects` is
    /// the stack of the containers this skip has open, one bit per
    /// level (set for an object), and [`Reader::open`] bounds it by
    /// [`MAX_DEPTH`].
    fn skip(&mut self) -> Decoded<()> {
        let base = self.depth;
        let mut objects: u128 = 0;
        loop {
            // a value starts at the cursor
            match self.peek() {
                Some(open @ (b'{' | b'[')) => {
                    self.open()?;
                    let object = open == b'{';
                    let bit = 1u128 << ((self.depth - base - 1) % 128);
                    if object {
                        objects |= bit;
                    } else {
                        objects &= !bit;
                    }
                    self.ws();
                    match self.peek() {
                        Some(b'}') if object => self.close(),
                        Some(b']') if !object => self.close(),
                        _ => {
                            if object {
                                self.key()?;
                            }
                            continue;
                        }
                    }
                }
                Some(b'"') => {
                    self.string()?;
                }
                Some(b't') => self.literal("true")?,
                Some(b'f') => self.literal("false")?,
                Some(b'n') => self.literal("null")?,
                Some(b'-' | b'0'..=b'9') => {
                    self.number()?;
                }
                Some(other) => {
                    return Err(Fault::Syntax(format!(
                        "unexpected character `{}` at byte {}",
                        char::from(other),
                        self.pos
                    )))
                }
                None => return Err(Fault::Syntax("unexpected end of input".to_string())),
            }
            // a value ended: close containers until one continues
            loop {
                if self.depth <= base {
                    return Ok(());
                }
                let object = objects & (1u128 << ((self.depth - base - 1) % 128)) != 0;
                self.ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        self.ws();
                        if object {
                            self.key()?;
                        }
                        break;
                    }
                    Some(b'}') if object => self.close(),
                    Some(b']') if !object => self.close(),
                    _ if object => {
                        return Err(Fault::Syntax(format!(
                            "expected `,` or `}}` at byte {}",
                            self.pos
                        )))
                    }
                    _ => {
                        return Err(Fault::Syntax(format!(
                            "expected `,` or `]` at byte {}",
                            self.pos
                        )))
                    }
                }
            }
        }
    }

    /// Consumes an object key and its `:`, leaving the cursor on the
    /// value.
    fn key(&mut self) -> Decoded<Cow<'a, str>> {
        self.ws();
        let key = self.string()?;
        self.ws();
        self.expect(b':')?;
        self.ws();
        Ok(key)
    }
}
