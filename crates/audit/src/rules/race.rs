//! `jp-race` — concurrency-soundness rules over a shared-state model.
//!
//! A token-level extractor (no type information, same spirit as the rest
//! of this crate) builds a per-file [`FileModel`] of the shared-state
//! surface: every `Atomic*` operation with its `Ordering` argument(s),
//! every `Mutex`/`RwLock` acquisition, every `thread::scope`/spawn
//! boundary, and every channel endpoint. Four rules check the model:
//!
//! * **`atomic-ordering`** — every operation using a non-`SeqCst`
//!   ordering must carry an inline `// race:order(<why>)` justification
//!   (same line or the two lines above, mirroring `audit:allow`). A
//!   reason-less note, or a note covering no such operation, is itself a
//!   finding.
//! * **`lock-order`** — acquisitions made while another guard is live
//!   form edges of a global lock-acquisition graph; any cycle (including
//!   a self-edge: re-acquiring a lock already held) is a potential
//!   deadlock. The graph renders to Graphviz via [`lock_order_dot`].
//! * **`guard-across-call`** — no lock guard may be live across a call
//!   whose callee matches a configured prefix list (solver entrypoints,
//!   obs/pulse sinks): such calls can block, re-enter, or take further
//!   locks the holder cannot see.
//! * **`spawn-containment`** — every `spawn` call must sit in a function
//!   that enters `std::thread::scope` (the jp-par runtime does) or that
//!   receives the `std::thread::Scope` handle as a parameter (the scope
//!   block then lives in the caller); a detached
//!   `thread::spawn`/`Builder::spawn` outlives its caller's borrow
//!   discipline and must be `audit:allow`ed with its lifecycle story.
//!
//! Guard liveness is tracked per function with a brace/statement
//! heuristic: a `let`-bound guard lives until its enclosing block closes
//! or `drop(var)` runs; a temporary guard lives to the end of its
//! statement — including the trailing block of an `if let`/`match` whose
//! scrutinee it is, matching edition-2021 temporary lifetimes. Lock
//! *names* are the last field/binding identifier of the receiver (e.g.
//! `lock(&self.shared.injector)` → `injector`), qualified by crate, so
//! the graph is heuristic-but-stable; all four rules skip test code.

use crate::lexer::{Token, TokenKind};
use crate::report::Violation;
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// Rule: non-`SeqCst` orderings need a `race:order(<why>)` note.
pub const ATOMIC_ORDERING: &str = "atomic-ordering";
/// Rule: the global lock-acquisition graph must be acyclic.
pub const LOCK_ORDER: &str = "lock-order";
/// Rule: no guard held across a call into a forbidden callee.
pub const GUARD_ACROSS_CALL: &str = "guard-across-call";
/// Rule: every spawn is scoped (or explicitly lifecycle-annotated).
pub const SPAWN_CONTAINMENT: &str = "spawn-containment";

/// Method names that take one or two `Ordering` arguments on atomics.
const ATOMIC_METHODS: [&str; 15] = [
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "compare_and_swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_nand",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
];

/// `std::sync::atomic::Ordering` variants. These never collide with
/// `std::cmp::Ordering`'s (`Less`/`Equal`/`Greater`), so matching the
/// `Ordering :: <variant>` token run on the variant name is unambiguous
/// even for fully-qualified paths.
const ORDERING_VARIANTS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Chain adapters that pass a guard through unchanged, so
/// `m.lock().unwrap_or_else(|e| e.into_inner())` still binds a guard.
const GUARD_PRESERVING: [&str; 3] = ["unwrap", "unwrap_or_else", "expect"];

/// Default forbidden-callee prefixes for `guard-across-call` when the
/// config section lists none: the solver entrypoints and every
/// jp-obs/jp-pulse emission (each of which may flush a sink or take
/// registry locks of its own).
pub const DEFAULT_FORBIDDEN_CALLS: [&str; 11] = [
    "solve",
    "pebble_",
    "portfolio_",
    "optimal_",
    "bb_min",
    "run_tasks",
    "counter",
    "gauge_set",
    "span",
    "flush",
    "adopt",
];

/// One atomic operation and the `Ordering`s it was called with.
#[derive(Debug, Clone)]
pub struct AtomicOp {
    /// 1-based line of the method identifier.
    pub line: u32,
    /// The atomic method (`load`, `fetch_add`, …) or `use` for a bare
    /// `Ordering::…` outside any recognized call.
    pub method: String,
    /// `(variant, line)` per `Ordering::` argument, in source order.
    pub orderings: Vec<(String, u32)>,
    /// Whether a `race:order` note with a reason covers the operation.
    pub justified: bool,
}

impl AtomicOp {
    /// Whether any argument uses a non-`SeqCst` ordering.
    pub fn relaxed(&self) -> bool {
        self.orderings.iter().any(|(v, _)| v != "SeqCst")
    }

    fn lines(&self) -> impl Iterator<Item = u32> + '_ {
        std::iter::once(self.line).chain(self.orderings.iter().map(|&(_, l)| l))
    }
}

/// One `Mutex`/`RwLock` acquisition site.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// 1-based line of the acquisition.
    pub line: u32,
    /// Crate-qualified heuristic lock name (`pulse.MEMBERS`).
    pub name: String,
    /// `lock`, `read`, or `write`.
    pub op: String,
}

/// An acquisition of `second` while `first` was held.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// The lock already held.
    pub first: String,
    /// The lock acquired under it.
    pub second: String,
    /// 1-based line of the inner acquisition.
    pub line: u32,
}

/// A call made while a lock guard was live, matching a forbidden prefix.
#[derive(Debug, Clone)]
pub struct GuardCall {
    /// 1-based line of the call.
    pub line: u32,
    /// The held lock's name.
    pub guard: String,
    /// The callee identifier.
    pub callee: String,
}

/// One spawn site.
#[derive(Debug, Clone)]
pub struct SpawnSite {
    /// 1-based line of the `spawn` identifier.
    pub line: u32,
    /// Whether the enclosing function enters `thread::scope`.
    pub scoped: bool,
}

/// One channel constructor or endpoint-type mention.
#[derive(Debug, Clone)]
pub struct ChannelSite {
    /// 1-based line.
    pub line: u32,
    /// The matched identifier (`channel`, `Sender`, …).
    pub what: String,
}

/// The shared-state model of one source file.
#[derive(Debug, Default)]
pub struct FileModel {
    /// Atomic operations with their orderings.
    pub atomics: Vec<AtomicOp>,
    /// Lock acquisition sites.
    pub locks: Vec<LockSite>,
    /// Nested-acquisition edges.
    pub edges: Vec<LockEdge>,
    /// Forbidden calls under a live guard.
    pub guard_calls: Vec<GuardCall>,
    /// Spawn sites.
    pub spawns: Vec<SpawnSite>,
    /// Channel constructors/endpoints.
    pub channels: Vec<ChannelSite>,
}

/// The crate qualifier for lock names: `crates/pulse/src/…` → `pulse`.
fn crate_prefix(rel_path: &str) -> Option<&str> {
    rel_path.strip_prefix("crates/")?.split('/').next()
}

fn qualify(rel_path: &str, name: &str) -> String {
    match crate_prefix(rel_path) {
        Some(c) => format!("{c}.{name}"),
        None => name.to_string(),
    }
}

/// Builds the shared-state model of `file`. `forbidden_calls` is the
/// callee-prefix list of the `guard-across-call` rule (matched against
/// every call made while a guard is live). Test code is skipped.
pub fn extract(file: &SourceFile, forbidden_calls: &[String]) -> FileModel {
    let code: Vec<&Token> = file
        .tokens
        .iter()
        .filter(|t| !t.is_comment() && !file.in_test(t.line))
        .collect();
    let mut model = FileModel::default();
    scan_atomics(&code, file, &mut model);
    scan_channels(&code, &mut model);
    scan_functions(&code, file, forbidden_calls, &mut model);
    model
}

/// Is `code[i..]` the token run `Ordering :: <variant>`? Returns the
/// variant token index.
fn ordering_variant_at(code: &[&Token], i: usize) -> Option<usize> {
    if !code[i].is_ident("Ordering") {
        return None;
    }
    let (c1, c2, v) = (code.get(i + 1)?, code.get(i + 2)?, code.get(i + 3)?);
    if !c1.is_punct(':') || !c2.is_punct(':') {
        return None;
    }
    // `Ordering::<T>` (turbofish) or `Ordering::Variant(x)` never occur
    // for the atomic enum; require a bare known variant.
    if ORDERING_VARIANTS.contains(&v.text.as_str()) && v.kind == TokenKind::Ident {
        Some(i + 3)
    } else {
        None
    }
}

/// One stack frame: an open atomic-method call collecting orderings.
struct OpenCall {
    method: String,
    line: u32,
    /// Paren depth just after the call's `(` was consumed.
    depth: i32,
    orderings: Vec<(String, u32)>,
}

fn scan_atomics(code: &[&Token], file: &SourceFile, model: &mut FileModel) {
    let mut depth = 0i32;
    let mut stack: Vec<OpenCall> = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        let t = code[i];
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            while stack.last().is_some_and(|c| c.depth > depth) {
                let call = stack.pop().unwrap_or_else(|| unreachable!());
                push_op(model, file, call.method, call.line, call.orderings);
            }
        } else if t.kind == TokenKind::Ident
            && ATOMIC_METHODS.contains(&t.text.as_str())
            && i > 0
            && code[i - 1].is_punct('.')
            && code.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            stack.push(OpenCall {
                method: t.text.clone(),
                line: t.line,
                depth: depth + 1, // the `(` is consumed next iteration
                orderings: Vec::new(),
            });
        } else if let Some(vi) = ordering_variant_at(code, i) {
            let variant = (code[vi].text.clone(), code[vi].line);
            match stack.last_mut() {
                Some(call) => call.orderings.push(variant),
                // a bare `Ordering::X` outside any atomic call (bound to
                // a variable, passed through a helper…)
                None => push_op(model, file, "use".to_string(), variant.1, vec![variant]),
            }
            i = vi + 1;
            continue;
        }
        i += 1;
    }
    // unterminated calls at EOF (malformed input) still flush
    while let Some(call) = stack.pop() {
        push_op(model, file, call.method, call.line, call.orderings);
    }
    model.atomics.sort_by_key(|op| op.line);
}

fn push_op(
    model: &mut FileModel,
    file: &SourceFile,
    method: String,
    line: u32,
    orderings: Vec<(String, u32)>,
) {
    // `.load(…)`/`.store(…)` on non-atomics (e.g. io) carry no
    // `Ordering::` argument — only ordering-carrying calls are atomic.
    if orderings.is_empty() {
        return;
    }
    let mut op = AtomicOp {
        line,
        method,
        orderings,
        justified: false,
    };
    let justified = op.lines().any(|l| file.order_justified(l));
    op.justified = justified;
    model.atomics.push(op);
}

fn scan_channels(code: &[&Token], model: &mut FileModel) {
    for (i, t) in code.iter().enumerate() {
        let ctor = (t.is_ident("channel") || t.is_ident("sync_channel"))
            && code.get(i + 1).is_some_and(|n| n.is_punct('('));
        let endpoint = t.is_ident("Sender") || t.is_ident("Receiver") || t.is_ident("SyncSender");
        if ctor || endpoint {
            model.channels.push(ChannelSite {
                line: t.line,
                what: t.text.clone(),
            });
        }
    }
}

/// A live lock guard inside one function body.
struct Guard {
    /// Crate-qualified lock name.
    name: String,
    /// Binding identifier, when `let`-bound (for `drop(var)`).
    var: Option<String>,
    /// Brace depth (relative to the body) at acquisition.
    depth: i32,
    /// Temporary (not `let`-bound, or chained past the guard): lives to
    /// the end of its statement only.
    temp: bool,
    /// A block opened at the guard's own depth since acquisition — the
    /// trailing block of an `if let`/`match` consuming the temporary.
    opened_block: bool,
}

fn scan_functions(
    code: &[&Token],
    file: &SourceFile,
    forbidden_calls: &[String],
    model: &mut FileModel,
) {
    let mut i = 0usize;
    while i < code.len() {
        if code[i].is_ident("fn") && code.get(i + 1).is_some_and(|t| t.kind == TokenKind::Ident) {
            // body starts at the first `{` outside the signature parens
            let mut j = i + 2;
            let mut paren = 0i32;
            while j < code.len() {
                let t = code[j];
                if t.is_punct('(') {
                    paren += 1;
                } else if t.is_punct(')') {
                    paren -= 1;
                } else if t.is_punct('{') && paren == 0 {
                    break;
                } else if t.is_punct(';') && paren == 0 {
                    break; // trait method declaration — no body
                }
                j += 1;
            }
            if j < code.len() && code[j].is_punct('{') {
                let end = match_brace(code, j);
                scan_body(&code[i..j], &code[j + 1..end], file, forbidden_calls, model);
                i = end + 1;
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
}

/// Index of the `}` matching the `{` at `open`, or `code.len() - 1`.
fn match_brace(code: &[&Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in code.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    code.len().saturating_sub(1)
}

/// Walks one function body tracking guard liveness; `sig` is the
/// function's signature tokens (from `fn` to the opening brace) and
/// `body` excludes the outer braces. Nested `fn` items are rare enough
/// to share the walk.
fn scan_body(
    sig: &[&Token],
    body: &[&Token],
    file: &SourceFile,
    forbidden_calls: &[String],
    model: &mut FileModel,
) {
    // A spawn is contained when this function opens `thread::scope`
    // itself, or when it receives the `std::thread::Scope` handle as a
    // parameter — the scope block then lives in the caller, which
    // cannot outlive its own `thread::scope` call.
    let has_scope = body.iter().enumerate().any(|(k, t)| {
        t.is_ident("scope") && k >= 2 && body[k - 1].is_punct(':') && body[k - 2].is_punct(':')
    }) || sig.iter().any(|t| t.is_ident("Scope"));
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    let mut pending_let: Option<String> = None;
    let mut i = 0usize;
    while i < body.len() {
        let t = body[i];
        if t.is_punct('{') {
            for g in guards.iter_mut().filter(|g| g.temp && g.depth == depth) {
                g.opened_block = true;
            }
            depth += 1;
            pending_let = None;
        } else if t.is_punct('}') {
            depth -= 1;
            guards.retain(|g| g.depth <= depth && !(g.temp && g.opened_block && g.depth >= depth));
            pending_let = None;
        } else if t.is_punct(';') {
            guards.retain(|g| !(g.temp && g.depth == depth));
            pending_let = None;
        } else if t.is_ident("let") {
            // `let [mut] name = …` — first identifier of the pattern
            let mut k = i + 1;
            if body.get(k).is_some_and(|t| t.is_ident("mut")) {
                k += 1;
            }
            // tuple/struct patterns: step into the first ident
            while body
                .get(k)
                .is_some_and(|t| t.is_punct('(') || t.is_punct('&'))
            {
                k += 1;
            }
            pending_let = body
                .get(k)
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text.clone());
        } else if t.is_ident("drop")
            && body.get(i + 1).is_some_and(|n| n.is_punct('('))
            && body.get(i + 3).is_some_and(|n| n.is_punct(')'))
        {
            if let Some(var) = body.get(i + 2).filter(|t| t.kind == TokenKind::Ident) {
                guards.retain(|g| g.var.as_deref() != Some(var.text.as_str()));
            }
        } else if let Some((name, op, after)) = acquisition_at(body, i, file) {
            for g in &guards {
                model.edges.push(LockEdge {
                    first: g.name.clone(),
                    second: name.clone(),
                    line: t.line,
                });
            }
            model.locks.push(LockSite {
                line: t.line,
                name: name.clone(),
                op,
            });
            // does the chain continue past guard-preserving adapters?
            let (rest, chained) = chain_end(body, after);
            guards.push(Guard {
                name,
                var: if chained { None } else { pending_let.clone() },
                depth,
                temp: chained || pending_let.is_none(),
                opened_block: false,
            });
            i = rest;
            continue;
        } else if !guards.is_empty()
            && t.kind == TokenKind::Ident
            && body.get(i + 1).is_some_and(|n| n.is_punct('('))
            && !(i > 0 && body[i - 1].is_ident("fn"))
            && forbidden_calls
                .iter()
                .any(|p| t.text.starts_with(p.as_str()))
        {
            if let Some(g) = guards.last() {
                model.guard_calls.push(GuardCall {
                    line: t.line,
                    guard: g.name.clone(),
                    callee: t.text.clone(),
                });
            }
        } else if t.is_ident("spawn")
            && body.get(i + 1).is_some_and(|n| n.is_punct('('))
            && i > 0
            && (body[i - 1].is_punct('.') || body[i - 1].is_punct(':'))
        {
            model.spawns.push(SpawnSite {
                line: t.line,
                scoped: has_scope,
            });
        }
        i += 1;
    }
}

/// If `body[i]` begins a lock acquisition, returns `(qualified name,
/// op, index past the call's closing paren)`.
fn acquisition_at(body: &[&Token], i: usize, file: &SourceFile) -> Option<(String, String, usize)> {
    let t = body[i];
    let prev_dot = i > 0 && body[i - 1].is_punct('.');
    // free helper: `lock(&self.shared.injector)` — the workspace-wide
    // poison-tolerant `fn lock<T>(m: &Mutex<T>)` idiom
    if t.is_ident("lock") && !prev_dot && body.get(i + 1).is_some_and(|n| n.is_punct('(')) {
        if i > 0 && body[i - 1].is_ident("fn") {
            return None; // the helper's own definition
        }
        let close = match_paren(body, i + 1);
        let name = last_field_ident(&body[i + 2..close])?;
        return Some((qualify(&file.rel_path, &name), "lock".into(), close + 1));
    }
    // methods: `.lock()`, `.read()`, `.write()` with no arguments (io
    // read/write always take a buffer, so the empty-args shape is the
    // synchronization one)
    if prev_dot
        && (t.is_ident("lock") || t.is_ident("read") || t.is_ident("write"))
        && body.get(i + 1).is_some_and(|n| n.is_punct('('))
        && body.get(i + 2).is_some_and(|n| n.is_punct(')'))
    {
        let name = receiver_ident(body, i - 1)?;
        return Some((qualify(&file.rel_path, &name), t.text.clone(), i + 3));
    }
    None
}

/// Index of the `)` matching the `(` at `open`, or the last index.
fn match_paren(body: &[&Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in body.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    body.len().saturating_sub(1)
}

/// The last field identifier of a receiver expression at bracket depth
/// zero: `&self.shared.injector` → `injector`; `self.locals[victim]` →
/// `locals` (index subscripts are skipped).
fn last_field_ident(group: &[&Token]) -> Option<String> {
    let mut last = None;
    let mut k = 0usize;
    while k < group.len() {
        let t = group[k];
        if t.is_punct('[') {
            // skip the subscript
            let mut depth = 0i32;
            while k < group.len() {
                if group[k].is_punct('[') {
                    depth += 1;
                } else if group[k].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k += 1;
            }
        } else if t.kind == TokenKind::Ident && !t.is_ident("self") && !t.is_ident("mut") {
            last = Some(t.text.clone());
        }
        k += 1;
    }
    last
}

/// The receiver's last field identifier, scanning backwards from the
/// `.` at `dot`: `self.shards[i].read()` → `shards`.
fn receiver_ident(body: &[&Token], dot: usize) -> Option<String> {
    let mut k = dot.checked_sub(1)?;
    loop {
        let t = body[k];
        if t.is_punct(']') {
            // skip the subscript backwards
            let mut depth = 0i32;
            loop {
                if body[k].is_punct(']') {
                    depth += 1;
                } else if body[k].is_punct('[') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k = k.checked_sub(1)?;
            }
            k = k.checked_sub(1)?;
        } else if t.kind == TokenKind::Ident {
            if t.is_ident("self") {
                return None;
            }
            return Some(t.text.clone());
        } else {
            return None;
        }
    }
}

/// Follows a call chain from `after` (just past an acquisition's `)`)
/// over guard-preserving adapters. Returns `(resume index, chained)`
/// where `chained` means the chain continued into a *non*-preserving
/// method — the expression's value is no longer the guard itself.
fn chain_end(body: &[&Token], mut after: usize) -> (usize, bool) {
    loop {
        let dot = body.get(after).is_some_and(|t| t.is_punct('.'));
        if !dot {
            return (after, false);
        }
        let next = body.get(after + 1);
        let preserving = next.is_some_and(|t| GUARD_PRESERVING.contains(&t.text.as_str()));
        if !preserving {
            return (after, true);
        }
        // skip `.adapter(…)`
        if body.get(after + 2).is_some_and(|t| t.is_punct('(')) {
            after = match_paren(body, after + 2) + 1;
        } else {
            return (after, false);
        }
    }
}

// ---------------------------------------------------------------------
// Rule checks
// ---------------------------------------------------------------------

/// `atomic-ordering`: every non-`SeqCst` ordering is justified, every
/// note has a reason, every note covers something.
pub fn check_atomic_ordering(file: &SourceFile, model: &FileModel, out: &mut Vec<Violation>) {
    for op in &model.atomics {
        if op.relaxed() && !op.justified {
            let orders: Vec<&str> = op.orderings.iter().map(|(v, _)| v.as_str()).collect();
            out.push(Violation::new(
                ATOMIC_ORDERING,
                &file.rel_path,
                op.line,
                format!(
                    "`{}({})` uses a non-SeqCst ordering without a `// race:order(<why>)` justification",
                    op.method,
                    orders.join(", "),
                ),
            ));
        }
    }
    let covered: BTreeSet<u32> = model
        .atomics
        .iter()
        .filter(|op| op.relaxed())
        .flat_map(|op| op.lines())
        .collect();
    for note in file.orders.iter().filter(|n| !file.in_test(n.line)) {
        if note.reason.is_empty() {
            out.push(Violation::new(
                ATOMIC_ORDERING,
                &file.rel_path,
                note.line,
                "race:order() has no reason — ordering justifications must say why".to_string(),
            ));
        } else if !(note.line..=note.line + 2).any(|l| covered.contains(&l)) {
            out.push(Violation::new(
                ATOMIC_ORDERING,
                &file.rel_path,
                note.line,
                "race:order note covers no non-SeqCst atomic operation (stale annotation)"
                    .to_string(),
            ));
        }
    }
}

/// The global lock graph: adjacency plus one representative site per
/// edge, in deterministic order.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// All node names (every acquisition site contributes its lock).
    pub nodes: BTreeSet<String>,
    /// `(first, second)` → representative `(file, line)`.
    pub edges: BTreeMap<(String, String), (String, u32)>,
}

/// Folds per-file models (already filtered to the rule's scope) into
/// one graph.
pub fn lock_graph<'a>(models: impl Iterator<Item = (&'a str, &'a FileModel)>) -> LockGraph {
    let mut g = LockGraph::default();
    for (path, m) in models {
        for site in &m.locks {
            g.nodes.insert(site.name.clone());
        }
        for e in &m.edges {
            g.nodes.insert(e.first.clone());
            g.nodes.insert(e.second.clone());
            g.edges
                .entry((e.first.clone(), e.second.clone()))
                .or_insert_with(|| (path.to_string(), e.line));
        }
    }
    g
}

/// Edges that participate in a cycle (including self-edges).
pub fn cyclic_edges(g: &LockGraph) -> Vec<(String, String)> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in g.edges.keys() {
        adj.entry(a.as_str()).or_default().push(b.as_str());
    }
    let reaches = |from: &str, to: &str| -> bool {
        let mut seen = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if seen.insert(n) {
                if let Some(next) = adj.get(n) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    };
    g.edges
        .keys()
        .filter(|(a, b)| a == b || reaches(b, a))
        .cloned()
        .collect()
}

/// `lock-order`: any cycle in the acquisition graph is a finding,
/// anchored at each participating edge's representative site.
pub fn check_lock_order(g: &LockGraph, out: &mut Vec<Violation>) {
    for (a, b) in cyclic_edges(g) {
        if let Some((file, line)) = g.edges.get(&(a.clone(), b.clone())) {
            let msg = if a == b {
                format!("lock `{a}` re-acquired while already held (self-deadlock)")
            } else {
                format!(
                    "acquiring `{b}` while holding `{a}` closes a lock-order cycle (deadlock risk)"
                )
            };
            out.push(Violation::new(LOCK_ORDER, file, *line, msg));
        }
    }
}

/// Renders the acquisition graph as Graphviz DOT; cyclic edges are red.
pub fn lock_order_dot(g: &LockGraph) -> String {
    let cyclic: BTreeSet<(String, String)> = cyclic_edges(g).into_iter().collect();
    let mut s = String::new();
    s.push_str("// Lock-acquisition order graph, generated by `jp-audit race`.\n");
    s.push_str("// An edge A -> B means some function acquires B while holding A;\n");
    s.push_str("// a cycle would be a potential deadlock (rendered red).\n");
    s.push_str("digraph lock_order {\n");
    s.push_str("  rankdir=LR;\n");
    s.push_str("  node [shape=box, fontname=\"monospace\"];\n");
    for n in &g.nodes {
        s.push_str(&format!("  \"{n}\";\n"));
    }
    for ((a, b), (file, line)) in &g.edges {
        let attrs = if cyclic.contains(&(a.clone(), b.clone())) {
            format!("label=\"{file}:{line}\", color=red")
        } else {
            format!("label=\"{file}:{line}\"")
        };
        s.push_str(&format!("  \"{a}\" -> \"{b}\" [{attrs}];\n"));
    }
    s.push_str("}\n");
    s
}

/// `guard-across-call`: every forbidden call under a live guard.
pub fn check_guard_across_call(file: &SourceFile, model: &FileModel, out: &mut Vec<Violation>) {
    for c in &model.guard_calls {
        out.push(Violation::new(
            GUARD_ACROSS_CALL,
            &file.rel_path,
            c.line,
            format!(
                "call to `{}` while lock guard `{}` is live — drop the guard first",
                c.callee, c.guard
            ),
        ));
    }
}

/// `spawn-containment`: every unscoped spawn.
pub fn check_spawn_containment(file: &SourceFile, model: &FileModel, out: &mut Vec<Violation>) {
    for s in &model.spawns {
        if !s.scoped {
            out.push(Violation::new(
                SPAWN_CONTAINMENT,
                &file.rel_path,
                s.line,
                "thread spawned outside `thread::scope`/jp-par runtime — detached threads \
                 need an explicit lifecycle justification"
                    .to_string(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> (SourceFile, FileModel) {
        let f = SourceFile::new("crates/demo/src/lib.rs".into(), src);
        let forbidden: Vec<String> = DEFAULT_FORBIDDEN_CALLS
            .iter()
            .map(|s| s.to_string())
            .collect();
        let m = extract(&f, &forbidden);
        (f, m)
    }

    #[test]
    fn atomic_ops_collect_their_orderings() {
        let (_, m) = model(
            "fn f(a: &AtomicUsize, b: &AtomicBool) {\n\
             \x20   a.store(b.load(Ordering::Acquire) as usize, Ordering::Release);\n\
             \x20   a.compare_exchange(0, 1, Ordering::SeqCst, Ordering::Relaxed).ok();\n\
             }\n",
        );
        assert_eq!(m.atomics.len(), 3, "{:?}", m.atomics);
        let store = m.atomics.iter().find(|o| o.method == "store").unwrap();
        assert_eq!(store.orderings, vec![("Release".to_string(), 2)]);
        let load = m.atomics.iter().find(|o| o.method == "load").unwrap();
        assert_eq!(load.orderings, vec![("Acquire".to_string(), 2)]);
        let cas = m
            .atomics
            .iter()
            .find(|o| o.method == "compare_exchange")
            .unwrap();
        assert_eq!(cas.orderings.len(), 2);
        assert!(cas.relaxed(), "SeqCst+Relaxed pair still needs a note");
    }

    #[test]
    fn fully_qualified_and_cmp_orderings_disambiguate() {
        let (_, m) = model(
            "fn f(a: &AtomicU64, v: &[u32]) {\n\
             \x20   a.fetch_add(1, std::sync::atomic::Ordering::SeqCst);\n\
             \x20   let _ = v.binary_search_by(|x| match x.cmp(&3) { std::cmp::Ordering::Less => todo!(), _ => todo!() });\n\
             }\n",
        );
        assert_eq!(m.atomics.len(), 1, "{:?}", m.atomics);
        assert_eq!(m.atomics[0].method, "fetch_add");
        assert!(!m.atomics[0].relaxed());
    }

    #[test]
    fn turbofish_ordering_paths_are_not_atomic_ops() {
        // `Ordering::<…>` never names an atomic variant; a generic
        // mention of the type must not produce a model entry.
        let (_, m) = model(
            "fn f() {\n\
             \x20   let v = Vec::<Ordering>::new();\n\
             \x20   let _ = std::mem::size_of::<Ordering>();\n\
             \x20   drop(v);\n\
             }\n",
        );
        assert!(m.atomics.is_empty(), "{:?}", m.atomics);
    }

    #[test]
    fn macro_generated_atomics_are_seen() {
        let (_, m) = model(
            "macro_rules! bump {\n\
             \x20   ($c:expr) => {\n\
             \x20       $c.fetch_add(1, Ordering::Relaxed)\n\
             \x20   };\n\
             }\n",
        );
        assert_eq!(m.atomics.len(), 1);
        assert_eq!(m.atomics[0].method, "fetch_add");
        assert!(m.atomics[0].relaxed());
    }

    #[test]
    fn bare_ordering_use_is_modelled() {
        let (_, m) = model("fn f() { let o = Ordering::Relaxed; g(o); }\n");
        assert_eq!(m.atomics.len(), 1);
        assert_eq!(m.atomics[0].method, "use");
    }

    #[test]
    fn justified_ops_pass_and_unjustified_ops_fail() {
        let (f, m) = model(
            "fn f(a: &AtomicU64) {\n\
             \x20   a.fetch_add(1, Ordering::Relaxed); // race:order(statistic, read after join)\n\
             \x20   let x = 1;\n\
             \x20   let y = x;\n\
             \x20   a.load(Ordering::Relaxed);\n\
             }\n",
        );
        let mut out = Vec::new();
        check_atomic_ordering(&f, &m, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 5);
        assert!(out[0].message.contains("load(Relaxed)"));
    }

    #[test]
    fn reasonless_and_stale_notes_are_findings() {
        let (f, m) = model(
            "fn f(a: &AtomicU64) {\n\
             \x20   a.load(Ordering::Relaxed); // race:order()\n\
             \x20   // race:order(nothing relaxed anywhere near here)\n\
             \x20   let x = 1;\n\
             \x20   drop(x);\n\
             }\n",
        );
        let mut out = Vec::new();
        check_atomic_ordering(&f, &m, &mut out);
        let msgs: Vec<&str> = out.iter().map(|v| v.message.as_str()).collect();
        assert_eq!(out.len(), 3, "{msgs:?}"); // unjustified load + empty note + stale note
        assert!(msgs.iter().any(|m| m.contains("no reason")));
        assert!(msgs.iter().any(|m| m.contains("stale annotation")));
    }

    #[test]
    fn nested_acquisition_builds_an_edge_and_cycles_are_found() {
        let (_, m) = model(
            "fn install() {\n\
             \x20   let scope = lock(&SCOPE);\n\
             \x20   let mut members = lock(&MEMBERS);\n\
             \x20   *members = None;\n\
             }\n\
             fn reverse() {\n\
             \x20   let members = lock(&MEMBERS);\n\
             \x20   let scope = lock(&SCOPE);\n\
             \x20   drop((members, scope));\n\
             }\n",
        );
        assert_eq!(m.edges.len(), 2, "{:?}", m.edges);
        let g = lock_graph(std::iter::once(("crates/demo/src/lib.rs", &m)));
        let mut out = Vec::new();
        check_lock_order(&g, &mut out);
        assert_eq!(out.len(), 2, "both edges participate in the cycle");
        let dot = lock_order_dot(&g);
        assert!(dot.contains("color=red"), "{dot}");
    }

    #[test]
    fn block_scoped_guard_does_not_edge_into_later_locks() {
        let (_, m) = model(
            "fn f() {\n\
             \x20   {\n\
             \x20       let a = lock(&FIRST);\n\
             \x20       a.touch();\n\
             \x20   }\n\
             \x20   let b = lock(&SECOND);\n\
             \x20   drop(b);\n\
             }\n",
        );
        assert!(m.edges.is_empty(), "{:?}", m.edges);
        assert_eq!(m.locks.len(), 2);
    }

    #[test]
    fn dropped_guard_stops_tracking() {
        let (f, m) = model(
            "fn f(s: &Shard) {\n\
             \x20   let map = lock(&s.inner);\n\
             \x20   drop(map);\n\
             \x20   counter_add(\"x\", 1);\n\
             }\n",
        );
        let mut out = Vec::new();
        check_guard_across_call(&f, &m, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn temporary_guard_lives_through_an_if_let_block_only() {
        // edition 2021: the scrutinee temporary lives through the block,
        // then dies — the second acquisition must not form an edge.
        let (_, m) = model(
            "fn next(d: &Deques) {\n\
             \x20   if let Some(t) = lock(&d.own).pop_front() {\n\
             \x20       return Some(t);\n\
             \x20   }\n\
             \x20   if let Some(t) = lock(&d.injector).pop_front() {\n\
             \x20       return Some(t);\n\
             \x20   }\n\
             }\n",
        );
        assert_eq!(m.locks.len(), 2);
        assert!(m.edges.is_empty(), "{:?}", m.edges);
    }

    #[test]
    fn forbidden_call_under_guard_is_reported() {
        let (f, m) = model(
            "fn offer(&self, jumps: usize) {\n\
             \x20   let mut guard = lock(&self.best_tour);\n\
             \x20   gauge_set(\"bb.incumbent_jumps\", jumps as u64);\n\
             \x20   *guard = jumps;\n\
             }\n",
        );
        let mut out = Vec::new();
        check_guard_across_call(&f, &m, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("gauge_set"));
        assert!(out[0].message.contains("best_tour"));
    }

    #[test]
    fn rwlock_method_acquisitions_are_detected() {
        let (_, m) = model(
            "fn snap(&self) {\n\
             \x20   let map = self.shards[i].read().unwrap_or_else(|e| e.into_inner());\n\
             \x20   let mut w = shard.write().unwrap_or_else(|e| e.into_inner());\n\
             \x20   w.clear();\n\
             }\n",
        );
        let names: Vec<&str> = m.locks.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, ["demo.shards", "demo.shard"], "{:?}", m.locks);
        assert_eq!(m.locks[0].op, "read");
        assert_eq!(m.locks[1].op, "write");
    }

    #[test]
    fn io_read_write_with_arguments_are_not_locks() {
        let (_, m) = model(
            "fn f(mut file: File, buf: &mut [u8]) {\n\
             \x20   file.read(buf).ok();\n\
             \x20   file.write(b\"x\").ok();\n\
             }\n",
        );
        assert!(m.locks.is_empty(), "{:?}", m.locks);
    }

    #[test]
    fn scoped_spawns_pass_and_detached_spawns_fail() {
        let (f, m) = model(
            "fn scoped(n: usize) {\n\
             \x20   std::thread::scope(|s| {\n\
             \x20       for _ in 0..n { s.spawn(|| work()); }\n\
             \x20   });\n\
             }\n\
             fn detached() {\n\
             \x20   std::thread::Builder::new().spawn(|| work()).ok();\n\
             }\n",
        );
        assert_eq!(m.spawns.len(), 2);
        let mut out = Vec::new();
        check_spawn_containment(&f, &m, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 7);
    }

    #[test]
    fn spawning_on_a_scope_parameter_is_contained() {
        // the scope block lives in the caller; a helper handed the
        // `std::thread::Scope` handle cannot detach anything
        let (f, m) = model(
            "fn acceptor<'scope, 'env>(s: &'scope std::thread::Scope<'scope, 'env>) {\n\
             \x20   s.spawn(|| work());\n\
             }\n",
        );
        assert_eq!(m.spawns.len(), 1);
        assert!(m.spawns[0].scoped, "{:?}", m.spawns);
        let mut out = Vec::new();
        check_spawn_containment(&f, &m, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn channel_endpoints_are_inventoried() {
        let (_, m) = model(
            "fn f() -> (Sender<u32>, Receiver<u32>) {\n\
             \x20   std::sync::mpsc::channel()\n\
             }\n",
        );
        assert_eq!(m.channels.len(), 3, "{:?}", m.channels);
    }

    #[test]
    fn test_code_is_exempt() {
        let (_, m) = model(
            "#[cfg(test)]\n\
             mod tests {\n\
             \x20   #[test]\n\
             \x20   fn t() {\n\
             \x20       FLAG.store(true, Ordering::SeqCst);\n\
             \x20       std::thread::spawn(|| {}).join().ok();\n\
             \x20   }\n\
             }\n",
        );
        assert!(m.atomics.is_empty() && m.spawns.is_empty());
    }
}
