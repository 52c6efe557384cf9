//! A lightweight item parser on top of [`crate::lexer`]: extracts the
//! functions, impl blocks, `use` declarations, call sites, lock
//! acquisitions and atomic operations. Each [`SourceFile`] is parsed
//! once, when it is built, and every rule reads that one parse: the
//! per-file rules L1/U1/A1/A2 directly, L2/D3/F1/U2 through the
//! workspace call and lock graphs.
//!
//! This is *not* a Rust parser — it is a structural scan over the token
//! stream that recovers exactly the facts the call/lock graphs need:
//!
//! * every `fn` item with its name, visibility, enclosing `impl`/`trait`
//!   type, file and line span;
//! * every call made inside a body, as a path (`helper`,
//!   `xfraud_gnn::predict_scores`, `Self::add_budget`) or a method call
//!   (`.score(…)`);
//! * every lock acquisition (`.lock()` / `.read()` / `.write()` with an
//!   empty argument list) with a canonical lock identity, the `let`
//!   binding holding its guard, and the set of locks already held when
//!   it happens;
//! * every atomic operation with literal `Ordering::X` arguments;
//! * every `use` declaration that imports from a workspace crate, with
//!   renames and `pub use` re-exports preserved (re-exports are how
//!   determinism taint crosses crates without a direct dependency edge).
//!
//! Everything here is deliberately an approximation. The resolver in
//! [`crate::callgraph`] documents the direction of each approximation;
//! the parser's only job is to never panic and never attribute a token
//! inside a string, comment or `#[cfg(test)]` block to library code.

use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;

/// One `fn` item (free function, inherent/trait method, or default trait
/// method) with everything the graph builders need.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Lib-crate name this item lives in (`xfraud_serve`, `xfraud`, …).
    pub crate_name: String,
    pub name: String,
    /// Leaf name of the enclosing `impl`/`trait` self type, if any.
    pub impl_type: Option<String>,
    /// `pub` without a restriction (`pub(crate)` does not count — it is
    /// not API surface).
    pub is_pub: bool,
    /// The item is `#[cfg(test)]`/`#[test]`-gated; excluded from graphs.
    pub is_test: bool,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based line of the body's closing brace (== `line` for
    /// body-less declarations).
    pub end_line: u32,
    pub calls: Vec<CallSite>,
    pub locks: Vec<LockSite>,
    /// Durability-relevant file operations (fsync / rename) in body
    /// order, on the same token-index timeline as `calls[].seq`.
    pub fs_events: Vec<FsEvent>,
    /// Atomic operations with literal orderings, in body order.
    pub atomics: Vec<AtomicOp>,
}

/// A call made inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Path segments as written (`["helper"]`,
    /// `["xfraud_gnn", "predict_scores"]`, `["Self", "add_budget"]`).
    /// Method calls carry the bare method name.
    pub path: Vec<String>,
    /// `.name(…)` receiver call (resolved by name across impls).
    pub is_method: bool,
    pub line: u32,
    /// Token index of the call head inside the file — orders the call
    /// against [`FsEvent`]s in the same body (rule F1's domination check).
    pub seq: u32,
    /// Indices into the owning item's `locks` — acquisitions whose guard
    /// is still live at this call.
    pub under_locks: Vec<usize>,
}

/// A durability-relevant filesystem operation inside a function body
/// (rule F1's event stream). `seq` shares the token-index timeline with
/// [`CallSite::seq`], so "a sync happens before this rename" is a plain
/// integer comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsEvent {
    pub kind: FsEventKind,
    pub line: u32,
    /// Token index of the operation inside the file.
    pub seq: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsEventKind {
    /// `.sync_all()` / `.sync_data()` — forces bytes to stable storage.
    Sync,
    /// `fs::rename(…)` (or a `.rename(…)` method) — publishes a file
    /// under its durable name.
    Rename,
}

/// An atomic operation inside a function body whose arguments carry
/// `Ordering::X` literals (rules A1/A2). The literal is the gate that
/// keeps `.load(key)` on a non-atomic receiver out; orderings passed
/// through variables are not recognised.
#[derive(Debug, Clone)]
pub struct AtomicOp {
    /// Field identity (`self.epoch`, `fn.local`), named like a lock's.
    pub field: String,
    /// `load`, `store`, `swap`, `fetch_*` or `compare_exchange[_weak]`.
    pub method: String,
    /// `Ordering::X` literals in argument order.
    pub orderings: Vec<String>,
    pub line: u32,
}

/// One lock acquisition inside a function body.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Canonical lock identity: `crate::self.field` for `self.field`
    /// receivers, `crate::fn.var` for locals (fn-scoped so unrelated
    /// locals never alias).
    pub id: String,
    /// `lock`, `read` or `write`.
    pub op: String,
    pub line: u32,
    /// Token index of the lock method, on the [`CallSite::seq`] timeline.
    pub seq: u32,
    /// Name of the `let` binding holding the guard; `None` for a
    /// temporary guard, which dies with its statement.
    pub guard: Option<String>,
    /// Locks (indices into the same `locks` vec) already held here —
    /// each pair is a direct lock-order edge.
    pub under_locks: Vec<usize>,
}

/// One name imported by a `use` declaration.
#[derive(Debug, Clone)]
pub struct UseItem {
    /// Name as visible in the importing file (after `as` renames).
    pub leaf: String,
    /// Original item name in the source crate.
    pub original: String,
    /// Source crate lib name (`xfraud_gnn`), or the current crate's own
    /// name for `use crate::…` / `use self::…` paths.
    pub crate_name: String,
    /// `pub use` — the importing crate re-exports this name.
    pub is_reexport: bool,
    /// A `crate::…` / `self::…` / `super::…` path: the importing crate's
    /// own item, not an import from another workspace crate.
    pub is_local: bool,
}

/// Parser output for one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub fns: Vec<FnItem>,
    pub uses: Vec<UseItem>,
}

/// Index of the innermost fn in `fns` whose span in `file` covers `line`.
pub(crate) fn enclosing_fn(fns: &[FnItem], file: &str, line: u32) -> Option<usize> {
    fns.iter()
        .enumerate()
        .filter(|(_, f)| f.file == file && f.line <= line && line <= f.end_line)
        .max_by_key(|(_, f)| f.line)
        .map(|(i, _)| i)
}

/// Keywords that can look like call heads but never are.
const CALL_KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "let", "fn",
    "mod", "struct", "enum", "trait", "impl", "use", "pub", "in", "as", "ref", "mut", "move",
    "where", "unsafe", "async", "await", "dyn", "const", "static", "crate", "super", "self",
    "type", "extern",
];

/// Tokens that may sit between a `pub`/qualifier run and the `fn` keyword.
const FN_QUALIFIERS: &[&str] = &["pub", "const", "unsafe", "async", "extern", "default"];

const LOCK_METHODS: &[&str] = &["lock", "read", "write"];

/// Is `toks[j]` the method of a `. lock ( )` / `. read ( )` /
/// `. write ( )` acquisition (empty argument list)?
pub(crate) fn is_lock_call(toks: &[Token], j: usize) -> bool {
    toks[j].kind == TokenKind::Ident
        && LOCK_METHODS.contains(&toks[j].text.as_str())
        && j >= 1
        && toks[j - 1].text == "."
        && toks.get(j + 1).is_some_and(|n| n.text == "(")
        && toks.get(j + 2).is_some_and(|n| n.text == ")")
}

/// Atomic methods rules A1/A2 read: `load`, the store-side ops taking one
/// ordering, and the compare-exchange family taking `(success, failure)`.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_update",
];

const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Method names that force bytes to stable storage (rule F1's "sync"
/// events).
const SYNC_METHODS: &[&str] = &["sync_all", "sync_data"];

/// Method names too generic to resolve by name across the workspace —
/// resolving `.get(…)` to every `fn get` in every impl would wire the
/// call graph into one blob. Calls through these still resolve when
/// written as paths (`Type::get(…)`).
const METHOD_DENYLIST: &[&str] = &[
    "new",
    "clone",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "contains",
    "contains_key",
    "keys",
    "values",
    "entry",
    "extend",
    "drain",
    "clear",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "min",
    "max",
    "map",
    "and_then",
    "or_else",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok",
    "ok_or",
    "ok_or_else",
    "err",
    "expect",
    "unwrap",
    "take",
    "replace",
    "as_ref",
    "as_mut",
    "as_slice",
    "as_str",
    "as_bytes",
    "to_string",
    "to_vec",
    "to_owned",
    "into",
    "from",
    "fmt",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "total_cmp",
    "hash",
    "default",
    "drop",
    "clamp",
    "abs",
    "min_by",
    "max_by",
    "sum",
    "product",
    "collect",
    "filter",
    "filter_map",
    "flat_map",
    "fold",
    "zip",
    "rev",
    "skip",
    "chain",
    "count",
    "enumerate",
    "position",
    "find",
    "any",
    "all",
    "split",
    "join",
    "trim",
    "parse",
    "write",
    "read",
    "flush",
    "lock",
    "borrow",
    "borrow_mut",
    "load",
    "store",
    "fetch_add",
    "swap",
    "send",
    "recv",
    "try_recv",
    "start_send",
    "wait",
    "notify_one",
    "notify_all",
    "spawn",
    "first",
    "last",
    "copied",
    "cloned",
    "chunks",
    "windows",
    "rows",
    "cols",
    "row",
    "col",
    "dim",
    "shape",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
];

/// Parses one file into items. The owning crate's lib name
/// (`sf.crate_name`) prefixes lock identities and resolves
/// `crate::`/`self::` call paths. [`SourceFile::from_source`] is the one
/// caller, so each file is parsed exactly once.
pub(crate) fn parse_file(sf: &SourceFile) -> ParsedFile {
    let toks = &sf.tokens;
    let mut out = ParsedFile {
        fns: Vec::new(),
        uses: collect_uses(toks, &sf.crate_name),
    };

    // Stack of open `impl`/`trait` blocks: (self-type leaf, depth of the
    // block's `{` token). The innermost entry covering a `fn` names the
    // method's self type.
    let mut type_stack: Vec<(String, u32)> = Vec::new();

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        // Close impl/trait blocks whose `}` we just passed.
        if t.text == "}" {
            while type_stack.last().is_some_and(|(_, d)| t.brace_depth <= *d) {
                type_stack.pop();
            }
            i += 1;
            continue;
        }
        if t.kind == TokenKind::Ident && (t.text == "impl" || t.text == "trait") {
            if let Some((ty, open_idx)) = parse_impl_header(toks, i, t.text == "trait") {
                type_stack.push((ty, toks[open_idx].brace_depth));
                i = open_idx + 1;
                continue;
            }
            i += 1;
            continue;
        }
        if t.kind == TokenKind::Ident
            && t.text == "fn"
            && toks.get(i + 1).map(|n| n.kind) == Some(TokenKind::Ident)
        {
            let (item, next) = parse_fn(sf, &type_stack, i);
            out.fns.push(item);
            i = next;
            continue;
        }
        i += 1;
    }
    out
}

/// Parses an `impl`/`trait` header starting at `i` (the keyword).
/// Returns `(self-type leaf, index of the opening '{')`, or `None` for
/// headers without a body (a malformed header must not wedge the scan).
/// For `trait Foo: Bar { … }` the name is the *first* ident; for
/// `impl Trait for Type<…> where … { … }` it is the last path ident
/// after `for` (or overall when there is no `for`), with `where`-clause
/// idents excluded.
fn parse_impl_header(toks: &[Token], i: usize, is_trait: bool) -> Option<(String, usize)> {
    let mut j = i + 1;
    // Skip generic parameters `<…>` (tokens are single puncts, so `>>`
    // arrives as two `>`s and plain depth counting works).
    if toks.get(j).is_some_and(|t| t.text == "<") {
        let mut depth = 0i32;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    let mut first_ident: Option<String> = None;
    let mut last_ident: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    let mut in_where = false;
    let mut angle = 0i32;
    while j < toks.len() {
        let t = &toks[j];
        match t.text.as_str() {
            "{" if angle <= 0 => {
                let ty = if is_trait {
                    first_ident
                } else if saw_for {
                    after_for
                } else {
                    last_ident
                };
                return ty.map(|ty| (ty, j));
            }
            ";" if angle <= 0 => return None,
            "<" => angle += 1,
            ">" => angle -= 1,
            "for" if t.kind == TokenKind::Ident && angle <= 0 => saw_for = true,
            "where" if t.kind == TokenKind::Ident && angle <= 0 => in_where = true,
            _ => {
                if t.kind == TokenKind::Ident && angle <= 0 && !in_where {
                    first_ident.get_or_insert_with(|| t.text.clone());
                    if saw_for {
                        after_for = Some(t.text.clone());
                    } else {
                        last_ident = Some(t.text.clone());
                    }
                }
            }
        }
        j += 1;
    }
    None
}

/// Parses the `fn` item whose keyword sits at `i`; returns the item and
/// the index scanning should resume from (past the body, so nested fns
/// and closures attribute their calls to the enclosing item exactly
/// once).
fn parse_fn(sf: &SourceFile, type_stack: &[(String, u32)], i: usize) -> (FnItem, usize) {
    let toks = &sf.tokens;
    let name = toks[i + 1].text.clone();
    let impl_type = type_stack.last().map(|(t, _)| t.clone());
    let is_test = sf.test_mask[i];
    let is_pub = fn_is_pub(toks, i);

    // Find the body `{` or the declaration's `;`. Bracket depth is
    // tracked so a `;` inside an array type (`[u8; 4]`) in the
    // signature does not end the item early.
    let mut j = i + 2;
    let mut body: Option<(usize, usize)> = None;
    let mut brackets = 0i32;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "[" => {
                brackets += 1;
                j += 1;
                continue;
            }
            "]" => {
                brackets -= 1;
                j += 1;
                continue;
            }
            ";" if brackets <= 0 && toks[j].brace_depth == toks[i].brace_depth => break,
            "{" => {
                let open_depth = toks[j].brace_depth;
                let mut k = j + 1;
                while k < toks.len() {
                    if toks[k].text == "}" && toks[k].brace_depth == open_depth {
                        break;
                    }
                    k += 1;
                }
                body = Some((j, k.min(toks.len() - 1)));
                break;
            }
            _ => j += 1,
        }
    }

    let (end_line, next) = match body {
        Some((_, close)) => (toks[close].line, close + 1),
        None => (toks[i].line, j + 1),
    };
    let mut item = FnItem {
        crate_name: sf.crate_name.clone(),
        name,
        impl_type,
        is_pub,
        is_test,
        file: sf.path.clone(),
        line: toks[i].line,
        end_line,
        calls: Vec::new(),
        locks: Vec::new(),
        fs_events: Vec::new(),
        atomics: Vec::new(),
    };
    if let Some((open, close)) = body {
        scan_body(sf, &mut item, open, close);
    }
    (item, next)
}

/// Does the `fn` at `i` carry an unrestricted `pub`? Walks back over the
/// qualifier run (`pub const unsafe extern "C" fn` …).
fn fn_is_pub(toks: &[Token], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        let is_qualifier = (t.kind == TokenKind::Ident && FN_QUALIFIERS.contains(&t.text.as_str()))
            || t.kind == TokenKind::Literal // extern "C"
            || t.text == ")"
            || t.text == "("
            || (t.kind == TokenKind::Ident && (t.text == "crate" || t.text == "super"));
        if !is_qualifier {
            return false;
        }
        if t.text == "pub" {
            // `pub(crate)`/`pub(super)` restrict visibility — not API.
            return toks.get(j + 1).is_none_or(|n| n.text != "(");
        }
    }
    false
}

/// Scans a fn body (token range `open..=close`) for call sites, lock
/// acquisitions, fs events and atomic operations, then computes which
/// guards are live at each call and acquisition.
fn scan_body(sf: &SourceFile, item: &mut FnItem, open: usize, close: usize) {
    let toks = &sf.tokens;
    // Liveness is resolved afterwards, from each guard's live end (an
    // inclusive token index).
    let mut calls: Vec<CallSite> = Vec::new();
    let mut locks: Vec<(LockSite, usize)> = Vec::new();

    let mut j = open + 1;
    while j < close {
        if sf.test_mask[j] {
            j += 1;
            continue;
        }
        let t = &toks[j];
        // Lock acquisition: `. lock ( )` etc.
        if is_lock_call(toks, j) {
            let receiver = receiver_identity(&item.name, &receiver_chain(toks, j - 1));
            let (guard, live_end) = guard_scope(toks, j, close);
            locks.push((
                LockSite {
                    id: format!("{}::{receiver}", sf.crate_name),
                    op: t.text.clone(),
                    line: t.line,
                    seq: j as u32,
                    guard: guard.map(|g| toks[g].text.clone()),
                    under_locks: Vec::new(),
                },
                live_end,
            ));
            j += 3;
            continue;
        }
        // Method call: `. name (` — but a `. lock ( )` acquisition is
        // left for the ident-anchored branch above on the next step.
        if t.text == "."
            && toks.get(j + 1).is_some_and(|n| n.kind == TokenKind::Ident)
            && toks.get(j + 2).is_some_and(|n| n.text == "(")
            && !is_lock_call(toks, j + 1)
        {
            let name = &toks[j + 1].text;
            // Durability events: `.sync_all(` / `.sync_data(` and
            // `.rename(` — recorded alongside the call site (a
            // `.rename(…)` is both an event and a call).
            if SYNC_METHODS.contains(&name.as_str()) {
                item.fs_events.push(FsEvent {
                    kind: FsEventKind::Sync,
                    line: toks[j + 1].line,
                    seq: (j + 1) as u32,
                });
            } else if name == "rename" {
                item.fs_events.push(FsEvent {
                    kind: FsEventKind::Rename,
                    line: toks[j + 1].line,
                    seq: (j + 1) as u32,
                });
            }
            if ATOMIC_METHODS.contains(&name.as_str()) {
                let orderings = ordering_literals(toks, j + 2);
                if !orderings.is_empty() {
                    item.atomics.push(AtomicOp {
                        field: receiver_identity(&item.name, &receiver_chain(toks, j)),
                        method: name.clone(),
                        orderings,
                        line: toks[j + 1].line,
                    });
                }
            }
            if !METHOD_DENYLIST.contains(&name.as_str()) {
                calls.push(CallSite {
                    path: vec![name.clone()],
                    is_method: true,
                    line: toks[j + 1].line,
                    seq: (j + 1) as u32,
                    under_locks: Vec::new(),
                });
            }
            j += 2;
            continue;
        }
        // Plain or path call: an ident that *starts* a path (previous
        // token is neither `.` nor the tail of `::`), followed —
        // possibly through `::seg` repetitions and a turbofish — by `(`.
        let prev = j.checked_sub(1).map(|p| toks[p].text.as_str());
        if t.kind == TokenKind::Ident
            && !CALL_KEYWORDS.contains(&t.text.as_str())
            && prev != Some(".")
            && prev != Some("fn") // nested fn definition head
            && !(j >= 2 && prev == Some(":") && toks[j - 2].text == ":")
        {
            if let Some((path, after)) = collect_call_path(toks, j) {
                // `fs::rename(…)` and friends: a path call whose final
                // segment is `rename` is a durability event too.
                if path.last().is_some_and(|s| s == "rename") {
                    item.fs_events.push(FsEvent {
                        kind: FsEventKind::Rename,
                        line: t.line,
                        seq: j as u32,
                    });
                }
                calls.push(CallSite {
                    path,
                    is_method: false,
                    line: t.line,
                    seq: j as u32,
                    under_locks: Vec::new(),
                });
                j = after;
                continue;
            }
        }
        j += 1;
    }

    // Liveness: a guard covers tokens strictly after its acquisition up
    // to (and including) its live end.
    let held_at = |seq: u32| -> Vec<usize> {
        locks
            .iter()
            .enumerate()
            .filter(|(_, (l, end))| l.seq < seq && seq as usize <= *end)
            .map(|(li, _)| li)
            .collect()
    };
    for call in calls.iter_mut() {
        call.under_locks = held_at(call.seq);
    }
    let nested: Vec<Vec<usize>> = locks.iter().map(|(l, _)| held_at(l.seq)).collect();
    for ((lock, _), held) in locks.iter_mut().zip(nested) {
        lock.under_locks = held;
    }
    item.calls = calls;
    item.locks = locks.into_iter().map(|(l, _)| l).collect();
}

/// `Ordering::X` literals inside the argument group opening at `open`.
fn ordering_literals(toks: &[Token], open: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    for k in open..toks.len() {
        match toks[k].text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            o if toks[k].kind == TokenKind::Ident
                && ORDERINGS.contains(&o)
                && k >= 2
                && toks[k - 1].text == ":"
                && toks[k - 2].text == ":" =>
            {
                out.push(o.to_string());
            }
            _ => {}
        }
    }
    out
}

/// Collects the path of a potential call starting at ident `j`.
/// Returns `(segments, index past the opening paren)` when the path is
/// followed by `(`, handling `::` chains, one turbofish, and rejecting
/// macro invocations (`name!`).
fn collect_call_path(toks: &[Token], j: usize) -> Option<(Vec<String>, usize)> {
    let mut segs = vec![toks[j].text.clone()];
    let mut k = j;
    loop {
        // `:: ident` continues the path.
        if toks.get(k + 1).is_some_and(|t| t.text == ":")
            && toks.get(k + 2).is_some_and(|t| t.text == ":")
            && toks.get(k + 3).is_some_and(|t| t.kind == TokenKind::Ident)
        {
            segs.push(toks[k + 3].text.clone());
            k += 3;
            continue;
        }
        break;
    }
    let mut after = k + 1;
    // Turbofish: `:: < … >` between path and arguments.
    if toks.get(after).is_some_and(|t| t.text == ":")
        && toks.get(after + 1).is_some_and(|t| t.text == ":")
        && toks.get(after + 2).is_some_and(|t| t.text == "<")
    {
        let mut depth = 0i32;
        let mut m = after + 2;
        while m < toks.len() {
            match toks[m].text.as_str() {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            m += 1;
        }
        after = m + 1;
    }
    if toks.get(after).is_some_and(|t| t.text == "!") {
        return None; // macro invocation
    }
    if toks.get(after).is_some_and(|t| t.text == "(") {
        return Some((segs, after + 1));
    }
    None
}

/// Walks the receiver expression backwards from the `.` at `dot`,
/// producing the ident chain (`["self", "shards"]`;
/// `["self", "shard_of()"]` for a call-returning receiver). Bracket and
/// paren groups are skipped; a call becomes `name()`.
fn receiver_chain(toks: &[Token], dot: usize) -> Vec<String> {
    let mut chain: Vec<String> = Vec::new();
    let mut k = dot as isize - 1;
    while k >= 0 {
        let t = &toks[k as usize];
        if t.text == "]" {
            // Index group: skip it and keep walking the same chain
            // element (`self.shards[i]` → `self.shards`).
            k = skip_group_back(toks, k, "[", "]");
            continue;
        }
        if t.text == ")" {
            // Call-returning receiver: the ident before the arg list
            // names the call (`self.shard_of(k)` → `shard_of()`).
            k = skip_group_back(toks, k, "(", ")");
            if k >= 0 && toks[k as usize].kind == TokenKind::Ident {
                chain.push(format!("{}()", toks[k as usize].text));
                k -= 1;
            } else {
                break; // parenthesised expression — give up
            }
        } else if t.kind == TokenKind::Ident {
            chain.push(t.text.clone());
            k -= 1;
        } else {
            break;
        }
        // A `.` continues the chain leftwards; anything else ends it.
        if k >= 0 && toks[k as usize].text == "." {
            k -= 1;
        } else {
            break;
        }
    }
    chain.reverse();
    chain
}

/// Index just before the `open` matching the `close` at `close_at`.
fn skip_group_back(toks: &[Token], close_at: isize, open: &str, close: &str) -> isize {
    let mut depth = 0i32;
    let mut k = close_at;
    while k >= 0 {
        let s = &toks[k as usize].text;
        if s == close {
            depth += 1;
        } else if s == open {
            depth -= 1;
            if depth == 0 {
                return k - 1;
            }
        }
        k -= 1;
    }
    -1
}

/// Identity of the receiver a lock or atomic method is called on.
/// `self`-rooted receivers are named by the *final field segment* only
/// (`self.field`) so the same lock reached through different projections
/// aliases correctly — `self.graph` inside the owning type and
/// `self.shared.graph` from its wrapper are one lock, and splitting them
/// would hide a cycle. This over-aliases two same-named fields on
/// different types in one crate (the safe direction for deadlock
/// detection: a false cycle is reviewable, a missed one is not). Anything
/// not `self`-rooted is scoped to the function (`fn.var`) so unrelated
/// locals never alias.
fn receiver_identity(fn_name: &str, receiver: &[String]) -> String {
    match receiver {
        [first, .., field] if first == "self" => format!("self.{field}"),
        [] => format!("{fn_name}.<expr>"),
        _ => format!("{fn_name}.{}", receiver.join(".")),
    }
}

/// The guard acquired at token `j`: the token index of the `let` name
/// holding it (`None` for a temporary) and where it dies — `drop(name)`
/// or the end of the enclosing block for `let`-bound guards, end of
/// statement for temporaries (an inclusive token index).
fn guard_scope(toks: &[Token], j: usize, body_close: usize) -> (Option<usize>, usize) {
    // `let x = m.lock().something();` — the guard is a *temporary*
    // consumed by the chained call; only the call's result is bound, so
    // the lock is released at the semicolon. (`unwrap`/`expect` and the
    // poison-recovery `unwrap_or_else` pass the guard through and keep
    // let-binding semantics.)
    let chained_away = toks.get(j + 3).is_some_and(|t| t.text == ".")
        && toks.get(j + 4).is_some_and(|t| {
            t.kind == TokenKind::Ident
                && !matches!(t.text.as_str(), "unwrap" | "expect" | "unwrap_or_else")
        });
    let binding = if chained_away {
        None
    } else {
        enclosing_let(toks, j)
    };
    let Some((name_idx, stmt_end)) = binding else {
        // Temporary guard: lives to the end of the statement.
        let depth = toks[j].brace_depth;
        let end = (j + 1..body_close)
            .find(|&k| toks[k].text == ";" && toks[k].brace_depth <= depth)
            .unwrap_or(body_close);
        return (None, end);
    };
    let name = &toks[name_idx].text;
    let let_depth = toks[stmt_end].brace_depth;
    let end = (stmt_end + 1..body_close)
        .find(|&k| {
            // The first `}` at the let's own depth closes the guard's
            // block (inner blocks sit at depth+1, so they never match).
            (toks[k].text == "}" && toks[k].brace_depth == let_depth)
                || (toks[k].text == "drop"
                    && toks.get(k + 1).is_some_and(|t| t.text == "(")
                    && toks.get(k + 2).is_some_and(|t| &t.text == name)
                    && toks.get(k + 3).is_some_and(|t| t.text == ")"))
        })
        .unwrap_or(body_close);
    (Some(name_idx), end)
}

/// If the expression containing token `i` is bound by a simple
/// `let [mut] name = …;`, returns `(name index, ';' index)`.
fn enclosing_let(toks: &[Token], i: usize) -> Option<(usize, usize)> {
    let depth = toks[i].brace_depth;
    let mut j = i;
    loop {
        if j == 0 {
            return None;
        }
        j -= 1;
        let t = &toks[j];
        if t.brace_depth < depth || t.text == ";" || t.text == "{" {
            return None;
        }
        if t.kind == TokenKind::Ident && t.text == "let" {
            break;
        }
    }
    let mut k = j + 1;
    if toks.get(k).is_some_and(|t| t.text == "mut") {
        k += 1;
    }
    if toks.get(k).map(|t| t.kind) != Some(TokenKind::Ident) {
        return None;
    }
    if toks.get(k + 1).is_none_or(|t| t.text != "=") {
        return None;
    }
    let mut e = i;
    while e < toks.len() {
        if toks[e].brace_depth < depth {
            return None;
        }
        if toks[e].text == ";" && toks[e].brace_depth == depth {
            return Some((k, e));
        }
        e += 1;
    }
    None
}

/// Collects `use` declarations. Handles paths, nested trees one level
/// deep (`use a::{b, c::d, e as f}`), renames, and `pub use`
/// re-exports. Glob imports are recorded with leaf `*`.
fn collect_uses(toks: &[Token], crate_name: &str) -> Vec<UseItem> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !(toks[i].kind == TokenKind::Ident && toks[i].text == "use") {
            i += 1;
            continue;
        }
        let is_reexport = i >= 1 && toks[i - 1].text == "pub";
        // Collect the declaration's tokens to its `;`.
        let mut j = i + 1;
        let start = j;
        while j < toks.len() && toks[j].text != ";" {
            j += 1;
        }
        let decl = &toks[start..j];
        i = j + 1;

        // Source crate: first path segment.
        let Some(first) = decl.first() else { continue };
        let is_local = matches!(first.text.as_str(), "crate" | "self" | "super");
        let src_crate = if first.text.starts_with("xfraud") {
            first.text.clone()
        } else if is_local {
            crate_name.to_string()
        } else {
            continue; // std / shim dependency — irrelevant to the graphs
        };
        let use_item = |leaf: &str, original: &str| UseItem {
            leaf: leaf.to_string(),
            original: original.to_string(),
            crate_name: src_crate.clone(),
            is_reexport,
            is_local,
        };

        // Walk the declaration: an ident is a *leaf* unless followed by
        // `::`; `x as y` renames; `*` is a glob.
        let mut k = 0usize;
        while k < decl.len() {
            let t = &decl[k];
            let followed_by_path = decl.get(k + 1).is_some_and(|n| n.text == ":")
                && decl.get(k + 2).is_some_and(|n| n.text == ":");
            if t.text == "*" {
                out.push(use_item("*", "*"));
                k += 1;
                continue;
            }
            if t.kind == TokenKind::Ident && t.text != "as" && !followed_by_path {
                if decl.get(k + 1).is_some_and(|n| n.text == "as")
                    && decl.get(k + 2).map(|n| n.kind) == Some(TokenKind::Ident)
                {
                    out.push(use_item(&decl[k + 2].text, &t.text));
                    k += 3;
                    continue;
                }
                // Skip the path-head crate ident itself (`use xfraud_gnn;`
                // still records it as a leaf so bare-crate calls resolve).
                out.push(use_item(&t.text, &t.text));
            }
            k += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn parse(src: &str) -> ParsedFile {
        SourceFile::from_source(Path::new("crates/demo/src/lib.rs"), src).parsed
    }

    #[test]
    fn fns_and_visibility_are_extracted() {
        let p = parse(
            r#"
            pub fn api() { helper(); }
            pub(crate) fn internal() {}
            fn helper() {}
            impl Engine {
                pub fn score(&self) { self.run(); }
                fn run(&self) {}
            }
            "#,
        );
        let names: Vec<_> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["api", "internal", "helper", "score", "run"]);
        assert!(p.fns[0].is_pub);
        assert!(!p.fns[1].is_pub, "pub(crate) is not API surface");
        assert!(!p.fns[2].is_pub);
        assert_eq!(p.fns[3].impl_type.as_deref(), Some("Engine"));
        assert!(p.fns[3].is_pub);
    }

    #[test]
    fn trait_impls_attribute_methods_to_the_self_type() {
        let p = parse(
            r#"
            impl<'a> Sampler for SageSampler<'a> {
                fn sample(&self) { self.walk(); }
            }
            "#,
        );
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("SageSampler"));
    }

    #[test]
    fn calls_are_collected_with_paths() {
        let p = parse(
            r#"
            fn f() {
                helper();
                xfraud_gnn::predict_scores(x);
                Self::assoc(y);
                obj.method_call(z);
                not_a_macro!();
                let v = vec![1];
            }
            "#,
        );
        let calls: Vec<Vec<String>> = p.fns[0].calls.iter().map(|c| c.path.clone()).collect();
        assert!(calls.contains(&vec!["helper".to_string()]));
        assert!(calls.contains(&vec![
            "xfraud_gnn".to_string(),
            "predict_scores".to_string()
        ]));
        assert!(calls.contains(&vec!["Self".to_string(), "assoc".to_string()]));
        assert!(calls.contains(&vec!["method_call".to_string()]));
        assert!(
            !calls.iter().any(|c| c.concat().contains("not_a_macro")),
            "macros are not calls"
        );
    }

    #[test]
    fn nested_fn_calls_attribute_once() {
        let p = parse("fn outer() { fn inner() { leaf(); } inner(); }");
        // `leaf` and `inner` both attribute to `outer` (the nested fn is
        // folded into its parent); no duplicate item exists.
        assert_eq!(p.fns.len(), 1);
        let calls: Vec<String> = p.fns[0].calls.iter().map(|c| c.path.concat()).collect();
        assert_eq!(
            calls.iter().filter(|c| c.as_str() == "leaf").count(),
            1,
            "{calls:?}"
        );
    }

    #[test]
    fn lock_sites_get_canonical_identities_and_nesting() {
        let p = parse(
            r#"
            impl Engine {
                fn swap(&self) {
                    let g = self.graph.write();
                    let d = self.detector.lock();
                    use_both(g, d);
                }
                fn shard(&self, k: usize) {
                    self.shard_of(k).lock().insert(k);
                }
            }
            "#,
        );
        let swap = &p.fns[0];
        assert_eq!(swap.locks.len(), 2);
        assert_eq!(swap.locks[0].id, "xfraud_demo::self.graph");
        assert_eq!(swap.locks[1].id, "xfraud_demo::self.detector");
        assert_eq!(
            swap.locks[1].under_locks,
            vec![0],
            "detector acquired under graph"
        );
        let shard = &p.fns[1];
        assert_eq!(shard.locks[0].id, "xfraud_demo::self.shard_of()");
    }

    #[test]
    fn guard_liveness_covers_calls_until_drop() {
        let p = parse(
            r#"
            fn f(m: &Mutex<u32>) {
                let g = m.lock();
                under_guard();
                drop(g);
                after_guard();
            }
            "#,
        );
        let f = &p.fns[0];
        let under = f.calls.iter().find(|c| c.path[0] == "under_guard").unwrap();
        let after = f.calls.iter().find(|c| c.path[0] == "after_guard").unwrap();
        assert_eq!(under.under_locks, vec![0]);
        assert!(after.under_locks.is_empty());
    }

    #[test]
    fn uses_track_renames_and_reexports() {
        let p = parse(
            "use xfraud_gnn::{predict_scores, Sampler as S};\n\
             pub use xfraud_entropy::now_ms;\n\
             use std::fmt;\n",
        );
        assert!(p
            .uses
            .iter()
            .any(|u| u.leaf == "S" && u.original == "Sampler" && u.crate_name == "xfraud_gnn"));
        let re = p.uses.iter().find(|u| u.leaf == "now_ms").unwrap();
        assert!(re.is_reexport);
        assert_eq!(re.crate_name, "xfraud_entropy");
        assert!(!p.uses.iter().any(|u| u.crate_name == "std"));
    }

    #[test]
    fn fs_events_share_the_call_timeline() {
        let p = parse(
            r#"
            fn persist(&self) {
                let mut f = File::create(&tmp)?;
                f.write_all(image)?;
                f.sync_all()?;
                fs::rename(&tmp, &path)?;
            }
            fn publish_unsynced(&self) {
                fs::rename(&tmp, &path)?;
            }
            "#,
        );
        let persist = &p.fns[0];
        assert_eq!(persist.fs_events.len(), 2, "{:#?}", persist.fs_events);
        assert_eq!(persist.fs_events[0].kind, FsEventKind::Sync);
        assert_eq!(persist.fs_events[1].kind, FsEventKind::Rename);
        assert!(
            persist.fs_events[0].seq < persist.fs_events[1].seq,
            "sync orders before the rename"
        );
        // The rename is also a call site, at the same token position.
        let rename_call = persist
            .calls
            .iter()
            .find(|c| c.path.last().is_some_and(|s| s == "rename"))
            .expect("fs::rename appears as a call");
        assert_eq!(rename_call.seq, persist.fs_events[1].seq);
        let bare = &p.fns[1];
        assert_eq!(bare.fs_events.len(), 1);
        assert_eq!(bare.fs_events[0].kind, FsEventKind::Rename);
    }

    #[test]
    fn test_gated_fns_are_marked() {
        let p =
            parse("#[cfg(test)]\nmod t { fn helper() {} }\n#[test]\nfn a_test() {}\nfn lib() {}");
        let helper = p.fns.iter().find(|f| f.name == "helper").unwrap();
        let a_test = p.fns.iter().find(|f| f.name == "a_test").unwrap();
        let lib = p.fns.iter().find(|f| f.name == "lib").unwrap();
        assert!(helper.is_test);
        assert!(a_test.is_test);
        assert!(!lib.is_test);
    }
}
