//! The rule engine: five project invariants, each with a
//! `// lint:allow(<rule>)` escape hatch (same line or the line above).
//!
//! | rule                   | invariant                                              |
//! |------------------------|--------------------------------------------------------|
//! | `guard-across-io`      | no lock guard live across a socket/client call         |
//! | `checkout-pairing`     | every pool checkout reaches checkin/discard on all paths|
//! | `opcode-coverage`      | every wire opcode has a handler arm                    |
//! | `metric-name-registry` | metric names come from `pangea_obs::names`, not literals|
//! | `no-unwrap-in-daemon`  | no `unwrap`/`expect` in daemon request-handling paths   |
//!
//! Everything here is heuristic token-pattern matching — sound enough
//! to have zero false positives on the tree (anything intentional is
//! annotated), sharp enough to catch each rule's shipped-bug class
//! (see DESIGN.md §2j for the history).

use crate::lexer::{matching_close, Tok, TokKind};
use crate::LintedFile;

/// One diagnostic: a rule violation at `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub msg: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// Every rule name, in report order.
pub const RULE_NAMES: &[&str] = &[
    "guard-across-io",
    "checkout-pairing",
    "opcode-coverage",
    "metric-name-registry",
    "no-unwrap-in-daemon",
];

/// True when `f` carries a `lint:allow(rule)` on `line` or the line
/// directly above it.
fn allowed(f: &LintedFile, line: u32, rule: &str) -> bool {
    f.allows
        .iter()
        .any(|(l, r)| r == rule && (*l == line || *l + 1 == line))
}

fn push(f: &LintedFile, line: u32, rule: &'static str, msg: String, out: &mut Vec<Diagnostic>) {
    if !allowed(f, line, rule) {
        out.push(Diagnostic {
            file: f.rel.clone(),
            line,
            rule,
            msg,
        });
    }
}

// ---------------------------------------------------------------------
// shared token helpers
// ---------------------------------------------------------------------

/// Methods whose *final* call produces a lock guard. `read`/`write`
/// count only with empty argument lists (`io::Read::read(&mut buf)`
/// always takes one).
const LOCK_METHODS: &[&str] = &["lock", "try_lock", "upgradable_read"];
const LOCK_METHODS_EMPTY_ONLY: &[&str] = &["read", "write"];

/// Result/Option adapters that may wrap a guard-producing call without
/// changing what the binding holds.
const GUARD_WRAPPERS: &[&str] = &["unwrap", "expect", "unwrap_or_else", "ok"];

/// Method names that are IO wherever they appear: the wire client's
/// RPC surface, connection setup, and a push stream's `send` and
/// `finish_with`. Its plain `finish` is left out, as storage writers
/// share the name; it is caught through the `stream` receiver base.
const IO_METHODS: &[&str] = &[
    "call",
    "submit",
    "await_response",
    "connect",
    "connect_with",
    "connect_with_secret",
    "checkout",
    "dial",
    "ping",
    "hash_list_for_each",
    "repair_ledger_for_each",
    "scan_chunk",
    "metrics_dump",
    "metrics_dump_since",
    "trace_push",
    "ingest_append_submit",
    "ingest_append_await",
    "send",
    "finish_with",
];

/// Free functions that perform socket IO directly.
const IO_FNS: &[&str] = &["write_frame_corr", "read_frame_corr"];

/// Receiver identifiers that name an IO object: any non-benign method
/// call on these under a held guard is a violation.
const IO_BASES: &[&str] = &[
    "client",
    "peer",
    "stream",
    "sock",
    "socket",
    "transport",
    "mgr",
];

/// Local-state methods that touch no socket even on an IO-named
/// receiver.
const BENIGN_METHODS: &[&str] = &[
    "clone",
    "len",
    "is_empty",
    "as_ref",
    "as_mut",
    "as_str",
    "to_string",
    "to_owned",
    "is_some",
    "is_none",
    "take",
    "set_trace",
    "pipelined",
    "local_addr",
    "shutdown",
];

/// Is `toks[i]` an identifier immediately followed by `(`?
fn is_call(toks: &[Tok], i: usize) -> bool {
    toks[i].ident().is_some() && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
}

/// For a method call at `i` (ident followed by `(`), the chain of
/// receiver identifiers walking backwards over `.`-separated segments:
/// `self.a.b.call(...)` at `call` yields `["self", "a", "b"]` (base
/// first). Stops at anything that is not `ident .`; a call or index in
/// the chain yields a shorter (possibly empty) chain.
fn receiver_chain(toks: &[Tok], i: usize) -> Vec<String> {
    let mut chain = Vec::new();
    let mut j = i;
    loop {
        if j == 0 || !toks[j - 1].is_punct('.') {
            break;
        }
        let Some(prev) = j.checked_sub(2) else { break };
        match toks[prev].ident() {
            Some(seg) => {
                chain.push(seg.to_string());
                j = prev;
            }
            None => break,
        }
    }
    chain.reverse();
    chain
}

/// Classifies the call at `i` as IO under the rule's definition,
/// returning a human-readable description when it is. Calls whose
/// receiver chain is rooted at one of `exempt` (the guard itself — the
/// lock *owns* the IO object, serialization is the point) are not IO.
fn io_call(toks: &[Tok], i: usize, exempt: &[String]) -> Option<String> {
    if !is_call(toks, i) {
        return None;
    }
    let name = toks[i].ident().unwrap_or_default();
    let method = i > 0 && toks[i - 1].is_punct('.');
    if method {
        let chain = receiver_chain(toks, i);
        if chain
            .first()
            .is_some_and(|base| exempt.iter().any(|g| g == base))
        {
            return None;
        }
        if IO_METHODS.contains(&name) {
            return Some(match chain.last() {
                Some(recv) => format!("{recv}.{name}(...)"),
                None => format!(".{name}(...)"),
            });
        }
        if let Some(recv) = chain.last() {
            if IO_BASES.contains(&recv.as_str()) && !BENIGN_METHODS.contains(&name) {
                return Some(format!("{recv}.{name}(...)"));
            }
        }
        None
    } else {
        if !IO_FNS.contains(&name) {
            return None;
        }
        // Function-form IO (`write_frame_corr(&mut *w, ...)`): exempt when
        // the guard itself is an argument — the guard IS the writer.
        let close = matching_close(toks, i + 1);
        let args_have_exempt = toks[i + 1..close]
            .iter()
            .any(|t| t.ident().is_some_and(|id| exempt.iter().any(|g| g == id)));
        if args_have_exempt {
            None
        } else {
            Some(format!("{name}(...)"))
        }
    }
}

/// Does the token range contain a guard-producing method call?
/// (Used on `if let`/`while let`/`match` scrutinees, where *any*
/// intermediate guard temporary lives for the whole body.)
fn range_acquires_lock(toks: &[Tok]) -> Option<&str> {
    for i in 0..toks.len() {
        if i == 0 || !toks[i - 1].is_punct('.') {
            continue;
        }
        if !is_call(toks, i) {
            continue;
        }
        let name = toks[i].ident().unwrap_or_default();
        let empty = toks.get(i + 2).is_some_and(|t| t.is_punct(')'));
        if LOCK_METHODS.contains(&name) || (LOCK_METHODS_EMPTY_ONLY.contains(&name) && empty) {
            return toks[i].ident();
        }
    }
    None
}

/// The final call of an expression's token slice, unwrapping trailing
/// `?` and Result/Option adapters: for `self.m.lock().unwrap()` this is
/// `("lock", true)`. Returns `(name, has_empty_args)`.
fn final_call(mut toks: &[Tok]) -> Option<(String, bool)> {
    loop {
        while toks.last().is_some_and(|t| t.is_punct('?')) {
            toks = &toks[..toks.len() - 1];
        }
        if !toks.last().is_some_and(|t| t.is_punct(')')) {
            return None;
        }
        // Find the `(` matching the trailing `)`.
        let mut depth = 0i32;
        let mut open = None;
        for (j, t) in toks.iter().enumerate().rev() {
            if t.is_punct(')') {
                depth += 1;
            } else if t.is_punct('(') {
                depth -= 1;
                if depth == 0 {
                    open = Some(j);
                    break;
                }
            }
        }
        let open = open?;
        let name_idx = open.checked_sub(1)?;
        let name = toks[name_idx].ident()?.to_string();
        if GUARD_WRAPPERS.contains(&name.as_str()) {
            // Strip `.unwrap()` and retry on what precedes it.
            let cut = name_idx.checked_sub(1)?; // the `.`
            if !toks[cut].is_punct('.') {
                return None;
            }
            toks = &toks[..cut];
            continue;
        }
        let empty = open + 1 == toks.len() - 1;
        return Some((name, empty));
    }
}

fn is_guard_final_call(toks: &[Tok]) -> bool {
    match final_call(toks) {
        Some((name, empty)) => {
            LOCK_METHODS.contains(&name.as_str())
                || (LOCK_METHODS_EMPTY_ONLY.contains(&name.as_str()) && empty)
        }
        None => false,
    }
}

/// Statement end: first `;` at relative bracket depth 0 from `start`.
fn stmt_end(toks: &[Tok], start: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(start) {
        match &t.kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                depth -= 1;
                if depth < 0 {
                    return j;
                }
            }
            TokKind::Punct(';') if depth == 0 => return j,
            _ => {}
        }
    }
    toks.len()
}

/// End (exclusive) of the block enclosing `i`: the `}` that first
/// brings brace depth below the level at `i`.
fn enclosing_block_end(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(i) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return j;
            }
        }
    }
    toks.len()
}

/// End of the `fn` item enclosing `i`, or `toks.len()`. Closures don't
/// count — only `fn` items delimit pairing scopes.
fn enclosing_fn_end(toks: &[Tok], i: usize) -> usize {
    // Walk every fn item; keep the innermost one whose body spans `i`.
    let mut best = toks.len();
    let mut j = 0usize;
    while j < toks.len() {
        if toks[j].ident() == Some("fn") {
            // Find the body's `{` (skipping the signature; generics use
            // `<>`, which never contains braces).
            let mut k = j + 1;
            let mut pdepth = 0i32;
            while k < toks.len() {
                match &toks[k].kind {
                    TokKind::Punct('(') | TokKind::Punct('[') => pdepth += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') => pdepth -= 1,
                    TokKind::Punct('{') if pdepth == 0 => break,
                    TokKind::Punct(';') if pdepth == 0 => break, // trait fn, no body
                    _ => {}
                }
                k += 1;
            }
            if k < toks.len() && toks[k].is_punct('{') {
                let close = matching_close(toks, k);
                if (k..=close).contains(&i) {
                    best = close; // innermost wins: later fns that still span i are nested
                }
                j = k + 1;
                continue;
            }
        }
        j += 1;
    }
    best
}

/// Identifiers bound by the pattern between `let` and `=`, minus
/// keywords.
fn pattern_names(toks: &[Tok]) -> Vec<String> {
    toks.iter()
        .filter_map(Tok::ident)
        .filter(|id| !matches!(*id, "mut" | "ref" | "let" | "Some" | "Ok" | "Err" | "box"))
        .map(str::to_string)
        .collect()
}

// ---------------------------------------------------------------------
// rule: guard-across-io
// ---------------------------------------------------------------------

fn in_scope_src(rel: &str) -> bool {
    rel.starts_with("crates/")
        && rel.contains("/src/")
        && !rel.starts_with("crates/shims/")
        && !rel.starts_with("crates/lint/")
}

/// A `lock()`/`read()`/`write()` guard binding live across a
/// socket/client call — the PR 3 bug class (a recovery hook invoked
/// under an `if let`-held mutex serialized "parallel" repairs).
pub fn guard_across_io(f: &LintedFile, out: &mut Vec<Diagnostic>) {
    if !in_scope_src(&f.rel) {
        return;
    }
    let toks = &f.toks;
    let mut i = 0usize;
    while i < toks.len() {
        if f.in_test[i] {
            i += 1;
            continue;
        }
        // -- form 1: `let g = <...>.lock();` — guard lives to block end.
        if toks[i].ident() == Some("let")
            && (i == 0 || toks[i - 1].ident() != Some("while") && toks[i - 1].ident() != Some("if"))
        {
            let end = stmt_end(toks, i);
            if let Some(eq) = find_binding_eq(toks, i, end) {
                // `let ... else { }` drops its scrutinee temporaries at
                // statement end, same as a plain let.
                let rhs_end = toks[eq + 1..end]
                    .iter()
                    .position(|t| t.ident() == Some("else"))
                    .map(|p| eq + 1 + p)
                    .unwrap_or(end);
                // A leading `*` copies the value *out* of the guard
                // (`let n = *m.lock();`): the guard is a temporary
                // dropped at the `;`, nothing stays live.
                let derefs_out = toks.get(eq + 1).is_some_and(|t| t.is_punct('*'));
                if !derefs_out && is_guard_final_call(&toks[eq + 1..rhs_end]) {
                    let guards = pattern_names(&toks[i + 1..eq]);
                    if !guards.is_empty() {
                        scan_live_range(f, toks, end, &guards, toks[i].line, out);
                    }
                }
            }
            i = end + 1;
            continue;
        }
        // -- form 2: `if let`/`while let`/`match` whose scrutinee
        // acquires a lock — the guard temporary lives for the whole
        // body (Rust extends scrutinee temporaries to the full
        // expression), exactly the PR 3 shape.
        let (scrut_start, head_line) = match toks[i].ident() {
            Some("match") => (i + 1, toks[i].line),
            Some("if") | Some("while") if toks.get(i + 1).and_then(Tok::ident) == Some("let") => {
                match find_binding_eq(toks, i + 1, toks.len()) {
                    Some(eq) => (eq + 1, toks[i].line),
                    None => {
                        i += 1;
                        continue;
                    }
                }
            }
            _ => {
                i += 1;
                continue;
            }
        };
        let Some(body_open) = scrutinee_body_open(toks, scrut_start) else {
            i += 1;
            continue;
        };
        if let Some(m) = range_acquires_lock(&toks[scrut_start..body_open]) {
            let body_close = matching_close(toks, body_open);
            let mut hits = Vec::new();
            for j in body_open..body_close.min(toks.len()) {
                if let Some(desc) = io_call(toks, j, &[]) {
                    hits.push((toks[j].line, desc));
                }
            }
            if let Some((io_line, desc)) = hits.first() {
                push(
                    f,
                    head_line,
                    "guard-across-io",
                    format!(
                        "`{m}()` guard in this scrutinee is held for the whole body \
                         (scrutinee temporaries live to the end of the expression), \
                         which performs IO: {desc} at line {io_line}; \
                         bind the guard, extract what you need, drop it before the IO"
                    ),
                    out,
                );
            }
            i = body_close.min(toks.len() - 1) + 1;
            continue;
        }
        i += 1;
    }
}

/// The `=` of a let binding starting at `let_idx` (skipping `==`, type
/// annotations with defaults can't appear in let patterns).
fn find_binding_eq(toks: &[Tok], let_idx: usize, end: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = let_idx + 1;
    while j < end.min(toks.len()) {
        match &toks[j].kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('<') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('>') => depth -= 1,
            TokKind::Punct('=') if depth <= 0 => {
                // `==` can't start a binding initializer; `=` followed
                // by `=` is comparison (can't appear before the first
                // `=` of a let anyway).
                if toks.get(j + 1).is_some_and(|t| t.is_punct('=')) {
                    j += 2;
                    continue;
                }
                return Some(j);
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// First `{` at relative bracket depth 0 after a scrutinee start.
fn scrutinee_body_open(toks: &[Tok], start: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(start) {
        match &t.kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
            TokKind::Punct('{') if depth == 0 => return Some(j),
            TokKind::Punct(';') if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

/// Scans a named guard's live range (statement end → enclosing block
/// end, cut short by `drop(guard)`) for IO calls.
fn scan_live_range(
    f: &LintedFile,
    toks: &[Tok],
    from: usize,
    guards: &[String],
    bind_line: u32,
    out: &mut Vec<Diagnostic>,
) {
    let block_end = enclosing_block_end(toks, from);
    let mut j = from;
    while j < block_end.min(toks.len()) {
        // `drop(g)` / `mem::drop(g)` ends the guard's life.
        if toks[j].ident() == Some("drop")
            && toks.get(j + 1).is_some_and(|t| t.is_punct('('))
            && toks
                .get(j + 2)
                .and_then(Tok::ident)
                .is_some_and(|id| guards.iter().any(|g| g == id))
            && toks.get(j + 3).is_some_and(|t| t.is_punct(')'))
        {
            return;
        }
        if let Some(desc) = io_call(toks, j, guards) {
            push(
                f,
                bind_line,
                "guard-across-io",
                format!(
                    "guard `{}` (bound here) is still live across IO: {desc} at line {}; \
                     drop the guard (or clone what you need out of it) before the call",
                    guards.join("/"),
                    toks[j].line
                ),
                out,
            );
            return; // one diagnostic per binding is enough
        }
        j += 1;
    }
}

// ---------------------------------------------------------------------
// rule: checkout-pairing
// ---------------------------------------------------------------------

/// Every pooled connection checked out (`ClientPool::checkout`) must
/// reach `checkin` or `discard` on all paths: a failed `RecoverPush`
/// once stranded its checked-out peer connection this way. A checkout the function returns (its binding appears in
/// the function's tail expression) hands the obligation to the value
/// that owns it, as a load sink holds its stream.
pub fn checkout_pairing(f: &LintedFile, out: &mut Vec<Diagnostic>) {
    if !in_scope_src(&f.rel) {
        return;
    }
    let toks = &f.toks;
    for i in 0..toks.len() {
        if f.in_test[i] || toks[i].ident() != Some("checkout") || !is_call(toks, i) {
            continue;
        }
        // Skip the definition itself (`fn checkout(...)`).
        if i > 0 && toks[i - 1].ident() == Some("fn") {
            continue;
        }
        let line = toks[i].line;
        // The checkout must be let-bound (a bare `pool.checkout(a)?;`
        // leaks the connection immediately).
        let let_idx = (0..i).rev().find(|&j| {
            toks[j].ident() == Some("let")
                || toks[j].is_punct(';')
                || toks[j].is_punct('{')
                || toks[j].is_punct('}')
        });
        let binding = match let_idx {
            Some(j) if toks[j].ident() == Some("let") => {
                let name = match toks[j + 1].ident() {
                    Some("mut") => toks[j + 2].ident(),
                    other => other,
                };
                name.unwrap_or_default()
            }
            _ => {
                push(
                    f,
                    line,
                    "checkout-pairing",
                    "checkout result must be let-bound so it can reach checkin or discard"
                        .to_string(),
                    out,
                );
                continue;
            }
        };
        let after = stmt_end(toks, i) + 1;
        let fn_end = enclosing_fn_end(toks, i).min(toks.len());
        let tail = tail_start(toks, fn_end);
        // Scan to the first consumption; any `?`/`return` before it can
        // exit the function with the connection neither checked in nor
        // discarded.
        let mut consumed = false;
        for (j, tok) in toks.iter().enumerate().take(fn_end).skip(after) {
            match tok.ident() {
                Some("checkin") | Some("discard") => {
                    consumed = true;
                    break;
                }
                Some(name) if j >= tail && name == binding => {
                    consumed = true; // handed to the caller
                    break;
                }
                Some("return") => {
                    push(
                        f,
                        line,
                        "checkout-pairing",
                        format!(
                            "`return` at line {} exits before this checkout reaches \
                             checkin/discard",
                            tok.line
                        ),
                        out,
                    );
                    consumed = true; // one diagnostic per checkout
                    break;
                }
                _ => {}
            }
            if tok.is_punct('?') {
                push(
                    f,
                    line,
                    "checkout-pairing",
                    format!(
                        "`?` at line {} can exit before this checkout reaches \
                         checkin/discard",
                        tok.line
                    ),
                    out,
                );
                consumed = true;
                break;
            }
        }
        if !consumed {
            push(
                f,
                line,
                "checkout-pairing",
                "checkout never reaches checkin/discard in this function".to_string(),
                out,
            );
        }
    }
}

/// Start of the tail expression of the fn body closing at `fn_end`:
/// the token after its last top-level `;` (or after its opening `{`).
fn tail_start(toks: &[Tok], fn_end: usize) -> usize {
    let mut depth = 0i32;
    for j in (0..fn_end).rev() {
        match &toks[j].kind {
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth += 1,
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => {
                if depth == 0 {
                    return j + 1;
                }
                depth -= 1;
            }
            TokKind::Punct(';') if depth == 0 => return j + 1,
            _ => {}
        }
    }
    0
}

// ---------------------------------------------------------------------
// rule: metric-name-registry
// ---------------------------------------------------------------------

/// Metric names are join keys (scrape store, `top`, bench diff all
/// match on them); literals drift, constants can't. Names live in
/// `pangea_obs::names`.
pub fn metric_name_registry(f: &LintedFile, out: &mut Vec<Diagnostic>) {
    if !in_scope_src(&f.rel) || f.rel == "crates/obs/src/names.rs" {
        return;
    }
    let toks = &f.toks;
    for i in 0..toks.len() {
        if f.in_test[i] {
            continue;
        }
        let name = match toks[i].ident() {
            Some(n @ ("counter" | "gauge" | "histogram")) => n,
            _ => continue,
        };
        // Method-call position only: `reg.counter(...)`.
        if i == 0 || !toks[i - 1].is_punct('.') || !toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            continue;
        }
        let bad = match toks.get(i + 2).map(|t| &t.kind) {
            Some(TokKind::Str(s)) => Some(format!("\"{s}\"")),
            Some(TokKind::Punct('&'))
                if toks.get(i + 3).and_then(Tok::ident) == Some("format")
                    && toks.get(i + 4).is_some_and(|t| t.is_punct('!')) =>
            {
                Some("&format!(...)".to_string())
            }
            _ => None,
        };
        if let Some(what) = bad {
            push(
                f,
                toks[i].line,
                "metric-name-registry",
                format!(
                    "`{name}({what})` uses a raw metric name; use a constant or \
                     helper from `pangea_obs::names` so scrape/top/bench can't drift"
                ),
                out,
            );
        }
    }
}

// ---------------------------------------------------------------------
// rule: no-unwrap-in-daemon
// ---------------------------------------------------------------------

/// Daemon request paths must degrade to typed errors, not panics: a
/// panicking connection thread takes its whole connection (and any
/// pipelined requests) with it.
const DAEMON_PATHS: &[&str] = &[
    "crates/net/src/framed.rs",
    "crates/net/src/server.rs",
    "crates/net/src/session.rs",
    "crates/coord/src/daemon.rs",
    "crates/coord/src/scrape.rs",
    "crates/coord/src/membership.rs",
    "crates/coord/src/signals.rs",
    "crates/coord/src/bin/pangead.rs",
    "crates/coord/src/bin/pangea-mgr.rs",
];

pub fn no_unwrap_in_daemon(f: &LintedFile, out: &mut Vec<Diagnostic>) {
    if !DAEMON_PATHS.contains(&f.rel.as_str()) {
        return;
    }
    let toks = &f.toks;
    for i in 0..toks.len() {
        if f.in_test[i] {
            continue;
        }
        let name = match toks[i].ident() {
            Some(n @ ("unwrap" | "expect")) => n,
            _ => continue,
        };
        if i == 0 || !toks[i - 1].is_punct('.') || !toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            continue;
        }
        push(
            f,
            toks[i].line,
            "no-unwrap-in-daemon",
            format!(
                "`.{name}()` in a daemon request path: return a typed error instead \
                 (a panic here kills the connection thread and its pipelined requests)"
            ),
            out,
        );
    }
}

// ---------------------------------------------------------------------
// rule: opcode-coverage (project-wide)
// ---------------------------------------------------------------------

/// The inputs the opcode rule joins across.
pub struct OpcodeCtx<'a> {
    /// The protocol definition (the `wire_table!` table's
    /// `pub enum Request` / `pub enum Response`).
    pub proto: &'a LintedFile,
    /// Files whose non-test code must mention `Enum::Variant` for the
    /// variant to count as handled (server dispatch + manager dispatch
    /// for requests; producers/consumers for responses).
    pub handlers: Vec<&'a LintedFile>,
}

/// Every `Request`/`Response` variant needs a handler arm — opcodes
/// can't land encodable but unhandled. (That every opcode roundtrips
/// and appears in DESIGN.md's opcode table is checked by tests in
/// `proto.rs`, against the same table.)
pub fn opcode_coverage(ctx: &OpcodeCtx<'_>, out: &mut Vec<Diagnostic>) {
    for enum_name in ["Request", "Response"] {
        for (variant, line) in enum_variants(ctx.proto, enum_name) {
            let handled = ctx
                .handlers
                .iter()
                .any(|f| mentions_variant(f, enum_name, &variant));
            if !handled && !allowed(ctx.proto, line, "opcode-coverage") {
                out.push(Diagnostic {
                    file: ctx.proto.rel.clone(),
                    line,
                    rule: "opcode-coverage",
                    msg: format!("{enum_name}::{variant} is missing a handler arm"),
                });
            }
        }
    }
}

/// `(variant, line)` pairs of `pub enum <name>`'s variants.
fn enum_variants(f: &LintedFile, name: &str) -> Vec<(String, u32)> {
    let toks = &f.toks;
    let mut found = Vec::new();
    for i in 0..toks.len() {
        if toks[i].ident() != Some("enum") || toks.get(i + 1).and_then(Tok::ident) != Some(name) {
            continue;
        }
        let Some(open) = (i..toks.len()).find(|&j| toks[j].is_punct('{')) else {
            continue;
        };
        let close = matching_close(toks, open);
        let mut j = open + 1;
        let mut expect_variant = true;
        while j < close {
            match &toks[j].kind {
                TokKind::Punct('#') if toks.get(j + 1).is_some_and(|t| t.is_punct('[')) => {
                    // Skip variant attributes.
                    let mut depth = 0i32;
                    j += 1;
                    while j < close {
                        if toks[j].is_punct('[') {
                            depth += 1;
                        } else if toks[j].is_punct(']') {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        j += 1;
                    }
                    j += 1;
                }
                TokKind::Ident(v) if expect_variant => {
                    found.push((v.clone(), toks[j].line));
                    expect_variant = false;
                    j += 1;
                    // Skip the payload `{...}` / `(...)`.
                    if j < close && (toks[j].is_punct('{') || toks[j].is_punct('(')) {
                        j = matching_close(toks, j) + 1;
                    }
                }
                TokKind::Punct(',') => {
                    expect_variant = true;
                    j += 1;
                }
                _ => j += 1,
            }
        }
        break;
    }
    found
}

/// Does `f`'s non-test code contain `enum_name :: variant`?
fn mentions_variant(f: &LintedFile, enum_name: &str, variant: &str) -> bool {
    let toks = &f.toks;
    (0..toks.len().saturating_sub(3)).any(|i| {
        !f.in_test[i]
            && toks[i].ident() == Some(enum_name)
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks[i + 3].ident() == Some(variant)
    })
}
