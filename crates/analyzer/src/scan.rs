//! The item scanner and lint passes.
//!
//! Phase A walks every file, collects `fn` items (with their impl
//! context, signature, and body extent), and builds per-function
//! summaries: does it acquire a blocking lock, does it return a
//! `MutexGuard`, does it call into the engine forward path. Phase B
//! re-walks each function body with a brace-scoped set of live lock
//! guards and emits findings, consulting the summaries for the
//! one-level interprocedural checks (nested-lock, lock-across-step).
//!
//! `#[cfg(test)]` / `#[test]` items are skipped entirely: tests take
//! locks freely on purpose.

use std::collections::{BTreeMap, BTreeSet};

use crate::directives::{self, Directive};
use crate::lexer::{self, TokKind, Token};
use crate::lints::{Finding, Lint};

/// Functions that constitute the engine forward path, including the
/// ones that drive a session to completion. A lock held across a call
/// to any of these (directly, or through a callee that calls one) is a
/// `lock-across-step` finding.
const FORWARD_FNS: &[&str] = &[
    "step",
    "finish",
    "run_to_completion",
    "into_forward_trace",
    "begin",
    "begin_degraded",
    "begin_forward",
    "forward",
    "forward_next_layer",
    "run_layers",
    "run_layers_nominal",
    "serve",
    "evaluate",
    "evaluate_with_threads",
];

/// Allocating macros (hot-path only).
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Panicking macros (hot-path only).
const PANIC_MACROS: &[&str] = &[
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];

/// Allocating methods (hot-path only). `.clone()` is included: on the
/// hot path a clone of a heap type is an allocation, and `Copy` types
/// don't need `.clone()` (`Arc::clone(&x)` is the sanctioned
/// refcount-bump spelling and is not flagged).
const ALLOC_METHODS: &[&str] = &[
    "to_vec",
    "to_string",
    "to_owned",
    "clone",
    "collect",
    "push",
    "push_str",
    "insert",
    "extend",
    "reserve",
    "append",
    "repeat",
    "into_boxed_slice",
];

/// Heap-container paths whose constructors allocate (hot-path only).
const ALLOC_PATH_TYPES: &[&str] = &[
    "Box", "Vec", "String", "Arc", "Rc", "VecDeque", "BTreeMap", "BTreeSet", "HashMap", "HashSet",
];
const ALLOC_PATH_FNS: &[&str] = &["new", "with_capacity", "from", "from_iter"];

/// Blocking free/assoc functions and methods (hot-path only). `park`
/// is deliberately absent: `InferenceSession::park` shadows
/// `std::thread::park` throughout the serving stack.
const BLOCK_FNS: &[&str] = &["sleep", "join", "recv", "recv_timeout"];

/// Condvar blocking waits. Blocking for hot-path purposes, but never a
/// nested-lock trigger: `wait` atomically releases the mutex.
const WAIT_METHODS: &[&str] = &["wait", "wait_timeout", "wait_while", "wait_timeout_while"];

/// Pattern idents that are wrappers, not bindings.
const PATTERN_NOISE: &[&str] = &["mut", "ref", "box", "Ok", "Err", "Some", "None"];

/// Names too ubiquitous for bare-name summary lookups: `Box::new`
/// colliding with some constructor that does forward work would flag
/// every allocation under a lock. Interprocedural checks skip these.
const COMMON_NAMES: &[&str] = &[
    "new",
    "default",
    "from",
    "clone",
    "get",
    "get_mut",
    "set",
    "len",
    "is_empty",
    "push",
    "insert",
    "remove",
    "with_capacity",
    "min",
    "max",
    "take",
    "iter",
];

/// Forward-path names generic enough to need a receiver gate: only a
/// `session`/`engine` receiver counts (`queue.controller.step()` is
/// the overload ladder's rung read, not the inference step;
/// `hasher.finish()` is not a sentence's last layers).
const GATED_FORWARD: &[&str] = &[
    "step",
    "finish",
    "run_to_completion",
    "into_forward_trace",
    "begin",
    "serve",
    "forward",
];
const SESSION_RECEIVERS: &[&str] = &["session", "sess", "engine", "eng"];

/// Item keywords that consume a pending `#[cfg(test)]`/`#[test]`.
const ITEM_KEYWORDS: &[&str] = &[
    "mod",
    "fn",
    "impl",
    "struct",
    "enum",
    "trait",
    "const",
    "static",
    "type",
    "union",
    "use",
    "macro_rules",
];

/// One `fn` item found in a file.
#[derive(Debug)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// `Type::name` inside an impl block, else the bare name.
    pub qual: String,
    /// Token index of the `fn` keyword.
    fn_idx: usize,
    /// Token indices of the body `{` and its matching `}`, if any.
    body: Option<(usize, usize)>,
    pub hot_path: bool,
}

/// Merged per-name function summary (phase A output). Names collide
/// across impls and files; facts are OR-merged, which errs toward
/// reporting — the `allow` escape hatch handles the rare false merge.
#[derive(Debug, Default, Clone)]
pub struct FnSummary {
    /// Directly acquires a blocking `lock()`, or calls a
    /// guard-returning function.
    pub blocking_lock: bool,
    /// Direct `.lock(` site (pre-propagation).
    direct_lock: bool,
    /// Return type mentions `MutexGuard` — a call to this function is
    /// itself a lock acquisition at the caller.
    pub returns_guard: bool,
    /// Calls into the engine forward path.
    pub forward_call: bool,
    /// Bare names of functions this one calls (for propagation).
    calls: BTreeSet<String>,
}

/// One lexed, directive-parsed, item-indexed file.
pub struct FileUnit {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    tokens: Vec<Token>,
    pub items: Vec<FnItem>,
    /// Line → lints allowed there (the directive's own line plus the
    /// next line carrying code).
    allow: BTreeMap<u32, Vec<Lint>>,
    /// Malformed/dangling directive findings.
    pub directive_errors: Vec<Finding>,
}

/// Full analysis output for a set of files.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed findings, sorted by (file, line, lint).
    pub findings: Vec<Finding>,
    /// Findings silenced by an `allow` directive.
    pub suppressed: usize,
    /// (file, qualified fn) pairs carrying `// analyzer: hot-path`.
    pub hot_path_fns: Vec<(String, String)>,
}

/// Analyze a set of `(path, source)` files as one unit (summaries are
/// shared across all of them).
pub fn analyze(files: &[(String, String)]) -> Report {
    let mut units: Vec<FileUnit> = files.iter().map(|(p, s)| parse_file(p, s)).collect();
    let summaries = build_summaries(&units);
    let mut report = Report::default();
    let mut findings = Vec::new();
    for unit in &mut units {
        findings.append(&mut unit.directive_errors);
        let unit = &*unit;
        for idx in 0..unit.items.len() {
            if unit.items[idx].hot_path {
                report
                    .hot_path_fns
                    .push((unit.path.clone(), unit.items[idx].qual.clone()));
            }
            scan_body(unit, idx, &summaries, &mut findings);
        }
        // Apply allow directives; invalid-directive is never
        // suppressible.
        findings.retain(|f| {
            let allowed = f.lint != Lint::InvalidDirective
                && f.file == unit.path
                && unit
                    .allow
                    .get(&f.line)
                    .is_some_and(|lints| lints.contains(&f.lint));
            if allowed {
                report.suppressed += 1;
            }
            !allowed
        });
    }
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.lint, &a.function).cmp(&(&b.file, b.line, b.lint, &b.function))
    });
    report.findings = findings;
    report
}

/// Lex + directive-parse + item-index one file.
pub fn parse_file(path: &str, src: &str) -> FileUnit {
    let lexed = lexer::lex(src);
    let parsed = directives::parse(path, &lexed.comments);
    // `hot-path` lines, each with whether a `fn` item consumed it.
    let mut hot_paths: Vec<(u32, bool)> = Vec::new();
    let mut allow: BTreeMap<u32, Vec<Lint>> = BTreeMap::new();
    let mut allow_sites: Vec<(u32, Lint)> = Vec::new();
    for (line, d) in &parsed.directives {
        match d {
            Directive::HotPath => hot_paths.push((*line, false)),
            Directive::Allow { lint, .. } => allow_sites.push((*line, *lint)),
        }
    }
    // An allow covers its own line and the next line holding any code.
    for (line, lint) in allow_sites {
        allow.entry(line).or_default().push(lint);
        if let Some(next) = lexed.tokens.iter().map(|t| t.line).find(|l| *l > line) {
            allow.entry(next).or_default().push(lint);
        }
    }
    let mut errors = parsed.errors;
    let items = collect_items(&lexed.tokens, &mut hot_paths);
    for (line, consumed) in &hot_paths {
        if !consumed {
            errors.push(Finding {
                lint: Lint::InvalidDirective,
                file: path.to_string(),
                line: *line,
                function: "<module>".to_string(),
                message: "dangling `hot-path` directive: no function item follows it".to_string(),
            });
        }
    }
    FileUnit {
        path: path.to_string(),
        tokens: lexed.tokens,
        items,
        allow,
        directive_errors: errors,
    }
}

/// Index of the `)`/`}`/`]` matching the opener at `open`.
fn matching(tokens: &[Token], open: usize) -> usize {
    let (o, c) = match &tokens[open].kind {
        TokKind::Punct("(") => ("(", ")"),
        TokKind::Punct("{") => ("{", "}"),
        TokKind::Punct("[") => ("[", "]"),
        _ => return open,
    };
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].is_punct(o) {
            depth += 1;
        } else if tokens[i].is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    tokens.len() - 1
}

/// Walk the token stream and collect `fn` items with impl context,
/// skipping `#[cfg(test)]`/`#[test]` items wholesale.
fn collect_items(tokens: &[Token], hot_paths: &mut [(u32, bool)]) -> Vec<FnItem> {
    let mut items = Vec::new();
    let mut depth = 0usize;
    let mut impl_stack: Vec<(String, usize)> = Vec::new();
    let mut pending_impl: Option<String> = None;
    let mut pending_test = false;
    let mut skip_body_until = 0usize; // token index: inside a fn body
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct("{") {
            depth += 1;
            if let Some(name) = pending_impl.take() {
                impl_stack.push((name, depth));
            }
            i += 1;
            continue;
        }
        if t.is_punct("}") {
            if impl_stack.last().is_some_and(|(_, d)| *d == depth) {
                impl_stack.pop();
            }
            depth = depth.saturating_sub(1);
            i += 1;
            continue;
        }
        if i < skip_body_until {
            i += 1;
            continue;
        }
        if t.is_punct("#") && i + 1 < tokens.len() && tokens[i + 1].is_punct("[") {
            let close = matching(tokens, i + 1);
            let attrs: Vec<&str> = tokens[i + 1..=close]
                .iter()
                .filter_map(Token::ident)
                .collect();
            let is_test_cfg = (attrs.contains(&"cfg") || attrs.len() == 1)
                && attrs.contains(&"test")
                && !attrs.contains(&"not");
            pending_test |= is_test_cfg;
            i = close + 1;
            continue;
        }
        if let Some(word) = t.ident() {
            if pending_test && ITEM_KEYWORDS.contains(&word) {
                // Skip the whole test item: to its `;`, or over its
                // brace block.
                let mut j = i + 1;
                let mut paren = 0i32;
                while j < tokens.len() {
                    match &tokens[j].kind {
                        TokKind::Punct("(") => paren += 1,
                        TokKind::Punct(")") => paren -= 1,
                        TokKind::Punct(";") if paren == 0 => break,
                        TokKind::Punct("{") if paren == 0 => {
                            j = matching(tokens, j);
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                pending_test = false;
                i = j + 1;
                continue;
            }
            match word {
                "impl" => {
                    // Self type: last path-segment ident at angle
                    // depth 0 before `{` / `where`.
                    let mut angle = 0i32;
                    let mut j = i + 1;
                    let mut name = String::from("impl");
                    while j < tokens.len() {
                        match &tokens[j].kind {
                            TokKind::Punct("<") => angle += 1,
                            TokKind::Punct(">") => angle -= 1,
                            TokKind::Punct("{") if angle <= 0 => break,
                            TokKind::Ident(id) if angle <= 0 => {
                                if id == "where" {
                                    break;
                                }
                                name.clear();
                                name.push_str(id);
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    pending_impl = Some(name);
                    i += 1;
                }
                // `fn` item — but not a fn-pointer type (`fn(u32)`),
                // which has no name ident after the keyword.
                "fn" if tokens.get(i + 1).and_then(Token::ident).is_some() => {
                    let name = tokens[i + 1].ident().unwrap_or("").to_string();
                    // Find the body `{` (or `;` for a bodyless decl)
                    // at paren depth 0, skipping the signature.
                    let mut paren = 0i32;
                    let mut j = i + 1;
                    let mut body = None;
                    while j < tokens.len() {
                        match &tokens[j].kind {
                            TokKind::Punct("(") => paren += 1,
                            TokKind::Punct(")") => paren -= 1,
                            TokKind::Punct(";") if paren == 0 => break,
                            TokKind::Punct("{") if paren == 0 => {
                                body = Some((j, matching(tokens, j)));
                                break;
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    let qual = match impl_stack.last() {
                        Some((ty, _)) => format!("{ty}::{name}"),
                        None => name.clone(),
                    };
                    let fn_line = t.line;
                    let mut hot_path = false;
                    for (line, consumed) in hot_paths.iter_mut() {
                        if !*consumed && *line < fn_line {
                            *consumed = true;
                            hot_path = true;
                        }
                    }
                    items.push(FnItem {
                        name,
                        qual,
                        fn_idx: i,
                        body,
                        hot_path,
                    });
                    if let Some((open, close)) = body {
                        // Continue from the body open brace so depth
                        // bookkeeping stays exact; item detection is
                        // muted inside via `skip_body_until`.
                        skip_body_until = close;
                        i = open;
                    } else {
                        i = j + 1;
                    }
                }
                _ => i += 1,
            }
        } else {
            i += 1;
        }
    }
    items
}

/// Phase A: per-name summaries, OR-merged across the whole file set,
/// with one propagation round so calling a guard-returning helper
/// counts as acquiring a lock.
pub fn build_summaries(units: &[FileUnit]) -> BTreeMap<String, FnSummary> {
    let mut map: BTreeMap<String, FnSummary> = BTreeMap::new();
    for unit in units {
        for item in &unit.items {
            let Some((open, close)) = item.body else {
                continue;
            };
            let mut s = FnSummary::default();
            // Return type after `->` mentioning MutexGuard.
            let sig = &unit.tokens[item.fn_idx..open];
            if let Some(arrow) = sig.iter().position(|t| t.is_punct("->")) {
                s.returns_guard = sig[arrow..].iter().any(|t| t.ident() == Some("MutexGuard"));
            }
            let body = &unit.tokens[open..=close];
            for (k, t) in body.iter().enumerate() {
                let Some(id) = t.ident() else { continue };
                if !body.get(k + 1).is_some_and(|n| n.is_punct("(")) {
                    continue;
                }
                let is_method = k > 0 && body[k - 1].is_punct(".");
                if id == "lock" && is_method {
                    s.direct_lock = true;
                }
                if FORWARD_FNS.contains(&id) {
                    s.forward_call = true;
                }
                s.calls.insert(id.to_string());
            }
            let entry = map.entry(item.name.clone()).or_default();
            entry.direct_lock |= s.direct_lock;
            entry.returns_guard |= s.returns_guard;
            entry.forward_call |= s.forward_call;
            entry.calls.extend(s.calls);
        }
    }
    // Propagation: a call to a guard-returning fn is a blocking lock.
    let guard_fns: BTreeSet<String> = map
        .iter()
        .filter(|(_, s)| s.returns_guard)
        .map(|(n, _)| n.clone())
        .collect();
    for s in map.values_mut() {
        s.blocking_lock = s.direct_lock || s.calls.iter().any(|c| guard_fns.contains(c));
    }
    map
}

/// A `let` statement being tracked mid-parse.
struct LetState {
    names: Vec<String>,
    after_eq: bool,
    /// Inside the `: Type` annotation — stop collecting names.
    in_type: bool,
    /// RHS begins with `*` — a deref copy, so any guard in the chain
    /// is a temporary, not a binding.
    leading_star: bool,
    /// `if let` / `while let`: a matched guard lives in the block that
    /// follows, not the current scope.
    is_cond: bool,
}

/// Phase B: walk one function body and emit findings.
fn scan_body(
    unit: &FileUnit,
    item_idx: usize,
    summaries: &BTreeMap<String, FnSummary>,
    out: &mut Vec<Finding>,
) {
    let item = &unit.items[item_idx];
    let Some((open, close)) = item.body else {
        return;
    };
    let toks = &unit.tokens[..];
    let mut scopes: Vec<Vec<String>> = vec![Vec::new()];
    let mut pending_cond_guards: Vec<String> = Vec::new();
    let mut temp_guard = false;
    let mut let_state: Option<LetState> = None;
    let mut paren = 0i32;
    let mut bracket = 0i32;
    // Paren/bracket depth at each open brace, so a `;` inside a closure
    // body nested in call parens (`.map(|x| { ...; ... })`) still ends
    // a statement relative to its own block.
    let mut depth_at_brace: Vec<(i32, i32)> = Vec::new();

    let emit = |out: &mut Vec<Finding>, lint: Lint, line: u32, msg: String| {
        out.push(Finding {
            lint,
            file: unit.path.clone(),
            line,
            function: item.qual.clone(),
            message: msg,
        });
    };

    let mut i = open + 1;
    while i < close {
        let t = &toks[i];
        match &t.kind {
            TokKind::Punct("(") => paren += 1,
            TokKind::Punct(")") => paren -= 1,
            TokKind::Punct("[") => bracket += 1,
            TokKind::Punct("]") => bracket -= 1,
            TokKind::Punct("{") => {
                scopes.push(std::mem::take(&mut pending_cond_guards));
                depth_at_brace.push((paren, bracket));
                let_state = None;
            }
            TokKind::Punct("}") => {
                if scopes.len() > 1 {
                    scopes.pop();
                }
                depth_at_brace.pop();
                temp_guard = false;
                let_state = None;
            }
            TokKind::Punct(";")
                if (paren, bracket) == depth_at_brace.last().copied().unwrap_or((0, 0)) =>
            {
                temp_guard = false;
                let_state = None;
            }
            TokKind::Punct(":") => {
                if let Some(ls) = let_state.as_mut() {
                    if !ls.after_eq {
                        ls.in_type = true;
                    }
                }
            }
            TokKind::Punct("=") => {
                if let Some(ls) = let_state.as_mut() {
                    if !ls.after_eq {
                        ls.after_eq = true;
                        ls.leading_star = toks.get(i + 1).is_some_and(|n| n.is_punct("*"));
                    }
                }
            }
            TokKind::Ident(word) => {
                let word = word.as_str();
                let next_paren = toks.get(i + 1).is_some_and(|n| n.is_punct("("));
                let next_bang = toks.get(i + 1).is_some_and(|n| n.is_punct("!"));
                let is_method = i > 0 && toks[i - 1].is_punct(".");
                match word {
                    "let" => {
                        let prev_is_cond = matches!(
                            i.checked_sub(1)
                                .and_then(|p| toks.get(p))
                                .and_then(Token::ident),
                            Some("if") | Some("while")
                        );
                        let_state = Some(LetState {
                            names: Vec::new(),
                            after_eq: false,
                            in_type: false,
                            leading_star: false,
                            is_cond: prev_is_cond,
                        });
                        i += 1;
                        continue;
                    }
                    "drop" if next_paren && !is_method => {
                        // `drop(guard)` releases: remove the name.
                        if let Some(name) = toks.get(i + 2).and_then(Token::ident) {
                            if toks.get(i + 3).is_some_and(|n| n.is_punct(")")) {
                                for scope in scopes.iter_mut() {
                                    scope.retain(|g| g != name);
                                }
                                i += 4;
                                continue;
                            }
                        }
                    }
                    _ => {}
                }
                if next_bang
                    && toks
                        .get(i + 2)
                        .is_some_and(|n| n.is_punct("(") || n.is_punct("[") || n.is_punct("{"))
                {
                    if item.hot_path {
                        if ALLOC_MACROS.contains(&word) {
                            emit(
                                out,
                                Lint::HotPathAlloc,
                                t.line,
                                format!("`{word}!` allocates on a hot path"),
                            );
                        }
                        if PANIC_MACROS.contains(&word) {
                            emit(
                                out,
                                Lint::HotPathPanic,
                                t.line,
                                format!("`{word}!` can panic on a hot path"),
                            );
                        }
                    }
                } else if next_paren && word != "let" && word != "drop" {
                    let holding = temp_guard || scopes.iter().any(|s| !s.is_empty());
                    let qualifier = if i >= 2 && toks[i - 1].is_punct("::") {
                        toks[i - 2].ident()
                    } else {
                        None
                    };
                    if word == "lock" && is_method {
                        acquire(
                            toks,
                            i,
                            true,
                            item,
                            holding,
                            &let_state,
                            &mut scopes,
                            &mut pending_cond_guards,
                            &mut temp_guard,
                            out,
                            &emit,
                        );
                    } else if word == "try_lock" && is_method {
                        acquire(
                            toks,
                            i,
                            false,
                            item,
                            holding,
                            &let_state,
                            &mut scopes,
                            &mut pending_cond_guards,
                            &mut temp_guard,
                            out,
                            &emit,
                        );
                    } else if WAIT_METHODS.contains(&word) && is_method {
                        // Condvar wait: blocking but releases its
                        // mutex, so never nested-lock.
                        if item.hot_path {
                            emit(
                                out,
                                Lint::HotPathBlock,
                                t.line,
                                format!("`.{word}()` blocks on a hot path"),
                            );
                        }
                    } else {
                        let summary = if COMMON_NAMES.contains(&word) {
                            None
                        } else {
                            summaries.get(word)
                        };
                        if summary.is_some_and(|s| s.returns_guard) {
                            acquire(
                                toks,
                                i,
                                true,
                                item,
                                holding,
                                &let_state,
                                &mut scopes,
                                &mut pending_cond_guards,
                                &mut temp_guard,
                                out,
                                &emit,
                            );
                        } else {
                            if holding {
                                if summary.is_some_and(|s| s.blocking_lock) {
                                    emit(
                                        out,
                                        Lint::NestedLock,
                                        t.line,
                                        format!(
                                            "call to `{word}` (which acquires a lock) while a guard is live"
                                        ),
                                    );
                                }
                                let receiver_ok = !GATED_FORWARD.contains(&word)
                                    || (is_method
                                        && i >= 2
                                        && toks[i - 2]
                                            .ident()
                                            .is_some_and(|r| SESSION_RECEIVERS.contains(&r)));
                                if (FORWARD_FNS.contains(&word)
                                    || summary.is_some_and(|s| s.forward_call))
                                    && receiver_ok
                                {
                                    emit(
                                        out,
                                        Lint::LockAcrossStep,
                                        t.line,
                                        format!(
                                            "lock held across call to `{word}` on the engine forward path"
                                        ),
                                    );
                                }
                            }
                            if item.hot_path {
                                if is_alloc_call(word, is_method, qualifier) {
                                    emit(
                                        out,
                                        Lint::HotPathAlloc,
                                        t.line,
                                        format!("`{word}` allocates on a hot path"),
                                    );
                                }
                                if BLOCK_FNS.contains(&word) {
                                    emit(
                                        out,
                                        Lint::HotPathBlock,
                                        t.line,
                                        format!("`{word}` blocks on a hot path"),
                                    );
                                }
                                if is_method && (word == "unwrap" || word == "expect") {
                                    emit(
                                        out,
                                        Lint::HotPathPanic,
                                        t.line,
                                        format!("`.{word}()` can panic on a hot path"),
                                    );
                                }
                            }
                        }
                    }
                }
                // Pattern idents before `=` in a let.
                if let Some(ls) = let_state.as_mut() {
                    if !ls.after_eq
                        && !ls.in_type
                        && word != "let"
                        && !PATTERN_NOISE.contains(&word)
                    {
                        ls.names.push(word.to_string());
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Handle a lock acquisition at token `idx` (the `lock`/`try_lock`
/// ident, or a guard-returning call). Emits nesting/hot-path
/// findings and decides whether the guard binds into a scope, a
/// conditional block, or dies as a statement temporary.
type EmitFn<'a> = &'a dyn Fn(&mut Vec<Finding>, Lint, u32, String);

#[allow(
    clippy::too_many_arguments,
    reason = "the walker's state is scan_body's locals; a struct would exist only to be passed here"
)]
fn acquire(
    toks: &[Token],
    idx: usize,
    blocking: bool,
    item: &FnItem,
    holding: bool,
    let_state: &Option<LetState>,
    scopes: &mut [Vec<String>],
    pending_cond_guards: &mut Vec<String>,
    temp_guard: &mut bool,
    out: &mut Vec<Finding>,
    emit: EmitFn,
) {
    let line = toks[idx].line;
    let name = toks[idx].ident().unwrap_or("lock");
    if blocking && holding {
        emit(
            out,
            Lint::NestedLock,
            line,
            format!("blocking `{name}()` while another guard is live"),
        );
    }
    if blocking && item.hot_path {
        emit(
            out,
            Lint::HotPathBlock,
            line,
            format!("blocking `{name}()` on a hot path (use `try_lock`)"),
        );
    }
    // Walk the adapter chain after the call's closing paren.
    let mut j = matching(toks, idx + 1) + 1;
    loop {
        if toks.get(j).is_some_and(|t| t.is_punct("?")) {
            j += 1;
            continue;
        }
        if toks.get(j).is_some_and(|t| t.is_punct(".")) {
            let adapter = toks.get(j + 1).and_then(Token::ident);
            if !matches!(adapter, Some("unwrap" | "expect" | "unwrap_or_else")) {
                break;
            }
            if toks.get(j + 2).is_some_and(|t| t.is_punct("(")) {
                j = matching(toks, j + 2) + 1;
                continue;
            }
            break;
        }
        break;
    }
    // Binding decision.
    let after = toks.get(j);
    let mut bound = false;
    if let Some(ls) = let_state.as_ref() {
        if ls.after_eq && !ls.leading_star {
            let ends_stmt = after.is_some_and(|t| t.is_punct(";"))
                || after.and_then(Token::ident) == Some("else");
            let opens_block = after.is_some_and(|t| t.is_punct("{"));
            if ends_stmt {
                if let Some(scope) = scopes.last_mut() {
                    scope.extend(ls.names.iter().cloned());
                }
                bound = true;
            } else if opens_block && ls.is_cond {
                pending_cond_guards.extend(ls.names.iter().cloned());
                bound = true;
            }
        }
    }
    if !bound {
        *temp_guard = true;
    }
}

/// Heap-allocating call on a hot path?
fn is_alloc_call(word: &str, is_method: bool, qualifier: Option<&str>) -> bool {
    if is_method && ALLOC_METHODS.contains(&word) {
        return true;
    }
    if let Some(q) = qualifier {
        if ALLOC_PATH_TYPES.contains(&q) && ALLOC_PATH_FNS.contains(&word) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings_of(src: &str) -> Vec<Finding> {
        analyze(&[("test.rs".to_string(), src.to_string())]).findings
    }

    #[test]
    fn items_get_impl_qualified_names() {
        let unit = parse_file(
            "t.rs",
            "impl Foo { fn a(&self) {} }\nimpl Bar for Baz { fn b() {} }\nfn free() {}",
        );
        let quals: Vec<&str> = unit.items.iter().map(|i| i.qual.as_str()).collect();
        assert_eq!(quals, vec!["Foo::a", "Baz::b", "free"]);
    }

    #[test]
    fn cfg_test_items_are_skipped() {
        let unit = parse_file(
            "t.rs",
            "fn real() {}\n#[cfg(test)]\nmod tests {\n fn helper() {}\n #[test]\n fn t() {}\n}\n",
        );
        let names: Vec<&str> = unit.items.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, vec!["real"]);
    }

    #[test]
    fn guard_scope_tracks_binding_and_drop() {
        // Bound guard → nested; after drop() → clean.
        let f = findings_of(
            "fn f(a: std::sync::Mutex<u32>, b: std::sync::Mutex<u32>) {\n\
             let g = a.lock().unwrap();\n\
             let h = b.lock().unwrap();\n\
             }\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, Lint::NestedLock);
        assert_eq!(f[0].line, 3);

        let f = findings_of(
            "fn f(a: std::sync::Mutex<u32>, b: std::sync::Mutex<u32>) {\n\
             let g = a.lock().unwrap();\n\
             drop(g);\n\
             let h = b.lock().unwrap();\n\
             }\n",
        );
        assert!(f.is_empty(), "unexpected: {f:?}");
    }

    #[test]
    fn deref_copy_is_a_temporary_not_a_binding() {
        let f = findings_of(
            "fn f(a: std::sync::Mutex<u32>, b: std::sync::Mutex<u32>) {\n\
             let x = *a.lock().unwrap();\n\
             let h = b.lock().unwrap();\n\
             }\n",
        );
        assert!(f.is_empty(), "unexpected: {f:?}");
    }

    #[test]
    fn guard_returning_helper_counts_as_acquisition() {
        let f = findings_of(
            "impl L {\n\
             fn tally_lock(&self) -> std::sync::MutexGuard<'_, T> { self.t.lock().unwrap() }\n\
             fn caller(&self) {\n\
             let q = self.q.lock().unwrap();\n\
             let t = self.tally_lock();\n\
             }\n\
             }\n",
        );
        assert!(
            f.iter()
                .any(|x| x.lint == Lint::NestedLock && x.function == "L::caller"),
            "unexpected: {f:?}"
        );
    }

    #[test]
    fn condvar_wait_is_not_nested_lock() {
        let f = findings_of(
            "fn f(m: std::sync::Mutex<u32>, cv: std::sync::Condvar) {\n\
             let mut g = m.lock().unwrap();\n\
             g = cv.wait(g).unwrap();\n\
             }\n",
        );
        assert!(f.is_empty(), "unexpected: {f:?}");
    }

    #[test]
    fn interprocedural_forward_call_is_flagged() {
        let f = findings_of(
            "fn helper(s: &mut S) { s.run_layers(3); }\n\
             fn holder(m: std::sync::Mutex<u32>, s: &mut S) {\n\
             let g = m.lock().unwrap();\n\
             helper(s);\n\
             }\n",
        );
        assert!(
            f.iter()
                .any(|x| x.lint == Lint::LockAcrossStep && x.line == 4),
            "unexpected: {f:?}"
        );
    }

    #[test]
    fn completion_calls_are_forward_only_on_a_session_receiver() {
        let src = |call: &str| {
            format!("fn f(m: std::sync::Mutex<u32>) {{\nlet g = m.lock().unwrap();\n{call};\n}}\n")
        };
        let f = findings_of(&src("session.finish()"));
        assert_eq!(f.len(), 1, "unexpected: {f:?}");
        assert_eq!((f[0].lint, f[0].line), (Lint::LockAcrossStep, 3));
        assert!(findings_of(&src("hasher.finish()")).is_empty());
        assert_eq!(findings_of(&src("engine.evaluate(data, mode)")).len(), 1);
    }

    #[test]
    fn allow_suppresses_on_next_code_line() {
        let f = analyze(&[(
            "t.rs".to_string(),
            "// analyzer: hot-path\nfn f(v: &[u32]) -> Vec<u32> {\n// analyzer: allow(hot-path-alloc) reason=\"cold branch\"\nv.to_vec()\n}\n"
                .to_string(),
        )]);
        assert!(f.findings.is_empty(), "unexpected: {:?}", f.findings);
        assert_eq!(f.suppressed, 1);
    }

    #[test]
    fn dangling_fn_directive_is_reported() {
        let f = findings_of("fn f() {}\n// analyzer: hot-path\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, Lint::InvalidDirective);
    }

    #[test]
    fn hot_path_lints_fire_only_when_annotated() {
        let src = "fn cold(v: &[u32]) -> Vec<u32> { v.to_vec() }\n\
                   // analyzer: hot-path\n\
                   fn hot(v: &[u32]) -> Vec<u32> { v.to_vec() }\n";
        let f = findings_of(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, Lint::HotPathAlloc);
        assert_eq!(f[0].function, "hot");
    }

    #[test]
    fn deref_copied_guard_inside_closure_is_released_at_statement_end() {
        // `;` inside a closure body that is itself inside call parens
        // must still end the statement: the temp guard from the first
        // lock is gone before the second lock on the next line.
        let f = findings_of(
            "struct L { a: std::sync::Mutex<u32>, b: std::sync::Mutex<u32> }\n\
             fn f(ls: &[L]) -> Vec<u32> {\n\
             ls.iter().map(|l| {\n\
             let x = *l.a.lock().unwrap();\n\
             let g = l.b.lock().unwrap();\n\
             x + *g\n\
             }).collect()\n\
             }\n",
        );
        assert!(
            !f.iter().any(|x| x.lint == Lint::NestedLock),
            "unexpected: {f:?}"
        );
    }
}
