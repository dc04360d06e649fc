//! Phase 1 of the two-phase analyzer: the workspace **symbol index**.
//!
//! A lightweight zero-dependency Rust tokenizer and item indexer that
//! records, per function: definitions (name, `impl` owner, module path),
//! call sites with the set of `Mutex` guards live at each one, guard
//! acquisitions, narrowing `as` casts, float reductions, panic sites,
//! and intra-fn dataflow edges ([`FlowRecord`]: let-bindings,
//! assignments, call-argument positions, return values, field
//! projections) consumed by the interprocedural taint fixpoint in the
//! graph phase. The per-file result ([`FileIndex`]) is a *pure function of
//! that file's text*; all cross-file reasoning happens in the graph
//! phase ([`crate::graph`]). Every run indexes the whole workspace from
//! its files and writes nothing, so a report depends on the workspace
//! alone.
//!
//! Deliberate precision limits, documented so misses are not mysteries:
//!
//! - A `.lock()` call is a guard acquisition only when its receiver
//!   resolves to a known field or local (`self.inner`, a typed local, a
//!   constructor-inferred local). `stdin().lock()` and friends resolve
//!   to nothing and create no guard — an io lock is not a `Mutex`.
//! - Method calls resolve to a receiver type only via `self`, typed
//!   locals/params, same-file struct fields, or `Type::method` paths.
//! - Guard liveness is statement- and scope-tracked (`let` bindings,
//!   `if let`/`while let` heads, `drop`, moves into calls — the condvar
//!   handoff `self.wait(&cond, guard)` kills the guard for the duration
//!   of the call); `match` arms that bind a guard are not modeled.
//! - Dataflow edges are statement-granular may-flow facts: a binding
//!   receives every value identifier and call result seen on its
//!   right-hand side, so `let n = if a { b } else { c }` merges all
//!   three. Block tails inside `if`/`else` chains can be dropped at
//!   brace boundaries — the taint phase treats every edge as an
//!   over-approximation, never a proof of absence.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::lint::{
    classify, parse_allows, read_sources, strip_source, test_regions, FileKind, StrippedLine,
};

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallRecord {
    /// Callee name; a trailing `!` marks a macro invocation.
    pub callee: String,
    /// Resolved receiver/owner type head (`BoundedQueue` for
    /// `queue.push(..)` with a typed local), when known.
    pub recv: Option<String>,
    /// `.name(..)` method-call form (vs. free or `Type::name` call).
    pub method: bool,
    /// 1-based source line.
    pub line: u32,
    /// Lock ids of guards live at the call, minus guards moved *into*
    /// the call (the condvar handoff idiom).
    pub held: Vec<String>,
    /// Lock ids this call acquires (`.lock()` on a resolved receiver,
    /// or a call to a same-file guard-returning helper).
    pub acquired: Vec<String>,
    /// A live guard was moved into this call as a bare argument.
    pub consumed_guard: bool,
}

/// One narrowing `as` cast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CastRecord {
    /// 1-based source line.
    pub line: u32,
    /// Target type (`i8`, `u8`, `i16`, `u16`, `i32`, `u32`).
    pub ty: String,
    /// The value was range-proven immediately before the cast
    /// (`.clamp(lo, hi) as T`).
    pub safe: bool,
}

/// One float-reduction site (`sum`, `product`, float `fold`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReductionRecord {
    /// 1-based source line.
    pub line: u32,
    /// Which reduction: `sum`, `product`, or `fold`.
    pub what: String,
    /// The site shows a float context (turbofish, line text, or the
    /// enclosing fn signature mentions `f32`/`f64`).
    pub hinted: bool,
}

/// A split-accumulator initialization (`let (mut s0, mut s1) = (0.0, ..)`
/// or `let mut acc = [0.0f32; N]`) — the reassociation idiom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccumRecord {
    /// 1-based source line.
    pub line: u32,
}

/// One panic site (`panic!`, `unreachable!`, `todo!`, `unimplemented!`,
/// `.unwrap()`, `.expect(`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicRecord {
    /// 1-based source line.
    pub line: u32,
    /// Which construct panics.
    pub what: String,
}

/// One intra-fn dataflow fact, consumed by the taint fixpoint in the
/// graph phase.
///
/// Node keys: `v:<name>` (a local or parameter), `c:<k>` (the result of
/// the `k`-th entry in [`FnRecord::calls`]), `a:<k>:<p>` (argument
/// position `p` of call `k`, `self` receivers excluded), and `r` (the
/// fn's return value). A handful of destinations carry *facts* rather
/// than value edges:
///
/// - `arith` with `what = "arith:*"`: an unchecked `a * b`
///   multiplication whose ident operands are the srcs;
/// - `alloc` with `what = "alloc:vec!"`: the repeat count of a
///   `vec![x; n]`;
/// - `ok` / `_` with `what = "ok:<callee>"` / `"discard:<callee>"`: a
///   call result discarded via `.ok()` or `let _ =`;
/// - a `v:` destination with `what = "cmp:<other>"` and empty srcs
///   records a `<`/`>`/`<=`/`>=` comparison of the variable against
///   `<other>` (taint-clearing when `<other>` is a registered limit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowRecord {
    /// 1-based source line of the fact.
    pub line: u32,
    /// Destination node key.
    pub dst: String,
    /// Source node keys feeding the destination (may be empty for
    /// comparison facts).
    pub srcs: Vec<String>,
    /// Edge kind: `let`, `assign`, `iter`, `arg`, `recv:<callee>`,
    /// `ret`, or one of the fact kinds documented on the type.
    pub what: String,
}

/// Everything recorded about one function definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnRecord {
    /// Function name.
    pub name: String,
    /// `impl`/`trait` owner type, for methods.
    pub owner: Option<String>,
    /// Enclosing module path inside the file (`a::b`), for messages.
    pub module: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Defined under `#[test]`/`#[cfg(test)]` or in a test file.
    pub is_test: bool,
    /// The doc comment above the fn has a `# Panics` section.
    pub doc_panics: bool,
    /// The signature returns a `MutexGuard`.
    pub returns_guard: bool,
    /// The signature mentions `f32`/`f64`.
    pub sig_float: bool,
    /// Positional parameter names (`self` receivers excluded,
    /// unparseable patterns kept as `_` so positions stay aligned with
    /// call-site argument indices).
    pub params: Vec<String>,
    /// Call sites, in source order.
    pub calls: Vec<CallRecord>,
    /// Narrowing casts.
    pub casts: Vec<CastRecord>,
    /// Float reductions.
    pub reductions: Vec<ReductionRecord>,
    /// Split-accumulator initializations.
    pub accums: Vec<AccumRecord>,
    /// Panic sites.
    pub panics: Vec<PanicRecord>,
    /// Intra-fn dataflow facts, in source order.
    pub flows: Vec<FlowRecord>,
}

impl FnRecord {
    /// Display name: `Owner::name` for methods, bare `name` otherwise.
    pub fn display(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The index of one source file — a pure function of its text.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FileIndex {
    /// Every function defined in the file, in source order.
    pub fns: Vec<FnRecord>,
    /// `g4check: allow(rule)` lines: (1-based line, rule name). Each
    /// annotation is recorded for its own line and the line below.
    pub allows: Vec<(u32, String)>,
}

impl FileIndex {
    /// Whether `rule` is allowed on 1-based `line`.
    pub fn allowed(&self, line: u32, rule: &str) -> bool {
        self.allows.iter().any(|(l, r)| *l == line && r == rule)
    }
}

/// The whole-workspace symbol index, keyed by `/`-separated relative
/// path.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkspaceIndex {
    /// Per-file indexes.
    pub files: BTreeMap<String, FileIndex>,
}

/// Builds the symbol index for the workspace at `root`, indexing every
/// analyzed file from its text.
///
/// # Errors
///
/// Returns an error when the workspace or a source file cannot be read.
pub fn build_index(root: &Path) -> Result<WorkspaceIndex, String> {
    Ok(index_sources(&read_sources(root)?))
}

/// [`build_index`] over sources already read: every file `classify`
/// accepts.
pub(crate) fn index_sources(sources: &[(PathBuf, String)]) -> WorkspaceIndex {
    let mut index = WorkspaceIndex::default();
    for (rel, text) in sources {
        if classify(rel).is_some() {
            index.files.insert(rel_key(rel), index_file(rel, text));
        }
    }
    index
}

/// Normalizes a relative path into the index key form.
pub fn rel_key(rel: &Path) -> String {
    rel.to_string_lossy().replace('\\', "/")
}

// --- tokenizer ----------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Punct(char),
    Num(String),
}

#[derive(Debug, Clone)]
struct Token {
    tok: Tok,
    line: u32,
}

fn tokenize(lines: &[StrippedLine]) -> Vec<Token> {
    let mut toks = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let lineno = (idx + 1) as u32;
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if c.is_alphabetic() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let s: String = chars[start..i].iter().collect();
                toks.push(Token {
                    tok: Tok::Ident(s),
                    line: lineno,
                });
            } else if c.is_ascii_digit() {
                let start = i;
                while i < chars.len() && chars[i].is_ascii_digit() {
                    i += 1;
                }
                if i + 1 < chars.len() && chars[i] == '.' && chars[i + 1].is_ascii_digit() {
                    i += 1;
                    while i < chars.len() && chars[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let s: String = chars[start..i].iter().collect();
                toks.push(Token {
                    tok: Tok::Num(s),
                    line: lineno,
                });
            } else {
                toks.push(Token {
                    tok: Tok::Punct(c),
                    line: lineno,
                });
                i += 1;
            }
        }
    }
    toks
}

fn ident_at(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(toks: &[Token], i: usize) -> Option<char> {
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Punct(c)) => Some(*c),
        _ => None,
    }
}

fn num_at(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Num(s)) => Some(s.as_str()),
        _ => None,
    }
}

// --- structural pass ----------------------------------------------------

#[derive(Debug, Clone)]
struct RawFn {
    name: String,
    owner: Option<String>,
    module: String,
    line: u32,
    /// Token index of the `fn` keyword (for nested-fn skipping).
    header_tok: usize,
    /// Token range of the body, inside the braces.
    body: Option<(usize, usize)>,
    params: Vec<(String, String)>,
    /// Positional parameter names (`self` excluded, `_` placeholders).
    param_names: Vec<String>,
    returns_guard: bool,
    sig_float: bool,
    attr_test: bool,
    doc_panics: bool,
}

#[derive(Debug, Clone, Default)]
struct RawType {
    fields: BTreeMap<String, String>,
}

/// Wrapper types whose first generic argument carries the interesting
/// type head.
const WRAPPERS: &[&str] = &["Arc", "Rc", "Box", "RefCell", "Cell", "Option"];

/// Extracts the interesting head of a type written as tokens:
/// `&mut Arc<BoundedQueue<T>>` → `BoundedQueue`.
fn type_head(toks: &[Token], mut i: usize, end: usize) -> Option<String> {
    while i < end {
        match &toks[i].tok {
            Tok::Punct('&') | Tok::Punct('\'') => i += 1,
            Tok::Ident(s) if s == "mut" || s == "dyn" => i += 1,
            Tok::Ident(s)
                if toks
                    .get(i.wrapping_sub(1))
                    .is_some_and(|t| t.tok == Tok::Punct('\''))
                    && !s.is_empty() =>
            {
                i += 1
            }
            _ => break,
        }
    }
    // path: A::B::C — head is the last segment
    let mut head: Option<(String, usize)> = None;
    while i < end {
        let Some(seg) = ident_at(toks, i) else { break };
        head = Some((seg.to_string(), i));
        if punct_at(toks, i + 1) == Some(':') && punct_at(toks, i + 2) == Some(':') {
            i += 3;
        } else {
            break;
        }
    }
    let (name, at) = head?;
    if WRAPPERS.contains(&name.as_str()) && punct_at(toks, at + 1) == Some('<') {
        return type_head(toks, at + 2, end);
    }
    Some(name)
}

/// Skips a balanced `<...>` generic group starting at `i` (which must be
/// `<`), returning the index just past the matching `>`.
fn skip_generics(toks: &[Token], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < toks.len() {
        match punct_at(toks, i) {
            Some('<') => depth += 1,
            Some('>') => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            Some(';') | Some('{') => return i, // malformed; bail
            _ => {}
        }
        i += 1;
    }
    i
}

/// Finds the token index of the matching close for the open bracket at
/// `i` (`(`/`[`/`{`), or `toks.len()` if unbalanced.
fn matching_close(toks: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        match punct_at(toks, j) {
            Some('(') | Some('[') | Some('{') => depth += 1,
            Some(')') | Some(']') | Some('}') => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

struct Structure {
    fns: Vec<RawFn>,
    types: BTreeMap<String, RawType>,
}

fn structural_pass(
    toks: &[Token],
    lines: &[StrippedLine],
    in_test: &[bool],
    file_is_test: bool,
) -> Structure {
    let mut fns = Vec::new();
    let mut types: BTreeMap<String, RawType> = BTreeMap::new();
    let mut depth = 0i32;
    let mut mods: Vec<(String, i32)> = Vec::new();
    let mut owners: Vec<(String, i32)> = Vec::new();
    // scope pushes waiting for their `{`
    enum Pending {
        Mod(String),
        Owner(String),
    }
    let mut pending: Option<Pending> = None;

    let mut i = 0;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('{') => {
                depth += 1;
                match pending.take() {
                    Some(Pending::Mod(m)) => mods.push((m, depth)),
                    Some(Pending::Owner(o)) => owners.push((o, depth)),
                    None => {}
                }
                i += 1;
            }
            Tok::Punct('}') => {
                if mods.last().is_some_and(|(_, d)| *d == depth) {
                    mods.pop();
                }
                if owners.last().is_some_and(|(_, d)| *d == depth) {
                    owners.pop();
                }
                depth -= 1;
                i += 1;
            }
            Tok::Punct(';') => {
                pending = None; // `mod x;` / `impl T;` never happens, but be safe
                i += 1;
            }
            Tok::Ident(kw) if kw == "mod" => {
                if let Some(name) = ident_at(toks, i + 1) {
                    if punct_at(toks, i + 2) == Some('{') {
                        pending = Some(Pending::Mod(name.to_string()));
                    }
                }
                i += 1;
            }
            Tok::Ident(kw) if kw == "impl" || kw == "trait" => {
                let is_impl = kw == "impl";
                // collect header up to the `{` (or `;` for `impl Trait for T {}`-less)
                let mut j = i + 1;
                if is_impl && punct_at(toks, j) == Some('<') {
                    j = skip_generics(toks, j);
                }
                let start = j;
                while j < toks.len()
                    && punct_at(toks, j) != Some('{')
                    && punct_at(toks, j) != Some(';')
                {
                    j += 1;
                }
                let owner = if is_impl {
                    let mut for_at = None;
                    let mut k = start;
                    while k < j {
                        if ident_at(toks, k) == Some("for") {
                            for_at = Some(k + 1);
                        }
                        k += 1;
                    }
                    type_head(toks, for_at.unwrap_or(start), j)
                } else {
                    ident_at(toks, start).map(str::to_string)
                };
                if punct_at(toks, j) == Some('{') {
                    if let Some(o) = owner {
                        pending = Some(Pending::Owner(o));
                    }
                }
                i = j;
            }
            Tok::Ident(kw) if kw == "struct" => {
                if let Some(name) = ident_at(toks, i + 1) {
                    let mut j = i + 2;
                    if punct_at(toks, j) == Some('<') {
                        j = skip_generics(toks, j);
                    }
                    // skip a `where` clause up to `{`/`;`/`(`
                    while j < toks.len()
                        && !matches!(punct_at(toks, j), Some('{') | Some(';') | Some('('))
                    {
                        j += 1;
                    }
                    if punct_at(toks, j) == Some('{') {
                        let close = matching_close(toks, j);
                        let rt = parse_struct_fields(toks, j + 1, close);
                        types.insert(name.to_string(), rt);
                        i = close + 1;
                        continue;
                    }
                }
                i += 1;
            }
            Tok::Ident(kw) if kw == "fn" => {
                if let Some(name) = ident_at(toks, i + 1) {
                    let line = toks[i].line;
                    let mut j = i + 2;
                    if punct_at(toks, j) == Some('<') {
                        j = skip_generics(toks, j);
                    }
                    if punct_at(toks, j) != Some('(') {
                        i += 1;
                        continue;
                    }
                    let params_close = matching_close(toks, j);
                    let params = parse_params(toks, j + 1, params_close);
                    let param_names = param_names(toks, j + 1, params_close);
                    // return type / where clause up to body `{` or `;`
                    let mut k = params_close + 1;
                    while k < toks.len() && !matches!(punct_at(toks, k), Some('{') | Some(';')) {
                        k += 1;
                    }
                    let sig_range = (j, k);
                    let returns_guard = (sig_range.0..sig_range.1)
                        .any(|t| matches!(ident_at(toks, t), Some("MutexGuard")));
                    let sig_float = (sig_range.0..sig_range.1)
                        .any(|t| matches!(ident_at(toks, t), Some("f32") | Some("f64")));
                    let body = if punct_at(toks, k) == Some('{') {
                        Some((k + 1, matching_close(toks, k)))
                    } else {
                        None
                    };
                    let (attr_test, doc_panics) = attrs_above(lines, line as usize);
                    let is_test_region = in_test.get(line as usize - 1).copied().unwrap_or(false);
                    fns.push(RawFn {
                        name: name.to_string(),
                        owner: owners.last().map(|(o, _)| o.clone()),
                        module: mods
                            .iter()
                            .map(|(m, _)| m.as_str())
                            .collect::<Vec<_>>()
                            .join("::"),
                        line,
                        header_tok: i,
                        body,
                        params,
                        param_names,
                        returns_guard,
                        sig_float,
                        attr_test: attr_test || is_test_region || file_is_test,
                        doc_panics,
                    });
                    // keep walking *into* the body so nested items are found
                    i = k;
                    continue;
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    Structure { fns, types }
}

/// Parses `name: Type` struct fields between `start` and `end`.
fn parse_struct_fields(toks: &[Token], start: usize, end: usize) -> RawType {
    let mut rt = RawType::default();
    let mut i = start;
    while i < end {
        // field name is the ident directly before a `:` at depth 0
        if let (Some(name), Some(':')) = (ident_at(toks, i), punct_at(toks, i + 1)) {
            if punct_at(toks, i + 2) != Some(':') && name != "pub" && name != "crate" {
                // type runs to the next top-level comma
                let mut j = i + 2;
                let mut d = 0i32;
                while j < end {
                    match punct_at(toks, j) {
                        Some('<') | Some('(') | Some('[') => d += 1,
                        Some('>') | Some(')') | Some(']') => d -= 1,
                        Some(',') if d <= 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                if let Some(head) = type_head(toks, i + 2, j) {
                    rt.fields.insert(name.to_string(), head);
                }
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    rt
}

/// Parses fn params into (name, type head) pairs; `self` receivers are
/// skipped.
fn parse_params(toks: &[Token], start: usize, end: usize) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut i = start;
    let mut arg_start = start;
    let mut d = 0i32;
    let push_arg = |s: usize, e: usize, out: &mut Vec<(String, String)>| {
        // pattern `[mut] name : Type`
        let mut k = s;
        if ident_at(toks, k) == Some("mut") {
            k += 1;
        }
        let Some(name) = ident_at(toks, k) else {
            return;
        };
        if name == "self" || punct_at(toks, k + 1) != Some(':') {
            return;
        }
        if let Some(head) = type_head(toks, k + 2, e) {
            out.push((name.to_string(), head));
        }
    };
    while i < end {
        match punct_at(toks, i) {
            Some('<') | Some('(') | Some('[') => d += 1,
            Some('>') | Some(')') | Some(']') => d -= 1,
            Some(',') if d <= 0 => {
                push_arg(arg_start, i, &mut out);
                arg_start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    push_arg(arg_start, end, &mut out);
    out
}

/// Parses fn params into positional *names only*. Unlike
/// [`parse_params`], every non-`self` parameter yields an entry (an
/// unparseable pattern becomes `_`), so the vector's indices line up
/// with call-site argument positions — the alignment the taint phase
/// relies on to map `a:<k>:<p>` onto the callee's `p`-th parameter.
fn param_names(toks: &[Token], start: usize, end: usize) -> Vec<String> {
    let mut out = Vec::new();
    let seg = |s: usize, e: usize, out: &mut Vec<String>| {
        if s >= e {
            return;
        }
        // first usable ident: skip `mut`/`ref` and lifetime names
        let mut name = None;
        let mut k = s;
        while k < e {
            if let Some(id) = ident_at(toks, k) {
                let is_lifetime = k >= 1 && punct_at(toks, k - 1) == Some('\'');
                if id != "mut" && id != "ref" && !is_lifetime {
                    name = Some(id);
                    break;
                }
            }
            k += 1;
        }
        match name {
            Some("self") => {} // receiver, not an argument position
            Some(n) => out.push(n.to_string()),
            None => out.push("_".to_string()),
        }
    };
    let mut i = start;
    let mut arg_start = start;
    let mut d = 0i32;
    while i < end {
        match punct_at(toks, i) {
            Some('<') | Some('(') | Some('[') => d += 1,
            Some('>') | Some(')') | Some(']') => d -= 1,
            Some(',') if d <= 0 => {
                seg(arg_start, i, &mut out);
                arg_start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    seg(arg_start, end, &mut out);
    out
}

/// Walks upward from the line above a fn through its doc comments and
/// attributes, returning (`#[test]`-ish attr present, `# Panics` doc
/// section present).
fn attrs_above(lines: &[StrippedLine], fn_line_1based: usize) -> (bool, bool) {
    let mut attr_test = false;
    let mut doc_panics = false;
    let mut idx = fn_line_1based.saturating_sub(1); // 0-based index of fn line
    while idx > 0 {
        idx -= 1;
        let l = &lines[idx];
        let code = l.code.trim();
        let is_attr = code.starts_with("#[") || code.starts_with("#![");
        if !code.is_empty() && !is_attr {
            break;
        }
        if code.is_empty() && l.comment.is_empty() {
            break;
        }
        if is_attr && (code.contains("test") || code.contains("bench")) {
            attr_test = true;
        }
        if l.comment.contains("# Panics") {
            doc_panics = true;
        }
    }
    (attr_test, doc_panics)
}

// --- body analysis ------------------------------------------------------

/// Methods that create a guard when called on a resolvable lock field.
const LOCK_METHODS: &[&str] = &["lock"];

/// Macro names worth recording as calls (blocking-I/O macros).
const IO_MACROS: &[&str] = &["write", "writeln", "print", "println", "eprint", "eprintln"];

/// Panic-site macro names.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Narrowing cast targets tracked by the cast-truncation rule.
const NARROW_TYPES: &[&str] = &["i8", "u8", "i16", "u16", "i32", "u32"];

/// Keywords that look like calls when followed by `(`.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "break", "continue", "in", "else", "move",
    "ref", "as", "let", "fn", "impl", "where", "unsafe", "use", "pub", "crate", "super", "dyn",
    "mut", "box", "await",
];

#[derive(Debug, Clone)]
struct Guard {
    name: Option<String>,
    ids: Vec<String>,
    bind_depth: Option<i32>,
    alive: bool,
}

#[derive(Debug)]
struct LetCtx {
    name: Option<String>,
    depth: i32,
    cond: bool,
    rhs_started: bool,
    mut_count: usize,
    guards: Vec<usize>,
    line: u32,
    /// token index of the `:` type annotation, if any
    ty: Option<(usize, usize)>,
    accum_emitted: bool,
}

#[derive(Debug)]
struct OpenCall {
    rec: usize,
    close: usize,
    callee: String,
    held_at_open: Vec<String>,
    consumed: Vec<usize>,
}

/// One open call frame in the dataflow pass: collects per-position
/// argument sources until the call's `)` closes.
#[derive(Debug)]
struct FlowCall {
    /// Token index of the matching `)`.
    close: usize,
    /// Index into `rec.calls`, or `None` for transparent calls
    /// (`.unwrap()` / `.expect(`) whose receiver value passes through.
    rec: Option<usize>,
    callee: String,
    /// Receiver value: (node key, callee the node came from — empty for
    /// a plain variable root).
    recv: Option<(String, String)>,
    /// Sources per argument position, split on top-level commas.
    args: Vec<Vec<String>>,
    /// Paren/bracket depth at the callee ident, for comma splitting.
    open_bdepth: i32,
    line: u32,
}

/// Dataflow-extraction state threaded through `analyze_body`. Tracks
/// open call frames and the current statement's value sources; emits
/// [`FlowRecord`]s into the fn record as statements seal.
#[derive(Debug, Default)]
struct FlowPass {
    fcalls: Vec<FlowCall>,
    /// Value sources seen since the last statement boundary, outside
    /// any open call.
    stmt_srcs: Vec<String>,
    /// The statement began with `return`.
    is_return: bool,
    /// Destination of a plain `x = ...` reassignment, sealed at `;`.
    assign_dst: Option<String>,
    /// Last statement-level call: (node, callee) — the `let _ =`
    /// discard target.
    last_call: Option<(String, String)>,
    /// Last closed call: (close token index, node, callee) — the
    /// receiver of a chained `foo().bar(` continuation.
    last_close: Option<(usize, String, String)>,
}

impl FlowPass {
    /// Routes a value node to the innermost open context: the current
    /// argument of the innermost open call, else the statement sources.
    fn push_value(&mut self, node: String) {
        let bucket = match self.fcalls.last_mut() {
            // g4check: allow(unwrap-in-lib): open_call seeds every frame with one bucket
            Some(fc) => fc.args.last_mut().expect("call frame has an arg bucket"),
            None => &mut self.stmt_srcs,
        };
        if !bucket.contains(&node) {
            bucket.push(node);
        }
    }

    /// Opens a call frame for the callee ident at `i` with its `(` at
    /// `paren`. `rec_idx` is the `rec.calls` slot the call landed in
    /// (`None` for transparent panic-method calls).
    #[allow(clippy::too_many_arguments)]
    fn open_call(
        &mut self,
        toks: &[Token],
        i: usize,
        paren: usize,
        callee: &str,
        rec_idx: Option<usize>,
        line: u32,
        bdepth: i32,
    ) {
        let mut recv = None;
        if i >= 1 && punct_at(toks, i - 1) == Some('.') {
            if let Some(chain) = recv_chain(toks, i - 1) {
                // variable-rooted chain: the root carries the value
                // (`h.rows.min(..)` flows from `v:h`); `self` fields
                // are not tracked.
                if let Some(root) = chain.first().filter(|r| r.as_str() != "self") {
                    recv = Some((format!("v:{root}"), String::new()));
                }
            } else if i >= 2 {
                // expression receiver: `prev()?.name(` — chain from the
                // previous call's value node if it closed right before.
                let mut j = i - 2;
                if punct_at(toks, j) == Some('?') && j >= 1 {
                    j -= 1;
                }
                let mut consumed = None;
                if let Some((close, node, carried)) = &self.last_close {
                    if *close == j {
                        recv = Some((node.clone(), carried.clone()));
                        consumed = Some(node.clone());
                    }
                }
                // the chain consumes the receiver's value: without this
                // `let n = src().min(64)` would keep the unsanitized
                // `c:src` among the statement's sources
                if let Some(node) = consumed {
                    let bucket = match self.fcalls.last_mut() {
                        // g4check: allow(unwrap-in-lib): open_call seeds every frame with one bucket
                        Some(fc) => fc.args.last_mut().expect("call frame has an arg bucket"),
                        None => &mut self.stmt_srcs,
                    };
                    bucket.retain(|s| s != &node);
                }
            }
        }
        self.fcalls.push(FlowCall {
            close: matching_close(toks, paren),
            rec: rec_idx,
            callee: callee.to_string(),
            recv,
            args: vec![Vec::new()],
            open_bdepth: bdepth,
            line,
        });
    }

    /// Starts a new argument bucket on the innermost call whose
    /// top-level comma this is.
    fn comma(&mut self, bdepth: i32) {
        if let Some(fc) = self.fcalls.last_mut() {
            if bdepth == fc.open_bdepth + 1 {
                fc.args.push(Vec::new());
            }
        }
    }

    /// Closes any call frame ending at token `i`: emits its `arg` and
    /// `recv` flows and pushes its value node into the parent context.
    fn close_call(&mut self, i: usize, rec: &mut FnRecord) {
        while let Some(pos) = self.fcalls.iter().rposition(|f| f.close == i) {
            let fc = self.fcalls.remove(pos);
            let Some(k) = fc.rec else {
                // transparent `.unwrap()`/`.expect(`: the receiver's
                // value passes through unchanged
                if let Some((rnode, rcallee)) = fc.recv {
                    self.push_value(rnode.clone());
                    self.last_close = Some((i, rnode, rcallee));
                } else {
                    self.last_close = None;
                }
                continue;
            };
            for (p, srcs) in fc.args.iter().enumerate() {
                if !srcs.is_empty() {
                    rec.flows.push(FlowRecord {
                        line: fc.line,
                        dst: format!("a:{k}:{p}"),
                        srcs: srcs.clone(),
                        what: "arg".to_string(),
                    });
                }
            }
            let node = format!("c:{k}");
            if let Some((rnode, rcallee)) = &fc.recv {
                rec.flows.push(FlowRecord {
                    line: fc.line,
                    dst: node.clone(),
                    srcs: vec![rnode.clone()],
                    what: format!("recv:{}", fc.callee),
                });
                if fc.callee == "ok" && rnode.starts_with("c:") && !rcallee.is_empty() {
                    rec.flows.push(FlowRecord {
                        line: fc.line,
                        dst: "ok".to_string(),
                        srcs: vec![rnode.clone()],
                        what: format!("ok:{rcallee}"),
                    });
                }
            }
            self.push_value(node.clone());
            if self.fcalls.is_empty() {
                self.last_call = Some((node.clone(), fc.callee.clone()));
            }
            self.last_close = Some((i, node, fc.callee));
        }
    }

    /// Seals the statement at its `;`: emits `assign`/`ret` flows and
    /// resets per-statement state. Returns the statement's sources for
    /// the caller's `let` sealing.
    fn end_stmt(&mut self, line: u32, rec: &mut FnRecord) -> Vec<String> {
        let srcs = std::mem::take(&mut self.stmt_srcs);
        if let Some(dst) = self.assign_dst.take() {
            if !srcs.is_empty() {
                rec.flows.push(FlowRecord {
                    line,
                    dst: format!("v:{dst}"),
                    srcs: srcs.clone(),
                    what: "assign".to_string(),
                });
            }
        }
        if self.is_return && !srcs.is_empty() {
            rec.flows.push(FlowRecord {
                line,
                dst: "r".to_string(),
                srcs: srcs.clone(),
                what: "ret".to_string(),
            });
        }
        self.is_return = false;
        srcs
    }
}

/// Whether the ident at `i` is a plain value use worth a dataflow
/// source: not a keyword, call, macro, path segment, field/method name,
/// struct-literal head, lifetime, assignment target, or `_`.
fn value_ident_ok(toks: &[Token], i: usize, name: &str) -> bool {
    if name == "_" || name == "self" || KEYWORDS.contains(&name) {
        return false;
    }
    match punct_at(toks, i + 1) {
        Some('(') | Some('!') | Some('{') | Some(':') => return false,
        Some('=') if plain_assign(toks, i + 1) => return false,
        _ => {}
    }
    if let Some(p) = i.checked_sub(1).and_then(|p| punct_at(toks, p)) {
        if p == '.' || p == ':' || p == '\'' {
            return false;
        }
    }
    true
}

/// Collects `v:` nodes for every plain value ident in `[from, to)`.
fn collect_value_idents(toks: &[Token], from: usize, to: usize) -> Vec<String> {
    let mut out = Vec::new();
    for j in from..to {
        if let Some(name) = ident_at(toks, j) {
            if value_ident_ok(toks, j, name) {
                let node = format!("v:{name}");
                if !out.contains(&node) {
                    out.push(node);
                }
            }
        }
    }
    out
}

/// Whether the ident at `i` is the root of a receiver chain that ends
/// in a method call (`x.f.min(..)`): such roots are captured as the
/// call's receiver, not as plain statement values.
fn chain_root_of_call(toks: &[Token], i: usize) -> bool {
    if punct_at(toks, i + 1) != Some('.') {
        return false;
    }
    let mut j = i;
    while punct_at(toks, j + 1) == Some('.') && ident_at(toks, j + 2).is_some() {
        j += 2;
    }
    punct_at(toks, j + 1) == Some('(') || turbofish_paren(toks, j).is_some()
}

/// Pre-scans a body for comparison and multiplication facts, skipping
/// nested fns (they get their own scan).
fn scan_facts(raw: &RawFn, ctx: &FileCtx<'_>, rec: &mut FnRecord) {
    let Some((start, end)) = raw.body else { return };
    let toks = ctx.toks;
    let mut j = start;
    while j < end {
        if ident_at(toks, j) == Some("fn") {
            if let Some(&resume) = ctx.skip_fns.get(&j) {
                j = resume;
                continue;
            }
        }
        match punct_at(toks, j) {
            Some(c @ ('<' | '>')) => {
                // skip `<<`/`>>`/`->`/`=>` and turbofish `::<`
                let prev = j.checked_sub(1).and_then(|p| punct_at(toks, p));
                let operator = prev != Some(c)
                    && prev != Some('-')
                    && prev != Some('=')
                    && prev != Some(':')
                    && punct_at(toks, j + 1) != Some(c);
                let right_at = if punct_at(toks, j + 1) == Some('=') {
                    j + 2
                } else {
                    j + 1
                };
                if operator {
                    let lhs = j.checked_sub(1).and_then(|p| ident_at(toks, p));
                    let rhs = ident_at(toks, right_at);
                    if let (Some(a), Some(b)) = (lhs, rhs) {
                        if !KEYWORDS.contains(&a) && !KEYWORDS.contains(&b) {
                            let line = toks[j].line;
                            rec.flows.push(FlowRecord {
                                line,
                                dst: format!("v:{a}"),
                                srcs: Vec::new(),
                                what: format!("cmp:{b}"),
                            });
                            rec.flows.push(FlowRecord {
                                line,
                                dst: format!("v:{b}"),
                                srcs: Vec::new(),
                                what: format!("cmp:{a}"),
                            });
                        }
                    }
                }
            }
            Some('*') => {
                // `a * b` with ident operands; `*x` derefs have no
                // left ident and fall out naturally
                let lhs = j.checked_sub(1).and_then(|p| ident_at(toks, p));
                let rhs = ident_at(toks, j + 1);
                if let (Some(a), Some(b)) = (lhs, rhs) {
                    if !KEYWORDS.contains(&a) && !KEYWORDS.contains(&b) {
                        rec.flows.push(FlowRecord {
                            line: toks[j].line,
                            dst: "arith".to_string(),
                            srcs: vec![format!("v:{a}"), format!("v:{b}")],
                            what: "arith:*".to_string(),
                        });
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
}

/// Per-file context shared by all body analyses.
struct FileCtx<'a> {
    toks: &'a [Token],
    lines: &'a [StrippedLine],
    types: &'a BTreeMap<String, RawType>,
    /// (owner, name) → (returns_guard, direct lock ids)
    sigs: BTreeMap<(Option<String>, String), (bool, Vec<String>)>,
    /// header token index → token index to resume after the nested fn
    skip_fns: BTreeMap<usize, usize>,
}

impl FileCtx<'_> {
    fn line_text(&self, line: u32) -> &str {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.code.as_str())
            .unwrap_or("")
    }
}

/// Resolves the type head of a receiver chain (`["self", "inner"]`).
fn chain_type(
    chain: &[String],
    owner: Option<&str>,
    env: &BTreeMap<String, String>,
    types: &BTreeMap<String, RawType>,
) -> Option<String> {
    let mut ty: Option<String> = None;
    for (k, part) in chain.iter().enumerate() {
        if k == 0 {
            ty = if part == "self" {
                owner.map(str::to_string)
            } else {
                env.get(part).cloned()
            };
        } else {
            let t = ty.as_deref()?;
            ty = types.get(t).and_then(|rt| rt.fields.get(part)).cloned();
        }
        ty.as_ref()?;
        let _ = k;
    }
    ty
}

/// Lock id for a `.lock()` receiver chain: `Owner::field` when the
/// parent type resolves, `fn-qualifier::local` for a typed local mutex,
/// `None` (no guard) otherwise.
fn lock_id(
    chain: &[String],
    fn_display: &str,
    owner: Option<&str>,
    env: &BTreeMap<String, String>,
    types: &BTreeMap<String, RawType>,
) -> Option<String> {
    match chain.len() {
        0 => None,
        1 => {
            let v = &chain[0];
            if v == "self" {
                return None; // `self.lock()` is a helper call, not a field
            }
            let head = env.get(v)?;
            if head == "Mutex" {
                Some(format!("{fn_display}::{v}"))
            } else {
                None
            }
        }
        _ => {
            let parent = chain_type(&chain[..chain.len() - 1], owner, env, types)?;
            Some(format!("{parent}::{}", chain.last()?))
        }
    }
}

/// Walks back from the `.` before a method name, collecting the
/// `ident(.ident)*` receiver chain. Returns `None` when the receiver is
/// an arbitrary expression (`foo().lock()`).
fn recv_chain(toks: &[Token], dot_idx: usize) -> Option<Vec<String>> {
    let mut chain = Vec::new();
    let mut j = dot_idx; // points at the `.`
    loop {
        let name = ident_at(toks, j.checked_sub(1)?)?;
        chain.push(name.to_string());
        if punct_at(toks, j.checked_sub(2).unwrap_or(usize::MAX)) == Some('.') {
            j -= 2;
        } else {
            break;
        }
    }
    // a chain hanging off `)` / `]` is an expression receiver
    if j >= 2 {
        if let Some(c) = punct_at(toks, j - 2) {
            if c == ')' || c == ']' {
                return None;
            }
        }
    }
    chain.reverse();
    Some(chain)
}

/// Infers the type head of a `let` RHS from its leading tokens:
/// constructor paths (`BoundedQueue::new(`), wrapper constructors
/// (`Arc::new(inner)`), and `.clone()` of a typed local.
fn infer_rhs_type(
    toks: &[Token],
    i: usize,
    end: usize,
    owner: Option<&str>,
    env: &BTreeMap<String, String>,
) -> Option<String> {
    let mut i = i;
    while i < end && punct_at(toks, i) == Some('&') {
        i += 1;
    }
    let first = ident_at(toks, i)?;
    if punct_at(toks, i + 1) == Some(':') && punct_at(toks, i + 2) == Some(':') {
        // `T::method(...)` — maybe through a path prefix
        let mut head = first.to_string();
        let mut j = i;
        while punct_at(toks, j + 1) == Some(':')
            && punct_at(toks, j + 2) == Some(':')
            && ident_at(toks, j + 3).is_some()
        {
            j += 3;
            let seg = ident_at(toks, j).unwrap_or_default().to_string();
            if punct_at(toks, j + 1) == Some('(')
                || (punct_at(toks, j + 1) == Some(':') && punct_at(toks, j + 2) == Some(':'))
            {
                // `head` so far is the type; `seg` the method — stop at a call
                if punct_at(toks, j + 1) == Some('(') {
                    if WRAPPERS.contains(&head.as_str()) {
                        // Arc::new(inner) / Arc::clone(&x) — look inside
                        if seg == "clone" {
                            let mut k = j + 2;
                            while k < end && punct_at(toks, k) == Some('&') {
                                k += 1;
                            }
                            let inner = ident_at(toks, k)?;
                            return env.get(inner).cloned();
                        }
                        return infer_rhs_type(toks, j + 2, end, owner, env);
                    }
                    if head == "Self" {
                        return owner.map(str::to_string);
                    }
                    if head.chars().next().is_some_and(char::is_uppercase) {
                        return Some(head);
                    }
                    return None;
                }
                head = seg.clone();
            } else {
                head = seg.clone();
            }
        }
        None
    } else if punct_at(toks, i + 1) == Some('.') {
        // `x.clone()` keeps x's type
        if ident_at(toks, i + 2) == Some("clone") && punct_at(toks, i + 3) == Some('(') {
            return env.get(first).cloned();
        }
        None
    } else {
        None
    }
}

fn is_float_zero(num: &str) -> bool {
    num.starts_with("0.") || num == "0f32" || num == "0f64"
}

/// Whether the `=` punct at `i` is a plain assignment (not `==`, `=>`,
/// `<=`, `+=`, ...).
fn plain_assign(toks: &[Token], i: usize) -> bool {
    if punct_at(toks, i) != Some('=') {
        return false;
    }
    if punct_at(toks, i + 1) == Some('=') {
        return false;
    }
    if let Some(prev) = i.checked_sub(1).and_then(|p| punct_at(toks, p)) {
        if "=!<>+-*/%&|^".contains(prev) {
            return false;
        }
    }
    true
}

#[allow(clippy::too_many_lines)]
fn analyze_body(raw: &RawFn, ctx: &FileCtx<'_>, rec: &mut FnRecord) {
    let Some((start, end)) = raw.body else { return };
    let toks = ctx.toks;
    let owner = raw.owner.as_deref();
    let fn_display = rec.display();
    let mut env: BTreeMap<String, String> = raw.params.iter().cloned().collect();
    let mut guards: Vec<Guard> = Vec::new();
    let mut lets: Vec<LetCtx> = Vec::new();
    let mut open_calls: Vec<OpenCall> = Vec::new();
    let mut pending_rebind: Option<String> = None;
    let mut last_clamp_close: Option<usize> = None;
    let mut depth = 0i32;
    let mut bdepth = 0i32; // paren/bracket depth
    let mut fp = FlowPass::default();
    scan_facts(raw, ctx, rec);

    let live_ids = |guards: &[Guard]| -> Vec<String> {
        let mut ids: Vec<String> = guards
            .iter()
            .filter(|g| g.alive)
            .flat_map(|g| g.ids.iter().cloned())
            .collect();
        ids.sort();
        ids.dedup();
        ids
    };

    let mut i = start;
    while i < end {
        // nested fn: skip its tokens; it is analyzed on its own
        if ident_at(toks, i) == Some("fn") {
            if let Some(&resume) = ctx.skip_fns.get(&i) {
                i = resume;
                continue;
            }
        }
        let line = toks[i].line;
        match &toks[i].tok {
            Tok::Punct('{') => {
                depth += 1;
                // an `if let` / `while let` binding becomes live inside
                // the block it guards
                if let Some(l) = lets.last() {
                    if l.cond && l.depth == depth - 1 {
                        for &g in &l.guards {
                            guards[g].bind_depth = Some(depth);
                        }
                        // g4check: allow(unwrap-in-lib): last() matched two lines up
                        let l = lets.pop().expect("just matched");
                        // the condition's sources flow into the binding
                        if let Some(n) = l.name.as_deref().filter(|n| *n != "_") {
                            let srcs = std::mem::take(&mut fp.stmt_srcs);
                            if !srcs.is_empty() {
                                rec.flows.push(FlowRecord {
                                    line: l.line,
                                    dst: format!("v:{n}"),
                                    srcs,
                                    what: "let".to_string(),
                                });
                            }
                        }
                    }
                }
                // a block boundary ends the condition/header segment —
                // unless a `let` RHS is mid-flight (`let h = H { .. }`)
                let in_let_rhs = lets.last().is_some_and(|l| l.rhs_started);
                if fp.fcalls.is_empty() && !in_let_rhs {
                    fp.stmt_srcs.clear();
                }
                i += 1;
            }
            Tok::Punct('}') => {
                depth -= 1;
                for g in guards.iter_mut() {
                    if g.alive && g.bind_depth.is_some_and(|d| d > depth) {
                        g.alive = false;
                    }
                }
                i += 1;
            }
            Tok::Punct('(') | Tok::Punct('[') => {
                bdepth += 1;
                i += 1;
            }
            Tok::Punct(')') | Tok::Punct(']') => {
                bdepth -= 1;
                fp.close_call(i, rec);
                // close any call whose args end here
                while let Some(oc) = open_calls.pop_if(|oc| oc.close == i) {
                    let consumed_ids: Vec<String> = oc
                        .consumed
                        .iter()
                        .flat_map(|&g| guards[g].ids.clone())
                        .collect();
                    let held: Vec<String> = oc
                        .held_at_open
                        .iter()
                        .filter(|id| !consumed_ids.contains(id))
                        .cloned()
                        .collect();
                    let consumed_any = !oc.consumed.is_empty();
                    // a consuming guard-returning call re-arms a rebound
                    // guard (condvar handoff: `state = self.wait(.., state)`)
                    let mut revived = false;
                    if consumed_any {
                        if let Some(name) = pending_rebind.as_deref() {
                            let returns_guard = ctx
                                .sigs
                                .get(&(owner.map(str::to_string), oc.callee.clone()))
                                .map(|(rg, _)| *rg)
                                .unwrap_or(false)
                                || rec
                                    .calls
                                    .get(oc.rec)
                                    .is_some_and(|c| !c.acquired.is_empty());
                            if returns_guard {
                                for &g in &oc.consumed {
                                    if guards[g].name.as_deref() == Some(name) {
                                        revived = true;
                                    }
                                }
                            }
                        }
                    }
                    for &g in &oc.consumed {
                        if revived && guards[g].name.as_deref() == pending_rebind.as_deref() {
                            continue; // stays alive with its old ids
                        }
                        guards[g].alive = false;
                    }
                    if oc.callee == "clamp" {
                        last_clamp_close = Some(i);
                    }
                    if let Some(c) = rec.calls.get_mut(oc.rec) {
                        c.held = held;
                        c.consumed_guard = consumed_any;
                    }
                }
                i += 1;
            }
            Tok::Punct(';') if bdepth == 0 => {
                // end of statement: temp guards die, let bindings seal
                let flow_srcs = fp.end_stmt(line, rec);
                while let Some(l) = lets.pop_if(|l| l.depth == depth) {
                    match l.name.as_deref() {
                        Some("_") => {
                            // `let _ = fallible(..);` — record the
                            // discarded call for the error-swallow rule
                            if let Some((node, callee)) = &fp.last_call {
                                rec.flows.push(FlowRecord {
                                    line: l.line,
                                    dst: "_".to_string(),
                                    srcs: vec![node.clone()],
                                    what: format!("discard:{callee}"),
                                });
                            }
                        }
                        Some(n) if !flow_srcs.is_empty() => {
                            rec.flows.push(FlowRecord {
                                line: l.line,
                                dst: format!("v:{n}"),
                                srcs: flow_srcs.clone(),
                                what: "let".to_string(),
                            });
                        }
                        _ => {}
                    }
                    seal_let(&l, toks, ctx, owner, &mut env, &mut guards);
                }
                fp.last_call = None;
                for g in guards.iter_mut() {
                    if g.alive && g.bind_depth.is_none() {
                        g.alive = false;
                    }
                }
                pending_rebind = None;
                i += 1;
            }
            Tok::Punct(',') => {
                fp.comma(bdepth);
                i += 1;
            }
            Tok::Ident(kw) if kw == "let" => {
                let cond = i
                    .checked_sub(1)
                    .and_then(|p| ident_at(toks, p))
                    .is_some_and(|p| p == "if" || p == "while");
                let (name, mut_count, after) = parse_let_pattern(toks, i + 1);
                let ty = if punct_at(toks, after) == Some(':') {
                    // annotation runs to the `=`
                    let mut j = after + 1;
                    let mut d = 0i32;
                    while j < end {
                        match punct_at(toks, j) {
                            Some('<') | Some('(') | Some('[') => d += 1,
                            Some('>') | Some(')') | Some(']') => d -= 1,
                            Some('=') if d <= 0 && plain_assign(toks, j) => break,
                            Some(';') if d <= 0 => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    Some((after + 1, j))
                } else {
                    None
                };
                lets.push(LetCtx {
                    name,
                    depth,
                    cond,
                    rhs_started: false,
                    mut_count,
                    guards: Vec::new(),
                    line,
                    ty,
                    accum_emitted: false,
                });
                i += 1;
            }
            Tok::Punct('=') if plain_assign(toks, i) => {
                if let Some(l) = lets.last_mut() {
                    if !l.rhs_started {
                        l.rhs_started = true;
                        // split-accumulator: `let (mut a, mut b) = (0.0, 0.0)`
                        // or `let mut acc = [0.0f32; N]` (not `vec![..]`)
                        let rhs_zero = rhs_float_zero(toks, i + 1, end);
                        if !l.accum_emitted
                            && rhs_zero
                            && (l.mut_count >= 2 || rhs_is_array(toks, i + 1))
                            && l.mut_count >= 1
                        {
                            rec.accums.push(AccumRecord { line: l.line });
                            l.accum_emitted = true;
                        }
                        i += 1;
                        continue;
                    }
                }
                // plain reassignment: `state = self.wait(...)`
                if let Some(name) = i
                    .checked_sub(1)
                    .and_then(|p| ident_at(toks, p))
                    .map(str::to_string)
                {
                    if bdepth == 0 && fp.fcalls.is_empty() {
                        fp.assign_dst = Some(name.clone());
                    }
                    if guards.iter().any(|g| g.name.as_deref() == Some(&name)) {
                        pending_rebind = Some(name);
                    }
                }
                i += 1;
            }
            Tok::Ident(name) => {
                let next = punct_at(toks, i + 1);
                let is_macro = next == Some('!')
                    && matches!(punct_at(toks, i + 2), Some('(') | Some('[') | Some('{'));
                if is_macro {
                    if name == "vec" && punct_at(toks, i + 2) == Some('[') {
                        // `vec![x; n]`: the repeat count is an
                        // allocation-size fact for the taint rules
                        let close = matching_close(toks, i + 2);
                        let mut semi = None;
                        let mut d = 0i32;
                        let mut j = i + 3;
                        while j < close {
                            match punct_at(toks, j) {
                                Some('(') | Some('[') | Some('{') => d += 1,
                                Some(')') | Some(']') | Some('}') => d -= 1,
                                Some(';') if d <= 0 => {
                                    semi = Some(j);
                                    break;
                                }
                                _ => {}
                            }
                            j += 1;
                        }
                        if let Some(s) = semi {
                            let srcs = collect_value_idents(toks, s + 1, close);
                            if !srcs.is_empty() {
                                rec.flows.push(FlowRecord {
                                    line,
                                    dst: "alloc".to_string(),
                                    srcs,
                                    what: "alloc:vec!".to_string(),
                                });
                            }
                        }
                    }
                    if PANIC_MACROS.contains(&name.as_str()) {
                        rec.panics.push(PanicRecord {
                            line,
                            what: format!("{name}!"),
                        });
                    } else if IO_MACROS.contains(&name.as_str()) {
                        rec.calls.push(CallRecord {
                            callee: format!("{name}!"),
                            recv: None,
                            method: false,
                            line,
                            held: live_ids(&guards),
                            acquired: Vec::new(),
                            consumed_guard: false,
                        });
                    }
                    i += 2;
                    continue;
                }
                let paren = if next == Some('(') {
                    Some(i + 1)
                } else {
                    turbofish_paren(toks, i)
                };
                if let (Some(paren), false) = (paren, KEYWORDS.contains(&name.as_str())) {
                    let calls_before = rec.calls.len();
                    handle_call(
                        HandleCall {
                            name,
                            i,
                            paren,
                            line,
                            owner,
                            fn_display: &fn_display,
                            raw,
                        },
                        ctx,
                        &env,
                        &mut guards,
                        &mut lets,
                        &mut open_calls,
                        &pending_rebind,
                        rec,
                        &live_ids,
                    );
                    // `.unwrap()`/`.expect(` push no CallRecord and get
                    // a transparent frame instead
                    let rec_idx = (rec.calls.len() > calls_before).then_some(calls_before);
                    fp.open_call(toks, i, paren, name, rec_idx, line, bdepth);
                    i += 1;
                    continue;
                }
                if name == "as" {
                    // narrowing cast?
                    if let Some(ty) = ident_at(toks, i + 1) {
                        if NARROW_TYPES.contains(&ty) {
                            let safe = i >= 1
                                && punct_at(toks, i - 1) == Some(')')
                                && last_clamp_close == Some(i - 1);
                            rec.casts.push(CastRecord {
                                line,
                                ty: ty.to_string(),
                                safe,
                            });
                        }
                    }
                    i += 1;
                    continue;
                }
                // --- dataflow value uses ---------------------------------
                if name == "return" {
                    fp.stmt_srcs.clear();
                    fp.is_return = true;
                } else if name == "for" {
                    // `for pat in expr {`: the binding flows from the
                    // iterated expression's value idents
                    let (bind, _, _) = parse_let_pattern(toks, i + 1);
                    if let Some(b) = bind.filter(|b| b != "_") {
                        let mut j = i + 1;
                        while j < end && ident_at(toks, j) != Some("in") {
                            j += 1;
                        }
                        let mut stop = j;
                        let mut d = 0i32;
                        while stop < end {
                            match punct_at(toks, stop) {
                                Some('(') | Some('[') => d += 1,
                                Some(')') | Some(']') => d -= 1,
                                Some('{') if d <= 0 => break,
                                _ => {}
                            }
                            stop += 1;
                        }
                        let mut srcs = collect_value_idents(toks, j + 1, stop);
                        // a bare range ident sits right before the loop
                        // `{`, which value_ident_ok reads as a struct
                        // literal; struct literals are not legal in a
                        // for-range, so admit it (`for line in lines {`)
                        if let Some(n) = stop.checked_sub(1).and_then(|p| ident_at(toks, p)) {
                            let glued = stop
                                .checked_sub(2)
                                .and_then(|p| punct_at(toks, p))
                                .is_some_and(|c| c == '.' || c == ':' || c == '\'');
                            if !KEYWORDS.contains(&n) && n != "_" && n != "self" && !glued {
                                let node = format!("v:{n}");
                                if !srcs.contains(&node) {
                                    srcs.push(node);
                                }
                            }
                        }
                        if !srcs.is_empty() {
                            rec.flows.push(FlowRecord {
                                line,
                                dst: format!("v:{b}"),
                                srcs,
                                what: "iter".to_string(),
                            });
                        }
                    }
                } else if !KEYWORDS.contains(&name.as_str())
                    && !chain_root_of_call(toks, i)
                    && value_ident_ok(toks, i, name)
                {
                    fp.push_value(format!("v:{name}"));
                }
                // a bare live-guard name as a call argument = a move into
                // the call (consumption), unless borrowed
                if let Some(oc_idx) = open_calls.len().checked_sub(1) {
                    let borrowed = i
                        .checked_sub(1)
                        .and_then(|p| punct_at(toks, p))
                        .is_some_and(|c| c == '&');
                    let bare = matches!(punct_at(toks, i + 1), Some(',') | Some(')'));
                    if !borrowed && bare {
                        if let Some(gi) = guards
                            .iter()
                            .position(|g| g.alive && g.name.as_deref() == Some(name.as_str()))
                        {
                            open_calls[oc_idx].consumed.push(gi);
                        }
                    }
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    // the body's tail expression (sources since the last `;`) feeds the
    // return value
    if !fp.stmt_srcs.is_empty() {
        let tail_line = toks
            .get(end.saturating_sub(1))
            .map(|t| t.line)
            .unwrap_or(raw.line);
        rec.flows.push(FlowRecord {
            line: tail_line,
            dst: "r".to_string(),
            srcs: std::mem::take(&mut fp.stmt_srcs),
            what: "ret".to_string(),
        });
    }
    let _ = num_at; // silence potential unused in future refactors
}

/// Whether the RHS starting at `i` contains a float-zero literal among
/// its first few tokens (tuple of zeros or `[0.0; N]`).
fn rhs_float_zero(toks: &[Token], i: usize, end: usize) -> bool {
    let mut j = i;
    let stop = (i + 16).min(end);
    while j < stop {
        if let Some(n) = num_at(toks, j) {
            if is_float_zero(n) {
                return true;
            }
        }
        if punct_at(toks, j) == Some(';') {
            break;
        }
        j += 1;
    }
    false
}

/// Whether the RHS starting at `i` is an array literal (not `vec![..]`).
fn rhs_is_array(toks: &[Token], i: usize) -> bool {
    punct_at(toks, i) == Some('[')
}

/// Extracts the binding name from a `let` pattern: `mut x`, `Some(x)`,
/// `Ok(mut g)`. Returns (name, count of `mut` in the pattern, index
/// after the pattern's first name-ish run).
fn parse_let_pattern(toks: &[Token], mut i: usize) -> (Option<String>, usize, usize) {
    let mut mut_count = 0usize;
    // count every `mut` up to the `=`/`:` at depth 0 (for tuple patterns)
    let mut j = i;
    let mut d = 0i32;
    while j < toks.len() {
        match punct_at(toks, j) {
            Some('(') | Some('[') => d += 1,
            Some(')') | Some(']') => d -= 1,
            Some('=') if d <= 0 && plain_assign(toks, j) => break,
            Some(':') if d <= 0 && punct_at(toks, j + 1) != Some(':') => break,
            Some(';') | Some('{') if d <= 0 => break,
            _ => {}
        }
        if ident_at(toks, j) == Some("mut") {
            mut_count += 1;
        }
        j += 1;
    }
    if ident_at(toks, i) == Some("mut") {
        i += 1;
    }
    let name = match ident_at(toks, i) {
        Some(n) if punct_at(toks, i + 1) == Some('(') => {
            // tuple-struct pattern `Some(x)` / `Ok(mut g)`
            let mut k = i + 2;
            if ident_at(toks, k) == Some("mut") {
                k += 1;
            }
            let inner = ident_at(toks, k).map(str::to_string);
            let _ = n;
            return (inner, mut_count, j);
        }
        Some(n) => Some(n.to_string()),
        None => None,
    };
    (name, mut_count, i + 1)
}

/// Seals a completed plain `let`: records the local's inferred type.
fn seal_let(
    l: &LetCtx,
    toks: &[Token],
    ctx: &FileCtx<'_>,
    owner: Option<&str>,
    env: &mut BTreeMap<String, String>,
    guards: &mut [Guard],
) {
    let Some(name) = &l.name else { return };
    // explicit annotation wins
    if let Some((s, e)) = l.ty {
        if let Some(head) = type_head(ctx.toks, s, e) {
            env.insert(name.clone(), head);
            bindable(guards, l);
            return;
        }
    }
    // constructor inference from the RHS (tokens after the `=` were
    // already walked; re-derive from the annotation-free header)
    if let Some(eq) = find_assign(toks, l) {
        if let Some(head) = infer_rhs_type(toks, eq + 1, toks.len(), owner, env) {
            env.insert(name.clone(), head);
        }
    }
    bindable(guards, l);
}

fn bindable(guards: &mut [Guard], l: &LetCtx) {
    for &g in &l.guards {
        if let Some(gd) = guards.get_mut(g) {
            gd.bind_depth = Some(l.depth);
        }
    }
}

/// Finds the `=` of a let statement by scanning forward from its line.
fn find_assign(toks: &[Token], l: &LetCtx) -> Option<usize> {
    let mut i = 0;
    while i < toks.len() {
        if toks[i].line == l.line && ident_at(toks, i) == Some("let") {
            let mut j = i + 1;
            let mut d = 0i32;
            while j < toks.len() {
                match punct_at(toks, j) {
                    Some('(') | Some('[') | Some('<') => d += 1,
                    Some(')') | Some(']') | Some('>') => d -= 1,
                    Some('=') if d <= 0 && plain_assign(toks, j) => return Some(j),
                    Some(';') if d <= 0 => return None,
                    _ => {}
                }
                j += 1;
            }
            return None;
        }
        i += 1;
    }
    None
}

/// Finds the `(` of a turbofish call: ident at `i` followed by
/// `::<…>(`, as in `sum::<f32>()`. Returns the paren's token index.
fn turbofish_paren(toks: &[Token], i: usize) -> Option<usize> {
    if punct_at(toks, i + 1) != Some(':')
        || punct_at(toks, i + 2) != Some(':')
        || punct_at(toks, i + 3) != Some('<')
    {
        return None;
    }
    let mut depth = 0i32;
    let mut k = i + 3;
    while k < toks.len() && k < i + 24 {
        match punct_at(toks, k) {
            Some('<') => depth += 1,
            Some('>') => {
                depth -= 1;
                if depth == 0 {
                    return (punct_at(toks, k + 1) == Some('(')).then_some(k + 1);
                }
            }
            _ => {}
        }
        k += 1;
    }
    None
}

struct HandleCall<'a> {
    name: &'a str,
    i: usize,
    /// Token index of the call's `(` — `i + 1` except for turbofish calls.
    paren: usize,
    line: u32,
    owner: Option<&'a str>,
    fn_display: &'a str,
    raw: &'a RawFn,
}

/// Records one `name(` call site: resolves its receiver, detects guard
/// acquisition, and opens a consumption-tracking frame.
#[allow(clippy::too_many_arguments)]
fn handle_call(
    hc: HandleCall<'_>,
    ctx: &FileCtx<'_>,
    env: &BTreeMap<String, String>,
    guards: &mut Vec<Guard>,
    lets: &mut [LetCtx],
    open_calls: &mut Vec<OpenCall>,
    pending_rebind: &Option<String>,
    rec: &mut FnRecord,
    live_ids: &dyn Fn(&[Guard]) -> Vec<String>,
) {
    let HandleCall {
        name,
        i,
        paren,
        line,
        owner,
        fn_display,
        raw,
    } = hc;
    let toks = ctx.toks;
    let prev = i.checked_sub(1).and_then(|p| punct_at(toks, p));
    let prev_is_dot = prev == Some('.');
    let prev_is_path = prev == Some(':')
        && i.checked_sub(2)
            .and_then(|p| punct_at(toks, p))
            .is_some_and(|c| c == ':');

    // `.unwrap()` / `.expect(` are panic sites, not calls worth edges
    if prev_is_dot && (name == "unwrap" || name == "expect") {
        rec.panics.push(PanicRecord {
            line,
            what: format!(".{name}("),
        });
        return;
    }

    let mut recv: Option<String> = None;
    let mut method = false;
    let mut acquired: Vec<String> = Vec::new();

    if prev_is_dot {
        method = true;
        let chain = recv_chain(toks, i - 1);
        if let Some(chain) = &chain {
            recv = chain_type(chain, owner, env, ctx.types);
            if LOCK_METHODS.contains(&name) {
                if let Some(id) = lock_id(chain, fn_display, owner, env, ctx.types) {
                    acquired.push(id);
                }
            }
        }
    } else if prev_is_path {
        // `Type::method(` / `module::func(`
        if let Some(seg) = i.checked_sub(3).and_then(|p| ident_at(toks, p)) {
            if seg == "Self" {
                recv = owner.map(str::to_string);
            } else if seg.chars().next().is_some_and(char::is_uppercase) {
                recv = Some(seg.to_string());
            }
        }
    }

    // same-file guard-returning helper? (`self.lock()`, `self.wait(..)`)
    if acquired.is_empty() {
        let owner_key = if method {
            // only trust helper resolution for `self.helper()` or a
            // resolved receiver type
            if recv.is_some() {
                recv.clone()
            } else if recv_chain(toks, i - 1).is_some_and(|c| c == ["self"]) {
                owner.map(str::to_string)
            } else {
                None
            }
        } else {
            recv.clone()
        };
        let key = (owner_key, name.to_string());
        if let Some((returns_guard, locks)) = ctx.sigs.get(&key) {
            if *returns_guard {
                acquired = locks.clone();
            }
        } else if !method && recv.is_none() {
            // free fn in the same file
            if let Some((true, locks)) = ctx.sigs.get(&(None, name.to_string())) {
                acquired = locks.clone();
            }
        }
    }

    let held = live_ids(guards);
    let rec_idx = rec.calls.len();
    rec.calls.push(CallRecord {
        callee: name.to_string(),
        recv,
        method,
        line,
        held: held.clone(),
        acquired: acquired.clone(),
        consumed_guard: false,
    });

    // float reduction?
    if (name == "sum" || name == "product" || name == "fold") && method {
        // turbofish hint: `.sum::<f32>()` has f32/f64 between name and `(`
        let turbofish_float =
            (i + 1..paren).any(|k| matches!(ident_at(toks, k), Some("f32") | Some("f64")));
        let mut hinted =
            turbofish_float || raw.sig_float || line_mentions_float(ctx.line_text(line));
        if name == "fold" {
            // float first arg: `fold(0.0f32, ..)`
            let mut k = paren + 1;
            let mut seen_float = false;
            while k < toks.len() && punct_at(toks, k) != Some(',') {
                if let Some(n) = num_at(toks, k) {
                    if n.contains('.') || n.ends_with("f32") || n.ends_with("f64") {
                        seen_float = true;
                    }
                }
                if matches!(ident_at(toks, k), Some("f32") | Some("f64")) {
                    seen_float = true;
                }
                k += 1;
                if k > paren + 7 {
                    break;
                }
            }
            if !seen_float {
                return finish_call(open_calls, toks, paren, rec_idx, name, held);
            }
            hinted = true;
        }
        rec.reductions.push(ReductionRecord {
            line,
            what: name.to_string(),
            hinted,
        });
    }

    // guard creation
    if !acquired.is_empty() {
        let bind_to = lets.last_mut().filter(|l| l.rhs_started || l.cond);
        match bind_to {
            Some(l) => {
                let gi = guards.len();
                guards.push(Guard {
                    name: l.name.clone(),
                    ids: acquired.clone(),
                    bind_depth: Some(l.depth),
                    alive: true,
                });
                l.guards.push(gi);
            }
            None => {
                // maybe a rebind (`state = self.wait(..)`), else a temp
                let name = pending_rebind.clone();
                let revive = name.as_ref().and_then(|n| {
                    guards
                        .iter()
                        .position(|g| g.name.as_deref() == Some(n.as_str()))
                });
                match revive {
                    Some(gi) => {
                        let mut ids = guards[gi].ids.clone();
                        for id in &acquired {
                            if !ids.contains(id) {
                                ids.push(id.clone());
                            }
                        }
                        guards[gi].ids = ids;
                        guards[gi].alive = true;
                    }
                    None => guards.push(Guard {
                        name,
                        ids: acquired.clone(),
                        bind_depth: None,
                        alive: true,
                    }),
                }
            }
        }
    }

    finish_call(open_calls, toks, paren, rec_idx, name, held);
}

fn finish_call(
    open_calls: &mut Vec<OpenCall>,
    toks: &[Token],
    paren: usize,
    rec_idx: usize,
    name: &str,
    held: Vec<String>,
) {
    let close = matching_close(toks, paren);
    open_calls.push(OpenCall {
        rec: rec_idx,
        close,
        callee: name.to_string(),
        held_at_open: held,
        consumed: Vec::new(),
    });
}

fn line_mentions_float(code: &str) -> bool {
    code.contains("f32") || code.contains("f64")
}

// --- per-file driver ----------------------------------------------------

/// Indexes one source file. The result depends only on `rel` (for its
/// file-kind classification) and `text`.
pub fn index_file(rel: &Path, text: &str) -> FileIndex {
    let kind = classify(rel);
    let file_is_test = kind == Some(FileKind::TestFile);
    let lines = strip_source(text);
    let in_test = test_regions(&lines);
    let toks = tokenize(&lines);
    let st = structural_pass(&toks, &lines, &in_test, file_is_test);

    // same-file signature table: (owner, name) → (returns_guard,
    // direct lock ids), for resolving guard-returning helpers
    let mut sigs: BTreeMap<(Option<String>, String), (bool, Vec<String>)> = BTreeMap::new();
    for f in &st.fns {
        let mut locks = Vec::new();
        if let Some((s, e)) = f.body {
            let env: BTreeMap<String, String> = f.params.iter().cloned().collect();
            let display = match &f.owner {
                Some(o) => format!("{o}::{}", f.name),
                None => f.name.clone(),
            };
            let mut i = s;
            while i < e {
                if ident_at(&toks, i) == Some("lock")
                    && punct_at(&toks, i + 1) == Some('(')
                    && i >= 1
                    && punct_at(&toks, i - 1) == Some('.')
                {
                    if let Some(chain) = recv_chain(&toks, i - 1) {
                        if let Some(id) =
                            lock_id(&chain, &display, f.owner.as_deref(), &env, &st.types)
                        {
                            if !locks.contains(&id) {
                                locks.push(id);
                            }
                        }
                    }
                }
                i += 1;
            }
        }
        sigs.insert((f.owner.clone(), f.name.clone()), (f.returns_guard, locks));
    }

    let mut skip_fns = BTreeMap::new();
    for f in &st.fns {
        let resume = match f.body {
            Some((_, close)) => close + 1,
            None => f.header_tok + 1,
        };
        skip_fns.insert(f.header_tok, resume);
    }

    let ctx = FileCtx {
        toks: &toks,
        lines: &lines,
        types: &st.types,
        sigs,
        skip_fns,
    };

    let mut fns = Vec::new();
    for f in &st.fns {
        let mut rec = FnRecord {
            name: f.name.clone(),
            owner: f.owner.clone(),
            module: f.module.clone(),
            line: f.line,
            is_test: f.attr_test,
            doc_panics: f.doc_panics,
            returns_guard: f.returns_guard,
            sig_float: f.sig_float,
            params: f.param_names.clone(),
            calls: Vec::new(),
            casts: Vec::new(),
            reductions: Vec::new(),
            accums: Vec::new(),
            panics: Vec::new(),
            flows: Vec::new(),
        };
        analyze_body(f, &ctx, &mut rec);
        fns.push(rec);
    }

    // allow annotations (scratch violation list: the lint pass owns
    // reporting malformed ones)
    let mut scratch = Vec::new();
    let allows_map = parse_allows(&lines, rel, &mut scratch);
    let mut allows = Vec::new();
    for (line_idx, rules) in &allows_map {
        for r in rules {
            allows.push(((line_idx + 1) as u32, r.name().to_string()));
        }
    }
    allows.sort();
    allows.dedup();

    FileIndex { fns, allows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(src: &str) -> FileIndex {
        index_file(Path::new("crates/demo/src/lib.rs"), src)
    }

    #[test]
    fn indexes_fns_with_owners_and_modules() {
        let src = "mod outer { mod inner { pub fn free() {} } }\n\
                   struct S { m: Mutex<u32> }\n\
                   impl S { fn method(&self) { self.m.lock(); } }\n";
        let fi = idx(src);
        assert_eq!(fi.fns.len(), 2);
        assert_eq!(fi.fns[0].name, "free");
        assert_eq!(fi.fns[0].module, "outer::inner");
        assert_eq!(fi.fns[1].display(), "S::method");
        assert_eq!(fi.fns[1].calls[0].acquired, vec!["S::m".to_string()]);
    }

    #[test]
    fn raw_strings_produce_no_calls() {
        let src = "fn f() -> &'static str { r#\"foo() bar.lock()\"# }\n";
        let fi = idx(src);
        assert!(fi.fns[0].calls.is_empty());
    }

    #[test]
    fn held_guards_tracked_through_scopes() {
        let src = "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
impl S {\n\
    fn f(&self) {\n\
        let g = self.a.lock().unwrap_or_else(|e| e.into_inner());\n\
        self.go();\n\
        drop(g);\n\
        self.go();\n\
    }\n\
    fn go(&self) {}\n\
}\n";
        let fi = idx(src);
        let f = &fi.fns[0];
        let gos: Vec<&CallRecord> = f.calls.iter().filter(|c| c.callee == "go").collect();
        assert_eq!(gos.len(), 2);
        assert_eq!(gos[0].held, vec!["S::a".to_string()]);
        assert!(gos[1].held.is_empty(), "drop(g) must kill the guard");
    }

    #[test]
    fn block_scoped_guard_dies_at_brace() {
        let src = "struct S { a: Mutex<u32> }\n\
impl S {\n\
    fn f(&self) {\n\
        let x = { let g = self.a.lock(); g.checked_add(1) };\n\
        self.go();\n\
    }\n\
    fn go(&self) {}\n\
}\n";
        let fi = idx(src);
        let go = fi.fns[0].calls.iter().find(|c| c.callee == "go");
        assert!(go.is_some_and(|c| c.held.is_empty()));
    }

    #[test]
    fn guard_moved_into_call_is_consumed() {
        let src = "struct S { a: Mutex<u32>, c: Condvar }\n\
impl S {\n\
    fn f(&self) {\n\
        let mut state = self.a.lock().unwrap_or_else(|e| e.into_inner());\n\
        state = self.wait(&self.c, state);\n\
        self.go();\n\
    }\n\
    fn wait<'a>(&self, c: &Condvar, g: MutexGuard<'a, u32>) -> MutexGuard<'a, u32> { g }\n\
    fn go(&self) {}\n\
}\n";
        let fi = idx(src);
        let f = &fi.fns[0];
        let wait = f
            .calls
            .iter()
            .find(|c| c.callee == "wait")
            .expect("wait call");
        assert!(
            wait.held.is_empty(),
            "handoff must not count as held: {:?}",
            wait.held
        );
        assert!(wait.consumed_guard);
        let go = f.calls.iter().find(|c| c.callee == "go").expect("go call");
        assert_eq!(
            go.held,
            vec!["S::a".to_string()],
            "rebind revives the guard"
        );
    }

    #[test]
    fn casts_and_clamp_safety() {
        let src = "fn q(x: f32) -> i8 { let a = x as i8; let b = x.clamp(-127.0, 127.0) as i8; a.wrapping_add(b) }\n";
        let fi = idx(src);
        let f = &fi.fns[0];
        assert_eq!(f.casts.len(), 2);
        assert!(!f.casts[0].safe);
        assert!(f.casts[1].safe);
    }

    #[test]
    fn reductions_and_hints() {
        let src = "fn n(xs: &[f32]) -> f32 { xs.iter().map(|v| v * v).sum() }\n\
                   fn m(xs: &[u64]) -> u64 { xs.iter().sum() }\n";
        let fi = idx(src);
        assert!(fi.fns[0].reductions[0].hinted, "sig mentions f32");
        assert!(!fi.fns[1].reductions[0].hinted);
    }

    #[test]
    fn turbofish_reductions_are_detected() {
        let src = "fn n(xs: &[u64]) -> u32 {\n\
                       let s = xs.iter().map(|v| (v % 7) as f64)\n\
                           .sum::<f64>();\n\
                       s as u32\n\
                   }\n";
        let fi = idx(src);
        assert_eq!(fi.fns[0].reductions.len(), 1, "sum::<f64>() is a reduction");
        assert!(
            fi.fns[0].reductions[0].hinted,
            "turbofish names the float type"
        );
    }

    #[test]
    fn split_accumulators_detected() {
        let src = "fn k(xs: &[f32]) -> f32 {\n\
                       let (mut s0, mut s1) = (0.0f32, 0.0f32);\n\
                       for x in xs { s0 += x; s1 += x; }\n\
                       s0 + s1\n\
                   }\n\
                   fn plain(xs: &[f32]) -> f32 { let mut s = 0.0f32; for x in xs { s += x; } s }\n";
        let fi = idx(src);
        assert_eq!(fi.fns[0].accums.len(), 1);
        assert!(fi.fns[1].accums.is_empty(), "a single accumulator is fine");
    }

    #[test]
    fn panic_sites_and_doc_exemptions() {
        let src = "/// Doc.\n///\n/// # Panics\n///\n/// When x is 0.\npub fn f(x: u32) -> u32 { assert_ne!(x, 0); 1 / x }\n\
                   fn g() { panic!(\"boom\"); }\n\
                   fn h(v: Vec<u32>) -> u32 { v.first().copied().unwrap() }\n";
        let fi = idx(src);
        assert!(fi.fns[0].doc_panics);
        assert_eq!(fi.fns[1].panics[0].what, "panic!");
        assert_eq!(fi.fns[2].panics[0].what, ".unwrap(");
    }

    #[test]
    fn typed_locals_resolve_method_receivers() {
        let src = "fn run() {\n\
                       let queue: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::make(8));\n\
                       queue.push(1);\n\
                       let q2 = Arc::clone(&queue);\n\
                       q2.push(2);\n\
                   }\n";
        let fi = idx(src);
        let pushes: Vec<&CallRecord> = fi.fns[0]
            .calls
            .iter()
            .filter(|c| c.callee == "push")
            .collect();
        assert_eq!(pushes.len(), 2);
        assert_eq!(pushes[0].recv.as_deref(), Some("BoundedQueue"));
        assert_eq!(pushes[1].recv.as_deref(), Some("BoundedQueue"));
    }

    #[test]
    fn dataflow_let_assign_and_return() {
        let src = "fn f(n: usize) -> usize { let a = n; let mut b = a; b = a; b }\n";
        let fi = idx(src);
        let f = &fi.fns[0];
        assert_eq!(f.params, vec!["n".to_string()]);
        let lets: Vec<&FlowRecord> = f.flows.iter().filter(|d| d.what == "let").collect();
        assert_eq!(lets[0].dst, "v:a");
        assert_eq!(lets[0].srcs, vec!["v:n".to_string()]);
        assert!(f
            .flows
            .iter()
            .any(|d| d.what == "assign" && d.dst == "v:b" && d.srcs.contains(&"v:a".to_string())));
        assert!(f
            .flows
            .iter()
            .any(|d| d.what == "ret" && d.dst == "r" && d.srcs == vec!["v:b".to_string()]));
    }

    #[test]
    fn dataflow_call_args_and_results() {
        let src = "fn f(n: usize) -> Vec<u8> { let v = Vec::with_capacity(n); v }\n";
        let fi = idx(src);
        let f = &fi.fns[0];
        let k = f
            .calls
            .iter()
            .position(|c| c.callee == "with_capacity")
            .expect("call indexed");
        assert!(f
            .flows
            .iter()
            .any(|d| d.what == "arg" && d.dst == format!("a:{k}:0") && d.srcs == ["v:n"]));
        assert!(f
            .flows
            .iter()
            .any(|d| d.what == "let" && d.dst == "v:v" && d.srcs == [format!("c:{k}")]));
    }

    #[test]
    fn dataflow_field_projection_and_receiver_chain() {
        let src = "fn f(h: Header) -> usize { let r = h.rows; let s = h.cols.min(r); s }\n";
        let fi = idx(src);
        let f = &fi.fns[0];
        // field projection: the whole-struct root carries the value
        assert!(f
            .flows
            .iter()
            .any(|d| d.what == "let" && d.dst == "v:r" && d.srcs == ["v:h"]));
        // method chain: the call node flows from its receiver root
        let k = f
            .calls
            .iter()
            .position(|c| c.callee == "min")
            .expect("min call");
        assert!(f
            .flows
            .iter()
            .any(|d| d.what == "recv:min" && d.dst == format!("c:{k}") && d.srcs == ["v:h"]));
    }

    #[test]
    fn dataflow_cmp_arith_and_vec_facts() {
        let src = "fn f(rows: usize, cols: usize) -> Vec<u8> {\n\
                       if rows > MAX_ROWS { return Vec::new(); }\n\
                       let n = rows * cols;\n\
                       vec![0u8; n]\n\
                   }\n";
        let fi = idx(src);
        let f = &fi.fns[0];
        assert!(f
            .flows
            .iter()
            .any(|d| d.what == "cmp:MAX_ROWS" && d.dst == "v:rows"));
        assert!(
            f.flows
                .iter()
                .any(|d| d.what == "arith:*"
                    && d.srcs == ["v:rows".to_string(), "v:cols".to_string()])
        );
        assert!(f
            .flows
            .iter()
            .any(|d| d.what == "alloc:vec!" && d.srcs == ["v:n"]));
    }

    #[test]
    fn dataflow_discard_records() {
        let src = "fn f(s: String) { let _ = parse_config(s); check(s).ok(); }\n\
                   fn parse_config(s: String) -> Result<u32, ()> { s.parse().map_err(|_| ()) }\n\
                   fn check(s: String) -> Result<(), ()> { let _ = s; Ok(()) }\n";
        let fi = idx(src);
        let f = &fi.fns[0];
        assert!(f
            .flows
            .iter()
            .any(|d| d.what == "discard:parse_config" && d.dst == "_"));
        assert!(f
            .flows
            .iter()
            .any(|d| d.what == "ok:check" && d.dst == "ok"));
    }

    #[test]
    fn dataflow_params_keep_positions() {
        let src = "impl S { fn m(&self, mut a: u32, (b, c): (u32, u32), d: &[u8]) {} }\n";
        let fi = idx(src);
        assert_eq!(
            fi.fns[0].params,
            vec!["a".to_string(), "b".to_string(), "d".to_string()],
            "self excluded, tuple pattern approximated by its first ident"
        );
    }

    #[test]
    fn test_fns_are_marked() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Vec::<u32>::new().pop().unwrap(); }\n}\nfn lib() {}\n";
        let fi = idx(src);
        assert!(fi.fns[0].is_test);
        assert!(!fi.fns[1].is_test);
    }
}
