//! The `g4check` source lint driver: a repo-specific invariant scanner
//! over the workspace's `.rs` files.
//!
//! This is deliberately *not* a rustc plugin or a syn-based AST walker —
//! the workspace is offline and dependency-free, so the scanner is a
//! lightweight line/token pass: comments and string literals are stripped
//! by a small state machine (nested block comments, raw strings, char
//! literals vs. lifetimes all handled), `#[cfg(test)]` regions are
//! tracked by brace depth, and each rule is a token scan over the
//! stripped code. That is enough to enforce conventions that rustc and
//! clippy cannot see, because they are *workspace policy*, not language
//! rules:
//!
//! | rule | enforces |
//! |---|---|
//! | `forbidden-rng` | no `thread_rng`/`from_entropy` outside the vendored tombstones — all randomness is seeded |
//! | `unwrap-in-lib` | no `.unwrap()`/`.expect(` in non-test library code without a `// g4check: allow` annotation |
//! | `forbid-unsafe` | `#![forbid(unsafe_code)]` present in every non-vendor crate root |
//! | `wallclock-in-test` | no `Instant::now`/`SystemTime::now` in deterministic test code |
//! | `format-registry` | every `BinWriter` kind/version written in source appears in tensor's `FORMATS` table and the README spec table; every `BinReader` site accepts the registered versions of the kind it reads |
//! | `bad-annotation` | every `g4check: allow(...)` names a real rule |
//!
//! Seven further rules — `lock-discipline`, `cast-truncation`,
//! `float-determinism`, `panic-path`, and the taint trio
//! `untrusted-alloc` / `len-overflow` / `error-swallow` — share this
//! module's [`Rule`]/[`Violation`] vocabulary but run as *graph* rules
//! over the cross-file symbol index; see [`crate::rules`] and the
//! workspace `RULES.md` for their semantics.
//!
//! Intentional exceptions are annotated in-source:
//!
//! ```text
//! // g4check: allow(unwrap-in-lib): index validated two lines above
//! let row = rows.get(i).unwrap();
//! ```
//!
//! An annotation suppresses the named rule on its own line and the line
//! directly below it, so it reads as a justification attached to the
//! site. Unknown rule names in an annotation are themselves violations —
//! a typo must not silently disable enforcement.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// One enforced workspace invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `thread_rng`/`from_entropy` outside the vendored tombstones.
    ForbiddenRng,
    /// `.unwrap()`/`.expect(` in non-test library code without an
    /// explicit allow annotation.
    UnwrapInLib,
    /// A non-vendor crate root missing `#![forbid(unsafe_code)]`.
    ForbidUnsafe,
    /// Wall-clock reads (`Instant::now`, `SystemTime::now`) inside
    /// deterministic test code.
    WallclockInTest,
    /// A `BinWriter` kind/version pair that drifted from the central
    /// `FORMATS` registry in `gnn4ip-tensor` or the README spec table,
    /// or a `BinReader` site whose accepted version window excludes a
    /// registered version of the kind it reads.
    FormatRegistry,
    /// A malformed `g4check: allow(...)` annotation or one naming an
    /// unknown rule.
    BadAnnotation,
    /// Lock-order inversion across functions, or a blocking call
    /// (I/O, `recv`, condvar waits, `BoundedQueue` push/pop, `publish`)
    /// while a `Mutex` guard is live. Graph lint over the symbol index.
    LockDiscipline,
    /// A narrowing `as` cast on the serialization paths without a
    /// proven-range annotation. Graph lint.
    CastTruncation,
    /// A float reduction (`sum`, `product`, float `fold`, split
    /// accumulators) in a bit-identity-critical module outside the
    /// deterministic-kernel registry. Graph lint.
    FloatDeterminism,
    /// An unannotated panic site reachable from a CLI subcommand or
    /// serve worker entry point via the call graph. Graph lint.
    PanicPath,
    /// A tainted (attacker-influenced) length reaching an allocation
    /// site (`Vec::with_capacity`, `reserve`, `vec![x; n]`) without a
    /// registered bound check on the way. Taint graph lint.
    UntrustedAlloc,
    /// Tainted operands in unchecked `usize` length arithmetic
    /// (`rows * cols` without `checked_mul`). Taint graph lint.
    LenOverflow,
    /// A `Result` from a fallible parse of untrusted data discarded via
    /// `let _ =` or `.ok()` in non-test library code. Taint graph lint.
    ErrorSwallow,
}

impl Rule {
    /// The kebab-case name used in reports and allow annotations.
    pub fn name(self) -> &'static str {
        match self {
            Rule::ForbiddenRng => "forbidden-rng",
            Rule::UnwrapInLib => "unwrap-in-lib",
            Rule::ForbidUnsafe => "forbid-unsafe",
            Rule::WallclockInTest => "wallclock-in-test",
            Rule::FormatRegistry => "format-registry",
            Rule::BadAnnotation => "bad-annotation",
            Rule::LockDiscipline => "lock-discipline",
            Rule::CastTruncation => "cast-truncation",
            Rule::FloatDeterminism => "float-determinism",
            Rule::PanicPath => "panic-path",
            Rule::UntrustedAlloc => "untrusted-alloc",
            Rule::LenOverflow => "len-overflow",
            Rule::ErrorSwallow => "error-swallow",
        }
    }

    /// Every rule, in report order.
    pub fn all() -> &'static [Rule] {
        &[
            Rule::ForbiddenRng,
            Rule::UnwrapInLib,
            Rule::ForbidUnsafe,
            Rule::WallclockInTest,
            Rule::FormatRegistry,
            Rule::BadAnnotation,
            Rule::LockDiscipline,
            Rule::CastTruncation,
            Rule::FloatDeterminism,
            Rule::PanicPath,
            Rule::UntrustedAlloc,
            Rule::LenOverflow,
            Rule::ErrorSwallow,
        ]
    }

    /// Resolves a kebab-case rule name (as written in an allow
    /// annotation).
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::all().iter().copied().find(|r| r.name() == name)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The rule that fired.
    pub rule: Rule,
    /// Path relative to the linted root.
    pub path: PathBuf,
    /// 1-based line number (0 for file-level findings).
    pub line: usize,
    /// Human-readable description of the finding.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Where and how to lint.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Workspace root (the directory holding the workspace `Cargo.toml`,
    /// `README.md`, and `crates/`).
    pub root: PathBuf,
}

impl LintConfig {
    /// Lints the workspace rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self { root: root.into() }
    }
}

/// What a [`run_lint`] pass found.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Every violation, sorted by path then line.
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Whether the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Walks up from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]` — how the `g4check` binary and the self-run
/// test find the root without configuration.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// Runs every rule over the workspace at `config.root` and returns the
/// findings.
///
/// # Errors
///
/// Returns an error when the root or a source file cannot be read — an
/// unreadable workspace must fail loudly, not pass vacuously.
pub fn run_lint(config: &LintConfig) -> Result<LintReport, String> {
    lint_sources(&config.root, &read_sources(&config.root)?)
}

/// Every `.rs` file under `root` with its text, sorted by relative path:
/// the one walk and read that the symbol index and the line lints share.
pub(crate) fn read_sources(root: &Path) -> Result<Vec<(PathBuf, String)>, String> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    files
        .into_iter()
        .map(|rel| {
            let text = std::fs::read_to_string(root.join(&rel))
                .map_err(|e| format!("reading {}: {e}", rel.display()))?;
            Ok((rel, text))
        })
        .collect()
}

/// [`run_lint`] over sources already read by [`read_sources`].
pub(crate) fn lint_sources(
    root: &Path,
    sources: &[(PathBuf, String)],
) -> Result<LintReport, String> {
    let mut report = LintReport::default();
    let mut registry = RegistryScan::default();
    for (rel, text) in sources {
        lint_source(rel, text, &mut report.violations, &mut registry);
        report.files_scanned += 1;
    }
    check_registry(root, &registry, &mut report.violations)?;
    report
        .violations
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(report)
}

/// How a file participates in the rules, decided from its relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FileKind {
    /// Library source: `src/**` or `crates/<c>/src/**` (minus `src/bin`).
    Library,
    /// Binary / example / bench source: panics are the caller's UX.
    BinaryLike,
    /// Integration-test source (`tests/**` anywhere): fully test code.
    TestFile,
}

pub(crate) fn classify(rel: &Path) -> Option<FileKind> {
    let s = rel.to_string_lossy().replace('\\', "/");
    if s.starts_with("target/") || s.starts_with("crates/vendor/") {
        return None; // out of scope entirely
    }
    if s.split('/').any(|part| part == "tests") {
        return Some(FileKind::TestFile);
    }
    if s.split('/')
        .any(|part| part == "examples" || part == "benches" || part == "bin")
    {
        return Some(FileKind::BinaryLike);
    }
    if s.starts_with("crates/bench/") {
        return Some(FileKind::BinaryLike); // the bench harness crate
    }
    if s.starts_with("src/") || (s.starts_with("crates/") && s.contains("/src/")) {
        return Some(FileKind::Library);
    }
    Some(FileKind::BinaryLike)
}

pub(crate) fn collect_rs_files(
    root: &Path,
    dir: &Path,
    out: &mut Vec<PathBuf>,
) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("reading dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || (name == "vendor" && dir.ends_with("crates")) {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

// --- source stripping ---------------------------------------------------

/// One source line, split into the views the rules scan.
#[derive(Debug, Default, Clone)]
pub(crate) struct StrippedLine {
    /// Code with comments *and* string/char literal contents blanked —
    /// the view token rules scan, so a rule name inside an error message
    /// can never fire.
    pub(crate) code: String,
    /// Code with comments blanked but string literals kept — the view
    /// the format-registry scan uses, so literal kind tags resolve.
    pub(crate) with_str: String,
    /// Concatenated comment text on the line — where allow annotations
    /// live.
    pub(crate) comment: String,
}

/// Strips `src` into per-line views. Handles `//` and nested `/* */`
/// comments, plain/raw/byte string literals, and char literals
/// (distinguished from lifetimes by lookahead).
pub(crate) fn strip_source(src: &str) -> Vec<StrippedLine> {
    #[derive(PartialEq)]
    enum Mode {
        Code,
        Line,
        Block(u32),
        Str { raw_hashes: Option<u32> },
        Char,
    }
    let chars: Vec<char> = src.chars().collect();
    let mut lines = Vec::new();
    let mut cur = StrippedLine::default();
    let mut mode = Mode::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if mode == Mode::Line {
                mode = Mode::Code;
            }
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match mode {
            Mode::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    mode = Mode::Line;
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    mode = Mode::Block(1);
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    cur.with_str.push('"');
                    mode = Mode::Str { raw_hashes: None };
                    i += 1;
                } else if let Some((skip, hashes)) = raw_string_prefix(&chars, i) {
                    // r"..."# / br#"..."# / b"..." — consume the prefix
                    // and opening quote
                    cur.code.push('"');
                    cur.with_str.push('"');
                    mode = Mode::Str { raw_hashes: hashes };
                    i += skip;
                } else if c == '\'' {
                    // char literal vs lifetime: a literal closes with '
                    let is_char = match next {
                        Some('\\') => true,
                        Some(_) => chars.get(i + 2) == Some(&'\''),
                        None => false,
                    };
                    if is_char {
                        cur.code.push('\'');
                        cur.with_str.push('\'');
                        mode = Mode::Char;
                        i += 1;
                    } else {
                        cur.code.push('\'');
                        cur.with_str.push('\'');
                        i += 1;
                    }
                } else {
                    cur.code.push(c);
                    cur.with_str.push(c);
                    i += 1;
                }
            }
            Mode::Line => {
                cur.comment.push(c);
                i += 1;
            }
            Mode::Block(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    mode = Mode::Block(depth + 1);
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    mode = if depth == 1 {
                        Mode::Code
                    } else {
                        Mode::Block(depth - 1)
                    };
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            Mode::Str { raw_hashes } => match raw_hashes {
                None => {
                    if c == '\\' {
                        cur.with_str.push(c);
                        match chars.get(i + 1) {
                            // leave the newline for the line handler
                            Some(&'\n') | None => i += 1,
                            Some(&e) => {
                                cur.with_str.push(e);
                                i += 2;
                            }
                        }
                    } else if c == '"' {
                        cur.code.push('"');
                        cur.with_str.push('"');
                        mode = Mode::Code;
                        i += 1;
                    } else {
                        cur.with_str.push(c);
                        i += 1;
                    }
                }
                Some(n) => {
                    if c == '"' && closes_raw(&chars, i, n) {
                        cur.code.push('"');
                        cur.with_str.push('"');
                        mode = Mode::Code;
                        i += 1 + n as usize;
                    } else {
                        cur.with_str.push(c);
                        i += 1;
                    }
                }
            },
            Mode::Char => {
                if c == '\\' {
                    i += 2;
                } else if c == '\'' {
                    cur.code.push('\'');
                    cur.with_str.push('\'');
                    mode = Mode::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
        }
    }
    lines.push(cur);
    lines
}

/// Detects a raw/byte string prefix (`r"`, `r#"`, `br##"`, `b"`) starting
/// at `i`, returning (chars to skip through the opening quote, hash count
/// — `None` marks a plain byte string).
fn raw_string_prefix(chars: &[char], i: usize) -> Option<(usize, Option<u32>)> {
    // the prefix must start an identifier, not continue one
    if i > 0 {
        let p = chars[i - 1];
        if p.is_alphanumeric() || p == '_' {
            return None;
        }
    }
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    let raw = chars.get(j) == Some(&'r');
    if raw {
        j += 1;
    }
    if j == i {
        return None; // neither b nor r
    }
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) != Some(&'"') || (!raw && hashes > 0) {
        return None;
    }
    let hashes = if raw { Some(hashes) } else { None };
    Some((j - i + 1, hashes))
}

/// Whether the `"` at `i` is followed by `n` hashes (closing a raw
/// string).
fn closes_raw(chars: &[char], i: usize, n: u32) -> bool {
    (0..n as usize).all(|k| chars.get(i + 1 + k) == Some(&'#'))
}

// --- per-file analysis --------------------------------------------------

/// Whether `code` contains `token` as a whole word (not part of a longer
/// identifier).
pub(crate) fn contains_token(code: &str, token: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(token) {
        let at = start + pos;
        let before_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + token.len();
        let after_ok = !code[after..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = after;
    }
    false
}

/// Per-line allow set: rule names suppressed on that line.
pub(crate) type Allows = BTreeMap<usize, Vec<Rule>>;

/// Parses `g4check: allow(rule, ...)` annotations out of comment text.
/// An annotation applies to its own line and the next line.
pub(crate) fn parse_allows(
    lines: &[StrippedLine],
    path: &Path,
    violations: &mut Vec<Violation>,
) -> Allows {
    let mut allows = Allows::new();
    for (idx, line) in lines.iter().enumerate() {
        let comment = line.comment.trim();
        let Some(pos) = comment.find("g4check:") else {
            continue;
        };
        // only an annotation when it *leads* the comment (after markers);
        // prose that merely mentions the syntax (docs, this file) is not
        if !comment[..pos]
            .chars()
            .all(|c| c == '/' || c == '!' || c == '*' || c.is_whitespace())
        {
            continue;
        }
        let rest = comment[pos + "g4check:".len()..].trim_start();
        let Some(args) = rest.strip_prefix("allow(").and_then(|r| r.split_once(')')) else {
            violations.push(Violation {
                rule: Rule::BadAnnotation,
                path: path.to_path_buf(),
                line: idx + 1,
                message: format!("malformed annotation '{comment}'; expected 'g4check: allow(rule, ...): reason'"),
            });
            continue;
        };
        for name in args.0.split(',') {
            let name = name.trim();
            match Rule::from_name(name) {
                Some(rule) => {
                    for target in [idx, idx + 1] {
                        allows.entry(target).or_default().push(rule);
                    }
                }
                None => violations.push(Violation {
                    rule: Rule::BadAnnotation,
                    path: path.to_path_buf(),
                    line: idx + 1,
                    message: format!("unknown rule '{name}' in allow annotation"),
                }),
            }
        }
    }
    allows
}

pub(crate) fn allowed(allows: &Allows, line_idx: usize, rule: Rule) -> bool {
    allows
        .get(&line_idx)
        .is_some_and(|rules| rules.contains(&rule))
}

/// Marks each line that sits inside a `#[cfg(test)]` block, tracked by
/// brace depth.
pub(crate) fn test_regions(lines: &[StrippedLine]) -> Vec<bool> {
    let mut in_test = vec![false; lines.len()];
    let mut depth: i64 = 0;
    let mut pending = false;
    let mut region_depth: Option<i64> = None;
    for (idx, line) in lines.iter().enumerate() {
        let mut line_is_test = region_depth.is_some();
        if line.code.contains("cfg(test") {
            pending = true;
            line_is_test = true; // the attribute belongs to the region
        }
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending && region_depth.is_none() {
                        region_depth = Some(depth);
                        pending = false;
                        line_is_test = true;
                    }
                }
                '}' => {
                    depth -= 1;
                    if region_depth.is_some_and(|d| depth < d) {
                        region_depth = None;
                        line_is_test = true; // closing brace still test
                    }
                }
                _ => {}
            }
        }
        // a cfg(test) on a braceless item (`#[cfg(test)] use ...;`)
        // shouldn't leak to the next block
        if pending && region_depth.is_none() && line.code.contains(';') {
            pending = false;
        }
        in_test[idx] = line_is_test || region_depth.is_some();
    }
    in_test
}

/// Scans one file, pushing violations and feeding the cross-file format
/// registry.
fn lint_source(
    rel: &Path,
    text: &str,
    violations: &mut Vec<Violation>,
    registry: &mut RegistryScan,
) {
    let Some(kind) = classify(rel) else {
        return;
    };
    let lines = strip_source(text);
    let allows = parse_allows(&lines, rel, violations);
    let in_test = test_regions(&lines);

    for (idx, line) in lines.iter().enumerate() {
        let code = line.code.as_str();
        let lineno = idx + 1;
        let test_line = kind == FileKind::TestFile || in_test[idx];

        if (contains_token(code, "thread_rng") || contains_token(code, "from_entropy"))
            && !allowed(&allows, idx, Rule::ForbiddenRng)
        {
            violations.push(Violation {
                rule: Rule::ForbiddenRng,
                path: rel.to_path_buf(),
                line: lineno,
                message: "entropy-seeded randomness is forbidden; use an explicit seed \
                          (StdRng::seed_from_u64)"
                    .to_string(),
            });
        }

        if kind == FileKind::Library
            && !test_line
            && (code.contains(".unwrap()") || code.contains(".expect("))
            && !allowed(&allows, idx, Rule::UnwrapInLib)
        {
            violations.push(Violation {
                rule: Rule::UnwrapInLib,
                path: rel.to_path_buf(),
                line: lineno,
                message: "unwrap/expect in library code; return a Result or annotate with \
                          '// g4check: allow(unwrap-in-lib): why it cannot fail'"
                    .to_string(),
            });
        }

        if test_line
            && (contains_token(code, "Instant") && code.contains("Instant::now")
                || code.contains("SystemTime::now"))
            && !allowed(&allows, idx, Rule::WallclockInTest)
        {
            violations.push(Violation {
                rule: Rule::WallclockInTest,
                path: rel.to_path_buf(),
                line: lineno,
                message: "wall-clock read in deterministic test code; assert on behaviour, \
                          not elapsed time"
                    .to_string(),
            });
        }
    }

    if is_crate_root(rel) {
        let has_forbid = lines
            .iter()
            .any(|l| l.code.contains("#![forbid(unsafe_code)]"));
        if !has_forbid {
            violations.push(Violation {
                rule: Rule::ForbidUnsafe,
                path: rel.to_path_buf(),
                line: 0,
                message: "crate root must declare #![forbid(unsafe_code)]".to_string(),
            });
        }
    }

    if kind != FileKind::TestFile {
        scan_registry(rel, &lines, &in_test, registry);
    }
}

/// Whether `rel` is a non-vendor crate root (`src/lib.rs` of the facade
/// or of a workspace crate).
fn is_crate_root(rel: &Path) -> bool {
    let s = rel.to_string_lossy().replace('\\', "/");
    if s == "src/lib.rs" {
        return true;
    }
    let parts: Vec<&str> = s.split('/').collect();
    parts.len() == 4 && parts[0] == "crates" && parts[2] == "src" && parts[3] == "lib.rs"
}

// --- format registry ----------------------------------------------------

/// Cross-file state for the `format-registry` rule.
#[derive(Debug, Default)]
struct RegistryScan {
    /// `const NAME: &str = "value"` definitions (None = ambiguous).
    str_consts: BTreeMap<String, Option<String>>,
    /// `const NAME: u16 = n` definitions (None = ambiguous).
    u16_consts: BTreeMap<String, Option<u16>>,
    /// `BinWriter`/`BinReader` call sites in non-test code.
    calls: Vec<CallSite>,
}

#[derive(Debug)]
struct CallSite {
    path: PathBuf,
    line: usize,
    kind_expr: String,
    /// `None` for `BinWriter::new` / `BinReader::open` (implicit v1).
    version_expr: Option<String>,
    /// `BinReader` site (checked against the registry's written
    /// versions) rather than a `BinWriter` site (must match exactly).
    reader: bool,
}

/// Collects const definitions and writer call sites from one file's
/// non-test lines.
fn scan_registry(
    rel: &Path,
    lines: &[StrippedLine],
    in_test: &[bool],
    registry: &mut RegistryScan,
) {
    // join non-test lines so multi-line calls still parse; blank test
    // lines keep offsets→line-number mapping intact
    let mut joined = String::new();
    for (idx, line) in lines.iter().enumerate() {
        if !in_test[idx] {
            joined.push_str(&line.with_str);
        }
        joined.push('\n');
    }

    for (idx, line) in lines.iter().enumerate() {
        if in_test[idx] {
            continue;
        }
        let ws = line.with_str.as_str();
        if let Some((name, value)) = parse_str_const(ws) {
            insert_const(&mut registry.str_consts, name, value);
        }
        if let Some((name, value)) = parse_u16_const(ws) {
            insert_const(&mut registry.u16_consts, name, value);
        }
    }

    // patterns assembled at runtime so this scanner never matches its own
    // source (the literals below are split)
    let new_pat: String = ["BinWriter", "::new("].concat();
    let ver_pat: String = ["BinWriter", "::with_version("].concat();
    let open_pat: String = ["BinReader", "::open("].concat();
    let openv_pat: String = ["BinReader", "::open_versioned("].concat();
    // (pattern, has explicit version arg, reader, index of the kind arg —
    // readers take the byte slice first)
    for (pat, has_version, reader, kind_arg) in [
        (new_pat, false, false, 0),
        (ver_pat, true, false, 0),
        (open_pat, false, true, 1),
        (openv_pat, true, true, 1),
    ] {
        let mut from = 0;
        while let Some(pos) = joined[from..].find(&pat) {
            let at = from + pos;
            let args_start = at + pat.len();
            let line = joined[..at].matches('\n').count() + 1;
            if let Some(args) = balanced_args(&joined[args_start..]) {
                let parts = split_top_level(&args);
                let kind_expr = parts.get(kind_arg).cloned().unwrap_or_default();
                let version_expr = if has_version {
                    parts.get(kind_arg + 1).cloned()
                } else {
                    None
                };
                registry.calls.push(CallSite {
                    path: rel.to_path_buf(),
                    line,
                    kind_expr,
                    version_expr,
                    reader,
                });
            }
            from = args_start;
        }
    }
}

fn insert_const<T: PartialEq>(map: &mut BTreeMap<String, Option<T>>, name: String, value: T) {
    match map.get(&name) {
        Some(Some(existing)) if *existing == value => {}
        Some(_) => {
            map.insert(name, None); // same name, different value: ambiguous
        }
        None => {
            map.insert(name, Some(value));
        }
    }
}

/// Parses `const NAME: &str = "value";` (with optional `pub`) from one
/// stripped line.
fn parse_str_const(ws: &str) -> Option<(String, String)> {
    let pos = find_const(ws)?;
    let rest = &ws[pos..];
    let (name, rest) = rest.split_once(':')?;
    let name = name.trim();
    if !is_ident(name) {
        return None;
    }
    let (ty, rest) = rest.split_once('=')?;
    if !ty.trim().ends_with("str") {
        return None;
    }
    let rest = rest.trim_start();
    let value = rest.strip_prefix('"')?.split_once('"')?.0;
    Some((name.to_string(), value.to_string()))
}

/// Parses `const NAME: u16 = n;` (with optional `pub`) from one stripped
/// line.
fn parse_u16_const(ws: &str) -> Option<(String, u16)> {
    let pos = find_const(ws)?;
    let rest = &ws[pos..];
    let (name, rest) = rest.split_once(':')?;
    let name = name.trim();
    if !is_ident(name) {
        return None;
    }
    let (ty, rest) = rest.split_once('=')?;
    if ty.trim() != "u16" {
        return None;
    }
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '_')
        .collect();
    digits
        .replace('_', "")
        .parse()
        .ok()
        .map(|v| (name.to_string(), v))
}

/// Returns the offset just past a `const ` keyword on the line, if any.
fn find_const(ws: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(pos) = ws[from..].find("const ") {
        let at = from + pos;
        let before_ok = at == 0
            || !ws[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok {
            return Some(at + "const ".len());
        }
        from = at + "const ".len();
    }
    None
}

fn is_ident(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_alphanumeric() || c == '_')
}

/// Captures the argument text of a call up to its matching close paren.
fn balanced_args(s: &str) -> Option<String> {
    let mut depth = 1;
    for (i, c) in s.char_indices() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(s[..i].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

/// Splits call arguments on top-level commas.
fn split_top_level(args: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut depth = 0;
    let mut cur = String::new();
    for c in args.chars() {
        match c {
            '(' | '[' | '{' => {
                depth += 1;
                cur.push(c);
            }
            ')' | ']' | '}' => {
                depth -= 1;
                cur.push(c);
            }
            ',' if depth == 0 => parts.push(std::mem::take(&mut cur)),
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        parts.push(cur);
    }
    parts.iter().map(|p| p.trim().to_string()).collect()
}

/// Resolves a kind expression (string literal or const name) to its
/// value.
fn resolve_kind(expr: &str, consts: &BTreeMap<String, Option<String>>) -> Option<String> {
    let expr = expr.trim();
    if let Some(stripped) = expr.strip_prefix('"') {
        return stripped.split_once('"').map(|(v, _)| v.to_string());
    }
    let name = expr.rsplit("::").next().unwrap_or(expr);
    consts.get(name).cloned().flatten()
}

/// Resolves a version expression (integer literal or const name).
fn resolve_version(expr: &str, consts: &BTreeMap<String, Option<u16>>) -> Option<u16> {
    let expr = expr.trim();
    if let Ok(v) = expr.parse::<u16>() {
        return Some(v);
    }
    let name = expr.rsplit("::").next().unwrap_or(expr);
    consts.get(name).cloned().flatten()
}

/// Cross-checks the collected call sites against the `FORMATS` table in
/// `gnn4ip-tensor` and the README spec table.
fn check_registry(
    root: &Path,
    registry: &RegistryScan,
    violations: &mut Vec<Violation>,
) -> Result<(), String> {
    let serialize_rel = PathBuf::from("crates/tensor/src/serialize.rs");
    let serialize_path = root.join(&serialize_rel);
    let (formats, formats_line) = match std::fs::read_to_string(&serialize_path) {
        Ok(text) => parse_formats_table(&text),
        Err(e) => {
            violations.push(Violation {
                rule: Rule::FormatRegistry,
                path: serialize_rel.clone(),
                line: 0,
                message: format!("cannot read the FORMATS registry source: {e}"),
            });
            return Ok(());
        }
    };
    if formats.is_empty() {
        violations.push(Violation {
            rule: Rule::FormatRegistry,
            path: serialize_rel.clone(),
            line: formats_line,
            message: "no FORMATS registry table found; declare \
                      `pub const FORMATS: &[(&str, u16)]` listing every artifact kind"
                .to_string(),
        });
        return Ok(());
    }

    // 1. every writer/reader call site resolves and appears in FORMATS
    let mut written: Vec<(String, u16)> = Vec::new();
    for call in &registry.calls {
        let kind = resolve_kind(&call.kind_expr, &registry.str_consts);
        let version = match &call.version_expr {
            Some(expr) => resolve_version(expr, &registry.u16_consts),
            None => Some(1), // new/open default to the baseline version
        };
        let (Some(kind), Some(version)) = (kind, version) else {
            violations.push(Violation {
                rule: Rule::FormatRegistry,
                path: call.path.clone(),
                line: call.line,
                message: format!(
                    "cannot resolve artifact kind/version from `{}`{}; use a string literal \
                     or a workspace-unique const",
                    call.kind_expr,
                    call.version_expr
                        .as_deref()
                        .map(|v| format!(" / `{v}`"))
                        .unwrap_or_default()
                ),
            });
            continue;
        };
        if call.reader {
            // a reader accepts versions 1..=max; every registered
            // version of the kind it names must fall in that window, or
            // the reader rejects artifacts the workspace produces
            let registered: Vec<u16> = formats
                .iter()
                .filter(|(k, _)| *k == kind)
                .map(|(_, v)| *v)
                .collect();
            if registered.is_empty() {
                violations.push(Violation {
                    rule: Rule::FormatRegistry,
                    path: call.path.clone(),
                    line: call.line,
                    message: format!(
                        "reader accepts artifact kind '{kind}' which is not in the FORMATS \
                         registry (crates/tensor/src/serialize.rs); register it there and in \
                         the README spec table"
                    ),
                });
            } else if let Some(newer) = registered.iter().find(|v| **v > version) {
                violations.push(Violation {
                    rule: Rule::FormatRegistry,
                    path: call.path.clone(),
                    line: call.line,
                    message: format!(
                        "reader accepts kind '{kind}' up to v{version} but FORMATS registers \
                         v{newer}; raise the reader's max_version or it rejects current \
                         artifacts"
                    ),
                });
            }
            continue; // readers don't count toward the stale-row check
        }
        if !formats.iter().any(|(k, v)| *k == kind && *v == version) {
            violations.push(Violation {
                rule: Rule::FormatRegistry,
                path: call.path.clone(),
                line: call.line,
                message: format!(
                    "artifact kind '{kind}' v{version} is not in the FORMATS registry \
                     (crates/tensor/src/serialize.rs); register it there and in the README \
                     spec table"
                ),
            });
        }
        written.push((kind, version));
    }

    // 2. no stale registry rows: every FORMATS entry is written somewhere
    for (kind, version) in &formats {
        if !written.iter().any(|(k, v)| k == kind && v == version) {
            violations.push(Violation {
                rule: Rule::FormatRegistry,
                path: serialize_rel.clone(),
                line: formats_line,
                message: format!(
                    "FORMATS registers kind '{kind}' v{version} but no non-test writer \
                     produces it; remove the stale row or restore the writer"
                ),
            });
        }
    }

    // 3. the README spec table documents every registered pair
    let readme_rel = PathBuf::from("README.md");
    let readme = std::fs::read_to_string(root.join(&readme_rel)).unwrap_or_default();
    for (kind, version) in &formats {
        let documented = readme.lines().any(|l| {
            l.trim_start().starts_with('|')
                && l.contains(&format!("`{kind}`"))
                && l.split('|')
                    .any(|cell| cell.trim() == format!("v{version}"))
        });
        if !documented {
            violations.push(Violation {
                rule: Rule::FormatRegistry,
                path: readme_rel.clone(),
                line: 0,
                message: format!(
                    "README spec table is missing a row for artifact kind `{kind}` v{version}"
                ),
            });
        }
    }
    Ok(())
}

/// Extracts `("kind", version)` pairs from the `FORMATS` declaration,
/// returning them with the declaration's 1-based line.
fn parse_formats_table(text: &str) -> (Vec<(String, u16)>, usize) {
    let lines = strip_source(text);
    let joined: String = lines
        .iter()
        .flat_map(|l| [l.with_str.as_str(), "\n"])
        .collect();
    let Some(start) = joined.find("FORMATS:") else {
        return (Vec::new(), 0);
    };
    let line = joined[..start].matches('\n').count() + 1;
    let Some(end) = joined[start..].find(';') else {
        return (Vec::new(), line);
    };
    let body = &joined[start..start + end];
    let mut pairs = Vec::new();
    let mut rest = body;
    while let Some(q) = rest.find('(') {
        let after = &rest[q + 1..];
        let Some((kind, tail)) = after
            .trim_start()
            .strip_prefix('"')
            .and_then(|r| r.split_once('"'))
        else {
            rest = after;
            continue;
        };
        let digits: String = tail
            .chars()
            .skip_while(|c| *c == ',' || c.is_whitespace())
            .take_while(|c| c.is_ascii_digit())
            .collect();
        if let Ok(v) = digits.parse::<u16>() {
            pairs.push((kind.to_string(), v));
        }
        rest = tail;
    }
    (pairs, line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripper_blanks_comments_and_strings() {
        let src = "let a = \"thread_rng\"; // thread_rng in comment\nlet b = 1; /* block\nstill block */ let c = 2;";
        let lines = strip_source(src);
        assert_eq!(lines.len(), 3);
        assert!(!lines[0].code.contains("thread_rng"));
        assert!(lines[0].with_str.contains("thread_rng"));
        assert!(lines[0].comment.contains("thread_rng"));
        assert!(lines[1].code.contains("let b"));
        assert!(!lines[2].code.contains("still block"));
        assert!(lines[2].code.contains("let c"));
    }

    #[test]
    fn stripper_handles_raw_strings_and_chars() {
        let src = "let r = r#\"unwrap() \"quoted\" inside\"#;\nlet c = '\\''; let l: &'static str = \"x\";";
        let lines = strip_source(src);
        assert!(!lines[0].code.contains("unwrap"));
        assert!(lines[0].with_str.contains("unwrap()"));
        // the lifetime must not open a char literal and swallow the rest
        assert!(lines[1].code.contains("static"));
    }

    #[test]
    fn test_regions_track_cfg_test_mods() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn lib2() {}";
        let lines = strip_source(src);
        let marks = test_regions(&lines);
        assert_eq!(marks, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn token_matching_respects_word_boundaries() {
        assert!(contains_token("thread_rng()", "thread_rng"));
        assert!(!contains_token("my_thread_rng()", "thread_rng"));
        assert!(!contains_token("thread_rng_alt()", "thread_rng"));
    }

    #[test]
    fn const_parsers_extract_pairs() {
        assert_eq!(
            parse_str_const("pub const K: &str = \"gnn4ip-x\";"),
            Some(("K".to_string(), "gnn4ip-x".to_string()))
        );
        assert_eq!(
            parse_u16_const("const V: u16 = 2;"),
            Some(("V".to_string(), 2))
        );
        assert_eq!(parse_u16_const("const V: u32 = 2;"), None);
    }

    #[test]
    fn formats_table_parses() {
        let src = "pub const FORMATS: &[(&str, u16)] = &[\n    (\"a-kind\", 1),\n    (\"b-kind\", 2),\n];";
        let (pairs, line) = parse_formats_table(src);
        assert_eq!(line, 1);
        assert_eq!(
            pairs,
            vec![("a-kind".to_string(), 1), ("b-kind".to_string(), 2)]
        );
    }
}
