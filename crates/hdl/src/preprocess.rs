//! Verilog source preprocessing — phase 1 of the paper's Fig. 2 pipeline.
//!
//! Strips comments and attributes, resolves `` `define `` text macros,
//! drops non-semantic compiler directives (`` `timescale ``,
//! `` `celldefine ``, ...), and resolves `` `include `` against a
//! caller-supplied virtual filesystem (the reproduction never touches the
//! real filesystem from library code).

use std::borrow::Cow;
use std::collections::HashMap;

use crate::ParseVerilogError;

/// A virtual include resolver: maps an include path to source text.
pub type IncludeMap = HashMap<String, String>;

/// Preprocesses Verilog source text.
///
/// Supported directives: `` `define NAME body ``, `` `undef NAME ``,
/// `` `include "file" `` (resolved via `includes`), `` `ifdef/`ifndef/`else/`endif ``.
/// Unknown directives (e.g. `` `timescale ``) are dropped to end of line.
/// Comments (`//` and `/* */`) are removed; `(* attributes *)` are removed.
///
/// Text that preprocessing would give back byte for byte is borrowed, not
/// copied: it has no backtick, comment, attribute or `\r`, and it ends in
/// `\n`. Anything else goes through [`preprocess_owned`].
///
/// # Errors
///
/// Returns an error on unterminated block comments, missing include files,
/// or unbalanced conditional directives.
///
/// # Examples
///
/// ```
/// use std::borrow::Cow;
/// use gnn4ip_hdl::preprocess;
///
/// let out = preprocess("`define W 8\nwire [`W-1:0] x; // tail", &Default::default())?;
/// assert_eq!(out.trim(), "wire [ 8 -1:0] x;");
/// let plain = preprocess("wire x;\n", &Default::default())?;
/// assert!(matches!(plain, Cow::Borrowed("wire x;\n")));
/// # Ok::<(), gnn4ip_hdl::ParseVerilogError>(())
/// ```
pub fn preprocess<'s>(
    source: &'s str,
    includes: &IncludeMap,
) -> Result<Cow<'s, str>, ParseVerilogError> {
    if is_plain(source) {
        Ok(Cow::Borrowed(source))
    } else {
        preprocess_owned(source, includes).map(Cow::Owned)
    }
}

/// [`preprocess`] without the borrowing shortcut: strips comments and
/// attributes, then expands directives line by line, always into a new
/// `String`.
///
/// # Errors
///
/// As [`preprocess`].
pub fn preprocess_owned(source: &str, includes: &IncludeMap) -> Result<String, ParseVerilogError> {
    let no_comments = strip_comments(source)?;
    let mut macros: HashMap<String, String> = HashMap::new();
    let mut out = String::with_capacity(no_comments.len());
    // Stack of "currently emitting" flags for ifdef nesting.
    let mut emit_stack: Vec<bool> = Vec::new();
    expand(
        &no_comments,
        includes,
        &mut macros,
        &mut emit_stack,
        &mut out,
        0,
    )?;
    if !emit_stack.is_empty() {
        return Err(ParseVerilogError::msg("unterminated `ifdef"));
    }
    Ok(out)
}

/// True when [`preprocess_owned`] would return `source` unchanged: no
/// directive or macro use (backtick), nothing [`strip_comments`] removes
/// (`//`, `/*`, `(*` other than the `@(*)` wildcard), no `\r` for
/// `lines()` to drop, and a final `\n` (the expansion ends every line
/// with one). The scan has no early exit and no branch, so the compiler
/// vectorizes it.
fn is_plain(source: &str) -> bool {
    let bytes = source.as_bytes();
    let n = bytes.len();
    if n < 2 || bytes[n - 1] != b'\n' {
        return bytes == b"\n";
    }
    // byte `c` followed by `d` and `e`
    let flag = |c: u8, d: u8, e: u8| {
        (c == b'`')
            | (c == b'\r')
            | ((c == b'/') & ((d == b'/') | (d == b'*')))
            | ((c == b'(') & (d == b'*') & (e != b')'))
    };
    // the byte before the final `\n` has only that `\n` after it
    let mut flagged = flag(bytes[n - 2], b'\n', b'\n');
    for ((&c, &d), &e) in bytes.iter().zip(&bytes[1..]).zip(&bytes[2..]) {
        flagged |= flag(c, d, e);
    }
    !flagged
}

fn emitting(stack: &[bool]) -> bool {
    stack.iter().all(|&b| b)
}

fn expand(
    source: &str,
    includes: &IncludeMap,
    macros: &mut HashMap<String, String>,
    emit_stack: &mut Vec<bool>,
    out: &mut String,
    depth: usize,
) -> Result<(), ParseVerilogError> {
    if depth > 16 {
        return Err(ParseVerilogError::msg("include/macro nesting too deep"));
    }
    for line in source.lines() {
        let trimmed = line.trim_start();
        if let Some(rest) = trimmed.strip_prefix('`') {
            let (word, tail) = split_word(rest);
            match word {
                "define" if emitting(emit_stack) => {
                    let (name, body) = split_word(tail.trim_start());
                    if name.is_empty() {
                        return Err(ParseVerilogError::msg("`define without a name"));
                    }
                    macros.insert(name.to_string(), body.trim().to_string());
                }
                "undef" if emitting(emit_stack) => {
                    let (name, _) = split_word(tail.trim_start());
                    macros.remove(name);
                }
                "include" if emitting(emit_stack) => {
                    let path = tail
                        .trim()
                        .trim_matches('"')
                        .trim_matches(|c| c == '<' || c == '>');
                    let body = includes.get(path).ok_or_else(|| {
                        ParseVerilogError::msg(format!("include file not found: {path}"))
                    })?;
                    let body = strip_comments(body)?;
                    expand(&body, includes, macros, emit_stack, out, depth + 1)?;
                }
                "ifdef" => {
                    let (name, _) = split_word(tail.trim_start());
                    emit_stack.push(macros.contains_key(name));
                }
                "ifndef" => {
                    let (name, _) = split_word(tail.trim_start());
                    emit_stack.push(!macros.contains_key(name));
                }
                "else" => {
                    let top = emit_stack
                        .last_mut()
                        .ok_or_else(|| ParseVerilogError::msg("`else without `ifdef"))?;
                    *top = !*top;
                }
                "endif" => {
                    emit_stack
                        .pop()
                        .ok_or_else(|| ParseVerilogError::msg("`endif without `ifdef"))?;
                }
                // `timescale, `celldefine, `default_nettype, ... : drop line
                _ => {}
            }
            out.push('\n');
            continue;
        }
        if emitting(emit_stack) {
            if line.contains('`') {
                out.push_str(&substitute_macros(line, macros));
            } else {
                out.push_str(line);
            }
        }
        out.push('\n');
    }
    Ok(())
}

/// Splits off the leading identifier-like word.
fn split_word(s: &str) -> (&str, &str) {
    let end = s
        .char_indices()
        .find(|&(_, c)| !(c.is_ascii_alphanumeric() || c == '_' || c == '$'))
        .map_or(s.len(), |(i, _)| i);
    (&s[..end], &s[end..])
}

/// Replaces `` `NAME `` occurrences with macro bodies (one level; bodies are
/// themselves re-scanned once to support simple chained defines).
fn substitute_macros(line: &str, macros: &HashMap<String, String>) -> String {
    let mut cur = line.to_string();
    for _ in 0..4 {
        if !cur.contains('`') {
            break;
        }
        let mut next = String::with_capacity(cur.len());
        let mut rest = cur.as_str();
        while let Some(pos) = rest.find('`') {
            next.push_str(&rest[..pos]);
            let after = &rest[pos + 1..];
            let (name, tail) = split_word(after);
            if let Some(body) = macros.get(name) {
                next.push(' ');
                next.push_str(body);
                next.push(' ');
            } else {
                // Unknown macro mid-line: drop the tick, keep the name so the
                // parser reports a sensible identifier error.
                next.push_str(name);
            }
            rest = tail;
        }
        next.push_str(rest);
        if next == cur {
            break;
        }
        cur = next;
    }
    cur
}

/// Removes `//`, `/* */` comments and `(* ... *)` attribute blocks while
/// preserving line structure (newlines inside block comments are kept so
/// spans stay accurate). Everything else, string literals included, is
/// copied through byte for byte, in runs.
fn strip_comments(source: &str) -> Result<String, ParseVerilogError> {
    let bytes = source.as_bytes();
    let mut out = String::with_capacity(source.len());
    // start of the run of bytes copied through since the last comment;
    // runs start and end at ASCII bytes, so they slice on char boundaries
    let mut run = 0;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        if c == b'/' && next == Some(b'/') {
            out.push_str(&source[run..i]);
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            run = i;
        } else if c == b'/' && next == Some(b'*') {
            out.push_str(&source[run..i]);
            i = skip_block(source, i + 2, b'/', &mut out)
                .ok_or_else(|| ParseVerilogError::msg("unterminated block comment"))?;
            run = i;
        } else if c == b'(' && next == Some(b'*') && bytes.get(i + 2) != Some(&b')') {
            // attribute block (* ... *) — but never the `@(*)` wildcard
            out.push_str(&source[run..i]);
            i = skip_block(source, i + 2, b')', &mut out)
                .ok_or_else(|| ParseVerilogError::msg("unterminated attribute block"))?;
            run = i;
        } else if c == b'"' {
            // string literal: copied verbatim, escapes included
            i += 1;
            while i < bytes.len() && bytes[i] != b'"' {
                i += if bytes[i] == b'\\' && i + 1 < bytes.len() {
                    2
                } else {
                    1
                };
            }
            if i < bytes.len() {
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    out.push_str(&source[run..]);
    Ok(out)
}

/// Skips a block from `from` up to and including the `*` + `close` pair,
/// writing one newline to `out` per newline skipped. Returns the index
/// after the block, or `None` when it never closes.
fn skip_block(source: &str, from: usize, close: u8, out: &mut String) -> Option<usize> {
    let bytes = source.as_bytes();
    let mut i = from;
    loop {
        if i + 1 >= bytes.len() {
            return None;
        }
        if bytes[i] == b'*' && bytes[i + 1] == close {
            return Some(i + 2);
        }
        if bytes[i] == b'\n' {
            out.push('\n');
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_and_block_comments() {
        let s = "a // x\nb /* y\nz */ c";
        let out = preprocess(s, &IncludeMap::new()).expect("ok");
        assert_eq!(out, "a \nb \n c\n");
    }

    #[test]
    fn strips_attributes() {
        let out = preprocess("(* keep *) wire w;", &IncludeMap::new()).expect("ok");
        assert_eq!(out.trim(), "wire w;");
    }

    #[test]
    fn define_and_substitute() {
        let out = preprocess("`define N 4\nwire [`N:0] x;", &IncludeMap::new()).expect("ok");
        assert!(out.contains("[ 4 :0]"), "{out:?}");
    }

    #[test]
    fn undef_removes_macro() {
        let s = "`define N 4\n`undef N\n`ifdef N\nyes\n`else\nno\n`endif";
        let out = preprocess(s, &IncludeMap::new()).expect("ok");
        assert!(!out.contains("yes"));
        assert!(out.contains("no"));
    }

    #[test]
    fn ifdef_controls_emission() {
        let s = "`define A\n`ifdef A\nkept\n`endif\n`ifdef B\ndropped\n`endif";
        let out = preprocess(s, &IncludeMap::new()).expect("ok");
        assert!(out.contains("kept"));
        assert!(!out.contains("dropped"));
    }

    #[test]
    fn include_resolves_from_map() {
        let mut inc = IncludeMap::new();
        inc.insert("defs.vh".to_string(), "`define W 16".to_string());
        let out = preprocess("`include \"defs.vh\"\nwire [`W-1:0] bus;", &inc).expect("ok");
        assert!(out.contains("[ 16 -1:0]"), "{out:?}");
    }

    #[test]
    fn missing_include_is_an_error() {
        let err = preprocess("`include \"nope.vh\"", &IncludeMap::new()).unwrap_err();
        assert!(err.to_string().contains("nope.vh"));
    }

    #[test]
    fn unknown_directives_are_dropped() {
        let out = preprocess("`timescale 1ns/1ps\nwire x;", &IncludeMap::new()).expect("ok");
        assert!(!out.contains("timescale"));
        assert!(out.contains("wire x;"));
    }

    #[test]
    fn unterminated_ifdef_errors() {
        assert!(preprocess("`ifdef X\n", &IncludeMap::new()).is_err());
    }

    #[test]
    fn non_ascii_bytes_pass_through_unchanged() {
        let s = "wire \\café ; // naïve\n/* ü\n */ \"€ \\\" //\" (* å *) x;";
        let out = preprocess(s, &IncludeMap::new()).expect("ok");
        assert_eq!(out, "wire \\café ; \n\n \"€ \\\" //\"  x;\n");
    }

    #[test]
    fn plain_text_is_borrowed() {
        for plain in ["\n", "wire x;\n", "always @(*) y = a * b / c;\n", "*)\n"] {
            let out = preprocess(plain, &IncludeMap::new()).expect("ok");
            assert!(matches!(out, Cow::Borrowed(s) if s == plain), "{plain:?}");
        }
        for copied in ["", "x", "x`\n", "x\r\n", "//\n", "/*\n", "(*k*)\n"] {
            let out = preprocess(copied, &IncludeMap::new());
            assert!(!matches!(out, Ok(Cow::Borrowed(_))), "{copied:?}");
        }
    }

    /// Every string of up to five bytes over the characters the rules
    /// look at: whatever `preprocess` borrows, the full path returns
    /// unchanged.
    #[test]
    fn borrowed_text_is_what_the_full_path_returns() {
        const ALPHABET: &[u8] = b"(*)/`\r\na";
        let mut words: Vec<Vec<u8>> = vec![Vec::new()];
        for len in 0..5 {
            let longer: Vec<Vec<u8>> = words
                .iter()
                .filter(|w| w.len() == len)
                .flat_map(|w| ALPHABET.iter().map(move |&c| [&w[..], &[c]].concat()))
                .collect();
            words.extend(longer);
        }
        let mut borrowed = 0;
        for w in &words {
            let text = std::str::from_utf8(w).expect("ASCII");
            if let Ok(Cow::Borrowed(out)) = preprocess(text, &IncludeMap::new()) {
                assert_eq!(
                    preprocess_owned(text, &IncludeMap::new()).as_deref(),
                    Ok(out)
                );
                borrowed += 1;
            }
        }
        assert!(borrowed > 100, "{borrowed} of {} borrowed", words.len());
    }

    #[test]
    fn line_numbers_preserved_through_block_comment() {
        let s = "line1 /* c\nc\nc */ line2";
        let out = preprocess(s, &IncludeMap::new()).expect("ok");
        assert_eq!(out.matches('\n').count(), 3);
    }
}
