//! Verilog lexer — turns preprocessed source into a token stream whose
//! text is borrowed from the source, never copied.

use std::borrow::Cow;

use crate::token::{Keyword, Punct, Span, Spanned, Token};
use crate::ParseVerilogError;

/// Lexes preprocessed Verilog source into spanned tokens that borrow
/// their text from `source`.
///
/// # Errors
///
/// Returns an error on malformed numeric literals or unexpected characters.
///
/// # Examples
///
/// ```
/// use gnn4ip_hdl::lex;
///
/// let toks = lex("assign y = a & 1'b1;")?;
/// assert_eq!(toks.len(), 7);
/// # Ok::<(), gnn4ip_hdl::ParseVerilogError>(())
/// ```
pub fn lex(source: &str) -> Result<Vec<Spanned<'_>>, ParseVerilogError> {
    Lexer::new(source).run()
}

/// Source bytes per reserved token. Generated designs lex to 0.13
/// (obfuscated netlists) to 0.47 (RTL) tokens per byte. Reserving at the
/// sparse end holds a sparse stream in one allocation and lets a dense
/// one double twice. Reserving at the dense end would make the largest
/// allocation bigger than growth from empty reaches; glibc then raises
/// its mmap threshold and keeps such blocks in its arenas, and a third
/// of the source length read 14% more peak RSS in the serve benchmark.
const BYTES_PER_TOKEN: usize = 7;

/// `IDENT_BYTE[b]`: byte `b` continues an identifier (`[A-Za-z0-9_$]`).
/// One table load per byte instead of three predicates.
const IDENT_BYTE: [bool; 256] = {
    let mut table = [false; 256];
    let mut b: u8 = 0;
    loop {
        table[b as usize] = b.is_ascii_alphanumeric() || b == b'_' || b == b'$';
        if b == u8::MAX {
            break table;
        }
        b += 1;
    }
};

struct Lexer<'s> {
    src: &'s str,
    pos: usize,
    line: u32,
    /// Byte offset where the current line starts; columns count bytes
    /// from it.
    line_start: usize,
}

impl<'s> Lexer<'s> {
    fn new(source: &'s str) -> Self {
        Self {
            src: source,
            pos: 0,
            line: 1,
            line_start: 0,
        }
    }

    fn span(&self) -> Span {
        Span {
            line: self.line,
            col: u32::try_from(self.pos - self.line_start + 1).unwrap_or(u32::MAX),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.line_start = self.pos;
        }
        Some(c)
    }

    /// The character starting at byte `at`, for error messages.
    fn char_at(&self, at: usize) -> char {
        self.src
            .get(at..)
            .and_then(|rest| rest.chars().next())
            .unwrap_or(char::REPLACEMENT_CHARACTER)
    }

    fn run(mut self) -> Result<Vec<Spanned<'s>>, ParseVerilogError> {
        let mut out = Vec::with_capacity(self.src.len() / BYTES_PER_TOKEN);
        while let Some(c) = self.peek() {
            if c.is_ascii_whitespace() {
                self.bump();
                continue;
            }
            let span = self.span();
            let token = match c {
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.ident(),
                b'\\' => self.escaped_ident(),
                b'0'..=b'9' | b'\'' => self.number(span)?,
                b'"' => self.string(span)?,
                b'$' => self.system_ident(),
                _ => self.punct(c, span)?,
            };
            out.push(Spanned { token, span });
        }
        Ok(out)
    }

    /// Advances over the run of bytes matching `pred`, which must never
    /// match a newline, and returns the run as a source slice.
    fn take_while(&mut self, pred: impl Fn(u8) -> bool) -> &'s str {
        let start = self.pos;
        let bytes = self.src.as_bytes();
        while self.pos < bytes.len() && pred(bytes[self.pos]) {
            self.pos += 1;
        }
        &self.src[start..self.pos]
    }

    fn ident(&mut self) -> Token<'s> {
        let word = self.take_while(|c| IDENT_BYTE[usize::from(c)]);
        Keyword::from_ident(word).map_or(Token::Ident(word), Token::Kw)
    }

    fn escaped_ident(&mut self) -> Token<'s> {
        self.bump(); // backslash
        Token::Ident(self.take_while(|c| !c.is_ascii_whitespace()))
    }

    fn system_ident(&mut self) -> Token<'s> {
        // $display etc — lexed as identifier with the $.
        let start = self.pos;
        self.bump();
        self.take_while(|c| c.is_ascii_alphanumeric() || c == b'_');
        Token::Ident(&self.src[start..self.pos])
    }

    fn string(&mut self, span: Span) -> Result<Token<'s>, ParseVerilogError> {
        self.bump(); // opening quote
        let start = self.pos;
        let mut escaped = false;
        loop {
            match self.bump() {
                Some(b'"') => break,
                Some(b'\\') => {
                    escaped = true;
                    self.bump();
                }
                Some(_) => {}
                None => return Err(ParseVerilogError::at(span, "unterminated string")),
            }
        }
        let raw = &self.src[start..self.pos - 1];
        Ok(Token::Str(if escaped {
            Cow::Owned(unescape(raw))
        } else {
            Cow::Borrowed(raw)
        }))
    }

    fn number(&mut self, span: Span) -> Result<Token<'s>, ParseVerilogError> {
        let start = self.pos;
        // optional decimal size prefix
        let size = self.take_while(|c| c.is_ascii_digit() || c == b'_');
        if self.peek() != Some(b'\'') {
            // plain decimal
            if size.is_empty() {
                return Err(ParseVerilogError::at(span, "empty numeric literal"));
            }
            let value = decimal(size)
                .ok_or_else(|| ParseVerilogError::at(span, format!("invalid number '{size}'")))?;
            return Ok(Token::Number {
                width: None,
                value,
                text: size,
            });
        }
        self.bump();
        // optional signedness
        if matches!(self.peek(), Some(b's' | b'S')) {
            self.bump();
        }
        let base = self
            .bump()
            .ok_or_else(|| ParseVerilogError::at(span, "truncated based literal"))?;
        let radix: u32 = match base.to_ascii_lowercase() {
            b'b' => 2,
            b'o' => 8,
            b'd' => 10,
            b'h' => 16,
            _ => {
                return Err(ParseVerilogError::at(
                    span,
                    format!("invalid literal base '{}'", self.char_at(self.pos - 1)),
                ))
            }
        };
        let digits = self.take_while(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'?');
        if digits.is_empty() {
            return Err(ParseVerilogError::at(span, "based literal with no digits"));
        }
        let mut value: u64 = 0;
        for d in digits.bytes().filter(|&d| d != b'_') {
            let dv = match d.to_ascii_lowercase() {
                b'x' | b'z' | b'?' => 0,
                c => char::from(c).to_digit(radix).ok_or_else(|| {
                    ParseVerilogError::at(
                        span,
                        format!("digit '{}' invalid for base {radix}", char::from(c)),
                    )
                })?,
            };
            value = value
                .wrapping_mul(u64::from(radix))
                .wrapping_add(u64::from(dv));
        }
        let width = if size.is_empty() {
            None
        } else {
            Some(
                decimal(size)
                    .and_then(|w| u32::try_from(w).ok())
                    .ok_or_else(|| {
                        ParseVerilogError::at(span, format!("invalid literal width '{size}'"))
                    })?,
            )
        };
        Ok(Token::Number {
            width,
            value,
            text: &self.src[start..self.pos],
        })
    }

    /// Lexes the operator starting with `c`, the byte the caller peeked.
    fn punct(&mut self, c: u8, span: Span) -> Result<Token<'s>, ParseVerilogError> {
        self.pos += 1; // `c` is not whitespace, so not a newline
        let p = match c {
            b'(' => Punct::LParen,
            b')' => Punct::RParen,
            b'[' => Punct::LBracket,
            b']' => Punct::RBracket,
            b'{' => Punct::LBrace,
            b'}' => Punct::RBrace,
            b';' => Punct::Semi,
            b',' => Punct::Comma,
            b':' => Punct::Colon,
            b'.' => Punct::Dot,
            b'#' => Punct::Hash,
            b'@' => Punct::At,
            b'?' => Punct::Question,
            b'+' => Punct::Plus,
            b'-' => Punct::Minus,
            b'/' => Punct::Slash,
            b'%' => Punct::Percent,
            b'*' => {
                if self.peek() == Some(b'*') {
                    self.bump();
                    Punct::Star2
                } else {
                    Punct::Star
                }
            }
            b'=' => match (self.peek(), self.peek2()) {
                (Some(b'='), Some(b'=')) => {
                    self.bump();
                    self.bump();
                    Punct::CaseEq
                }
                (Some(b'='), _) => {
                    self.bump();
                    Punct::EqEq
                }
                _ => Punct::Assign,
            },
            b'!' => match (self.peek(), self.peek2()) {
                (Some(b'='), Some(b'=')) => {
                    self.bump();
                    self.bump();
                    Punct::CaseNotEq
                }
                (Some(b'='), _) => {
                    self.bump();
                    Punct::NotEq
                }
                _ => Punct::Not,
            },
            b'<' => match self.peek() {
                Some(b'=') => {
                    self.bump();
                    Punct::LtEq
                }
                Some(b'<') => {
                    self.bump();
                    Punct::Shl
                }
                _ => Punct::Lt,
            },
            b'>' => match (self.peek(), self.peek2()) {
                (Some(b'='), _) => {
                    self.bump();
                    Punct::GtEq
                }
                (Some(b'>'), Some(b'>')) => {
                    self.bump();
                    self.bump();
                    Punct::AShr
                }
                (Some(b'>'), _) => {
                    self.bump();
                    Punct::Shr
                }
                _ => Punct::Gt,
            },
            b'&' => {
                if self.peek() == Some(b'&') {
                    self.bump();
                    Punct::AndAnd
                } else {
                    Punct::And
                }
            }
            b'|' => {
                if self.peek() == Some(b'|') {
                    self.bump();
                    Punct::OrOr
                } else {
                    Punct::Or
                }
            }
            b'^' => {
                if self.peek() == Some(b'~') {
                    self.bump();
                    Punct::Xnor
                } else {
                    Punct::Xor
                }
            }
            b'~' => match self.peek() {
                Some(b'^') => {
                    self.bump();
                    Punct::Xnor
                }
                Some(b'&') => {
                    self.bump();
                    Punct::Nand
                }
                Some(b'|') => {
                    self.bump();
                    Punct::Nor
                }
                _ => Punct::Tilde,
            },
            _ => {
                return Err(ParseVerilogError::at(
                    span,
                    format!("unexpected character '{}'", self.char_at(self.pos - 1)),
                ))
            }
        };
        Ok(Token::Punct(p))
    }
}

/// The value of decimal digits with `_` separators; `None` on overflow.
fn decimal(digits: &str) -> Option<u64> {
    digits
        .bytes()
        .filter(|&d| d != b'_')
        .try_fold(0u64, |acc, d| {
            acc.checked_mul(10)?.checked_add(u64::from(d - b'0'))
        })
}

/// A string literal's contents with each `\x` escape replaced by `x`.
fn unescape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => out.extend(chars.next()),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Token<'_>> {
        lex(src)
            .expect("lexes")
            .into_iter()
            .map(|s| s.token)
            .collect()
    }

    #[test]
    fn ident_byte_table_matches_the_identifier_class() {
        for b in 0..=u8::MAX {
            let want = b.is_ascii_alphanumeric() || b == b'_' || b == b'$';
            assert_eq!(IDENT_BYTE[usize::from(b)], want, "byte {b}");
        }
    }

    #[test]
    fn lexes_module_header() {
        let toks = kinds("module adder(input a);");
        assert_eq!(toks[0], Token::Kw(Keyword::Module));
        assert_eq!(toks[1], Token::Ident("adder"));
        assert_eq!(toks[2], Token::Punct(Punct::LParen));
        assert_eq!(toks[3], Token::Kw(Keyword::Input));
    }

    #[test]
    fn lexes_based_literals() {
        match &kinds("8'hFF")[0] {
            Token::Number { width, value, .. } => {
                assert_eq!(*width, Some(8));
                assert_eq!(*value, 255);
            }
            t => panic!("unexpected {t:?}"),
        }
        match &kinds("4'b10_1x")[0] {
            Token::Number { value, .. } => assert_eq!(*value, 0b1010),
            t => panic!("unexpected {t:?}"),
        }
        match &kinds("'d42")[0] {
            Token::Number { width, value, .. } => {
                assert_eq!(*width, None);
                assert_eq!(*value, 42);
            }
            t => panic!("unexpected {t:?}"),
        }
    }

    #[test]
    fn lexes_plain_decimal() {
        match &kinds("1_000")[0] {
            Token::Number { value, .. } => assert_eq!(*value, 1000),
            t => panic!("unexpected {t:?}"),
        }
    }

    #[test]
    fn lexes_operators() {
        let toks = kinds("a <= b == c && d ~^ e >>> 2");
        assert!(toks.contains(&Token::Punct(Punct::LtEq)));
        assert!(toks.contains(&Token::Punct(Punct::EqEq)));
        assert!(toks.contains(&Token::Punct(Punct::AndAnd)));
        assert!(toks.contains(&Token::Punct(Punct::Xnor)));
        assert!(toks.contains(&Token::Punct(Punct::AShr)));
    }

    #[test]
    fn lexes_case_equality() {
        let toks = kinds("a === b !== c");
        assert!(toks.contains(&Token::Punct(Punct::CaseEq)));
        assert!(toks.contains(&Token::Punct(Punct::CaseNotEq)));
    }

    #[test]
    fn tracks_spans() {
        let toks = lex("a\n  b").expect("lexes");
        assert_eq!(toks[0].span.line, 1);
        assert_eq!(toks[1].span.line, 2);
        assert_eq!(toks[1].span.col, 3);
    }

    #[test]
    fn escaped_identifier() {
        let toks = kinds("\\bus[3] x");
        assert_eq!(toks[0], Token::Ident("bus[3]"));
    }

    #[test]
    fn system_task_identifier() {
        let toks = kinds("$display");
        assert_eq!(toks[0], Token::Ident("$display"));
    }

    #[test]
    fn gate_keywords() {
        let toks = kinds("and nand xor not buf");
        assert_eq!(toks[0], Token::Kw(Keyword::GateAnd));
        assert_eq!(toks[1], Token::Kw(Keyword::GateNand));
        assert_eq!(toks[4], Token::Kw(Keyword::GateBuf));
    }

    #[test]
    fn rejects_bad_literal() {
        assert!(lex("8'q12").is_err());
        assert!(lex("4'h").is_err());
    }

    #[test]
    fn rejects_unknown_char() {
        assert!(lex("€").is_err());
    }

    #[test]
    fn errors_name_the_real_character() {
        let err = lex("a € b").unwrap_err().to_string();
        assert!(err.starts_with("unexpected character '€' at 1:3"), "{err}");
        let err = lex("8'é1").unwrap_err().to_string();
        assert!(err.starts_with("invalid literal base 'é'"), "{err}");
        let err = crate::elaborate(
            "module m(input a, output y); assign y = a € a; endmodule",
            None,
        )
        .unwrap_err()
        .to_string();
        assert!(err.starts_with("unexpected character '€'"), "{err}");
    }

    #[test]
    fn non_ascii_text_passes_through_as_utf8() {
        assert_eq!(kinds("\\café x")[0], Token::Ident("café"));
        assert_eq!(kinds("\"naïve\"")[0], Token::Str("naïve".into()));
        // columns count bytes, as before
        assert_eq!(lex("\\é b").expect("lexes")[1].span.col, 5);
        let flat = crate::elaborate(
            "module m(input \\café , output y); assign y = \\café ; endmodule",
            None,
        )
        .expect("elaborates");
        assert_eq!(flat.inputs(), ["café"]);
    }

    #[test]
    fn string_escapes_resolve() {
        assert_eq!(kinds(r#""a\"b\\c""#)[0], Token::Str(r#"a"b\c"#.into()));
        assert!(lex(r#""open"#).is_err());
    }

    #[test]
    fn token_text_borrows_the_source() {
        let src = String::from("x = 8'sh_F0 + 1_000;");
        let toks = lex(&src).expect("lexes");
        let texts: Vec<&str> = toks
            .iter()
            .filter_map(|t| match t.token {
                Token::Ident(s) | Token::Number { text: s, .. } => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(texts, ["x", "8'sh_F0", "1_000"]);
        let range = src.as_bytes().as_ptr_range();
        assert!(texts.iter().all(|t| range.contains(&t.as_ptr())));
        match toks[2].token {
            Token::Number { width, value, .. } => assert_eq!((width, value), (Some(8), 0xf0)),
            ref t => panic!("unexpected {t:?}"),
        }
    }

    /// Whether `a` and `b` lex to equal token streams after preprocessing.
    fn same_tokens(a: &str, b: &str) -> bool {
        let pre = |src| crate::preprocess(src, &crate::IncludeMap::new()).expect("preprocesses");
        let (a, b) = (pre(a), pre(b));
        kinds(&a) == kinds(&b)
    }

    /// Comments, a macro spelling of an operator and reformatting change
    /// the bytes of a design, not its token stream; a real edit does.
    #[test]
    fn neutral_edits_lex_to_the_same_token_stream() {
        const INV: &str = "module inv(input a, output y); assign y = ~a; endmodule";
        let edits = [
            format!("/* owned IP */ {INV} // checked"),
            format!("// vendor resubmission\n{INV}"),
            format!("/* block\n   comment */\n{INV}\n\n\n"),
            "`define OP ~\nmodule inv(input a, output y); assign y = `OP a; endmodule".to_string(),
            "module inv (\n  input  a,\n  output y\n);\n  assign y=~a;\nendmodule".to_string(),
            INV.replace(' ', "  "),
            INV.replace("; ", ";\n\t"),
        ];
        for edited in &edits {
            assert!(same_tokens(edited, INV), "{edited:?}");
        }
        assert!(!same_tokens(&INV.replace("~a", "a"), INV));
    }

    #[test]
    fn oversized_literals_are_errors() {
        assert!(lex("99999999999999999999").is_err());
        assert!(lex("4294967296'h1").is_err());
        assert!(lex("4294967295'h1").is_ok());
    }
}
