//! Token definitions for the Verilog-2001 subset.
//!
//! Tokens borrow their text from the preprocessed source they were lexed
//! from: a [`Token<'s>`] holds `&'s str` slices, never a copy. An
//! identifier's or a number's text is exactly the contiguous run of source
//! bytes it was lexed from; the parser allocates a `String` only when it
//! builds an AST node that keeps the name.

use std::borrow::Cow;
use std::fmt;

/// Source location (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Verilog keywords recognized by the parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Keyword {
    Module,
    Endmodule,
    Input,
    Output,
    Inout,
    Wire,
    Reg,
    Integer,
    Assign,
    Always,
    Initial,
    Begin,
    End,
    If,
    Else,
    Case,
    Casex,
    Casez,
    Endcase,
    Default,
    Posedge,
    Negedge,
    Or,
    Parameter,
    Localparam,
    For,
    // gate primitives
    GateAnd,
    GateOr,
    GateNand,
    GateNor,
    GateXor,
    GateXnor,
    GateNot,
    GateBuf,
}

impl Keyword {
    /// Maps an identifier to a keyword, if it is one.
    pub fn from_ident(s: &str) -> Option<Keyword> {
        Some(match s {
            "module" => Keyword::Module,
            "endmodule" => Keyword::Endmodule,
            "input" => Keyword::Input,
            "output" => Keyword::Output,
            "inout" => Keyword::Inout,
            "wire" => Keyword::Wire,
            "reg" => Keyword::Reg,
            "integer" => Keyword::Integer,
            "assign" => Keyword::Assign,
            "always" => Keyword::Always,
            "initial" => Keyword::Initial,
            "begin" => Keyword::Begin,
            "end" => Keyword::End,
            "if" => Keyword::If,
            "else" => Keyword::Else,
            "case" => Keyword::Case,
            "casex" => Keyword::Casex,
            "casez" => Keyword::Casez,
            "endcase" => Keyword::Endcase,
            "default" => Keyword::Default,
            "posedge" => Keyword::Posedge,
            "negedge" => Keyword::Negedge,
            "or" => Keyword::Or,
            "parameter" => Keyword::Parameter,
            "localparam" => Keyword::Localparam,
            "for" => Keyword::For,
            "and" => Keyword::GateAnd,
            "nand" => Keyword::GateNand,
            "nor" => Keyword::GateNor,
            "xor" => Keyword::GateXor,
            "xnor" => Keyword::GateXnor,
            "not" => Keyword::GateNot,
            "buf" => Keyword::GateBuf,
            _ => return None,
        })
    }

    /// True for gate-primitive keywords (`and`, `or`, `xor`, ...).
    ///
    /// Note `or` doubles as the sensitivity-list separator; the parser
    /// disambiguates by context.
    pub fn is_gate(self) -> bool {
        matches!(
            self,
            Keyword::GateAnd
                | Keyword::GateOr
                | Keyword::GateNand
                | Keyword::GateNor
                | Keyword::GateXor
                | Keyword::GateXnor
                | Keyword::GateNot
                | Keyword::GateBuf
                | Keyword::Or
        )
    }
}

/// A lexed token, borrowing its text from the source `'s`.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'s> {
    /// Identifier (including escaped identifiers with the leading `\`
    /// stripped, and `$`-prefixed system names with the `$`).
    Ident(&'s str),
    /// Keyword.
    Kw(Keyword),
    /// Numeric literal, e.g. `8'hFF`, `1'b0`, `42`. Stored with its optional
    /// width and the parsed value (x/z digits collapse to 0).
    Number {
        /// Declared bit width, if the literal had one.
        width: Option<u32>,
        /// Parsed value with `x`/`z` digits treated as 0.
        value: u64,
        /// The literal's source text, preserved for round-tripping.
        text: &'s str,
    },
    /// String literal contents with each `\x` escape resolved to `x`:
    /// borrowed unless the literal holds an escape.
    Str(Cow<'s, str>),
    /// Punctuation / operator.
    Punct(Punct),
}

/// Punctuation and operator tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Punct {
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Semi,
    Comma,
    Colon,
    Dot,
    Hash,
    At,
    Question,
    Assign,    // =
    LtEq,      // <=  (also relational; parser disambiguates)
    GtEq,      // >=
    Lt,        // <
    Gt,        // >
    EqEq,      // ==
    NotEq,     // !=
    CaseEq,    // ===
    CaseNotEq, // !==
    AndAnd,    // &&
    OrOr,      // ||
    And,       // &
    Or,        // |
    Xor,       // ^
    Xnor,      // ^~ or ~^
    Not,       // !
    Tilde,     // ~
    Nand,      // ~&
    Nor,       // ~|
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Shl,      // <<
    Shr,      // >>
    AShr,     // >>>
    PlusPlus, // not verilog, tolerated never emitted
    Star2,    // ** power
}

impl fmt::Display for Punct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Punct::LParen => "(",
            Punct::RParen => ")",
            Punct::LBracket => "[",
            Punct::RBracket => "]",
            Punct::LBrace => "{",
            Punct::RBrace => "}",
            Punct::Semi => ";",
            Punct::Comma => ",",
            Punct::Colon => ":",
            Punct::Dot => ".",
            Punct::Hash => "#",
            Punct::At => "@",
            Punct::Question => "?",
            Punct::Assign => "=",
            Punct::LtEq => "<=",
            Punct::GtEq => ">=",
            Punct::Lt => "<",
            Punct::Gt => ">",
            Punct::EqEq => "==",
            Punct::NotEq => "!=",
            Punct::CaseEq => "===",
            Punct::CaseNotEq => "!==",
            Punct::AndAnd => "&&",
            Punct::OrOr => "||",
            Punct::And => "&",
            Punct::Or => "|",
            Punct::Xor => "^",
            Punct::Xnor => "^~",
            Punct::Not => "!",
            Punct::Tilde => "~",
            Punct::Nand => "~&",
            Punct::Nor => "~|",
            Punct::Plus => "+",
            Punct::Minus => "-",
            Punct::Star => "*",
            Punct::Slash => "/",
            Punct::Percent => "%",
            Punct::Shl => "<<",
            Punct::Shr => ">>",
            Punct::AShr => ">>>",
            Punct::PlusPlus => "++",
            Punct::Star2 => "**",
        };
        f.write_str(s)
    }
}

/// A token together with its source location.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned<'s> {
    /// The token.
    pub token: Token<'s>,
    /// Where it begins.
    pub span: Span,
}
