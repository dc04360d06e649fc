//! The FNV-1a/64 digest of a design's preprocessed token stream and top
//! selector, in the byte encoding the embedding cache keyed on before it
//! keyed the raw source bytes. The golden and differential tests pin it
//! as a check that the lexer's output did not move.

use gnn4ip::hdl::token::Token;
use gnn4ip::hdl::{lex, preprocess, IncludeMap};
use gnn4ip::tensor::Fnv64;

/// One domain byte per token kind, then its payload, then `0xff`; then
/// the top selector, tagged 1 with its name or 0 for none.
pub fn token_stream_digest(source: &str, top: Option<&str>) -> u64 {
    let pre = preprocess(source, &IncludeMap::new()).expect("the design preprocesses");
    let mut h = Fnv64::new();
    for t in lex(&pre).expect("the design lexes") {
        match &t.token {
            Token::Ident(s) => {
                h.update(&[1]);
                h.update(s.as_bytes());
            }
            Token::Kw(k) => h.update(&[2, *k as u8]),
            Token::Number { text, .. } => {
                h.update(&[3]);
                h.update(text.as_bytes());
            }
            Token::Str(s) => {
                h.update(&[4]);
                h.update(s.as_bytes());
            }
            Token::Punct(p) => h.update(&[5, *p as u8]),
        }
        h.update(&[0xff]);
    }
    match top {
        Some(t) => {
            h.update(&[1]);
            h.update(t.as_bytes());
        }
        None => h.update(&[0]),
    }
    h.finish()
}
