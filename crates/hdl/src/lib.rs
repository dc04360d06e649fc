//! # gnn4ip-hdl
//!
//! Verilog-2001-subset front end for the GNN4IP reproduction — the
//! [Pyverilog](https://github.com/PyHDI/Pyverilog) substitute of the paper's
//! Fig. 2 pipeline.
//!
//! The pipeline stages provided here:
//!
//! 1. [`preprocess`] — comment/attribute stripping, `` `define ``/`` `include ``
//!    resolution (phase "Preprocess").
//! 2. [`lex`] + [`parse`] — tokenization and recursive-descent parsing into a
//!    [`SourceUnit`] AST (phase "Parse HDL" producing the abstract syntax
//!    tree). Nesting deeper than [`MAX_NESTING`] is an error, not a stack
//!    overflow.
//! 3. [`flatten`] — hierarchy inlining, parameter resolution, and for-loop
//!    unrolling, yielding one flat [`Module`]. A design whose instances and
//!    loops would copy more than [`ELABORATION_BUDGET`] nodes is an error,
//!    not an unbounded allocation.
//!
//! [`elaborate`] runs all three. The front end copies as little as it can
//! on the way: preprocessing borrows text it would not change (no
//! directive, comment, attribute or `\r`) and otherwise copies runs of
//! ordinary bytes as slices, each
//! [`Token<'s>`](token::Token) borrows its text from the preprocessed
//! source (`Ident(&'s str)`, `Number { text: &'s str, .. }`), the parser
//! allocates an identifier's `String` once, when it builds the AST node
//! that keeps it, and `elaborate` moves the top module into flattening
//! instead of cloning it. Non-ASCII text passes through as UTF-8.
//!
//! Data-flow analysis (phases "Data flow analysis", "Merge graphs", "Trim
//! graphs") lives in the `gnn4ip-dfg` crate, which consumes the flat module.
//!
//! A combinational [`Evaluator`] is also provided; the dataset generators use
//! it to prove that their code transformations preserve behaviour.
//!
//! # Examples
//!
//! ```
//! use gnn4ip_hdl::{parse, flatten};
//!
//! let src = "
//!     module adder(input a, input b, input cin, output sum, output cout);
//!       wire t1, t2, t3;
//!       xor (t1, a, b);
//!       and (t2, a, b);
//!       and (t3, t1, cin);
//!       xor (sum, t1, cin);
//!       or  (cout, t3, t2);
//!     endmodule";
//! let unit = parse(src)?;
//! let flat = flatten(&unit, "adder")?;
//! assert_eq!(flat.outputs(), vec!["sum", "cout"]);
//! # Ok::<(), gnn4ip_hdl::ParseVerilogError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
mod error;
mod eval;
mod flatten;
mod lexer;
mod parser;
mod preprocess;
pub mod token;

pub use ast::{
    BinaryOp, Expr, GateInstance, GateKind, Item, Module, ModuleInstance, NetKind, Port, PortDir,
    Range, SensItem, SourceUnit, Stmt, UnaryOp,
};
pub use error::ParseVerilogError;
pub use eval::Evaluator;
pub use flatten::{eval_const, flatten, ELABORATION_BUDGET};
pub use lexer::lex;
pub use parser::{parse, MAX_NESTING};
pub use preprocess::{preprocess, preprocess_owned, IncludeMap};

/// Parses and flattens a single-file design in one call.
///
/// When `top` is `None` the root module is auto-detected (the module no other
/// module instantiates).
///
/// # Errors
///
/// Propagates preprocessing, parse, and elaboration errors.
///
/// # Examples
///
/// ```
/// use gnn4ip_hdl::elaborate;
///
/// let flat = elaborate("module inv(input a, output y); assign y = ~a; endmodule", None)?;
/// assert_eq!(flat.name, "inv");
/// # Ok::<(), gnn4ip_hdl::ParseVerilogError>(())
/// ```
pub fn elaborate(source: &str, top: Option<&str>) -> Result<Module, ParseVerilogError> {
    let pre = preprocess(source, &IncludeMap::new())?;
    let unit = parse(&pre)?;
    let top_name = match top {
        Some(t) => t.to_string(),
        None => unit
            .top_module()
            .ok_or_else(|| ParseVerilogError::msg("no modules in source"))?
            .name
            .clone(),
    };
    flatten::flatten_owned(unit, &top_name)
}
