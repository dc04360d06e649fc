//! # gnn4ip-data
//!
//! Dataset substrate for the GNN4IP reproduction: design generators,
//! instance variation/obfuscation transforms, and corpus assembly.
//!
//! The paper's dataset (50 distinct designs, 390 RTL codes, 143 netlists,
//! plus TrustHub's obfuscated ISCAS'85 netlists) is private/registration-
//! gated; this crate regenerates equivalents with the same two axes the
//! experiments rely on:
//!
//! 1. **distinct designs** — 41 named RTL cores ([`designs`]), six
//!    ISCAS'85-class netlists ([`iscas`]), and seeded synthetic families;
//! 2. **instances per design** — behaviour-preserving source transforms
//!    ([`variation`] for RTL, [`obfuscate`] for netlists), each verifiable
//!    against the combinational evaluation oracle.
//!
//! # Examples
//!
//! ```
//! use gnn4ip_data::{Corpus, CorpusSpec};
//!
//! let corpus = Corpus::build(&CorpusSpec::rtl_small())?;
//! assert_eq!(corpus.instances.len(), corpus.graphs.len());
//! let pairs = corpus.pairs(50, 1);
//! assert!(pairs.iter().any(|p| p.similar));
//! # Ok::<(), gnn4ip_hdl::ParseVerilogError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod corpus;
pub mod designs;
pub mod emit;
pub mod iscas;
pub mod obfuscate;
pub mod variation;

pub use corpus::{split_pairs, Corpus, CorpusSpec, Instance, LabeledPair};
pub use designs::{
    named_rtl_designs, netlist_designs, rtl_designs, synth_design, Design, Level, SynthSize,
};
pub use emit::{emit_expr, emit_module};
pub use obfuscate::{obfuscate_netlist, ObfuscationConfig};
pub use variation::{vary_design, VariationConfig};
