//! # gnn4ip-analysis
//!
//! Machine-checked workspace invariants: the `g4check` binary and the
//! library behind it.
//!
//! The workspace's correctness conventions — fixed-seed randomness, no
//! stray panics in library code, `#![forbid(unsafe_code)]` everywhere,
//! deterministic tests, a single registry of `G4IP` artifact kind/version
//! pairs, lock discipline in the serve path, bit-identical float kernels
//! — used to live only in reviewers' heads. This crate turns them into
//! three enforcement pillars:
//!
//! - [`lint`] — phase-0 line lints: a lightweight line/token scanner
//!   over the workspace's `.rs` files (zero external dependencies, no
//!   rustc plumbing) that fails CI on any violation of the per-line
//!   rules listed in [`lint::Rule`]. Intentional exceptions are
//!   annotated in-source with `// g4check: allow(rule-name): reason`.
//! - [`index`] + [`graph`] + [`rules`] — the two-phase cross-file
//!   analyzer. Phase 1 builds a workspace *symbol index*: per-file fn
//!   definitions, call edges with live-guard sets, narrowing casts,
//!   float reductions, and panic sites, rebuilt from the files on every
//!   run (nothing is written to disk). Phase 2 assembles the
//!   [`graph::SymbolGraph`] and runs the dataflow rules: lock
//!   discipline, cast truncation, float determinism, and panic
//!   reachability (see `RULES.md`).
//! - [`sched`] — a loom-lite deterministic-interleaving checker: a
//!   cooperative scheduler that exhaustively explores every bounded
//!   interleaving of the step-level [`sched::Program`] model of a
//!   concurrent algorithm, asserting invariants along each schedule.
//!   [`models`] holds the models of `gnn4ip_core::PublicationSlot` and
//!   `BoundedQueue` (plus deliberately broken variants the checker must
//!   catch, so the checker itself stays honest).
//!
//! Run everything from the workspace root:
//!
//! ```text
//! cargo run -p gnn4ip-analysis --bin g4check             # all stages
//! cargo run -p gnn4ip-analysis --bin g4check -- graph    # graph rules only
//! cargo run -p gnn4ip-analysis --bin g4check -- --json all
//! ```
//!
//! Exit codes: `0` clean, `1` violations found, `2` usage error, `3`
//! internal error (workspace unreadable).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod index;
pub mod lint;
pub mod models;
pub mod rules;
pub mod sched;

pub use graph::SymbolGraph;
pub use index::{build_index, FileIndex, FnRecord, WorkspaceIndex};
pub use lint::{run_lint, LintConfig, LintReport, Rule, Violation};
pub use rules::{run_full, run_graph_rules, AnalysisReport};
pub use sched::{ExploreReport, Explorer, Program, ScheduleViolation, Step};
