//! Phase-2 graph lints: rules that query the [`SymbolGraph`] built from
//! the workspace [`WorkspaceIndex`].
//!
//! Each rule lives in its own module and returns plain
//! [`Violation`]s so the reporting pipeline (human and `--json`) is
//! shared with the line lints:
//!
//! - [`locks`] — lock-order inversion, re-entrant acquisition, and
//!   blocking-under-lock ([`crate::lint::Rule::LockDiscipline`]).
//! - [`casts`] — narrowing `as` casts on the serialization paths
//!   ([`crate::lint::Rule::CastTruncation`]).
//! - [`floatdet`] — float reductions outside the deterministic-kernel
//!   registry ([`crate::lint::Rule::FloatDeterminism`]).
//! - [`panics`] — panic sites reachable from CLI / serve entry points
//!   ([`crate::lint::Rule::PanicPath`]).
//! - [`taint`] — untrusted input reaching allocation, arithmetic, and
//!   error-discard sinks ([`crate::lint::Rule::UntrustedAlloc`],
//!   [`crate::lint::Rule::LenOverflow`],
//!   [`crate::lint::Rule::ErrorSwallow`]).
//!
//! [`run_full`] is the whole-analyzer driver: index build (phase 1),
//! graph rules (phase 2), and the line lints, in one report.

pub mod casts;
pub mod floatdet;
pub mod locks;
pub mod panics;
pub mod taint;

use crate::graph::SymbolGraph;
use crate::index::{index_sources, WorkspaceIndex};
use crate::lint::{lint_sources, read_sources, LintConfig, LintReport, Violation};

/// Runs every graph rule over an already-built index.
pub fn run_graph_rules(index: &WorkspaceIndex) -> Vec<Violation> {
    let graph = SymbolGraph::build(index);
    let mut violations = Vec::new();
    violations.extend(locks::check(index, &graph));
    violations.extend(casts::check(index));
    violations.extend(floatdet::check(index));
    violations.extend(panics::check(index, &graph));
    violations.extend(taint::check(index, &graph));
    violations.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    violations
}

/// The combined two-phase report.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// Line-lint findings (phase-0 rules carried over from v1).
    pub lint: LintReport,
    /// Graph-lint findings.
    pub graph: Vec<Violation>,
    /// Files in the symbol index.
    pub files_indexed: usize,
}

impl AnalysisReport {
    /// Whether both phases are clean.
    pub fn is_clean(&self) -> bool {
        self.lint.is_clean() && self.graph.is_empty()
    }

    /// Every violation from both phases, in report order.
    pub fn all_violations(&self) -> Vec<&Violation> {
        let mut v: Vec<&Violation> = self
            .lint
            .violations
            .iter()
            .chain(self.graph.iter())
            .collect();
        v.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
        v
    }
}

/// Runs the full two-phase analysis over `config.root`, indexing every
/// file from scratch and writing nothing. Each file is read once, for
/// both phases.
///
/// # Errors
///
/// Returns an error when the workspace cannot be read — an
/// infrastructure failure, never a lint finding.
pub fn run_full(config: &LintConfig) -> Result<AnalysisReport, String> {
    let sources = read_sources(&config.root)?;
    let index = index_sources(&sources);
    let graph = run_graph_rules(&index);
    let lint = lint_sources(&config.root, &sources)?;
    Ok(AnalysisReport {
        lint,
        graph,
        files_indexed: index.files.len(),
    })
}
