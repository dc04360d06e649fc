//! The `float-determinism` graph rule.
//!
//! The serving pillar's core guarantee is bit-identical scores across
//! the flat, sharded, and batched paths. Float addition is
//! not associative, so that guarantee survives only while every float
//! reduction in the bit-identity-critical modules keeps a *fixed*
//! association order. This rule flags reduction sites (iterator
//! `sum`/`product`, float `fold`, split-accumulator initializations) in
//! those modules unless the enclosing fn is a registered deterministic
//! kernel — a fn whose accumulation order is part of its contract and
//! covered by the cross-path equivalence tests.
//!
//! The registry follows the format-registry honesty convention: a row
//! whose fn no longer contains a reduction is itself a violation, so
//! the allowlist cannot silently rot.

use std::path::PathBuf;

use crate::index::WorkspaceIndex;
use crate::lint::{Rule, Violation};

/// Modules whose float reductions are bit-identity-critical.
pub const FLOAT_CRITICAL_PATHS: &[&str] = &[
    "crates/eval/src/index.rs",
    "crates/eval/src/manifest.rs",
    "crates/eval/src/sharded.rs",
    "crates/tensor/src/matrix.rs",
];

/// Registered deterministic kernels: (file, fn display name). Each row
/// must name a fn that still contains a detected reduction site.
pub const DETERMINISM_KERNELS: &[(&str, &str)] = &[
    ("crates/eval/src/index.rs", "normalize_into"),
    ("crates/eval/src/index.rs", "score_row"),
    ("crates/eval/src/index.rs", "query_norm"),
    ("crates/eval/src/sharded.rs", "score_block"),
    ("crates/eval/src/sharded.rs", "centroid_norms2"),
    ("crates/eval/src/sharded.rs", "nearest_centroid"),
    ("crates/tensor/src/matrix.rs", "Matrix::sum"),
    ("crates/tensor/src/matrix.rs", "Matrix::norm"),
    ("crates/tensor/src/matrix.rs", "Matrix::dot"),
    ("crates/tensor/src/matrix.rs", "Matrix::max_abs"),
    ("crates/tensor/src/matrix.rs", "Matrix::matmul_into"),
    ("crates/tensor/src/matrix.rs", "Matrix::matmul_nt_into"),
];

/// Whether a fn record carries at least one reduction-order-sensitive
/// site the rule tracks.
fn has_sites(f: &crate::index::FnRecord) -> bool {
    f.reductions.iter().any(|r| r.hinted) || !f.accums.is_empty()
}

/// Runs the rule over the index.
pub fn check(index: &WorkspaceIndex) -> Vec<Violation> {
    let mut violations = Vec::new();
    for path in FLOAT_CRITICAL_PATHS {
        let Some(fi) = index.files.get(*path) else {
            continue;
        };
        for f in &fi.fns {
            if f.is_test || !has_sites(f) {
                continue;
            }
            let display = f.display();
            if DETERMINISM_KERNELS.contains(&(*path, display.as_str())) {
                continue;
            }
            for r in &f.reductions {
                if !r.hinted || fi.allowed(r.line, Rule::FloatDeterminism.name()) {
                    continue;
                }
                violations.push(Violation {
                    rule: Rule::FloatDeterminism,
                    path: PathBuf::from(path),
                    line: r.line as usize,
                    message: format!(
                        "float `{}` reduction in `{display}` in a bit-identity-critical \
                         module; register the fn in DETERMINISM_KERNELS (and cover it with \
                         the cross-path equivalence tests) or annotate why order cannot vary",
                        r.what,
                    ),
                });
            }
            for a in &f.accums {
                if fi.allowed(a.line, Rule::FloatDeterminism.name()) {
                    continue;
                }
                violations.push(Violation {
                    rule: Rule::FloatDeterminism,
                    path: PathBuf::from(path),
                    line: a.line as usize,
                    message: format!(
                        "split float accumulators in `{display}` reassociate the reduction; \
                         register the fn in DETERMINISM_KERNELS or annotate",
                    ),
                });
            }
        }
    }

    // honesty: registry rows must still point at reduction-bearing fns
    for (path, fn_display) in DETERMINISM_KERNELS {
        let Some(fi) = index.files.get(*path) else {
            continue; // file absent (fixture workspace): nothing to verify
        };
        let live = fi
            .fns
            .iter()
            .any(|f| f.display() == *fn_display && has_sites(f));
        if !live {
            violations.push(Violation {
                rule: Rule::FloatDeterminism,
                path: PathBuf::from(path),
                line: 0,
                message: format!(
                    "DETERMINISM_KERNELS registers `{fn_display}` but no such fn with a \
                     reduction site exists; remove the stale row or restore the kernel",
                ),
            });
        }
    }
    violations
}
