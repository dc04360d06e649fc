//! The `cast-truncation` graph rule.
//!
//! `as` casts to narrow integer types silently truncate and wrap; on
//! the artifact-serialization paths that turns a numeric bug into a
//! *plausible-looking* artifact. On those paths every narrowing cast
//! must either be range-proven in the expression itself
//! (`.clamp(lo, hi) as u8`) or carry an annotation stating the proven
//! range:
//!
//! ```text
//! // g4check: allow(cast-truncation): len < 256 was checked above
//! w.u8(len as u8);
//! ```
//!
//! Elsewhere in the workspace narrowing casts are unrestricted — the
//! rule is about the paths whose output bytes are contractual.

use std::path::PathBuf;

use crate::index::WorkspaceIndex;
use crate::lint::{Rule, Violation};

/// Files whose narrowing casts are contractual: the binary artifact
/// writers/readers and the sharded index whose bytes they persist.
pub const CAST_CRITICAL_PATHS: &[&str] = &[
    "crates/tensor/src/serialize.rs",
    "crates/eval/src/manifest.rs",
    "crates/eval/src/sharded.rs",
];

/// Runs the rule over the index.
pub fn check(index: &WorkspaceIndex) -> Vec<Violation> {
    let mut violations = Vec::new();
    for path in CAST_CRITICAL_PATHS {
        let Some(fi) = index.files.get(*path) else {
            continue; // fixture workspaces rarely have every critical file
        };
        for f in &fi.fns {
            if f.is_test {
                continue;
            }
            for cast in &f.casts {
                if cast.safe || fi.allowed(cast.line, Rule::CastTruncation.name()) {
                    continue;
                }
                violations.push(Violation {
                    rule: Rule::CastTruncation,
                    path: PathBuf::from(path),
                    line: cast.line as usize,
                    message: format!(
                        "narrowing `as {}` in `{}` on a serialization path; \
                         clamp the value in the expression or annotate with \
                         '// g4check: allow(cast-truncation): <proven range>'",
                        cast.ty,
                        f.display(),
                    ),
                });
            }
        }
    }
    violations
}
