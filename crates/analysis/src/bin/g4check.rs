//! `g4check` — the workspace invariant gate.
//!
//! ```text
//! g4check [--root PATH] [--json] [lint|graph|sched|all]
//! ```
//!
//! - `lint` scans every non-vendored `.rs` file for violations of the
//!   per-line workspace conventions (see `gnn4ip_analysis::lint::Rule`).
//! - `graph` builds the workspace symbol index from scratch and runs the
//!   cross-file dataflow rules: lock discipline, cast truncation, float
//!   determinism, panic reachability, and the interprocedural taint
//!   rules (`untrusted-alloc`, `len-overflow`, `error-swallow`).
//! - `sched` exhaustively explores the bounded interleavings of the
//!   `PublicationSlot` and `BoundedQueue` models and re-confirms the
//!   checker catches each one's seeded bug.
//! - `all` (the default) runs everything.
//!
//! `--json` writes a machine-readable report to stdout (human output
//! moves to stderr). The JSON report carries a `schema_version` and is
//! byte-identical across runs over an unchanged workspace: every run
//! indexes the workspace from its files and writes nothing, violations
//! sort by (path, line, rule), and nothing time- or machine-dependent
//! is emitted.
//!
//! Exit codes, relied on by `ci.sh --stage analysis`:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | clean |
//! | 1    | violations found |
//! | 2    | usage error |
//! | 3    | internal error (workspace unreadable) |

use std::path::PathBuf;
use std::process::ExitCode;

use gnn4ip_analysis::lint::{find_workspace_root, run_lint, LintConfig, Violation};
use gnn4ip_analysis::models::{verify_bounded_queue, verify_publication_slot};
use gnn4ip_analysis::rules::run_full;

const EXIT_VIOLATIONS: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_INTERNAL: u8 = 3;

/// Version of the `--json` report shape. Consumers pin on this; bump it
/// whenever a key is added, removed, or changes meaning. The report is
/// deterministic for a given workspace: violations are sorted by
/// (path, line, rule) and no timestamps or absolute paths appear.
const JSON_SCHEMA_VERSION: u32 = 2;

fn usage() -> &'static str {
    "usage: g4check [--root PATH] [--json] [lint|graph|sched|all]"
}

/// Everything one run produces, gathered before rendering so the JSON
/// and human reporters share a single source of truth.
#[derive(Default)]
struct RunOutcome {
    violations: Vec<Violation>,
    files_scanned: usize,
    files_indexed: usize,
    sched_schedules: usize,
    sched_failures: Vec<String>,
    stages: Vec<&'static str>,
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut mode: Option<String> = None;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(path) => root = Some(PathBuf::from(path)),
                None => {
                    eprintln!("g4check: --root requires a path\n{}", usage());
                    return ExitCode::from(EXIT_USAGE);
                }
            },
            "--json" => json = true,
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            "lint" | "graph" | "sched" | "all" if mode.is_none() => mode = Some(arg),
            other => {
                eprintln!("g4check: unrecognized argument '{other}'\n{}", usage());
                return ExitCode::from(EXIT_USAGE);
            }
        }
    }
    let mode = mode.unwrap_or_else(|| "all".to_string());

    let root = match resolve_root(root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("g4check: {e}");
            return ExitCode::from(EXIT_INTERNAL);
        }
    };

    let mut out = RunOutcome::default();
    let config = LintConfig { root: root.clone() };

    if mode == "graph" || mode == "all" {
        out.stages.push("graph");
        // `all` takes the line lints from run_full's report, which walks
        // and reads every file once for both phases; plain `lint` mode
        // keeps the cheap index-free path.
        if mode == "all" {
            out.stages.push("lint");
        }
        match run_full(&config) {
            Ok(report) => {
                out.files_scanned = report.lint.files_scanned;
                out.files_indexed = report.files_indexed;
                out.violations.extend(report.graph);
                if mode == "all" {
                    out.violations.extend(report.lint.violations);
                }
            }
            Err(e) => {
                eprintln!("g4check: analysis failed to run: {e}");
                return ExitCode::from(EXIT_INTERNAL);
            }
        }
    } else if mode == "lint" {
        out.stages.push("lint");
        match run_lint(&config) {
            Ok(report) => {
                out.files_scanned = report.files_scanned;
                out.violations.extend(report.violations);
            }
            Err(e) => {
                eprintln!("g4check: lint failed to run: {e}");
                return ExitCode::from(EXIT_INTERNAL);
            }
        }
    }

    if mode == "sched" || mode == "all" {
        out.stages.push("sched");
        run_sched_stage(&mut out, json);
    }

    out.violations
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    render(&out, &root, json)
}

fn resolve_root(root: Option<PathBuf>) -> Result<PathBuf, String> {
    match root {
        Some(r) => Ok(r),
        None => {
            let cwd = std::env::current_dir()
                .map_err(|e| format!("cannot determine current directory: {e}"))?;
            find_workspace_root(&cwd).ok_or_else(|| {
                format!(
                    "no workspace Cargo.toml found above {} — pass --root",
                    cwd.display()
                )
            })
        }
    }
}

fn run_sched_stage(out: &mut RunOutcome, json: bool) {
    /// One named model-checking suite: label plus its verifier entry point.
    type SchedSuite = (
        &'static str,
        fn() -> Result<gnn4ip_analysis::models::SchedSummary, String>,
    );
    let suites: &[SchedSuite] = &[
        ("publication-slot", verify_publication_slot),
        ("bounded-queue", verify_bounded_queue),
    ];
    for (suite, verify) in suites {
        match verify() {
            Ok(summary) => {
                if !json {
                    for run in &summary.runs {
                        println!(
                            "g4check sched [{suite}]: {:<22} {:>6} schedules (deepest {})",
                            run.name, run.schedules, run.deepest
                        );
                    }
                }
                out.sched_schedules += summary.total_schedules;
            }
            Err(e) => out.sched_failures.push(format!("[{suite}] {e}")),
        }
    }
}

fn render(out: &RunOutcome, root: &std::path::Path, json: bool) -> ExitCode {
    let clean = out.violations.is_empty() && out.sched_failures.is_empty();
    if json {
        println!("{}", to_json(out, clean));
    }
    let sink = |line: String| {
        // With --json, stdout is the machine report; humans read stderr.
        if json {
            eprintln!("{line}");
        } else if clean {
            println!("{line}");
        } else {
            eprintln!("{line}");
        }
    };
    for v in &out.violations {
        sink(v.to_string());
    }
    for f in &out.sched_failures {
        sink(format!("g4check sched: FAILED — {f}"));
    }
    sink(format!(
        "g4check [{}]: {} — {} violation(s), {} files scanned, {} indexed, \
         {} schedules explored, root {}",
        out.stages.join("+"),
        if clean { "OK" } else { "FAILED" },
        out.violations.len() + out.sched_failures.len(),
        out.files_scanned,
        out.files_indexed,
        out.sched_schedules,
        root.display(),
    ));
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_VIOLATIONS)
    }
}

/// Hand-rolled JSON writer (the crate is dependency-free by design).
fn to_json(out: &RunOutcome, clean: bool) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"schema_version\": {JSON_SCHEMA_VERSION},\n"));
    s.push_str(&format!("  \"clean\": {clean},\n"));
    s.push_str(&format!(
        "  \"stages\": [{}],\n",
        out.stages
            .iter()
            .map(|st| format!("\"{st}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    s.push_str(&format!("  \"files_scanned\": {},\n", out.files_scanned));
    s.push_str(&format!("  \"files_indexed\": {},\n", out.files_indexed));
    s.push_str(&format!(
        "  \"sched_schedules\": {},\n",
        out.sched_schedules
    ));
    s.push_str(&format!(
        "  \"sched_failures\": [{}],\n",
        out.sched_failures
            .iter()
            .map(|f| json_string(f))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    s.push_str("  \"violations\": [");
    for (i, v) in out.violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"message\": {}}}",
            json_string(v.rule.name()),
            json_string(&v.path.display().to_string()),
            v.line,
            json_string(&v.message),
        ));
    }
    if !out.violations.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}");
    s
}

fn json_string(raw: &str) -> String {
    let mut s = String::with_capacity(raw.len() + 2);
    s.push('"');
    for c in raw.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\t' => s.push_str("\\t"),
            '\r' => s.push_str("\\r"),
            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
    s.push('"');
    s
}
