//! Fixture-workspace tests for the `g4check` lint: each rule gets a tiny
//! on-disk workspace with one seeded violation, and the test asserts the
//! violation is reported at the exact path and line — plus the self-run
//! test proving the live workspace is clean.

use std::path::{Path, PathBuf};

use gnn4ip_analysis::build_index;
use gnn4ip_analysis::lint::{run_lint, LintConfig, LintReport, Rule, Violation};
use gnn4ip_analysis::rules::{run_full, run_graph_rules};

/// A throwaway workspace under the OS temp dir, deleted on drop.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    /// Builds the clean baseline workspace plus `extra` files: a
    /// `[workspace]` manifest, one demo crate whose single writer call
    /// site matches the one `FORMATS` row and the one README table row.
    fn with(name: &str, extra: &[(&str, &str)]) -> Self {
        let root =
            std::env::temp_dir().join(format!("g4check-fixture-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let base: &[(&str, &str)] = &[
            ("Cargo.toml", "[workspace]\nmembers = []\n"),
            (
                "crates/tensor/src/serialize.rs",
                "pub const FORMATS: &[(&str, u16)] = &[(\"demo-kind\", 1)];\n\
                 pub struct BinWriter;\n",
            ),
            (
                "crates/demo/src/lib.rs",
                "#![forbid(unsafe_code)]\n\
                 pub fn save() {\n\
                 \x20   let _w = BinWriter::new(\"demo-kind\");\n\
                 }\n",
            ),
            (
                "README.md",
                "# demo\n\n| kind | version |\n|---|---|\n| `demo-kind` | v1 |\n",
            ),
        ];
        for (rel, content) in base.iter().chain(extra) {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().expect("fixture paths nest")).expect("mkdir");
            std::fs::write(path, content).expect("write fixture file");
        }
        Self { root }
    }

    fn lint(&self) -> LintReport {
        run_lint(&LintConfig {
            root: self.root.clone(),
        })
        .expect("fixture lint runs")
    }

    /// Runs only the phase-2 graph rules (no line lints), so graph
    /// fixtures don't need `#![forbid(unsafe_code)]` boilerplate.
    fn graph(&self) -> Vec<Violation> {
        let index = build_index(&self.root).expect("fixture index builds");
        run_graph_rules(&index)
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Asserts the report holds exactly one violation, of `rule` at
/// `path:line`.
fn assert_single(report: &LintReport, rule: Rule, path: &str, line: usize) {
    assert_eq!(
        report.violations.len(),
        1,
        "expected exactly one violation, got: {:#?}",
        report.violations
    );
    let v = &report.violations[0];
    assert_eq!(v.rule, rule, "wrong rule: {v}");
    assert_eq!(v.path, Path::new(path), "wrong path: {v}");
    assert_eq!(v.line, line, "wrong line: {v}");
}

#[test]
fn baseline_fixture_is_clean() {
    let report = Fixture::with("baseline", &[]).lint();
    assert!(report.is_clean(), "{:#?}", report.violations);
    assert_eq!(report.files_scanned, 2);
}

#[test]
fn forbidden_rng_is_reported_with_line() {
    let fx = Fixture::with(
        "rng",
        &[(
            "crates/demo/src/rng.rs",
            "use rand::thread_rng;\n\npub fn roll() -> u32 {\n    thread_rng().gen()\n}\n",
        )],
    );
    let report = fx.lint();
    // both the import (line 1) and the call (line 4) fire
    assert_eq!(report.violations.len(), 2, "{:#?}", report.violations);
    assert!(report
        .violations
        .iter()
        .all(|v| v.rule == Rule::ForbiddenRng && v.path == Path::new("crates/demo/src/rng.rs")));
    let lines: Vec<usize> = report.violations.iter().map(|v| v.line).collect();
    assert_eq!(lines, vec![1, 4]);
}

#[test]
fn from_entropy_is_reported() {
    let fx = Fixture::with(
        "entropy",
        &[(
            "crates/demo/src/seed.rs",
            "pub fn rng() -> StdRng {\n    StdRng::from_entropy()\n}\n",
        )],
    );
    assert_single(&fx.lint(), Rule::ForbiddenRng, "crates/demo/src/seed.rs", 2);
}

#[test]
fn unwrap_in_lib_is_reported_with_line() {
    let fx = Fixture::with(
        "unwrap",
        &[(
            "crates/demo/src/util.rs",
            "pub fn first(v: &[u32]) -> u32 {\n    *v.first().unwrap()\n}\n",
        )],
    );
    assert_single(&fx.lint(), Rule::UnwrapInLib, "crates/demo/src/util.rs", 2);
}

#[test]
fn annotated_unwrap_is_allowed() {
    let fx = Fixture::with(
        "unwrap-allowed",
        &[(
            "crates/demo/src/util.rs",
            "pub fn first(v: &[u32]) -> u32 {\n    \
             // g4check: allow(unwrap-in-lib): caller guarantees non-empty\n    \
             *v.first().unwrap()\n}\n",
        )],
    );
    let report = fx.lint();
    assert!(report.is_clean(), "{:#?}", report.violations);
}

#[test]
fn unwrap_in_test_code_is_fine() {
    let fx = Fixture::with(
        "unwrap-test",
        &[(
            "crates/demo/src/util.rs",
            "pub fn id(v: u32) -> u32 {\n    v\n}\n\n\
             #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
             Some(1u32).unwrap();\n    }\n}\n",
        )],
    );
    let report = fx.lint();
    assert!(report.is_clean(), "{:#?}", report.violations);
}

#[test]
fn missing_forbid_unsafe_is_reported() {
    let fx = Fixture::with("forbid", &[("crates/other/src/lib.rs", "pub fn f() {}\n")]);
    assert_single(&fx.lint(), Rule::ForbidUnsafe, "crates/other/src/lib.rs", 0);
}

#[test]
fn wallclock_in_test_is_reported_with_line() {
    let fx = Fixture::with(
        "wallclock",
        &[(
            "crates/demo/src/timed.rs",
            "pub fn work() {}\n\n\
             #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
             let _t = std::time::Instant::now();\n    }\n}\n",
        )],
    );
    assert_single(
        &fx.lint(),
        Rule::WallclockInTest,
        "crates/demo/src/timed.rs",
        7,
    );
}

#[test]
fn wallclock_outside_tests_is_fine() {
    let fx = Fixture::with(
        "wallclock-lib",
        &[(
            "crates/demo/src/timed.rs",
            "pub fn stamp() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
        )],
    );
    let report = fx.lint();
    assert!(report.is_clean(), "{:#?}", report.violations);
}

#[test]
fn unregistered_format_is_reported_with_line() {
    let fx = Fixture::with(
        "registry-drift",
        &[(
            "crates/demo/src/extra.rs",
            "pub fn save() {\n    let _w = BinWriter::with_version(\"mystery-kind\", 3);\n}\n",
        )],
    );
    assert_single(
        &fx.lint(),
        Rule::FormatRegistry,
        "crates/demo/src/extra.rs",
        2,
    );
}

#[test]
fn unregistered_corpus_kinds_are_reported() {
    // the corpus checkpoint layout introduced two kinds; a writer call
    // site for either must be flagged when the registry (which here only
    // knows demo-kind) hasn't caught up
    for (name, kind) in [
        ("corpus-manifest", "gnn4ip-corpus-manifest"),
        ("corpus-shard", "gnn4ip-corpus-shard"),
    ] {
        let src =
            format!("pub fn save() {{\n    let _w = BinWriter::with_version(\"{kind}\", 1);\n}}\n");
        let fx = Fixture::with(
            &format!("registry-{name}"),
            &[("crates/demo/src/corpus.rs", src.as_str())],
        );
        assert_single(
            &fx.lint(),
            Rule::FormatRegistry,
            "crates/demo/src/corpus.rs",
            2,
        );
    }
}

#[test]
fn stale_registry_row_is_reported() {
    let fx = Fixture::with(
        "registry-stale",
        &[
            (
                "crates/tensor/src/serialize.rs",
                "pub const FORMATS: &[(&str, u16)] = &[(\"demo-kind\", 1), (\"ghost-kind\", 4)];\n\
                 pub struct BinWriter;\n",
            ),
            // README documents the ghost row too, so the only drift left
            // is the registry row whose writer no longer exists
            (
                "README.md",
                "# demo\n\n| kind | version |\n|---|---|\n| `demo-kind` | v1 |\n| `ghost-kind` | v4 |\n",
            ),
        ],
    );
    assert_single(
        &fx.lint(),
        Rule::FormatRegistry,
        "crates/tensor/src/serialize.rs",
        1,
    );
}

#[test]
fn reader_of_unregistered_kind_is_reported() {
    let fx = Fixture::with(
        "registry-reader-unknown",
        &[(
            "crates/demo/src/load.rs",
            "pub fn load(bytes: &[u8]) {\n    let _r = BinReader::open(bytes, \"mystery-kind\");\n}\n",
        )],
    );
    let report = fx.lint();
    assert_single(&report, Rule::FormatRegistry, "crates/demo/src/load.rs", 2);
    assert!(
        report.violations[0].message.contains("reader"),
        "{}",
        report.violations[0]
    );
}

#[test]
fn reader_behind_the_registered_version_is_reported() {
    // the registry moved late-kind to v2 (and a writer produces it), but
    // one reader still caps at v1 — it would reject current artifacts
    let fx = Fixture::with(
        "registry-reader-stale",
        &[
            (
                "crates/tensor/src/serialize.rs",
                "pub const FORMATS: &[(&str, u16)] = &[(\"demo-kind\", 1), (\"late-kind\", 2)];\n\
                 pub struct BinWriter;\n",
            ),
            (
                "README.md",
                "# demo\n\n| kind | version |\n|---|---|\n| `demo-kind` | v1 |\n| `late-kind` | v2 |\n",
            ),
            (
                "crates/demo/src/late.rs",
                "pub fn save() {\n    let _w = BinWriter::with_version(\"late-kind\", 2);\n}\n\
                 pub fn load(bytes: &[u8]) {\n    \
                 let _r = BinReader::open_versioned(bytes, \"late-kind\", 1);\n}\n",
            ),
        ],
    );
    let report = fx.lint();
    assert_single(&report, Rule::FormatRegistry, "crates/demo/src/late.rs", 5);
    assert!(
        report.violations[0].message.contains("max_version"),
        "{}",
        report.violations[0]
    );
}

#[test]
fn forward_compatible_reader_is_fine() {
    // a reader may accept versions newer than any registered one — that
    // is forward compatibility, not drift
    let fx = Fixture::with(
        "registry-reader-forward",
        &[(
            "crates/demo/src/load.rs",
            "pub fn load(bytes: &[u8]) {\n    \
             let _r = BinReader::open_versioned(bytes, \"demo-kind\", 3);\n}\n",
        )],
    );
    let report = fx.lint();
    assert!(report.is_clean(), "{:#?}", report.violations);
}

#[test]
fn a_reader_does_not_keep_a_stale_registry_row_alive() {
    // ghost-kind is registered, documented, and *read* — but nothing
    // writes it, so the stale-row check must still fire
    let fx = Fixture::with(
        "registry-reader-ghost",
        &[
            (
                "crates/tensor/src/serialize.rs",
                "pub const FORMATS: &[(&str, u16)] = &[(\"demo-kind\", 1), (\"ghost-kind\", 1)];\n\
                 pub struct BinWriter;\n",
            ),
            (
                "README.md",
                "# demo\n\n| kind | version |\n|---|---|\n| `demo-kind` | v1 |\n| `ghost-kind` | v1 |\n",
            ),
            (
                "crates/demo/src/load.rs",
                "pub fn load(bytes: &[u8]) {\n    let _r = BinReader::open(bytes, \"ghost-kind\");\n}\n",
            ),
        ],
    );
    assert_single(
        &fx.lint(),
        Rule::FormatRegistry,
        "crates/tensor/src/serialize.rs",
        1,
    );
}

#[test]
fn readme_drift_is_reported() {
    let fx = Fixture::with(
        "registry-readme",
        &[("README.md", "# demo\n\nno artifact table here at all\n")],
    );
    assert_single(&fx.lint(), Rule::FormatRegistry, "README.md", 0);
}

#[test]
fn bad_annotation_is_reported_with_line() {
    let fx = Fixture::with(
        "bad-annotation",
        &[(
            "crates/demo/src/ann.rs",
            "pub fn f(v: &[u32]) -> u32 {\n    \
             // g4check: allow(made-up-rule): because\n    \
             v[0]\n}\n",
        )],
    );
    assert_single(&fx.lint(), Rule::BadAnnotation, "crates/demo/src/ann.rs", 2);
}

/// Asserts `violations` holds exactly one finding, of `rule` at
/// `path:line`.
fn assert_single_graph(violations: &[Violation], rule: Rule, path: &str, line: usize) {
    assert_eq!(
        violations.len(),
        1,
        "expected exactly one graph violation, got: {violations:#?}"
    );
    let v = &violations[0];
    assert_eq!(v.rule, rule, "wrong rule: {v}");
    assert_eq!(v.path, Path::new(path), "wrong path: {v}");
    assert_eq!(v.line, line, "wrong line: {v}");
}

// ------------------------------------------------- phase-2 graph rules

#[test]
fn lock_order_inversion_is_reported() {
    let fx = Fixture::with(
        "lock-inversion",
        &[(
            "crates/demo/src/svc.rs",
            "use std::sync::Mutex;\n\
             pub struct Svc { state: Mutex<u64>, log: Mutex<u64> }\n\
             impl Svc {\n\
             \x20   pub fn ab(&self) {\n\
             \x20       let _a = self.state.lock().unwrap();\n\
             \x20       let _b = self.log.lock().unwrap();\n\
             \x20   }\n\
             \x20   pub fn ba(&self) {\n\
             \x20       let _b = self.log.lock().unwrap();\n\
             \x20       let _a = self.state.lock().unwrap();\n\
             \x20   }\n\
             }\n",
        )],
    );
    let report = fx.graph();
    assert_single_graph(&report, Rule::LockDiscipline, "crates/demo/src/svc.rs", 10);
    assert!(
        report[0].message.contains("lock-order inversion"),
        "{}",
        report[0]
    );
}

#[test]
fn blocking_call_under_lock_is_reported() {
    let fx = Fixture::with(
        "lock-blocking",
        &[(
            "crates/demo/src/svc.rs",
            "use std::sync::{mpsc::Receiver, Mutex};\n\
             pub struct Svc { state: Mutex<u64> }\n\
             impl Svc {\n\
             \x20   pub fn drain(&self, rx: &Receiver<u64>) {\n\
             \x20       let mut g = self.state.lock().unwrap();\n\
             \x20       *g += rx.recv().unwrap_or(0);\n\
             \x20   }\n\
             }\n",
        )],
    );
    let report = fx.graph();
    assert_single_graph(&report, Rule::LockDiscipline, "crates/demo/src/svc.rs", 6);
    assert!(
        report[0].message.contains("blocks the calling thread"),
        "{}",
        report[0]
    );
}

#[test]
fn unproven_narrowing_cast_on_critical_path_is_reported() {
    let fx = Fixture::with(
        "cast-unproven",
        &[(
            "crates/eval/src/manifest.rs",
            "pub fn code(v: f32, scale: f32) -> i8 {\n\
             \x20   (v / scale).round() as i8\n\
             }\n",
        )],
    );
    assert_single_graph(
        &fx.graph(),
        Rule::CastTruncation,
        "crates/eval/src/manifest.rs",
        2,
    );
}

#[test]
fn clamped_cast_on_critical_path_is_fine() {
    let fx = Fixture::with(
        "cast-clamped",
        &[(
            "crates/eval/src/manifest.rs",
            "pub fn code(v: f32, scale: f32) -> i8 {\n\
             \x20   (v / scale).round().clamp(-127.0, 127.0) as i8\n\
             }\n",
        )],
    );
    let report = fx.graph();
    assert!(report.is_empty(), "{report:#?}");
}

#[test]
fn unregistered_float_reduction_is_reported() {
    let fx = Fixture::with(
        "floatdet",
        &[(
            "crates/eval/src/manifest.rs",
            "pub fn checksum(xs: &[f32]) -> f32 {\n\
             \x20   xs.iter().sum()\n\
             }\n",
        )],
    );
    let report = fx.graph();
    assert_single_graph(
        &report,
        Rule::FloatDeterminism,
        "crates/eval/src/manifest.rs",
        2,
    );
    assert!(
        report[0].message.contains("DETERMINISM_KERNELS"),
        "{}",
        report[0]
    );
}

#[test]
fn panic_reachable_from_a_bin_entry_is_reported() {
    let fx = Fixture::with(
        "panic-bin",
        &[
            (
                "crates/demo/src/bin/tool.rs",
                "fn main() {\n\
                 \x20   let v = parse(\"7\");\n\
                 \x20   drop(v);\n\
                 }\n",
            ),
            (
                "crates/demo/src/parse_util.rs",
                "pub fn parse(s: &str) -> u64 {\n\
                 \x20   s.parse().unwrap()\n\
                 }\n",
            ),
        ],
    );
    let report = fx.graph();
    assert_single_graph(&report, Rule::PanicPath, "crates/demo/src/parse_util.rs", 2);
    assert!(report[0].message.contains("main → parse"), "{}", report[0]);
}

#[test]
fn documented_panic_contract_is_exempt() {
    let fx = Fixture::with(
        "panic-documented",
        &[(
            "crates/demo/src/bin/tool.rs",
            "fn main() {\n\
             \x20   let v = parse(\"7\");\n\
             \x20   drop(v);\n\
             }\n\
             /// # Panics\n\
             ///\n\
             /// Panics on malformed input.\n\
             fn parse(s: &str) -> u64 {\n\
             \x20   s.parse().unwrap()\n\
             }\n",
        )],
    );
    let report = fx.graph();
    assert!(report.is_empty(), "{report:#?}");
}

// ------------------------------------------------- taint rules

#[test]
fn taint_through_two_hop_chain_reaches_alloc() {
    // read_body at the registered source path taints `body`; the count
    // derived from it crosses a call boundary into `prepare`, whose
    // allocation is two hops from the trust boundary
    let fx = Fixture::with(
        "taint-two-hop",
        &[(
            "crates/core/src/service.rs",
            "pub fn read_body() -> String {\n\
             \x20   String::new()\n\
             }\n\
             pub fn handle() {\n\
             \x20   let body = read_body();\n\
             \x20   let n = body.len();\n\
             \x20   prepare(n);\n\
             }\n\
             fn prepare(n: usize) {\n\
             \x20   let v: Vec<u8> = Vec::with_capacity(n);\n\
             \x20   drop(v);\n\
             }\n",
        )],
    );
    let report = fx.graph();
    assert_single_graph(
        &report,
        Rule::UntrustedAlloc,
        "crates/core/src/service.rs",
        10,
    );
    assert!(report[0].message.contains("with_capacity"), "{}", report[0]);
}

#[test]
fn sanitizer_clears_taint_before_alloc() {
    // identical shape, but the count passes through `.min(64)` — the
    // registered sanitizer bounds it and no violation may fire
    let fx = Fixture::with(
        "taint-sanitized",
        &[(
            "crates/core/src/service.rs",
            "pub fn read_body() -> String {\n\
             \x20   String::new()\n\
             }\n\
             pub fn handle() {\n\
             \x20   let body = read_body();\n\
             \x20   let n = body.len().min(64);\n\
             \x20   prepare(n);\n\
             }\n\
             fn prepare(n: usize) {\n\
             \x20   let v: Vec<u8> = Vec::with_capacity(n);\n\
             \x20   drop(v);\n\
             }\n",
        )],
    );
    let report = fx.graph();
    assert!(report.is_empty(), "{report:#?}");
}

#[test]
fn taint_survives_field_projection() {
    // the untrusted count rides into a struct field and comes back out
    // through `h.rows`: projecting a field off a tainted value must not
    // launder it
    let fx = Fixture::with(
        "taint-projection",
        &[(
            "crates/core/src/service.rs",
            "pub struct Header {\n\
             \x20   pub rows: usize,\n\
             }\n\
             pub fn read_body() -> String {\n\
             \x20   String::new()\n\
             }\n\
             fn parse_header(body: &str) -> Header {\n\
             \x20   Header { rows: body.len() }\n\
             }\n\
             pub fn handle() {\n\
             \x20   let body = read_body();\n\
             \x20   let h = parse_header(&body);\n\
             \x20   let v: Vec<u64> = Vec::with_capacity(h.rows);\n\
             \x20   drop(v);\n\
             }\n",
        )],
    );
    let report = fx.graph();
    assert_single_graph(
        &report,
        Rule::UntrustedAlloc,
        "crates/core/src/service.rs",
        13,
    );
}

#[test]
fn tainted_length_arithmetic_is_reported() {
    let fx = Fixture::with(
        "taint-arith",
        &[(
            "crates/core/src/service.rs",
            "pub fn read_body() -> String {\n\
             \x20   String::new()\n\
             }\n\
             pub fn payload_len(cols: usize) -> usize {\n\
             \x20   let body = read_body();\n\
             \x20   let rows = body.len();\n\
             \x20   rows * cols\n\
             }\n",
        )],
    );
    let report = fx.graph();
    assert_single_graph(&report, Rule::LenOverflow, "crates/core/src/service.rs", 7);
    assert!(report[0].message.contains("checked_mul"), "{}", report[0]);
}

#[test]
fn swallowed_parse_of_untrusted_data_is_reported() {
    let fx = Fixture::with(
        "taint-swallow",
        &[(
            "crates/core/src/service.rs",
            "pub fn read_body() -> String {\n\
             \x20   String::new()\n\
             }\n\
             pub fn handle() {\n\
             \x20   let body = read_body();\n\
             \x20   let _ = body.parse::<u32>();\n\
             }\n",
        )],
    );
    let report = fx.graph();
    assert_single_graph(&report, Rule::ErrorSwallow, "crates/core/src/service.rs", 6);
}

/// The gate the CI stage depends on: the live workspace this test runs
/// inside must lint clean. A violation here is a real finding in the
/// repo — fix the code (or annotate with a justification), do not touch
/// this test.
#[test]
fn live_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analysis sits two levels under the root")
        .to_path_buf();
    let report = run_lint(&LintConfig { root }).expect("workspace lints");
    assert!(
        report.is_clean(),
        "live workspace has lint violations:\n{}",
        report
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — did the walker break?",
        report.files_scanned
    );
}

/// Same gate, phase 2: the live workspace must be clean under every
/// graph rule (lock discipline, cast truncation, float determinism,
/// panic reachability, and the three taint rules — including the
/// registry staleness checks, which only arm on the live workspace).
/// The index is built from the files as they are, so the result cannot
/// be stale.
#[test]
fn live_workspace_graph_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analysis sits two levels under the root")
        .to_path_buf();
    let report = run_full(&LintConfig { root }).expect("workspace analysis runs");
    assert!(
        report.is_clean(),
        "live workspace has analysis violations:\n{}",
        report
            .all_violations()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.files_indexed > 50,
        "suspiciously few files indexed ({}) — did the indexer break?",
        report.files_indexed
    );
}
