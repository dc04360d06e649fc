//! Integration tests for the `g4check` binary's exit-code contract,
//! which `ci.sh --stage analysis` relies on to distinguish findings
//! from infrastructure failures:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | clean |
//! | 1    | violations found |
//! | 2    | usage error |
//! | 3    | internal error |

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn g4check(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_g4check"))
        .args(args)
        .output()
        .expect("g4check spawns")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("g4check exits, not signals")
}

/// A throwaway workspace under the OS temp dir, deleted on drop.
struct Workspace {
    root: PathBuf,
}

impl Workspace {
    fn with(name: &str, files: &[(&str, &str)]) -> Self {
        let root = std::env::temp_dir().join(format!("g4check-exit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let base: &[(&str, &str)] = &[("Cargo.toml", "[workspace]\nmembers = []\n")];
        for (rel, content) in base.iter().chain(files) {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().expect("paths nest")).expect("mkdir");
            std::fs::write(path, content).expect("write file");
        }
        Self { root }
    }

    fn arg(&self) -> String {
        self.root.display().to_string()
    }
}

impl Drop for Workspace {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[test]
fn clean_workspace_exits_zero() {
    let ws = Workspace::with(
        "clean",
        &[(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() -> u32 {\n    2\n}\n",
        )],
    );
    let out = g4check(&["--root", &ws.arg(), "graph"]);
    assert_eq!(
        code(&out),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn violations_exit_one() {
    let ws = Workspace::with(
        "dirty",
        &[(
            "crates/eval/src/manifest.rs",
            "pub fn q(v: f32) -> i8 {\n    v as i8\n}\n",
        )],
    );
    let out = g4check(&["--root", &ws.arg(), "graph"]);
    assert_eq!(
        code(&out),
        1,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cast-truncation"), "stderr: {stderr}");
}

#[test]
fn usage_errors_exit_two() {
    let out = g4check(&["--frobnicate"]);
    assert_eq!(code(&out), 2);
    let out = g4check(&["--root"]);
    assert_eq!(code(&out), 2);
    let out = g4check(&["lint", "sched"]);
    assert_eq!(code(&out), 2, "two modes is a usage error");
}

#[test]
fn unreadable_workspace_exits_three() {
    let out = g4check(&["--root", "/nonexistent/g4check-root", "graph"]);
    assert_eq!(
        code(&out),
        3,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn json_report_carries_violations() {
    let ws = Workspace::with(
        "json",
        &[(
            "crates/eval/src/manifest.rs",
            "pub fn q(v: f32) -> i8 {\n    v as i8\n}\n",
        )],
    );
    // violation present, machine report on stdout
    let out = g4check(&["--root", &ws.arg(), "--json", "graph"]);
    assert_eq!(code(&out), 1);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"clean\": false"), "stdout: {stdout}");
    assert!(
        stdout.contains("\"rule\": \"cast-truncation\""),
        "stdout: {stdout}"
    );
}

/// Every path under `root`, files and directories alike, relative to it
/// and sorted.
fn tree(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(dir).expect("readable dir") {
            let path = entry.expect("dir entry").path();
            out.push(path.strip_prefix(root).expect("under root").to_path_buf());
            if path.is_dir() {
                dirs.push(path);
            }
        }
    }
    out.sort();
    out
}

/// A run is a function of the workspace alone: it reads the files under
/// `--root` and leaves their set as it found it.
#[test]
fn graph_run_leaves_the_file_set_unchanged() {
    let ws = Workspace::with(
        "read-only",
        &[(
            "crates/eval/src/manifest.rs",
            "pub fn q(v: f32) -> i8 {\n    v as i8\n}\n",
        )],
    );
    let before = tree(&ws.root);
    let out = g4check(&["--root", &ws.arg(), "graph"]);
    assert_eq!(
        code(&out),
        1,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(before, tree(&ws.root), "the run wrote under its root");
}

/// The machine report is versioned and deterministic: two default runs
/// over an unchanged workspace produce byte-identical stdout.
#[test]
fn json_report_is_versioned_and_byte_identical() {
    let ws = Workspace::with(
        "deterministic",
        &[
            (
                "crates/eval/src/manifest.rs",
                "pub fn q(v: f32) -> i8 {\n    v as i8\n}\n",
            ),
            (
                "crates/tensor/src/serialize.rs",
                "pub fn s(v: u32) -> u8 {\n    v as u8\n}\n",
            ),
        ],
    );
    let first = g4check(&["--root", &ws.arg(), "--json", "graph"]);
    let second = g4check(&["--root", &ws.arg(), "--json", "graph"]);
    assert_eq!(code(&first), 1);
    assert_eq!(code(&second), 1);
    assert_eq!(
        first.stdout,
        second.stdout,
        "reports differ:\n{}\n---\n{}",
        String::from_utf8_lossy(&first.stdout),
        String::from_utf8_lossy(&second.stdout)
    );
    let stdout = String::from_utf8_lossy(&first.stdout);
    assert!(stdout.contains("\"schema_version\": 2"), "stdout: {stdout}");
    // the stable (path, line, rule) sort puts crates/eval/src/manifest.rs
    // before crates/tensor/src/serialize.rs
    let manifest = stdout.find("manifest.rs").expect("manifest violation");
    let serialize = stdout.find("serialize.rs").expect("serialize violation");
    assert!(
        manifest < serialize,
        "violations not sorted by path:\n{stdout}"
    );
}
