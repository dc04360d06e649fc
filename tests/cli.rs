//! The `gnn4ip` binary end to end: `train` writes a binary detector that
//! `inspect`, `check` and `scan` read; `scan` ranks every library file;
//! `ingest` builds and appends to a corpus checkpoint directory that
//! `inspect`, `audit` and `gc` read; and a library file that does not
//! parse, or a `--model` that is not a `G4IP` artifact or was not the
//! corpus's, fails the command with a message naming the cause. Source
//! discovery does not follow links to directories, and `serve --socket`
//! refuses a path that holds anything but a socket.

use std::path::{Path, PathBuf};
use std::process::{Output, Stdio};

const INV: &str = "module inv(input a, output y); assign y = ~a; endmodule\n";
const XOR: &str = "module x2(input a, input b, output y); assign y = a ^ b; endmodule\n";
const ADD: &str =
    "module add(input [3:0] a, input [3:0] b, output [3:0] s); assign s = a + b; endmodule\n";

/// Runs the binary in `dir`.
fn gnn4ip(dir: &Path, args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_gnn4ip"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawns gnn4ip")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The names of the files in `dir`, sorted.
fn listing(dir: &Path) -> Vec<String> {
    let entries = std::fs::read_dir(dir).expect("lists");
    let mut names: Vec<String> = entries
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// Writes `count` small designs `<sub><i>.v` into `dir/sub`.
fn library(dir: &Path, sub: &str, count: usize) {
    std::fs::create_dir_all(dir.join(sub)).expect("mkdir");
    for i in 0..count {
        let src = format!(
            "module {sub}{i}(input [3:0] a, output [3:0] y); assign y = a ^ {i}; endmodule"
        );
        std::fs::write(dir.join(sub).join(format!("{sub}{i}.v")), src).expect("writes");
    }
}

/// A fresh directory holding `a.v`, `b.v` and `c.v`.
fn workdir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gnn4ip-cli-{test}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    for (name, src) in [("a.v", INV), ("b.v", XOR), ("c.v", ADD)] {
        std::fs::write(dir.join(name), src).expect("writes design");
    }
    dir
}

#[test]
fn trained_detector_serves_inspect_check_and_scan() {
    let dir = workdir("trained");
    let train = gnn4ip(
        &dir,
        &[
            "train",
            "--out",
            "D",
            "--designs",
            "4",
            "--instances",
            "3",
            "--epochs",
            "1",
        ],
    );
    assert!(train.status.success(), "train: {}", stderr(&train));

    let inspect = gnn4ip(&dir, &["inspect", "D"]);
    assert!(inspect.status.success(), "inspect: {}", stderr(&inspect));
    let text = stdout(&inspect);
    assert!(text.contains("kind        gnn4ip-detector"), "{text}");
    assert!(text.contains("registered  yes"), "{text}");

    let check = gnn4ip(&dir, &["check", "a.v", "a.v", "--model", "D"]);
    assert!(check.status.success(), "check: {}", stderr(&check));
    assert!(stdout(&check).contains("PIRACY"), "{}", stdout(&check));

    // suspect a.v against the library b.v, a.v, c.v: one line per
    // library file, scores never increasing, the exact copy first
    let scan = gnn4ip(&dir, &["scan", "a.v", "b.v", "a.v", "c.v", "--model", "D"]);
    assert!(scan.status.success(), "scan: {}", stderr(&scan));
    let text = stdout(&scan);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "{text}");
    let scores: Vec<f32> = lines
        .iter()
        .map(|l| {
            let score = l.split_whitespace().next().expect("score column");
            score.parse().expect("numeric score")
        })
        .collect();
    assert!(scores.windows(2).all(|w| w[0] >= w[1]), "{text}");
    assert!(lines[0].starts_with("+1.0000"), "{text}");
    assert!(lines[0].ends_with("  a.v"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scan_names_a_library_file_that_does_not_parse() {
    let dir = workdir("badlib");
    std::fs::write(dir.join("broken.v"), "modul brok(input a\n").expect("writes");
    let scan = gnn4ip(&dir, &["scan", "a.v", "b.v", "broken.v"]);
    assert_eq!(scan.status.code(), Some(1), "{}", stderr(&scan));
    assert!(stderr(&scan).contains("broken.v"), "{}", stderr(&scan));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn model_flag_refuses_a_text_detector() {
    let dir = workdir("textmodel");
    let text = "delta 0.5\nhw2vec-model v1\nconfig 45 16 2 0.5 0.1 max gcn\n";
    std::fs::write(dir.join("detector.txt"), text).expect("writes");
    let check = gnn4ip(&dir, &["check", "a.v", "a.v", "--model", "detector.txt"]);
    assert_eq!(check.status.code(), Some(1), "{}", stderr(&check));
    assert!(stderr(&check).contains("bad magic"), "{}", stderr(&check));
    std::fs::remove_dir_all(&dir).ok();
}

/// `ingest` creates the corpus directory, and a second `ingest` appends
/// to it by writing only the newly sealed shard and name block plus the
/// manifest. Each run seals a 256-row shard, so each ingests a generated
/// library beside the named designs.
#[test]
fn ingest_appends_a_corpus_that_inspect_and_audit_read() {
    let dir = workdir("corpus");
    library(&dir, "lib", 300);
    library(&dir, "more", 230);
    let ingest = gnn4ip(&dir, &["ingest", "a.v", "b.v", "lib", "--index", "corpus"]);
    let said = stdout(&ingest);
    assert!(said.contains("corpus=302"), "{said}{}", stderr(&ingest));
    let before = listing(&dir.join("corpus"));
    let append = gnn4ip(&dir, &["ingest", "c.v", "more", "--index", "corpus"]);
    let said = stdout(&append);
    assert!(said.contains("corpus=533"), "{said}{}", stderr(&append));
    // the second run kept every file of the first (block files are
    // content-addressed: a kept name is kept bytes), rewrote the manifest
    // and added one shard and one name block
    let after = listing(&dir.join("corpus"));
    assert_eq!(before.len(), 3, "{before:?}");
    assert!(before.iter().all(|f| after.contains(f)), "{after:?}");
    let added = after.iter().filter(|f| !before.contains(f));
    let kinds: Vec<&str> = added.map(|f| f.split('-').next().unwrap()).collect();
    assert_eq!(kinds, ["names", "shard"]);

    let inspect = gnn4ip(&dir, &["inspect", "corpus/manifest.g4m"]);
    let text = stdout(&inspect);
    let pin = gnn4ip::Gnn4Ip::with_seed(42).model().weights_checksum();
    for line in [
        "kind        gnn4ip-corpus-manifest",
        "registered  yes",
        &format!("weights     {pin:#018x}"),
        "shards      2 (256 rows/shard capacity)",
        "name blocks 2",
    ] {
        assert!(text.contains(line), "{text}{}", stderr(&inspect));
    }

    let audit = gnn4ip(&dir, &["audit", "a.v", "--index", "corpus"]);
    assert!(audit.status.success(), "audit: {}", stderr(&audit));
    assert!(
        stdout(&audit).contains("best=a.v:+1.0000"),
        "{}",
        stdout(&audit)
    );

    let gc = gnn4ip(&dir, &["gc", "corpus", "--dry-run"]);
    let text = stdout(&gc);
    assert!(text.contains("4 live block file(s), 0 orphan(s)"), "{text}");
    assert!(!text.contains("would remove"), "{text}");

    // 163 bytes that unroll to a million statements: refused with a line
    // naming the budget, and the command still succeeds
    let loops = "module m(input a, output reg y); integer i, j; always @(*) begin y = 0; \
                 for (i = 0; i < 1000; i = i + 1) for (j = 0; j < 1000; j = j + 1) \
                 y = y ^ a; end endmodule\n";
    std::fs::write(dir.join("loops.v"), loops).expect("writes");
    let audit = gnn4ip(&dir, &["audit", "loops.v", "--index", "corpus"]);
    assert!(audit.status.success(), "audit: {}", stderr(&audit));
    let text = stdout(&audit);
    let budget = format!(
        "elaboration budget of {} nodes",
        gnn4ip::hdl::ELABORATION_BUDGET
    );
    assert!(
        text.lines()
            .any(|l| l.starts_with("ERR") && l.contains("loops.v") && l.contains(&budget)),
        "{text}"
    );
    assert!(text.contains("rejected=1"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ingest_check_writes_nothing_when_a_design_fails() {
    let dir = workdir("check");
    std::fs::write(dir.join("broken.v"), "modul brok(input a\n").expect("writes");
    let before = std::fs::read_dir(&dir).expect("lists").count();
    let check = gnn4ip(&dir, &["ingest", "--check", "a.v", "broken.v"]);
    assert_eq!(check.status.code(), Some(1), "{}", stderr(&check));
    let said = format!("{}{}", stdout(&check), stderr(&check));
    assert!(said.contains("broken.v"), "{said}");
    assert_eq!(std::fs::read_dir(&dir).expect("lists").count(), before);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn audit_refuses_a_detector_with_other_weights() {
    let dir = workdir("weights");
    let ingest = gnn4ip(&dir, &["ingest", "a.v", "b.v", "--index", "corpus"]);
    assert!(ingest.status.success(), "ingest: {}", stderr(&ingest));
    gnn4ip::Gnn4Ip::with_seed(7)
        .save(dir.join("other.bin"))
        .expect("saves");
    let audit = gnn4ip(
        &dir,
        &["audit", "a.v", "--index", "corpus", "--model", "other.bin"],
    );
    assert_eq!(audit.status.code(), Some(1), "{}", stdout(&audit));
    assert!(
        stderr(&audit).contains("built by weights"),
        "{}",
        stderr(&audit)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A walk that followed `up -> ..` would revisit the tree until the OS's
/// link limit; discovery takes `d/a.v` once. A link named on the command
/// line is still walked.
#[cfg(unix)]
#[test]
fn discovery_does_not_follow_directory_links() {
    let dir = workdir("links");
    std::fs::create_dir_all(dir.join("d")).expect("mkdir");
    std::fs::write(dir.join("d/a.v"), INV).expect("writes");
    std::os::unix::fs::symlink("..", dir.join("d/up")).expect("links");
    std::os::unix::fs::symlink("d", dir.join("linked")).expect("links");
    for root in ["d", "linked"] {
        let said = stderr(&gnn4ip(&dir, &["ingest", root, "--check"]));
        assert!(said.contains("discovered 1 Verilog file(s)"), "{said}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `serve --socket` removes a stale socket before binding, and nothing
/// else: a regular file at the path fails the command and keeps its
/// bytes. A server that did bind would block in `accept`, so the test
/// polls the child for a bounded time and kills it rather than hang.
#[cfg(unix)]
#[test]
fn serve_socket_refuses_to_replace_a_regular_file() {
    let dir = workdir("socket");
    std::fs::write(dir.join("keep.txt"), "precious").expect("writes");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_gnn4ip"))
        .current_dir(&dir)
        .args(["serve", "--socket", "keep.txt"])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns gnn4ip");
    let pause = std::time::Duration::from_millis(20);
    let exited = (0..1000).any(|_| {
        std::thread::sleep(pause);
        child.try_wait().expect("polls").is_some()
    });
    if !exited {
        child.kill().ok();
    }
    let out = child.wait_with_output().expect("reaps");
    assert_eq!(out.status.code().filter(|_| exited), Some(1));
    assert!(stderr(&out).contains("keep.txt"), "{}", stderr(&out));
    let kept = std::fs::read(dir.join("keep.txt")).expect("reads");
    assert_eq!(kept, b"precious");
    std::fs::remove_dir_all(&dir).ok();
}
