//! The `gnn4ip` binary end to end: `train` writes a binary detector that
//! `inspect`, `check` and `scan` read; `scan` ranks every library file;
//! `ingest` builds and appends to a `.g4a` corpus that `inspect` and
//! `audit` read; and a library file that does not parse, or a `--model`
//! that is not a `G4IP` artifact or was not the corpus's, fails the
//! command with a message naming the cause.

use std::path::{Path, PathBuf};
use std::process::Output;

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

#[test]
fn ingest_appends_a_corpus_that_inspect_and_audit_read() {
    let dir = workdir("corpus");
    let ingest = gnn4ip(&dir, &["ingest", "a.v", "b.v", "--index", "corpus.g4a"]);
    assert!(ingest.status.success(), "ingest: {}", stderr(&ingest));
    assert!(stdout(&ingest).contains("corpus=2"), "{}", stdout(&ingest));
    let append = gnn4ip(&dir, &["ingest", "c.v", "--index", "corpus.g4a"]);
    assert!(append.status.success(), "append: {}", stderr(&append));
    assert!(stdout(&append).contains("corpus=3"), "{}", stdout(&append));

    let inspect = gnn4ip(&dir, &["inspect", "corpus.g4a"]);
    assert!(inspect.status.success(), "inspect: {}", stderr(&inspect));
    let text = stdout(&inspect);
    assert!(text.contains("kind        gnn4ip-audit-index"), "{text}");
    assert!(text.contains("registered  yes"), "{text}");
    assert!(text.contains("designs     3"), "{text}");

    let audit = gnn4ip(&dir, &["audit", "a.v", "--index", "corpus.g4a"]);
    assert!(audit.status.success(), "audit: {}", stderr(&audit));
    assert!(
        stdout(&audit).contains("best=a.v:+1.0000"),
        "{}",
        stdout(&audit)
    );

    // 163 bytes that unroll to a million statements: refused with a line
    // naming the budget, and the command still succeeds
    let loops = "module m(input a, output reg y); integer i, j; always @(*) begin y = 0; \
                 for (i = 0; i < 1000; i = i + 1) for (j = 0; j < 1000; j = j + 1) \
                 y = y ^ a; end endmodule\n";
    std::fs::write(dir.join("loops.v"), loops).expect("writes");
    let audit = gnn4ip(&dir, &["audit", "loops.v", "--index", "corpus.g4a"]);
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
    let ingest = gnn4ip(&dir, &["ingest", "a.v", "b.v", "--index", "corpus.g4a"]);
    assert!(ingest.status.success(), "ingest: {}", stderr(&ingest));
    gnn4ip::Gnn4Ip::with_seed(7)
        .save(dir.join("other.bin"))
        .expect("saves");
    let audit = gnn4ip(
        &dir,
        &[
            "audit",
            "a.v",
            "--index",
            "corpus.g4a",
            "--model",
            "other.bin",
        ],
    );
    assert_eq!(audit.status.code(), Some(1), "{}", stdout(&audit));
    assert!(
        stderr(&audit).contains("built by weights"),
        "{}",
        stderr(&audit)
    );
    std::fs::remove_dir_all(&dir).ok();
}
