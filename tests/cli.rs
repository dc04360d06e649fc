//! The `gnn4ip` binary end to end: `train` writes a binary detector that
//! `inspect`, `check` and `scan` read; `scan` ranks every library file;
//! and a library file that does not parse, or a `--model` that is not a
//! `G4IP` artifact, fails the command with a message naming the cause.

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
