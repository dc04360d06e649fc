//! Persistence contract of the binary artifacts: save→load→save is
//! byte-identical, loaded detectors reproduce in-memory scores bit for
//! bit, and a training run resumed from a checkpoint matches the
//! uninterrupted run's loss trajectory from the first post-checkpoint
//! step onward.

use proptest::prelude::*;

use gnn4ip::dfg::graph_from_verilog;
use gnn4ip::nn::{
    ConvKind, EngineConfig, GraphInput, Hw2Vec, Hw2VecConfig, PairLabel, PairSample, Readout,
    TrainConfig, TrainEngine,
};
use gnn4ip::Gnn4Ip;

fn config_from(hidden: usize, layers: usize, conv: usize, readout: usize) -> Hw2VecConfig {
    Hw2VecConfig {
        hidden,
        layers,
        conv: if conv == 0 {
            ConvKind::Gcn
        } else {
            ConvKind::Sage
        },
        readout: match readout {
            0 => Readout::Max,
            1 => Readout::Mean,
            _ => Readout::Sum,
        },
        ..Hw2VecConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// save→load→save produces byte-identical model artifacts for any
    /// architecture in the supported space.
    #[test]
    fn model_save_load_save_is_byte_identical(
        hidden in 2usize..24,
        layers in 1usize..4,
        conv in 0usize..2,
        readout in 0usize..3,
        seed in 0u64..500,
    ) {
        let model = Hw2Vec::new(config_from(hidden, layers, conv, readout), seed);
        let bytes = model.to_bytes();
        let reloaded = Hw2Vec::from_bytes(&bytes).expect("loads");
        prop_assert_eq!(reloaded.to_bytes(), bytes, "second save drifted");
        prop_assert_eq!(model.weights_checksum(), reloaded.weights_checksum());
    }

    /// Detector artifacts (model + δ) round-trip byte-identically too,
    /// and the loaded detector scores sources bit-exactly like the
    /// original.
    #[test]
    fn detector_roundtrip_reproduces_scores(seed in 0u64..200, delta in -0.5f32..0.9) {
        let mut d = Gnn4Ip::with_seed(seed);
        d.set_delta(delta);
        let bytes = d.to_bytes();
        let d2 = Gnn4Ip::from_bytes(&bytes).expect("loads");
        prop_assert_eq!(d2.to_bytes(), bytes);
        let a = "module inv(input a, output y); assign y = ~a; endmodule";
        let b = "module x2(input a, input b, output y); assign y = a ^ b; endmodule";
        let (v1, v2) = (d.check(a, b).expect("a"), d2.check(a, b).expect("b"));
        prop_assert_eq!(v1.score.to_bits(), v2.score.to_bits());
        prop_assert_eq!(v1.piracy, v2.piracy);
    }

}

/// Six small RTL designs: the training set of the resume tests and the
/// corpus of the pinned pipeline checkpoint.
const SOURCES: [&str; 6] = [
    "module inv(input a, output y); assign y = ~a; endmodule",
    "module buf2(input a, output y); assign y = a; endmodule",
    "module x2(input a, input b, output y); assign y = a ^ b; endmodule",
    "module a2(input a, input b, output y); assign y = a & b; endmodule",
    "module o2(input a, input b, output y); assign y = a | b; endmodule",
    "module add(input [3:0] a, input [3:0] b, output [3:0] s); assign s = a + b; endmodule",
];

/// Small real-RTL training set for the resume tests.
fn training_set() -> (Vec<GraphInput>, Vec<PairSample>) {
    let graphs: Vec<GraphInput> = SOURCES
        .iter()
        .map(|s| GraphInput::from_dfg(&graph_from_verilog(s, None).expect("graph")))
        .collect();
    let mut pairs = Vec::new();
    for i in 0..graphs.len() {
        for j in (i + 1)..graphs.len() {
            pairs.push(PairSample {
                a: i,
                b: j,
                label: if (i < 2) == (j < 2) {
                    PairLabel::Similar
                } else {
                    PairLabel::Different
                },
            });
        }
    }
    (graphs, pairs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A run resumed from a mid-training checkpoint recomputes the
    /// post-checkpoint epochs bit-exactly — the first recomputed epoch is
    /// the one that exercises the restored optimizer moments — and lands
    /// on the same final weights as the uninterrupted run.
    #[test]
    fn resumed_run_matches_uninterrupted(seed in 0u64..50, ckpt_every in 2usize..4) {
        let (graphs, pairs) = training_set();
        let total_epochs = 5usize;
        let dir = std::env::temp_dir().join(format!(
            "gnn4ip-persist-{}-{}-{}",
            std::process::id(),
            seed,
            ckpt_every
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("ckpt.bin");
        let cfg = EngineConfig {
            train: TrainConfig {
                epochs: total_epochs,
                batch_size: 4,
                lr: 0.02,
                seed,
                threads: 1,
                ..TrainConfig::default()
            },
            checkpoint_every: ckpt_every,
            checkpoint_path: Some(path.clone()),
            ..EngineConfig::default()
        };

        // uninterrupted run; checkpoints land periodically along the way,
        // the file ends up holding the last one (epoch 4 for every=2,
        // epoch 3 for every=3) — a mid-training snapshot.
        let mut full = TrainEngine::new(Hw2Vec::new(Hw2VecConfig::default(), seed), cfg.clone());
        let full_report = full.run(&graphs, &pairs, None).expect("runs").clone();
        let last_ckpt_epoch = (total_epochs / ckpt_every) * ckpt_every;
        prop_assert!(last_ckpt_epoch < total_epochs, "checkpoint must be mid-training");

        // "kill" the process here; a fresh engine resumes from the file
        let mut resumed = TrainEngine::resume(&path, cfg).expect("resumes");
        prop_assert_eq!(resumed.next_epoch(), last_ckpt_epoch);
        let resumed_report = resumed.run(&graphs, &pairs, None).expect("runs").clone();

        prop_assert_eq!(full_report.epochs.len(), resumed_report.epochs.len());
        for (a, b) in full_report.epochs.iter().zip(&resumed_report.epochs) {
            prop_assert_eq!(
                a.mean_loss.to_bits(),
                b.mean_loss.to_bits(),
                "epoch {} diverged: {} vs {}",
                a.epoch,
                a.mean_loss,
                b.mean_loss
            );
        }
        let e_full = full.into_model().embed(&graphs[0]);
        let e_res = resumed.into_model().embed(&graphs[0]);
        prop_assert_eq!(e_full, e_res, "final weights diverged");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A seeded index over `rows` rows (dim 6, 8 rows per shard, so every
/// row count here leaves a non-empty tail).
fn pinned_index(rows: usize) -> gnn4ip::eval::ShardedEmbeddingIndex {
    let dim = 6;
    let mut index = gnn4ip::eval::ShardedEmbeddingIndex::new(dim, 8);
    for i in 0..rows {
        let row: Vec<f32> = (0..dim)
            .map(|j| {
                let h = ((i * 97 + j * 31) as u64 ^ 0x5eed).wrapping_mul(2654435761) % 211;
                h as f32 / 211.0 - 0.45
            })
            .collect();
        index.insert(&row, i % 7);
    }
    index
}

/// The name and FNV-1a digest of every file `write` puts in a fresh
/// directory named after `test`, sorted by name.
fn file_digests(test: &str, write: impl FnOnce(&std::path::Path)) -> Vec<(String, u64)> {
    let dir = std::env::temp_dir().join(format!("gnn4ip-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write(&dir);
    let mut written: Vec<(String, u64)> = std::fs::read_dir(&dir)
        .expect("read dir")
        .map(|e| {
            let e = e.expect("entry");
            let digest = gnn4ip::tensor::fnv1a64(&std::fs::read(e.path()).expect("read"));
            (e.file_name().into_string().expect("utf-8 name"), digest)
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    written.sort();
    written
}

/// The on-disk bytes of a checkpoint of rows alone are pinned: the name
/// and digest of every file `checkpoint_dir` writes, for an index that
/// holds a tail. How sealed rows are laid out in memory must never change
/// a byte on disk.
#[test]
fn shard_index_bytes_are_pinned() {
    let index = pinned_index(37);
    let no_names = gnn4ip::eval::NameLog::new(index.shard_capacity());
    let written = file_digests("pinned-rows", |dir| {
        index
            .checkpoint_dir(&no_names, dir, 0xfeed)
            .expect("checkpoint");
    });
    let files = [
        ("manifest.g4m", 0x8729_35c3_11b6_f57b),
        ("shard-067cdebcd44fa36f.g4s", 0x4e3a_6050_274c_a821),
        ("shard-336541af8eabd4ac.g4s", 0xbe45_6092_3410_2587),
        ("shard-71f7247f60e5604c.g4s", 0x186e_89fb_50ab_a0df),
        ("shard-f04489465b3454da.g4s", 0xff93_d0d8_18da_549f),
    ];
    assert_eq!(written, files.map(|(n, d)| (n.to_string(), d)));
}

/// A whole pipeline checkpoint is pinned — shards, name blocks and the
/// manifest with its tail — for six designs embedded by a seeded
/// detector into shards of four.
#[test]
fn pipeline_checkpoint_bytes_are_pinned() {
    use gnn4ip::{AuditConfig, AuditPipeline, AuditSource};

    let config = AuditConfig {
        shard_capacity: 4,
        ..AuditConfig::default()
    };
    let mut pipeline = AuditPipeline::new(Gnn4Ip::with_seed(11), config);
    let named = SOURCES.iter().enumerate();
    pipeline.ingest(named.map(|(i, src)| AuditSource::new(format!("d{i}"), *src, None)));
    let written = file_digests("pinned-pipeline", |dir| {
        pipeline.checkpoint(dir).expect("checkpoint");
    });
    let files = [
        ("manifest.g4m", 0x4f11_3543_2310_aae1),
        ("names-7c2be74e1c94a095.g4n", 0xf792_4334_121e_d7f2),
        ("shard-7fb8c9d7e1483e2a.g4s", 0x03bf_71c0_0981_7fbc),
    ];
    assert_eq!(written, files.map(|(n, d)| (n.to_string(), d)));
}
