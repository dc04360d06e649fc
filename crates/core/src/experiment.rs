//! Experiment-level training: corpus → trained detector → accuracy and
//! timing numbers in the shape of Table I.
//!
//! Both entry points train with the [`TrainEngine`] and share one body:
//! form pairs, split them 80/20, train, tune δ on the training split, and
//! score and time the held-out test split.
//!
//! - [`run_experiment`] — the Table-I protocol, in memory only.
//! - [`run_training_pipeline`] — the deployment lifecycle. It adds an
//!   early-stopping validation split, resumes from an existing
//!   checkpoint, and persists the trained detector as one binary
//!   artifact (model + δ), so later processes serve checks without
//!   retraining.

use std::path::{Path, PathBuf};
use std::time::Instant;

use gnn4ip_data::{split_pairs, Corpus, LabeledPair};
use gnn4ip_eval::ConfusionMatrix;
use gnn4ip_nn::{
    score_pairs, tune_delta, EngineConfig, GraphInput, Hw2Vec, Hw2VecConfig, PairLabel, PairSample,
    TrainConfig, TrainEngine, TrainReport,
};

use crate::api::Gnn4Ip;

/// Everything one Table-I-style run produces.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// The trained detector (δ already tuned on the training split).
    pub detector: Gnn4Ip,
    /// Loss trajectory.
    pub train_report: TrainReport,
    /// Confusion matrix on the held-out test pairs at the tuned δ.
    pub test_confusion: ConfusionMatrix,
    /// Accuracy on the test pairs.
    pub test_accuracy: f64,
    /// Tuned decision boundary.
    pub delta: f32,
    /// Wall-clock training time per sample (milliseconds) — Table I's
    /// "train time per sample".
    pub train_ms_per_sample: f64,
    /// Wall-clock inference time per sample (milliseconds) — Table I's
    /// "test time per sample".
    pub test_ms_per_sample: f64,
    /// Total pairs (dataset size column).
    pub n_pairs: usize,
    /// Number of distinct graphs.
    pub n_graphs: usize,
    /// Test-split scores with their ground-truth labels (for Fig. 4a
    /// reruns at other δ and for §IV-F rates).
    pub test_scores: Vec<(f32, bool)>,
}

/// Converts corpus pairs into trainer samples.
pub fn to_pair_samples(pairs: &[LabeledPair]) -> Vec<PairSample> {
    pairs
        .iter()
        .map(|p| PairSample {
            a: p.a,
            b: p.b,
            label: if p.similar {
                PairLabel::Similar
            } else {
                PairLabel::Different
            },
        })
        .collect()
}

/// Prepares model inputs for every graph in a corpus.
pub fn corpus_inputs(corpus: &Corpus) -> Vec<GraphInput> {
    corpus.graphs.iter().map(GraphInput::from_dfg).collect()
}

/// Runs the full Table-I protocol on a corpus: form pairs, 80/20 split,
/// train with the [`TrainEngine`] under `train_config`, tune δ on the
/// training split, evaluate on the test split, and time both phases per
/// sample.
///
/// `max_different` caps the number of no-piracy pairs (the paper uses ~3.5x
/// more different pairs than similar ones).
///
/// # Panics
///
/// Panics if the corpus yields no pairs, or on a config the engine
/// refuses (a zero batch size).
pub fn run_experiment(
    corpus: &Corpus,
    model_config: Hw2VecConfig,
    train_config: &TrainConfig,
    max_different: usize,
    seed: u64,
) -> ExperimentOutcome {
    let trainer = TrainEngine::new(
        Hw2Vec::new(model_config, seed),
        EngineConfig {
            train: train_config.clone(),
            ..EngineConfig::default()
        },
    );
    train_and_evaluate(corpus, max_different, seed, false, trainer)
        // g4check: allow(unwrap-in-lib): an engine that never checkpoints does no I/O, its only error source
        .expect("training without checkpoints cannot fail")
}

/// The body both entry points share: pairs and the 80/20 split, training
/// with `trainer`, δ tuned on the training split, and the held-out test
/// split scored and timed. With `validate`, a fifth of the training pairs
/// is held out of training as the early-stopping validation split.
///
/// # Errors
///
/// Returns the engine's checkpoint I/O failures as text.
///
/// # Panics
///
/// Panics if the corpus yields no pairs.
fn train_and_evaluate(
    corpus: &Corpus,
    max_different: usize,
    seed: u64,
    validate: bool,
    mut trainer: TrainEngine,
) -> Result<ExperimentOutcome, String> {
    let graphs = corpus_inputs(corpus);
    let pairs = corpus.pairs(max_different, seed);
    assert!(!pairs.is_empty(), "corpus produced no pairs");
    let (train_pairs, test_pairs) = split_pairs(&pairs, 0.2, seed ^ 0xDEAD);
    let test_samples = to_pair_samples(&test_pairs);
    let (train_samples, val_samples) = if validate {
        let (t, v) = split_pairs(&train_pairs, 0.2, seed ^ 0xBEEF);
        (to_pair_samples(&t), Some(to_pair_samples(&v)))
    } else {
        (to_pair_samples(&train_pairs), None)
    };

    let t0 = Instant::now();
    let prior_epochs = trainer.next_epoch();
    let report = trainer
        .run(&graphs, &train_samples, val_samples.as_deref())?
        .clone();
    let train_elapsed = t0.elapsed();
    // per-sample time covers only the epochs this process actually ran —
    // a resumed run must not divide its elapsed time by pre-resume epochs
    let train_samples_seen = train_samples.len() * (report.epochs.len() - prior_epochs);
    let train_ms_per_sample = train_elapsed.as_secs_f64() * 1e3 / train_samples_seen.max(1) as f64;

    let mut detector = Gnn4Ip::from_model(trainer.into_model(), 0.5);
    let train_scores = score_pairs(detector.model(), &graphs, &train_samples);
    let train_labels: Vec<PairLabel> = train_samples.iter().map(|p| p.label).collect();
    let (delta, _) = tune_delta(&train_scores, &train_labels);
    detector.set_delta(delta);

    let t1 = Instant::now();
    let test_scores = score_pairs(detector.model(), &graphs, &test_samples);
    let test_elapsed = t1.elapsed();
    let test_ms_per_sample = test_elapsed.as_secs_f64() * 1e3 / test_samples.len().max(1) as f64;

    let labels: Vec<bool> = test_samples
        .iter()
        .map(|p| p.label == PairLabel::Similar)
        .collect();
    let cm = ConfusionMatrix::from_scores(&test_scores, &labels, delta);
    Ok(ExperimentOutcome {
        detector,
        train_report: report,
        test_accuracy: cm.accuracy(),
        test_confusion: cm,
        delta,
        train_ms_per_sample,
        test_ms_per_sample,
        n_pairs: pairs.len(),
        n_graphs: graphs.len(),
        test_scores: test_scores.into_iter().zip(labels).collect(),
    })
}

/// Where [`run_training_pipeline`] left its artifacts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineArtifacts {
    /// Binary detector artifact (model + δ).
    pub detector: PathBuf,
    /// Training checkpoint, when periodic checkpointing was enabled.
    pub checkpoint: Option<PathBuf>,
}

/// The train/persist lifecycle over a corpus.
///
/// Runs [`run_experiment`]'s body under a full [`EngineConfig`], adding:
///
/// 1. **checkpoints** — when `engine.checkpoint_every > 0`, they land in
///    `artifact_dir/checkpoint.bin`;
/// 2. **resume** — if that checkpoint already exists (a prior run died or
///    stopped mid-training), training continues from it instead of
///    starting over;
/// 3. **validation** — when `engine.patience > 0`, a fifth of the
///    training pairs is carved off as the early-stopping validation
///    split;
/// 4. the **final artifact**: `artifact_dir/detector.bin`.
///
/// A detector later restored with [`Gnn4Ip::load`] reproduces this run's
/// scores bit-exactly.
///
/// # Errors
///
/// Returns I/O and serialization failures as text.
///
/// # Panics
///
/// Panics if the corpus yields no pairs.
pub fn run_training_pipeline(
    corpus: &Corpus,
    model_config: Hw2VecConfig,
    engine: EngineConfig,
    max_different: usize,
    seed: u64,
    artifact_dir: &Path,
) -> Result<(ExperimentOutcome, PipelineArtifacts), String> {
    std::fs::create_dir_all(artifact_dir)
        .map_err(|e| format!("creating {}: {e}", artifact_dir.display()))?;
    let mut engine_cfg = engine;
    let checkpoint = if engine_cfg.checkpoint_every > 0 {
        let path = engine_cfg
            .checkpoint_path
            .get_or_insert_with(|| artifact_dir.join("checkpoint.bin"))
            .clone();
        Some(path)
    } else {
        None
    };

    // pick up a prior interrupted run when its checkpoint is compatible
    // with this config AND this model architecture (the engine
    // fingerprint cannot see the architecture; a checkpoint from
    // different model hyper-parameters must retrain, not silently
    // continue the old model). Incompatible or corrupt leftovers mean
    // retrain, not fail.
    let resumed = match &checkpoint {
        Some(path) if path.exists() => TrainEngine::resume(path, engine_cfg.clone())
            .ok()
            .filter(|t| t.model().config() == &model_config),
        _ => None,
    };
    let validate = engine_cfg.patience > 0;
    let trainer =
        resumed.unwrap_or_else(|| TrainEngine::new(Hw2Vec::new(model_config, seed), engine_cfg));
    let outcome = train_and_evaluate(corpus, max_different, seed, validate, trainer)?;

    let detector_path = artifact_dir.join("detector.bin");
    outcome.detector.save(&detector_path)?;
    Ok((
        outcome,
        PipelineArtifacts {
            detector: detector_path,
            checkpoint,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn4ip_data::CorpusSpec;

    fn quick_train_config() -> TrainConfig {
        TrainConfig {
            epochs: 12,
            batch_size: 16,
            lr: 0.01,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn experiment_learns_small_rtl_corpus() {
        let corpus = Corpus::build(&CorpusSpec::rtl_small()).expect("corpus");
        let out = run_experiment(
            &corpus,
            Hw2VecConfig::default(),
            &quick_train_config(),
            150,
            1,
        );
        assert!(
            out.test_accuracy >= 0.8,
            "test accuracy {} (cm {:?})",
            out.test_accuracy,
            out.test_confusion
        );
        assert!(out.train_ms_per_sample > 0.0);
        assert!(out.test_ms_per_sample > 0.0);
        assert_eq!(out.n_graphs, corpus.graphs.len());
    }

    #[test]
    fn tuned_delta_is_in_range() {
        let corpus = Corpus::build(&CorpusSpec::rtl_small()).expect("corpus");
        let out = run_experiment(
            &corpus,
            Hw2VecConfig::default(),
            &quick_train_config(),
            100,
            2,
        );
        assert!((-1.0..=1.0).contains(&out.delta), "delta {}", out.delta);
    }

    #[test]
    fn pipeline_trains_saves_and_reloads_bit_exactly() {
        let corpus = Corpus::build(&CorpusSpec::rtl_small()).expect("corpus");
        let dir = std::env::temp_dir().join(format!("gnn4ip-pipeline-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let engine = EngineConfig {
            train: quick_train_config(),
            checkpoint_every: 4,
            ..EngineConfig::default()
        };
        let (out, artifacts) =
            run_training_pipeline(&corpus, Hw2VecConfig::default(), engine, 150, 3, &dir)
                .expect("pipeline");
        assert!(artifacts.detector.exists(), "detector artifact missing");
        let ckpt = artifacts.checkpoint.as_ref().expect("checkpoint enabled");
        assert!(ckpt.exists(), "checkpoint missing");
        assert!(out.test_accuracy >= 0.7, "accuracy {}", out.test_accuracy);

        // a freshly loaded detector reproduces scores bit-exactly
        let loaded = Gnn4Ip::load(&artifacts.detector).expect("loads detector");
        let (a, b) = (&corpus.instances[0].source, &corpus.instances[1].source);
        let v_mem = out.detector.check(a, b).expect("in-memory check");
        let v_loaded = loaded.check(a, b).expect("loaded check");
        assert_eq!(v_mem.score.to_bits(), v_loaded.score.to_bits());
        assert_eq!(v_mem.piracy, v_loaded.piracy);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pair_sample_conversion_preserves_labels() {
        let pairs = [
            LabeledPair {
                a: 0,
                b: 1,
                similar: true,
            },
            LabeledPair {
                a: 0,
                b: 2,
                similar: false,
            },
        ];
        let samples = to_pair_samples(&pairs);
        assert_eq!(samples[0].label, PairLabel::Similar);
        assert_eq!(samples[1].label, PairLabel::Different);
    }
}
