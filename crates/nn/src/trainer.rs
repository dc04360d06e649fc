//! The training vocabulary of hw2vec's Siamese objective (Algorithm 1 +
//! Eq. 7): labeled pairs, hyper-parameters, per-epoch reports, and the
//! inference-mode helpers that score pairs, tune δ, and measure
//! validation loss. The training loop itself is
//! [`TrainEngine`](crate::TrainEngine).

use crate::graph_input::GraphInput;
use crate::loss::{PairLabel, DEFAULT_MARGIN};
use crate::model::Hw2Vec;

/// One labeled training pair, indexing into a shared graph list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairSample {
    /// Index of the first graph.
    pub a: usize,
    /// Index of the second graph.
    pub b: usize,
    /// Similar (piracy) or different.
    pub label: PairLabel,
}

/// Optimizer selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptimizerKind {
    /// Plain batch gradient descent (the paper's stated algorithm).
    Sgd,
    /// Adam — converges in far fewer epochs; the practical default.
    #[default]
    Adam,
}

/// Training hyper-parameters. Defaults mirror §IV of the paper
/// (batch 64, lr 0.001, margin 0.5).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Minibatch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// Number of passes over the pair list.
    pub epochs: usize,
    /// Cosine-embedding-loss margin.
    pub margin: f32,
    /// Shuffling / dropout seed.
    pub seed: u64,
    /// Optimizer.
    pub optimizer: OptimizerKind,
    /// Worker threads (0 = all available cores).
    pub threads: usize,
    /// Global gradient-norm clip (0 disables). Guards the cosine loss's
    /// steep gradients near zero-norm embeddings.
    pub grad_clip: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            batch_size: 64,
            lr: 1e-3,
            epochs: 20,
            margin: DEFAULT_MARGIN,
            seed: 42,
            optimizer: OptimizerKind::Adam,
            threads: 0,
            grad_clip: 5.0,
        }
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch number (0-based).
    pub epoch: usize,
    /// Mean cosine-embedding loss over the epoch.
    pub mean_loss: f32,
    /// Mean validation loss, when a validation set was supplied.
    pub val_loss: Option<f32>,
}

/// Result of a training run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainReport {
    /// Loss trajectory, one entry per epoch.
    pub epochs: Vec<EpochStats>,
}

impl TrainReport {
    /// Final mean loss (`NaN` if no epochs ran).
    pub fn final_loss(&self) -> f32 {
        self.epochs.last().map_or(f32::NAN, |e| e.mean_loss)
    }
}

/// Mean cosine-embedding loss of a pair set in inference mode.
pub fn validation_loss(
    model: &Hw2Vec,
    graphs: &[GraphInput],
    pairs: &[PairSample],
    margin: f32,
) -> f32 {
    let scores = score_pairs(model, graphs, pairs);
    let total: f32 = scores
        .iter()
        .zip(pairs)
        .map(|(&s, p)| match p.label {
            PairLabel::Similar => 1.0 - s,
            PairLabel::Different => (s - margin).max(0.0),
        })
        .sum();
    total / pairs.len().max(1) as f32
}

/// Similarity scores for a set of pairs (inference mode), in pair order.
pub fn score_pairs(model: &Hw2Vec, graphs: &[GraphInput], pairs: &[PairSample]) -> Vec<f32> {
    let embeddings = model.embed_batch(graphs);
    pairs
        .iter()
        .map(|p| cosine_of(&embeddings[p.a], &embeddings[p.b]))
        .collect()
}

/// Plain cosine similarity of two embedding vectors.
pub fn cosine_of(a: &[f32], b: &[f32]) -> f32 {
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
    dot / (na * nb)
}

/// Tunes the decision boundary δ on labeled scores by maximizing accuracy
/// (paper §IV-D: "we have tuned the δ to achieve maximum accuracy").
///
/// Returns `(delta, accuracy_at_delta)`.
///
/// # Panics
///
/// Panics if `scores` and `labels` differ in length or are empty.
pub fn tune_delta(scores: &[f32], labels: &[PairLabel]) -> (f32, f32) {
    assert_eq!(scores.len(), labels.len(), "scores/labels mismatch");
    assert!(!scores.is_empty(), "cannot tune on empty data");
    let mut sorted: Vec<f32> = scores.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    sorted.dedup();
    let mut candidates = vec![-1.0f32];
    for w in sorted.windows(2) {
        candidates.push((w[0] + w[1]) / 2.0);
    }
    candidates.push(1.0);
    let mut best = (0.0f32, -1.0f32);
    for &delta in &candidates {
        let correct = scores
            .iter()
            .zip(labels)
            .filter(|(&s, &l)| (s > delta) == (l == PairLabel::Similar))
            .count();
        let acc = correct as f32 / scores.len() as f32;
        if acc > best.1 {
            best = (delta, acc);
        }
    }
    best
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::model::Hw2VecConfig;
    use gnn4ip_dfg::{Dfg, NodeKind};

    /// Two structurally different graph families.
    fn family_a(variant: u64) -> GraphInput {
        let mut g = Dfg::new(format!("a{variant}"));
        let y = g.add_node(NodeKind::Output, "y");
        let mut prev = y;
        for i in 0..4 + (variant % 3) {
            let op = g.add_node(NodeKind::Xor, format!("x{i}"));
            g.add_edge(prev, op);
            prev = op;
        }
        let a = g.add_node(NodeKind::Input, "a");
        g.add_edge(prev, a);
        g.add_root(y);
        GraphInput::from_dfg(&g)
    }

    fn family_b(variant: u64) -> GraphInput {
        let mut g = Dfg::new(format!("b{variant}"));
        let y = g.add_node(NodeKind::Output, "y");
        let add = g.add_node(NodeKind::Add, "add");
        g.add_edge(y, add);
        for i in 0..3 + (variant % 2) {
            let inp = g.add_node(NodeKind::Input, format!("i{i}"));
            let m = g.add_node(NodeKind::Mul, format!("m{i}"));
            g.add_edge(add, m);
            g.add_edge(m, inp);
        }
        g.add_root(y);
        GraphInput::from_dfg(&g)
    }

    /// Four graphs of each family: every within-family pair is similar,
    /// every cross-family pair different. The engine tests train on it.
    pub(crate) fn toy_dataset() -> (Vec<GraphInput>, Vec<PairSample>) {
        let graphs: Vec<GraphInput> = (0..4).map(family_a).chain((0..4).map(family_b)).collect();
        let mut pairs = Vec::new();
        for i in 0..4 {
            for j in (i + 1)..4 {
                pairs.push(PairSample {
                    a: i,
                    b: j,
                    label: PairLabel::Similar,
                });
                pairs.push(PairSample {
                    a: 4 + i,
                    b: 4 + j,
                    label: PairLabel::Similar,
                });
            }
        }
        for i in 0..4 {
            for j in 0..4 {
                pairs.push(PairSample {
                    a: i,
                    b: 4 + j,
                    label: PairLabel::Different,
                });
            }
        }
        (graphs, pairs)
    }

    #[test]
    fn score_pairs_matches_direct_similarity() {
        let (graphs, _) = toy_dataset();
        let model = Hw2Vec::new(Hw2VecConfig::default(), 13);
        let pairs = [PairSample {
            a: 0,
            b: 5,
            label: PairLabel::Different,
        }];
        let via_pairs = score_pairs(&model, &graphs, &pairs)[0];
        let direct = model.similarity(&graphs[0], &graphs[5]);
        assert!((via_pairs - direct).abs() < 1e-5);
    }

    #[test]
    fn tune_delta_perfectly_separable() {
        let scores = [0.9, 0.8, -0.1, -0.3];
        let labels = [
            PairLabel::Similar,
            PairLabel::Similar,
            PairLabel::Different,
            PairLabel::Different,
        ];
        let (delta, acc) = tune_delta(&scores, &labels);
        assert_eq!(acc, 1.0);
        assert!(delta > -0.1 && delta < 0.8, "delta {delta}");
    }

    #[test]
    fn cosine_of_unit_vectors() {
        assert!((cosine_of(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!((cosine_of(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-6);
        assert!((cosine_of(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
    }
}
