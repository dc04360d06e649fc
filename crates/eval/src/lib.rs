//! # gnn4ip-eval
//!
//! Evaluation utilities for the GNN4IP reproduction: the confusion matrices
//! and accuracy/false-negative metrics of Table I / Fig. 4a / §IV-F, the
//! [`pca`] projection of Fig. 4b, the exact [`tsne`] of Fig. 4c, and the
//! similarity [`ScoreTable`]s of Tables II and III.
//!
//! # Examples
//!
//! ```
//! use gnn4ip_eval::ConfusionMatrix;
//!
//! let scores = [0.97f32, 0.88, -0.30, 0.10];
//! let similar = [true, true, false, false];
//! let cm = ConfusionMatrix::from_scores(&scores, &similar, 0.5);
//! assert_eq!(cm.accuracy(), 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod confusion;
mod index;
mod manifest;
mod names;
mod pca;
mod retrieval;
mod roc;
mod scores;
mod sharded;
mod tsne;

pub use confusion::ConfusionMatrix;
pub use index::{EmbeddingIndex, QueryHit};
pub use manifest::{
    gc_checkpoint_dir, shard_file_name, CheckpointReport, GcReport, ManifestError, ManifestHead,
    CORPUS_MANIFEST_KIND, CORPUS_NAMES_KIND, CORPUS_SHARD_KIND, MANIFEST_FILE,
};
pub use names::NameLog;
pub use pca::{cluster_separation, pca, PcaProjection};
pub use retrieval::retrieval_precision_at_k;
pub use roc::{auc, roc_curve, RocPoint};
pub use scores::{ScoreRow, ScoreTable};
pub use sharded::{
    QueryOptions, QueryStats, RebalanceOptions, RebalanceReport, ShardedEmbeddingIndex,
    PARALLEL_QUERY_MIN_ROWS,
};
pub use tsne::{tsne, TsneConfig};
