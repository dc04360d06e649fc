//! # gnn4ip-nn
//!
//! The hw2vec graph neural network of the GNN4IP paper (Fig. 3): stacked
//! graph-convolution layers (Eq. 5), self-attention graph pooling with top-k
//! filtering, a graph readout, cosine similarity (Eq. 6), and the
//! cosine-embedding loss (Eq. 7), trained on Siamese pairs by the
//! [`TrainEngine`].
//!
//! # Examples
//!
//! Embed a circuit and compare two designs:
//!
//! ```
//! use gnn4ip_dfg::graph_from_verilog;
//! use gnn4ip_nn::{GraphInput, Hw2Vec, Hw2VecConfig};
//!
//! let inv = graph_from_verilog(
//!     "module inv(input a, output y); assign y = ~a; endmodule", None)?;
//! let buf = graph_from_verilog(
//!     "module pass(input a, output y); assign y = a; endmodule", None)?;
//! let model = Hw2Vec::new(Hw2VecConfig::default(), 42);
//! let s = model.similarity(&GraphInput::from_dfg(&inv), &GraphInput::from_dfg(&buf));
//! assert!((-1.0..=1.0).contains(&s));
//! # Ok::<(), gnn4ip_hdl::ParseVerilogError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod graph_input;
mod loss;
mod model;
mod trainer;

pub use engine::{EngineConfig, LrSchedule, TrainEngine, CHECKPOINT_KIND};
pub use gnn4ip_tensor::{fan_out, worker_count};
pub use graph_input::GraphInput;
pub use loss::{cosine_embedding_loss, PairLabel, DEFAULT_MARGIN};
pub use model::{top_k_indices, ConvKind, Hw2Vec, Hw2VecConfig, Mode, Readout, MODEL_KIND};
pub use trainer::{
    cosine_of, score_pairs, tune_delta, validation_loss, EpochStats, OptimizerKind, PairSample,
    TrainConfig, TrainReport,
};

// Re-exported so batched-inference callers need only this crate.
pub use gnn4ip_tensor::Workspace;
