//! # gnn4ip-tensor
//!
//! Dense/sparse linear algebra and reverse-mode automatic differentiation for
//! the GNN4IP reproduction.
//!
//! The published GNN4IP system runs on PyTorch; this crate is its substrate
//! substitute: a row-major [`Matrix`], a CSR [`CsrMatrix`] for graph
//! adjacency operators, a recording [`Tape`] with [`Var`] handles for
//! reverse-mode autodiff, and [`Sgd`]/[`Adam`] optimizers over a
//! [`ParamStore`]. Every backward rule is validated against finite
//! differences (see [`check_gradient`]).
//!
//! # Examples
//!
//! One gradient step on a toy objective:
//!
//! ```
//! use gnn4ip_tensor::{Matrix, Optimizer, ParamStore, Sgd, Tape};
//!
//! let mut params = ParamStore::new();
//! let w = params.add("w", Matrix::scalar(3.0));
//! let tape = Tape::new();
//! let vars = params.inject(&tape);
//! let loss = vars[w.index()].hadamard(vars[w.index()]); // w^2
//! let grads = tape.backward(loss);
//! let g = grads.wrt_or_zero(vars[w.index()]);
//! use gnn4ip_tensor::Optimizer as _;
//! Sgd::new(0.1).step(&mut params, &[g]);
//! assert!((params.get(w).item() - 2.4).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gradcheck;
mod matrix;
mod optim;
mod parallel;
mod serialize;
mod sparse;
mod tape;
mod workspace;

pub use gradcheck::{check_gradient, GradCheckReport};
pub use matrix::Matrix;
pub use optim::{Adam, Optimizer, ParamId, ParamStore, Sgd};
pub use parallel::{fan_out, worker_count};
pub use serialize::{
    describe_artifact, fnv1a64, read_adam, read_artifact, read_sgd, write_adam, write_artifact,
    write_sgd, ArtifactInfo, BinReader, BinWriter, Fnv64, BASE_VERSION, FORMATS, FORMAT_VERSION,
    MAGIC, OPT_TAG_ADAM, OPT_TAG_SGD,
};
pub use sparse::{mean_adjacency, normalized_adjacency, CsrMatrix};
pub use tape::{dropout_mask, Gradients, Tape, Var};
pub use workspace::Workspace;
