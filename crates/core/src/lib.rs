//! # gnn4ip-core
//!
//! The primary contribution of the GNN4IP paper as a library: an IP-piracy
//! detector that models hardware designs as data-flow graphs, embeds them
//! with a graph neural network (hw2vec), and scores design pairs by cosine
//! similarity against a decision boundary δ (Algorithm 1).
//!
//! - [`Gnn4Ip`] — the detector: `hw2vec(p)`, `check(p1, p2)` → [`Verdict`],
//!   plus the batched forms `check_many` and `embed_many`. Each, and every
//!   audit, is served through one bounded [`EmbeddingCache`] keyed by a
//!   BLAKE2b digest of the exact source bytes ([`source_key`]).
//! - [`run_experiment`] — the Table-I protocol: corpus → train with the
//!   `TrainEngine` → tune δ → held-out confusion matrix + per-sample
//!   timing. [`run_training_pipeline`] runs the same body with
//!   checkpoints, resume, and persisted artifacts.
//! - [`AuditPipeline`] — portfolio screening: embed owned cores once into
//!   a sharded index, then audit each incoming design against all of them
//!   (`ingest`, `audit`, `audit_many`), persist the index, and serve it
//!   through [`run_service`].
//!
//! # Examples
//!
//! Compare the paper's Fig. 1 adders (same design, different code):
//!
//! ```
//! use gnn4ip_core::Gnn4Ip;
//!
//! let rtl = "module fa(input a, input b, input cin, output reg sum, output reg cout);
//!              always @(a, b, cin) begin
//!                sum <= (a ^ b) ^ cin;
//!                cout <= ((a ^ b) && cin) || (a && b);
//!              end
//!            endmodule";
//! let gates = "module fa(input a, input b, input cin, output sum, output cout);
//!                wire t1; wire t2; wire t3;
//!                xor (t1, a, b);
//!                and (t2, a, b);
//!                and (t3, t1, cin);
//!                xor (sum, t1, cin);
//!                or (cout, t3, t2);
//!              endmodule";
//! let detector = Gnn4Ip::with_seed(7); // untrained: scores are arbitrary but valid
//! let verdict = detector.check(rtl, gates)?;
//! assert!((-1.0..=1.0).contains(&verdict.score));
//! # Ok::<(), gnn4ip_hdl::ParseVerilogError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
mod audit;
mod blake2b;
mod cache;
mod experiment;
mod serve;
mod service;

pub use api::{Gnn4Ip, Verdict, DETECTOR_KIND};
pub use audit::{
    run_audit_scenarios, AuditConfig, AuditError, AuditMatch, AuditPipeline, AuditSnapshot,
    AuditSource, AuditVerdict, BatchReport, IngestReport, ScenarioReport, ScenarioSpec,
};
pub use cache::{source_key, CacheStats, EmbeddingCache, SourceKey};
pub use experiment::{
    corpus_inputs, run_experiment, run_training_pipeline, to_pair_samples, ExperimentOutcome,
    PipelineArtifacts,
};
pub use serve::{Publication, PublicationSlot};
pub use service::{run_service, BoundedQueue, LatencySummary, ServiceConfig, ServiceReport};
