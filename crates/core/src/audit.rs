//! Corpus-scale audit pipeline: streaming ingest into a sharded,
//! persistent embedding index, then `check`-style verdicts at query time.
//!
//! The deployment §IV-C motivates is a *library* workload: embed every
//! owned IP once, then answer "what is this suspect closest to?" forever,
//! for a corpus that grows as designs stream in. [`AuditPipeline`] is that
//! loop made concrete:
//!
//! ```text
//! Verilog sources ── batch ──► parse → DFG → GraphInput → Hw2Vec::forward_infer
//!                               (one fan_out over AuditConfig::threads)
//!                                   │
//!                                   ▼
//!                      ShardedEmbeddingIndex::insert      (bounded memory)
//!                                   │
//!                         checkpoint / open              (corpus directory,
//!                                   │                     pinned to weights)
//!                                   ▼
//!  audit / audit_many(suspects) ──► BLAKE2b digest → embedding cache
//!                                     (misses: the same front end; a
//!                                      snapshot runs it on the calling
//!                                      thread) → top-k query ──► AuditVerdict
//! ```
//!
//! Each ingest batch goes through one front-end pass: every source is
//! parsed, turned into a graph and embedded through the tape-free forward
//! pass by the same fan-out worker, and each graph is dropped as soon as
//! it is embedded. Ingest does not touch the detector's embedding cache:
//! a corpus row is embedded once. Every audit does: a suspect whose exact
//! bytes were audited before is answered from the cache without running
//! the front end, and a batch embeds each distinct miss once. The embeddings are inserted into fixed-capacity shards,
//! so memory stays bounded no matter how large the corpus grows. The
//! corpus — embeddings, labels and names — persists as a checkpoint
//! directory ([`AuditPipeline::checkpoint`] / [`AuditPipeline::open`]):
//! each sealed shard and name block is written once, as a
//! content-addressed file, so a checkpoint writes only what was sealed
//! since the last one, plus the manifest. The manifest is pinned to the
//! detector's weights checksum: a corpus embedded by other weights is
//! refused at open rather than silently serving stale similarities.
//!
//! The pipeline also *serves while it grows*:
//! [`AuditPipeline::snapshot`] captures an immutable [`AuditSnapshot`] in
//! `O(sealed shards + tail)` — the sealed embedding shards and name
//! blocks are shared by `Arc`, only the open tails are copied — and any
//! number of reader threads audit against their own snapshots while the
//! writer keeps ingesting. A snapshot can never observe a torn tail,
//! because it does not observe the writer's tail at all. The writer hands
//! snapshots to readers through the epoch-stamped
//! [`PublicationSlot`](crate::PublicationSlot)
//! ([`AuditPipeline::publish`] / [`AuditPipeline::serving_slot`]), whose
//! interleavings are exhaustively model-checked in `gnn4ip-analysis`.
//!
//! [`run_audit_scenarios`] is the acceptance harness: it pushes
//! behaviour-preserving `vary_design`/`obfuscate_netlist` variants of a
//! synthetic corpus through the pipeline and reports how often the true
//! source design is retrieved (recall@1 / recall@k).

use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use crate::api::{embed_sources, Gnn4Ip};
use crate::serve::PublicationSlot;
use gnn4ip_data::{
    netlist_designs, obfuscate_netlist, rtl_designs, vary_design, Level, ObfuscationConfig,
    SynthSize, VariationConfig,
};
use gnn4ip_eval::{
    CheckpointReport, ManifestError, NameLog, QueryHit, QueryOptions, ShardedEmbeddingIndex,
};
use gnn4ip_hdl::ParseVerilogError;

/// Tuning knobs of an [`AuditPipeline`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditConfig {
    /// Rows per shard of the backing [`ShardedEmbeddingIndex`].
    pub shard_capacity: usize,
    /// Designs parsed + embedded per streaming ingest batch — the memory
    /// high-water mark of [`AuditPipeline::ingest`].
    pub batch_size: usize,
    /// Worker threads for the front end (parse, graph, embed) of
    /// [`AuditPipeline::ingest`] and [`AuditPipeline::audit_many`]
    /// (`0` = one per core). An [`AuditSnapshot`] ignores it and runs its
    /// front end on the calling thread: its callers (serve's workers) are
    /// the parallelism.
    pub threads: usize,
    /// Neighbors reported per [`AuditPipeline::audit`] verdict. `0` is a
    /// degenerate but legal setting: every verdict carries no matches and
    /// never flags piracy.
    pub top_k: usize,
    /// Query tuning (pruning, threading) applied to every verdict query,
    /// a snapshot's included. Results are bit-identical for every
    /// setting; only the work spent changes.
    pub query: QueryOptions,
}

impl Default for AuditConfig {
    fn default() -> Self {
        Self {
            shard_capacity: 256,
            batch_size: 64,
            threads: 0,
            top_k: 5,
            query: QueryOptions::default(),
        }
    }
}

/// One design offered to [`AuditPipeline::ingest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditSource {
    /// Registry name reported back by audit verdicts.
    pub name: String,
    /// Verilog source.
    pub source: String,
    /// Top module, when the source holds more than one.
    pub top: Option<String>,
}

impl AuditSource {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, source: impl Into<String>, top: Option<&str>) -> Self {
        Self {
            name: name.into(),
            source: source.into(),
            top: top.map(str::to_string),
        }
    }
}

/// What one [`AuditPipeline::ingest`] call did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Designs embedded and indexed.
    pub ingested: usize,
    /// Designs skipped, as `(name, parse error)` — ingest keeps going past
    /// malformed sources instead of aborting a corpus-scale run.
    pub rejected: Vec<(String, String)>,
}

/// What one [`AuditPipeline::audit_many`] call did, alongside the
/// per-suspect verdicts: the aggregate the serve loop and the `audit`
/// subcommand report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Suspects that parsed, embedded, and were scored.
    pub audited: usize,
    /// Audited suspects whose verdict flagged piracy.
    pub flagged: usize,
    /// Suspects skipped as `(name, parse error)` — like ingest, a batch
    /// audit keeps going past malformed sources instead of aborting.
    pub rejected: Vec<(String, String)>,
}

/// Why [`AuditPipeline::open`] refused a corpus checkpoint, one variant
/// per distinct cause — so the serve loop and the CLI map failures to
/// responses and exit codes by matching, never by searching error
/// strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditError {
    /// The directory holds no readable checkpoint for this detector's
    /// weights: embeddings are only valid for the weights that made them.
    Checkpoint(ManifestError),
    /// The checkpoint pairs rows and names of different counts.
    NameCountMismatch {
        /// Embedding rows the checkpoint holds.
        embeddings: usize,
        /// Names the checkpoint holds.
        names: usize,
    },
    /// A stored label points past the checkpoint's names.
    LabelOutOfRange {
        /// The out-of-range label.
        label: usize,
        /// Names the checkpoint holds.
        names: usize,
    },
    /// The checkpoint's embedding dimension does not match the detector's
    /// embedding width.
    DimMismatch {
        /// Dimension stored in the checkpoint.
        artifact: usize,
        /// The detector's embedding width.
        detector: usize,
    },
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Checkpoint(e) => e.fmt(f),
            Self::NameCountMismatch { embeddings, names } => write!(
                f,
                "corpus checkpoint holds {embeddings} embeddings but {names} names"
            ),
            Self::LabelOutOfRange { label, names } => write!(
                f,
                "corpus checkpoint references label {label} but only {names} names exist"
            ),
            Self::DimMismatch { artifact, detector } => write!(
                f,
                "corpus checkpoint dimension {artifact} != detector embedding width {detector}"
            ),
        }
    }
}

impl std::error::Error for AuditError {}

/// One retrieved neighbor of an audited suspect.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditMatch {
    /// Name the neighbor was ingested under.
    pub name: String,
    /// Its global label (insertion index) in the pipeline's index.
    pub label: usize,
    /// Cosine similarity of the suspect to this neighbor.
    pub score: f32,
    /// Whether the score exceeds the detector's δ.
    pub piracy: bool,
}

/// The audit verdict for one suspect design: its nearest library
/// neighbors, highest score first.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditVerdict {
    /// Top-k matches (fewer when the index is smaller than k).
    pub matches: Vec<AuditMatch>,
    /// `true` when the best match crosses δ — Algorithm 1's piracy bit
    /// against the whole library at once.
    pub piracy: bool,
}

impl AuditVerdict {
    /// The best match, when the index is non-empty.
    pub fn best(&self) -> Option<&AuditMatch> {
        self.matches.first()
    }
}

/// A streaming audit service: a detector plus a sharded index of every
/// ingested design's embedding.
///
/// # Examples
///
/// ```
/// use gnn4ip_core::{AuditConfig, AuditPipeline, AuditSource, Gnn4Ip};
///
/// let mut pipeline = AuditPipeline::new(Gnn4Ip::with_seed(7), AuditConfig::default());
/// let inv = "module inv(input a, output y); assign y = ~a; endmodule";
/// let report = pipeline.ingest([AuditSource::new("inv", inv, None)]);
/// assert_eq!(report.ingested, 1);
/// let verdict = pipeline.audit(inv, None)?;
/// assert_eq!(verdict.best().expect("hit").name, "inv");
/// assert!(verdict.best().expect("hit").score > 0.99);
/// # Ok::<(), gnn4ip_hdl::ParseVerilogError>(())
/// ```
#[derive(Debug)]
pub struct AuditPipeline {
    /// `Arc` so snapshots share the detector (and its embedding cache)
    /// with the pipeline instead of borrowing from it.
    detector: Arc<Gnn4Ip>,
    config: AuditConfig,
    index: ShardedEmbeddingIndex,
    names: NameLog,
    /// The serving slot [`publish`](AuditPipeline::publish) feeds;
    /// `Arc`-shared with readers via
    /// [`serving_slot`](AuditPipeline::serving_slot).
    slot: Arc<PublicationSlot<AuditSnapshot>>,
}

impl AuditPipeline {
    /// Builds an empty pipeline around a detector. The index dimension is
    /// the detector's embedding width.
    ///
    /// # Panics
    ///
    /// Panics if `config.shard_capacity` or `batch_size` is zero
    /// (`top_k == 0` is legal: verdicts then carry no matches).
    pub fn new(detector: Gnn4Ip, config: AuditConfig) -> Self {
        assert!(config.batch_size > 0, "batch size must be positive");
        let dim = detector.model().config().hidden;
        let index = ShardedEmbeddingIndex::new(dim, config.shard_capacity);
        let names = NameLog::new(config.shard_capacity);
        Self {
            detector: Arc::new(detector),
            config,
            names,
            index,
            slot: Arc::new(PublicationSlot::new()),
        }
    }

    /// The wrapped detector.
    pub fn detector(&self) -> &Gnn4Ip {
        &self.detector
    }

    /// The backing shard index.
    pub fn index(&self) -> &ShardedEmbeddingIndex {
        &self.index
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &AuditConfig {
        &self.config
    }

    /// Number of ingested designs.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether nothing has been ingested yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Name a label was ingested under, or `None` for an out-of-range
    /// label. The labels of this pipeline's verdicts always have one:
    /// [`AuditPipeline::open`] refuses a checkpoint whose labels point
    /// past its names.
    pub fn name_of(&self, label: usize) -> Option<&str> {
        self.names.get(label)
    }

    /// Captures an immutable, self-contained serving snapshot: the sealed
    /// embedding shards and sealed name blocks are shared by `Arc` (no row
    /// or name is copied), only the open tails — at most one shard's worth
    /// — are cloned, and the detector rides along behind its own `Arc`.
    ///
    /// The snapshot audits concurrently with (and completely isolated
    /// from) further [`ingest`](AuditPipeline::ingest) calls on the
    /// pipeline: its verdicts are stable forever, so a reader can never
    /// observe a torn tail or a half-published design. The intended
    /// serving loop is: writer ingests a batch, calls
    /// [`publish`](AuditPipeline::publish); readers poll the
    /// [`serving_slot`](AuditPipeline::serving_slot) and audit against
    /// what it returns. The index side is lock-free
    /// ([`AuditSnapshot::audit_embedding`] touches no shared mutable
    /// state); source-level [`AuditSnapshot::audit`] and
    /// [`AuditSnapshot::audit_many`] additionally take the detector's
    /// shared embedding-cache mutex, held only for the table lookups and
    /// inserts of one call.
    ///
    /// Every snapshot goes **through the serving slot**: this method
    /// publishes the captured snapshot (advancing the slot epoch) and
    /// returns it, so there is exactly one publication path and a
    /// snapshot held by the caller is always also visible to readers
    /// polling the [`serving_slot`](AuditPipeline::serving_slot). Use
    /// [`publish`](AuditPipeline::publish) when only the epoch is
    /// needed.
    pub fn snapshot(&self) -> AuditSnapshot {
        let snapshot = self.capture();
        self.slot.publish(snapshot.clone());
        snapshot
    }

    /// Builds the immutable snapshot value — the one construction both
    /// [`snapshot`](AuditPipeline::snapshot) and
    /// [`publish`](AuditPipeline::publish) feed into the slot.
    fn capture(&self) -> AuditSnapshot {
        AuditSnapshot {
            detector: Arc::clone(&self.detector),
            index: self.index.snapshot(),
            names: self.names.clone(),
            top_k: self.config.top_k,
            query: self.config.query,
            batch_size: self.config.batch_size,
        }
    }

    /// Captures the current state and publishes it into the serving
    /// slot, returning the publication epoch. This is
    /// the writer half of the serving loop; reader threads hold the
    /// [`serving_slot`](AuditPipeline::serving_slot) and pick the new
    /// snapshot up via [`PublicationSlot::load_if_newer`].
    ///
    /// The slot lock is held for a pointer store only — the snapshot is
    /// built before it is taken — so readers are never blocked behind
    /// snapshot construction.
    #[must_use = "the epoch identifies this publication; readers poll load_if_newer with it"]
    pub fn publish(&self) -> u64 {
        self.slot.publish(self.capture())
    }

    /// The epoch-stamped slot this pipeline publishes snapshots into —
    /// the standardized writer→readers handoff of the serving loop,
    /// verified interleaving-by-interleaving by the loom-lite checker in
    /// `gnn4ip-analysis`. Clone the `Arc` into each reader thread;
    /// nothing is published until the first
    /// [`publish`](AuditPipeline::publish).
    pub fn serving_slot(&self) -> Arc<PublicationSlot<AuditSnapshot>> {
        Arc::clone(&self.slot)
    }

    /// Streams designs into the index in batches of
    /// [`AuditConfig::batch_size`]: each batch is parsed and embedded
    /// across [`fan_out`](gnn4ip_nn::fan_out) workers (parse → DFG →
    /// [`GraphInput`](gnn4ip_nn::GraphInput) →
    /// tape-free [`forward_infer`](gnn4ip_nn::Hw2Vec::forward_infer)),
    /// inserted into the shards, and dropped before the next batch starts
    /// — memory stays bounded by one batch regardless of corpus size. The
    /// index and names do not depend on [`AuditConfig::threads`]. Malformed
    /// sources are recorded in the report and skipped, never aborting the
    /// stream.
    pub fn ingest<I>(&mut self, sources: I) -> IngestReport
    where
        I: IntoIterator<Item = AuditSource>,
    {
        let mut report = IngestReport::default();
        let mut batch: Vec<AuditSource> = Vec::with_capacity(self.config.batch_size);
        for source in sources {
            batch.push(source);
            if batch.len() == self.config.batch_size {
                self.flush(&mut batch, &mut report);
            }
        }
        self.flush(&mut batch, &mut report);
        report
    }

    /// Parses, embeds, and indexes one buffered batch, clearing it. The
    /// front end runs without the cache: a corpus row is embedded once.
    fn flush(&mut self, batch: &mut Vec<AuditSource>, report: &mut IngestReport) {
        let model = self.detector.model();
        let embedded = embed_sources(model, &source_pairs(batch), self.config.threads);
        for (source, result) in batch.drain(..).zip(embedded) {
            match result {
                Ok(embedding) => {
                    self.index.insert(&embedding, self.names.len());
                    self.names.push(source.name);
                    report.ingested += 1;
                }
                Err(e) => report.rejected.push((source.name, e.to_string())),
            }
        }
    }

    /// Audits one suspect source against the whole ingested corpus: embed
    /// on the calling thread (served by the detector's embedding cache
    /// when the same bytes were audited before), query the shard index
    /// for the top-k neighbors, apply δ.
    ///
    /// # Errors
    ///
    /// Propagates parse/elaboration failures for the suspect source.
    pub fn audit(
        &self,
        verilog: &str,
        top: Option<&str>,
    ) -> Result<AuditVerdict, ParseVerilogError> {
        let embedding = self.detector.hw2vec(verilog, top)?;
        Ok(self.audit_embedding(&embedding))
    }

    /// [`AuditPipeline::audit`] on a precomputed embedding (no parsing, no
    /// model pass). An empty index — or `top_k == 0` — yields an empty
    /// match list ([`AuditVerdict::best`] → `None`) with `piracy` false.
    pub fn audit_embedding(&self, embedding: &[f32]) -> AuditVerdict {
        build_verdict(
            &self.index,
            &self.names,
            self.detector.delta(),
            self.config.top_k,
            &self.config.query,
            embedding,
        )
    }

    /// Audits a whole portfolio of suspects as one pipeline: each batch of
    /// [`AuditConfig::batch_size`] suspects goes through the detector's
    /// cached embed path (its misses through ingest's front end: parse →
    /// DFG → embed, across [`AuditConfig::threads`]
    /// [`fan_out`](gnn4ip_nn::fan_out) workers) and is scored with a
    /// **single**
    /// [`ShardedEmbeddingIndex::query_many`] call — one shard pass over
    /// the whole batch instead of one walk per suspect — with memory
    /// bounded by one batch.
    ///
    /// Returns one verdict per suspect, in input order (`None` for
    /// suspects that failed to parse, with the error recorded in the
    /// report), plus the aggregate [`BatchReport`]. Every verdict is
    /// bit-identical to what a single [`audit`](AuditPipeline::audit)
    /// call on the same suspect returns — batching changes throughput,
    /// never results.
    pub fn audit_many(&self, suspects: &[AuditSource]) -> (Vec<Option<AuditVerdict>>, BatchReport) {
        audit_many_impl(
            &self.detector,
            &self.index,
            &self.names,
            self.config.top_k,
            &self.config.query,
            self.config.threads,
            self.config.batch_size,
            suspects,
        )
    }

    // --- persistence ---------------------------------------------------

    /// Checkpoints the corpus — embeddings, labels and names — into `dir`,
    /// pinned to the detector's weights checksum: only what was sealed
    /// since the last checkpoint into `dir` is written, then the manifest
    /// ([`ShardedEmbeddingIndex::checkpoint_dir`]).
    ///
    /// # Errors
    ///
    /// Returns the filesystem failure as [`ManifestError::Io`].
    pub fn checkpoint(&self, dir: impl AsRef<Path>) -> Result<CheckpointReport, ManifestError> {
        let pin = self.detector.model().weights_checksum();
        self.index.checkpoint_dir(&self.names, dir, pin)
    }

    /// Opens a corpus that [`AuditPipeline::checkpoint`] wrote into `dir`
    /// as a pipeline around `detector`. The shard capacity comes from the
    /// checkpoint: it wins over [`AuditConfig::shard_capacity`], which
    /// only seeds fresh pipelines.
    ///
    /// # Errors
    ///
    /// [`AuditError::Checkpoint`] when `dir` holds no readable checkpoint
    /// for this detector's weights ([`ShardedEmbeddingIndex::load_dir`]
    /// lists the causes), and the other [`AuditError`] variants when its
    /// rows and names do not make a corpus this detector can serve.
    ///
    /// # Panics
    ///
    /// Panics where [`AuditPipeline::new`] does.
    pub fn open(
        detector: Gnn4Ip,
        config: AuditConfig,
        dir: impl AsRef<Path>,
    ) -> Result<Self, AuditError> {
        let pin = detector.model().weights_checksum();
        let loaded = ShardedEmbeddingIndex::load_dir(dir, pin);
        let (index, names) = loaded.map_err(AuditError::Checkpoint)?;
        let width = detector.model().config().hidden;
        if index.dim() != width {
            return Err(AuditError::DimMismatch {
                artifact: index.dim(),
                detector: width,
            });
        }
        if index.len() != names.len() {
            return Err(AuditError::NameCountMismatch {
                embeddings: index.len(),
                names: names.len(),
            });
        }
        if let Some(bad) = index.labels().find(|&l| l >= names.len()) {
            return Err(AuditError::LabelOutOfRange {
                label: bad,
                names: names.len(),
            });
        }
        let mut pipeline = Self::new(detector, config);
        pipeline.index = index;
        pipeline.names = names;
        Ok(pipeline)
    }
}

/// Each source as the `(source, top)` pair the embed paths take.
fn source_pairs(sources: &[AuditSource]) -> Vec<(&str, Option<&str>)> {
    sources
        .iter()
        .map(|s| (s.source.as_str(), s.top.as_deref()))
        .collect()
}

/// The one verdict construction, shared by the live pipeline and its
/// snapshots so both rank, resolve, and threshold identically.
fn build_verdict(
    index: &ShardedEmbeddingIndex,
    names: &NameLog,
    delta: f32,
    top_k: usize,
    query: &QueryOptions,
    embedding: &[f32],
) -> AuditVerdict {
    let hits = if top_k == 0 || index.is_empty() {
        Vec::new()
    } else {
        index.query_opts(embedding, top_k, query).0
    };
    verdict_from_hits(hits, names, delta)
}

/// Resolves query hits into an [`AuditVerdict`] — the single
/// hit→match→δ step both the single and the batched audit paths share,
/// so they cannot drift.
fn verdict_from_hits(hits: Vec<QueryHit>, names: &NameLog, delta: f32) -> AuditVerdict {
    let matches: Vec<AuditMatch> = hits
        .into_iter()
        .map(|h| AuditMatch {
            name: names
                .get(h.label)
                // g4check: allow(unwrap-in-lib): ingest appends the name before the row, and open refuses checkpoints whose labels exceed the names
                .expect("labels are validated against the name table at ingest and load")
                .to_string(),
            label: h.label,
            score: h.score,
            piracy: h.score > delta,
        })
        .collect();
    AuditVerdict {
        piracy: matches.first().is_some_and(|m| m.piracy),
        matches,
    }
}

/// The one batched-audit implementation, shared by
/// [`AuditPipeline::audit_many`] and [`AuditSnapshot::audit_many`]:
/// per chunk, one pass through the detector's cached embed path (the
/// front end over `threads` workers for the distinct misses) and one
/// `query_many`.
#[allow(clippy::too_many_arguments)]
fn audit_many_impl(
    detector: &Gnn4Ip,
    index: &ShardedEmbeddingIndex,
    names: &NameLog,
    top_k: usize,
    query: &QueryOptions,
    threads: usize,
    batch_size: usize,
    suspects: &[AuditSource],
) -> (Vec<Option<AuditVerdict>>, BatchReport) {
    let delta = detector.delta();
    let mut verdicts: Vec<Option<AuditVerdict>> = Vec::with_capacity(suspects.len());
    let mut report = BatchReport::default();
    for chunk in suspects.chunks(batch_size.max(1)) {
        let mut embeddings = Vec::new();
        let mut slots = Vec::new(); // verdict position of each embedding
        let embedded = detector.embed_cached(&source_pairs(chunk), threads);
        for (suspect, result) in chunk.iter().zip(embedded) {
            match result {
                Ok(embedding) => {
                    embeddings.push(embedding);
                    slots.push(verdicts.len());
                }
                Err(e) => report.rejected.push((suspect.name.clone(), e.to_string())),
            }
            verdicts.push(None);
        }
        report.audited += slots.len();
        if top_k == 0 || index.is_empty() {
            for slot in slots {
                verdicts[slot] = Some(AuditVerdict {
                    matches: Vec::new(),
                    piracy: false,
                });
            }
            continue;
        }
        let results = index.query_many(&embeddings, top_k, query);
        for (slot, (hits, _stats)) in slots.into_iter().zip(results) {
            let verdict = verdict_from_hits(hits, names, delta);
            if verdict.piracy {
                report.flagged += 1;
            }
            verdicts[slot] = Some(verdict);
        }
    }
    (verdicts, report)
}

/// An immutable point-in-time view of an [`AuditPipeline`], produced by
/// [`AuditPipeline::snapshot`]: the serving half of the read-mostly
/// architecture.
///
/// A snapshot owns everything it needs — `Arc`-shared sealed shards and
/// name blocks, a private copy of the tails, and the detector behind its
/// own `Arc` — so it audits without borrowing from or racing the
/// pipeline it came from. [`audit_embedding`](AuditSnapshot::audit_embedding)
/// acquires no lock at all; [`audit`](AuditSnapshot::audit) and
/// [`audit_many`](AuditSnapshot::audit_many) briefly take the detector's
/// shared embedding-cache mutex (table lookups, then the inserts of the
/// misses, never held across an embedding), which they share with every
/// other user of that detector. Its verdicts never change: auditing the same suspect
/// twice against one snapshot returns bit-identical results no matter
/// what the writer ingests in between.
///
/// # Examples
///
/// ```
/// use gnn4ip_core::{AuditConfig, AuditPipeline, AuditSource, Gnn4Ip};
///
/// let mut pipeline = AuditPipeline::new(Gnn4Ip::with_seed(7), AuditConfig::default());
/// let inv = "module inv(input a, output y); assign y = ~a; endmodule";
/// pipeline.ingest([AuditSource::new("inv", inv, None)]);
/// let snapshot = pipeline.snapshot();
/// // the writer moves on; the snapshot's world stays frozen
/// pipeline.ingest([AuditSource::new(
///     "buf",
///     "module b(input a, output y); assign y = a; endmodule",
///     None,
/// )]);
/// assert_eq!(snapshot.len(), 1);
/// assert_eq!(snapshot.audit(inv, None)?.best().expect("hit").name, "inv");
/// # Ok::<(), gnn4ip_hdl::ParseVerilogError>(())
/// ```
#[must_use = "a snapshot only freezes state so it can be audited or published"]
#[derive(Debug, Clone)]
pub struct AuditSnapshot {
    detector: Arc<Gnn4Ip>,
    index: ShardedEmbeddingIndex,
    names: NameLog,
    top_k: usize,
    query: QueryOptions,
    batch_size: usize,
}

impl AuditSnapshot {
    /// The shared detector (same weights, δ, and embedding cache as the
    /// pipeline's).
    pub fn detector(&self) -> &Gnn4Ip {
        &self.detector
    }

    /// The frozen shard index.
    pub fn index(&self) -> &ShardedEmbeddingIndex {
        &self.index
    }

    /// Number of designs visible to this snapshot.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the snapshot saw an empty pipeline.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Name a label was ingested under, or `None` for an out-of-range
    /// label.
    pub fn name_of(&self, label: usize) -> Option<&str> {
        self.names.get(label)
    }

    /// Audits one suspect source against the snapshot's frozen corpus —
    /// the same embed → top-k → δ path as [`AuditPipeline::audit`], and
    /// the same cosine scores (the embedding cache is shared with the
    /// live pipeline, so resubmitted designs stay cache hits).
    ///
    /// # Errors
    ///
    /// Propagates parse/elaboration failures for the suspect source.
    pub fn audit(
        &self,
        verilog: &str,
        top: Option<&str>,
    ) -> Result<AuditVerdict, ParseVerilogError> {
        let embedding = self.detector.hw2vec(verilog, top)?;
        Ok(self.audit_embedding(&embedding))
    }

    /// [`AuditSnapshot::audit`] on a precomputed embedding (no parsing,
    /// no model pass).
    pub fn audit_embedding(&self, embedding: &[f32]) -> AuditVerdict {
        build_verdict(
            &self.index,
            &self.names,
            self.detector.delta(),
            self.top_k,
            &self.query,
            embedding,
        )
    }

    /// [`AuditPipeline::audit_many`] against the snapshot's frozen
    /// corpus: the same cached embed path, its misses embedded on the
    /// calling thread without spawning, and one `query_many` per chunk
    /// under the pipeline's
    /// [`AuditConfig::query`] (at the default `threads: 0` the scan stays
    /// on the calling thread below
    /// [`PARALLEL_QUERY_MIN_ROWS`](gnn4ip_eval::PARALLEL_QUERY_MIN_ROWS)
    /// rows). This is what serve's workers run, so a whole drained request
    /// batch is scored in one shard walk. Verdicts are bit-identical to
    /// the pipeline's.
    pub fn audit_many(&self, suspects: &[AuditSource]) -> (Vec<Option<AuditVerdict>>, BatchReport) {
        audit_many_impl(
            &self.detector,
            &self.index,
            &self.names,
            self.top_k,
            &self.query,
            1,
            self.batch_size,
            suspects,
        )
    }
}

// --- scenario-diversity harness ----------------------------------------

/// One retrieval scenario for [`run_audit_scenarios`]: a corpus of
/// distinct designs, each audited through behaviour-preserving variants.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Abstraction level — RTL variants go through
    /// [`vary_design`], netlists through [`obfuscate_netlist`].
    pub level: Level,
    /// Distinct designs ingested (named cores first, synthetic fill after).
    pub n_designs: usize,
    /// Disguised variants audited per design.
    pub variants_per_design: usize,
    /// Size of synthetic fill designs (RTL level).
    pub size: SynthSize,
    /// Gate count of synthetic netlists (netlist level).
    pub netlist_gates: usize,
    /// Master seed for the variant transforms.
    pub seed: u64,
}

impl ScenarioSpec {
    /// An RTL scenario over `n_designs` small designs.
    pub fn rtl(n_designs: usize, variants_per_design: usize) -> Self {
        Self {
            level: Level::Rtl,
            n_designs,
            variants_per_design,
            size: SynthSize::Small,
            netlist_gates: 120,
            seed: 7,
        }
    }

    /// A netlist-obfuscation scenario over `n_designs` netlists.
    pub fn netlist(n_designs: usize, variants_per_design: usize) -> Self {
        Self {
            level: Level::Netlist,
            n_designs,
            variants_per_design,
            size: SynthSize::Small,
            netlist_gates: 120,
            seed: 7,
        }
    }
}

/// What one [`run_audit_scenarios`] run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario level.
    pub level: Level,
    /// Designs offered to ingest.
    pub designs: usize,
    /// Designs actually indexed.
    pub ingested: usize,
    /// Designs the parser rejected.
    pub rejected: usize,
    /// Disguised variants audited.
    pub variants_audited: usize,
    /// Fraction of variants whose *best* match is their source design.
    pub recall_at_1: f64,
    /// Fraction whose source design appears anywhere in the top-k.
    pub recall_at_k: f64,
    /// The k used for `recall_at_k` (the pipeline's `top_k`).
    pub k: usize,
    /// Mean best-match score over all audited variants.
    pub mean_top_score: f64,
    /// Wall-clock seconds spent ingesting.
    pub ingest_secs: f64,
    /// Wall-clock seconds spent auditing variants.
    pub audit_secs: f64,
}

/// Pushes a synthetic corpus and its disguised variants through an audit
/// pipeline and measures retrieval recall — the scenario-diversity
/// harness for the corpus-scale deployment story.
///
/// The corpus designs are ingested first (canonical sources); then each
/// design is disguised `variants_per_design` times with the level's
/// behaviour-preserving transform and audited, counting how often the
/// true source design is retrieved at rank 1 and within the top-k.
///
/// # Errors
///
/// Propagates variant-generation or audit parse failures (corpus parse
/// failures are tolerated and counted as `rejected`).
pub fn run_audit_scenarios(
    pipeline: &mut AuditPipeline,
    spec: &ScenarioSpec,
) -> Result<ScenarioReport, ParseVerilogError> {
    let designs = match spec.level {
        Level::Rtl => rtl_designs(spec.n_designs, spec.size),
        Level::Netlist => netlist_designs(spec.n_designs, spec.netlist_gates),
    };
    let base = pipeline.len();
    let t0 = Instant::now();
    let ingest = pipeline.ingest(designs.iter().map(|d| AuditSource {
        name: d.name.clone(),
        source: d.source.clone(),
        top: Some(d.top.clone()),
    }));
    let ingest_secs = t0.elapsed().as_secs_f64();
    // the parser may have rejected designs, so recall only counts the ones
    // that actually landed in the index this run
    let ingested_names: HashSet<&str> = (base..pipeline.len())
        .filter_map(|l| pipeline.name_of(l))
        .collect();

    let mut audited = 0usize;
    let mut hits_at_1 = 0usize;
    let mut hits_at_k = 0usize;
    let mut top_score_sum = 0.0f64;
    let t1 = Instant::now();
    for (di, design) in designs.iter().enumerate() {
        if !ingested_names.contains(design.name.as_str()) {
            continue; // the parser rejected this design at ingest
        }
        for v in 1..=spec.variants_per_design {
            let variant_seed = spec
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(di as u64 * 1009)
                .wrapping_add(v as u64);
            let disguised = match spec.level {
                Level::Rtl => {
                    vary_design(&design.source, variant_seed, &VariationConfig::default())?
                }
                Level::Netlist => {
                    obfuscate_netlist(&design.source, variant_seed, &ObfuscationConfig::default())?
                }
            };
            let verdict = pipeline.audit(&disguised, Some(&design.top))?;
            audited += 1;
            // match by *name*, not label: a corpus re-ingested into the
            // same pipeline holds the design under several labels, and
            // retrieving any copy of the right design is a hit
            if let Some(best) = verdict.best() {
                top_score_sum += best.score as f64;
                if best.name == design.name {
                    hits_at_1 += 1;
                }
            }
            if verdict.matches.iter().any(|m| m.name == design.name) {
                hits_at_k += 1;
            }
        }
    }
    let audit_secs = t1.elapsed().as_secs_f64();
    let frac = |num: usize| {
        if audited == 0 {
            0.0
        } else {
            num as f64 / audited as f64
        }
    };
    Ok(ScenarioReport {
        level: spec.level,
        designs: designs.len(),
        ingested: ingest.ingested,
        rejected: ingest.rejected.len(),
        variants_audited: audited,
        recall_at_1: frac(hits_at_1),
        recall_at_k: frac(hits_at_k),
        k: pipeline.config().top_k,
        mean_top_score: if audited == 0 {
            0.0
        } else {
            top_score_sum / audited as f64
        },
        ingest_secs,
        audit_secs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const INV: &str = "module inv(input a, output y); assign y = ~a; endmodule";
    const XOR2: &str = "module x2(input a, input b, output y); assign y = a ^ b; endmodule";
    const ADD: &str = "module add(input [3:0] a, input [3:0] b, output [3:0] s);
                         assign s = a + b;
                       endmodule";

    fn small_config() -> AuditConfig {
        AuditConfig {
            shard_capacity: 2,
            batch_size: 2,
            threads: 1,
            top_k: 3,
            ..AuditConfig::default()
        }
    }

    fn pipeline() -> AuditPipeline {
        let mut p = AuditPipeline::new(Gnn4Ip::with_seed(6), small_config());
        let report = p.ingest([
            AuditSource::new("inv", INV, None),
            AuditSource::new("xor2", XOR2, None),
            AuditSource::new("add", ADD, None),
        ]);
        assert_eq!(report.ingested, 3);
        assert!(report.rejected.is_empty());
        p
    }

    #[test]
    fn ingest_spans_batches_and_shards() {
        let p = pipeline();
        assert_eq!(p.len(), 3);
        // capacity 2 -> two shards for three designs
        assert_eq!(p.index().num_shards(), 2);
        assert_eq!(p.name_of(0), Some("inv"));
        assert_eq!(p.name_of(2), Some("add"));
    }

    #[test]
    fn audit_retrieves_the_exact_copy_first() {
        let p = pipeline();
        let verdict = p.audit(XOR2, None).expect("audits");
        let best = verdict.best().expect("non-empty index");
        assert_eq!(best.name, "xor2");
        assert!(best.score > 0.999);
        assert_eq!(verdict.matches.len(), 3);
        for w in verdict.matches.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn audit_matches_the_batched_check_scores() {
        // the pipeline's scores are the same cosine the detector's
        // check() produces — one ranking, one metric
        let p = pipeline();
        let verdict = p.audit(INV, None).expect("audits");
        let direct = p.detector().check(INV, ADD).expect("checks");
        let add_match = verdict
            .matches
            .iter()
            .find(|m| m.name == "add")
            .expect("add indexed");
        assert_eq!(add_match.score.to_bits(), direct.score.to_bits());
    }

    #[test]
    fn malformed_sources_are_skipped_not_fatal() {
        let mut p = AuditPipeline::new(Gnn4Ip::with_seed(6), small_config());
        let report = p.ingest([
            AuditSource::new("good", INV, None),
            AuditSource::new("broken", "module broken(", None),
            AuditSource::new("also_good", XOR2, None),
        ]);
        assert_eq!(report.ingested, 2);
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(report.rejected[0].0, "broken");
        assert_eq!(p.len(), 2);
        // labels stay dense: the rejected design claims no label
        assert_eq!(p.name_of(0), Some("good"));
        assert_eq!(p.name_of(1), Some("also_good"));
    }

    #[test]
    fn empty_pipeline_audits_to_nothing() {
        let p = AuditPipeline::new(Gnn4Ip::with_seed(6), small_config());
        let verdict = p.audit(INV, None).expect("audits");
        assert!(verdict.matches.is_empty());
        assert!(verdict.best().is_none());
        assert!(!verdict.piracy);
    }

    #[test]
    fn zero_top_k_reports_no_matches() {
        // regression: top_k == 0 used to be rejected at construction; it
        // is a legal "index only, never report" configuration and must
        // yield empty verdicts rather than panicking in the query path
        let mut p = AuditPipeline::new(
            Gnn4Ip::with_seed(6),
            AuditConfig {
                top_k: 0,
                ..small_config()
            },
        );
        let report = p.ingest([AuditSource::new("inv", INV, None)]);
        assert_eq!(report.ingested, 1);
        let verdict = p.audit(INV, None).expect("audits");
        assert!(verdict.matches.is_empty());
        assert!(verdict.best().is_none());
        assert!(!verdict.piracy);
        // snapshots inherit the setting
        let snap = p.snapshot();
        assert!(snap.audit(INV, None).expect("audits").matches.is_empty());
    }

    /// A fresh directory for one test's checkpoints.
    fn tmp_dir(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gnn4ip-audit-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Every file in `dir` as `(name, bytes)`, sorted by name.
    fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .expect("lists")
            .map(|e| {
                let e = e.expect("entry");
                let bytes = std::fs::read(e.path()).expect("reads");
                (e.file_name().to_string_lossy().into_owned(), bytes)
            })
            .collect();
        files.sort();
        files
    }

    /// Opens `dir` around a copy of `p`'s detector, rebuilt from its bytes.
    fn reopen(p: &AuditPipeline, dir: &Path) -> Result<AuditPipeline, AuditError> {
        let detector = Gnn4Ip::from_bytes(&p.detector().to_bytes()).expect("loads");
        AuditPipeline::open(detector, small_config(), dir)
    }

    #[test]
    fn checkpoints_that_make_no_corpus_are_refused() {
        // regression: an index whose labels point past the names used to
        // load fine and panic later, inside name_of, on the first query
        // that retrieved the bad label — now each mismatch is a typed
        // error at open
        let p = AuditPipeline::new(Gnn4Ip::with_seed(6), small_config());
        let (pin, dim) = (p.detector().model().weights_checksum(), p.index().dim());
        let dir = tmp_dir("refusals");
        let refused = |dim: usize, label: usize, names: &[&str]| {
            let mut index = ShardedEmbeddingIndex::new(dim, 2);
            index.insert(&vec![0.5; dim], label);
            let mut log = NameLog::new(2);
            names.iter().for_each(|n| log.push(n.to_string()));
            index.checkpoint_dir(&log, &dir, pin).expect("checkpoints");
            reopen(&p, &dir).expect_err("must refuse")
        };
        let err = refused(dim, 7, &["only_name"]);
        assert_eq!(err, AuditError::LabelOutOfRange { label: 7, names: 1 });
        assert!(err.to_string().contains("label 7"), "{err}");
        // rows without names, as a manifest from before names were stored
        let (embeddings, names) = (1, 0);
        let count = AuditError::NameCountMismatch { embeddings, names };
        assert_eq!(refused(dim, 0, &[]), count);
        let (artifact, detector) = (dim + 1, dim);
        let wide = AuditError::DimMismatch { artifact, detector };
        assert_eq!(refused(dim + 1, 0, &["wide"]), wide);
        // this detector's corpus, opened under other weights
        pipeline().checkpoint(&dir).expect("checkpoints");
        let other = AuditPipeline::open(Gnn4Ip::with_seed(99), small_config(), &dir);
        let err = other.expect_err("must refuse");
        let pinned = matches!(
            err,
            AuditError::Checkpoint(ManifestError::PinMismatch { .. })
        );
        assert!(pinned, "{err:?}");
        assert!(err.to_string().contains("built by weights"), "{err}");
        // out-of-range lookups on a live pipeline answer None, not garbage
        assert!(p.name_of(7).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn audit_many_matches_serial_audits_bit_for_bit() {
        // audit_many is the batched form of audit: same parse, same
        // embedding, one query_many instead of N batches of one — and the
        // verdicts must not drift by a single bit. batch_size 2 over 5
        // suspects also exercises the chunk boundary.
        let p = pipeline();
        let suspects = vec![
            AuditSource::new("s_inv", INV, None),
            AuditSource::new("s_xor", XOR2, None),
            AuditSource::new("s_broken", "module broken(", None),
            AuditSource::new("s_add", ADD, None),
            AuditSource::new("s_inv2", INV, None),
        ];
        let (verdicts, report) = p.audit_many(&suspects);
        assert_eq!(verdicts.len(), 5);
        assert_eq!(report.audited, 4);
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(report.rejected[0].0, "s_broken");
        assert!(verdicts[2].is_none(), "parse failure yields no verdict");
        for (i, suspect) in suspects.iter().enumerate() {
            if i == 2 {
                continue;
            }
            let serial = p.audit(&suspect.source, None).expect("parses");
            let batched = verdicts[i].as_ref().expect("audited");
            assert_eq!(batched, &serial, "suspect {i} drifted from serial audit");
            for (a, b) in batched.matches.iter().zip(&serial.matches) {
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
        let flagged = verdicts
            .iter()
            .flatten()
            .filter(|verdict| verdict.piracy)
            .count();
        assert_eq!(report.flagged, flagged);
    }

    #[test]
    fn audit_many_on_empty_pipeline_and_empty_batch() {
        let p = AuditPipeline::new(Gnn4Ip::with_seed(6), small_config());
        let (verdicts, report) = p.audit_many(&[]);
        assert!(verdicts.is_empty());
        assert_eq!(report, BatchReport::default());
        let (verdicts, report) = p.audit_many(&[AuditSource::new("s", INV, None)]);
        assert_eq!(verdicts.len(), 1);
        let verdict = verdicts[0].as_ref().expect("audited");
        assert!(verdict.matches.is_empty());
        assert!(!verdict.piracy);
        assert_eq!((report.audited, report.flagged), (1, 0));
    }

    /// A verdict as `(piracy, [(name, label, score bits, piracy)])`:
    /// `AuditMatch`'s `==` compares scores as floats.
    type VerdictBits = (bool, Vec<(String, usize, u32, bool)>);

    fn verdict_bits(v: &AuditVerdict) -> VerdictBits {
        let matches = v.matches.iter();
        let bits = matches.map(|m| (m.name.clone(), m.label, m.score.to_bits(), m.piracy));
        (v.piracy, bits.collect())
    }

    /// The snapshot runs the front end on the calling thread; the
    /// pipeline fans it out over two workers per batch of two. Verdicts,
    /// rejections, the index and the names do not depend on which.
    #[test]
    fn snapshot_audit_many_matches_pipeline() {
        const AND2: &str = "module a2(input a, input b, output y); assign y = a & b; endmodule";
        let corpus = [
            AuditSource::new("inv", INV, None),
            AuditSource::new("xor2", XOR2, None),
            AuditSource::new("broken", "module broken(", None),
            AuditSource::new("add", ADD, None),
            AuditSource::new("and2", AND2, None),
        ];
        let fanned = AuditConfig {
            threads: 2,
            batch_size: 2,
            ..small_config()
        };
        let mut p = AuditPipeline::new(Gnn4Ip::with_seed(6), fanned);
        let mut serial = AuditPipeline::new(Gnn4Ip::with_seed(6), small_config());
        assert_eq!(p.ingest(corpus.clone()), serial.ingest(corpus));
        assert_eq!(p.len(), 4);
        assert_eq!(p.index(), serial.index(), "ingest at threads 1 and 2");
        assert_eq!(p.names, serial.names, "ingest at threads 1 and 2");

        let snap = p.snapshot();
        let suspects = vec![
            AuditSource::new("a", XOR2, None),
            AuditSource::new("b", ADD, None),
            AuditSource::new("c", "module broken(", None),
            AuditSource::new("d", AND2, None),
            AuditSource::new("e", INV, None),
            AuditSource::new("f", "module m(input a); endmodule", None),
        ];
        let (from_pipeline, pipeline_report) = p.audit_many(&suspects);
        let (from_snapshot, report) = snap.audit_many(&suspects);
        assert_eq!(report, pipeline_report);
        assert_eq!(report.audited, 4);
        let rejected: Vec<&str> = report.rejected.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(rejected, ["c", "f"]);
        assert_eq!(from_pipeline.len(), suspects.len());
        for (i, (a, b)) in from_pipeline.iter().zip(&from_snapshot).enumerate() {
            assert_eq!(
                a.as_ref().map(verdict_bits),
                b.as_ref().map(verdict_bits),
                "suspect {i}"
            );
        }
    }

    #[test]
    fn snapshot_publishes_through_the_slot() {
        // the deduplicated publication path: snapshot() is not a side
        // channel around the slot — every captured snapshot is also the
        // slot's current publication
        let p = pipeline();
        let slot = p.serving_slot();
        assert!(slot.load().is_none(), "nothing published yet");
        let snap = p.snapshot();
        let published = slot.load().expect("snapshot() must publish");
        assert_eq!(published.epoch(), 1);
        assert_eq!(published.len(), snap.len());
        // and the epoch counter is shared with publish()
        assert_eq!(p.publish(), 2);
    }

    #[test]
    fn snapshots_are_frozen_and_share_sealed_state() {
        let mut p = pipeline(); // 3 designs, capacity 2
        let snap = p.snapshot();
        let before = snap.audit(XOR2, None).expect("audits");
        p.ingest([AuditSource::new("late", ADD, None)]);
        assert_eq!(p.len(), 4);
        assert_eq!(snap.len(), 3, "snapshot must not see later ingests");
        let after = snap.audit(XOR2, None).expect("audits");
        assert_eq!(before, after, "snapshot verdicts must be stable");
        // and a fresh snapshot sees the new design
        assert_eq!(p.snapshot().len(), 4);
    }

    /// The serving smoke test: N reader threads audit from snapshots
    /// published through the pipeline's [`PublicationSlot`] while one
    /// writer ingests, and every verdict every reader ever sees is
    /// internally consistent — scores sorted, labels resolvable against
    /// that snapshot's own name table, match counts bounded — and stable
    /// on re-audit (no torn tail is observable, because a snapshot has no
    /// shared mutable state at all). Readers track the epoch they serve
    /// and pick up newer snapshots via `load_if_newer`, asserting the
    /// epoch never goes backwards and the corpus they serve never
    /// shrinks — the live-system face of the invariants the loom-lite
    /// checker proves over every bounded interleaving.
    #[test]
    fn concurrent_readers_audit_while_writer_ingests() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let config = AuditConfig {
            shard_capacity: 4,
            batch_size: 3,
            threads: 1,
            top_k: 3,
            ..AuditConfig::default()
        };
        let mut p = AuditPipeline::new(Gnn4Ip::with_seed(6), config);
        p.ingest([
            AuditSource::new("inv", INV, None),
            AuditSource::new("xor2", XOR2, None),
        ]);
        let probe = p.detector().hw2vec(XOR2, None).expect("probe embeds");
        assert_eq!(p.publish(), 1, "first publication is epoch 1");
        let slot = p.serving_slot();
        let done = AtomicBool::new(false);

        std::thread::scope(|scope| {
            for _reader in 0..4 {
                let slot = Arc::clone(&slot);
                let (done, probe) = (&done, &probe);
                scope.spawn(move || {
                    let first = slot.load().expect("seeded publication");
                    let mut epoch = first.epoch();
                    let mut snap = Arc::clone(first.value());
                    let mut served = snap.len();
                    let mut audits = 0usize;
                    // keep reading until the writer finishes, with a floor
                    // so every reader overlaps real ingest work
                    while !done.load(Ordering::Relaxed) || audits < 40 {
                        // the common path: one atomic load when nothing new
                        if let Some(p) = slot.load_if_newer(epoch) {
                            assert!(p.epoch() > epoch, "epoch must be monotone");
                            epoch = p.epoch();
                            snap = Arc::clone(p.value());
                            assert!(snap.len() >= served, "served corpus shrank");
                            served = snap.len();
                        }
                        let verdict = snap.audit_embedding(probe);
                        assert!(!verdict.matches.is_empty(), "seeded index");
                        assert!(verdict.matches.len() <= 3);
                        assert!(verdict.matches.len() <= snap.len());
                        for w in verdict.matches.windows(2) {
                            assert!(
                                w[0].score >= w[1].score,
                                "scores must be sorted: {} < {}",
                                w[0].score,
                                w[1].score
                            );
                        }
                        for m in &verdict.matches {
                            assert!(m.label < snap.len(), "label beyond snapshot");
                            assert_eq!(snap.name_of(m.label).expect("label resolvable"), m.name);
                            assert!(m.score.is_finite());
                        }
                        // immutability: the same snapshot must answer the
                        // same question identically, forever
                        assert_eq!(snap.audit_embedding(probe), verdict);
                        audits += 1;
                    }
                });
            }
            // the writer: ingest batches and publish a fresh snapshot
            // after each, crossing several shard-seal boundaries
            for wave in 0..8u64 {
                let batch: Vec<AuditSource> = (0..3)
                    .map(|i| {
                        let name = format!("gen_{wave}_{i}");
                        let ops = ["&", "|", "^"];
                        let src = format!(
                            "module m{wave}_{i}(input a, input b, output y); \
                             assign y = a {} b; endmodule",
                            ops[(wave as usize + i) % 3]
                        );
                        AuditSource::new(name, src, None)
                    })
                    .collect();
                let report = p.ingest(batch);
                assert_eq!(report.ingested, 3);
                assert_eq!(p.publish(), 2 + wave, "one epoch per publication");
            }
            done.store(true, Ordering::Relaxed);
        });

        assert_eq!(p.len(), 2 + 8 * 3);
        // the final published snapshot serves the full corpus
        let last = slot.load().expect("published");
        assert_eq!(last.epoch(), 9);
        assert_eq!(last.len(), p.len());
        let v = last.audit_embedding(&probe);
        assert_eq!(v.best().expect("hit").name, "xor2");
    }

    /// Verdicts of every suspect, by bits, from `audit_many`.
    fn all_verdicts(p: &AuditPipeline) -> Vec<Option<VerdictBits>> {
        let suspects =
            [INV, XOR2, ADD, "module broken("].map(|src| AuditSource::new("s", src, None));
        let (verdicts, _) = p.audit_many(&suspects);
        verdicts
            .iter()
            .map(|v| v.as_ref().map(verdict_bits))
            .collect()
    }

    /// A checkpoint reopens to the same corpus and verdicts, score bits
    /// included, and checkpointing the reopened corpus afresh writes the
    /// same files. After more designs are sealed, a second checkpoint
    /// writes one shard and one name block besides the manifest.
    #[test]
    fn checkpoints_reopen_identically_and_grow_by_new_files() {
        let p = pipeline(); // 3 designs, capacity 2: 1 shard sealed
        let (dir, fresh) = (tmp_dir("reopen"), tmp_dir("reopen-fresh"));
        p.checkpoint(&dir).expect("checkpoints");
        let mut reopened = reopen(&p, &dir).expect("opens");
        assert_eq!((reopened.index(), &reopened.names), (p.index(), &p.names));
        assert_eq!(all_verdicts(&reopened), all_verdicts(&p));
        reopened.checkpoint(&fresh).expect("checkpoints");
        assert_eq!(files(&fresh), files(&dir), "checkpoint→open→checkpoint");

        let before = files(&dir);
        let late = [("late_xor", XOR2), ("late_inv", INV)];
        reopened.ingest(late.map(|(name, src)| AuditSource::new(name, src, None)));
        let report = reopened.checkpoint(&dir).expect("checkpoints");
        assert_eq!((report.shards_written, report.name_blocks_written), (1, 1));
        assert_eq!((report.shards_reused, report.name_blocks_reused), (1, 1));
        // the first checkpoint's block files are kept byte for byte
        let after = files(&dir);
        assert!(before
            .iter()
            .all(|f| f.0 == "manifest.g4m" || after.contains(f)));
        let new = after.iter().filter(|f| !before.contains(f));
        let kinds: Vec<&str> = new.map(|f| f.0.split(['-', '.']).next().unwrap()).collect();
        assert_eq!(kinds, ["manifest", "names", "shard"]);
        let grown = reopen(&p, &dir).expect("opens");
        assert_eq!(grown.name_of(4), Some("late_inv"));
        assert_eq!(all_verdicts(&grown), all_verdicts(&reopened));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&fresh).ok();
    }

    /// A checkpoint cut off after its block files are written but before
    /// the manifest's rename leaves the previous corpus: its manifest
    /// lists none of the new files, and `gc` removes exactly those and the
    /// staged manifest.
    #[test]
    fn a_checkpoint_cut_before_its_manifest_leaves_the_previous_corpus() {
        let mut p = pipeline();
        let (dir, cut) = (tmp_dir("crash"), tmp_dir("crash-cut"));
        p.checkpoint(&dir).expect("checkpoints");
        let previous = all_verdicts(&p);
        let late = [("late_xor", XOR2), ("late_add", ADD), ("late_inv", INV)];
        p.ingest(late.map(|(name, src)| AuditSource::new(name, src, None)));
        // the cut checkpoint: its block files, and its manifest left in
        // `manifest.tmp`, never renamed into place
        p.checkpoint(&cut).expect("checkpoints");
        let mut stranded = Vec::new();
        for (name, bytes) in files(&cut) {
            let name = name.replace("manifest.g4m", "manifest.tmp");
            if !dir.join(&name).exists() {
                std::fs::write(dir.join(&name), bytes).expect("writes");
                stranded.push(name);
            }
        }
        let reopened = reopen(&p, &dir).expect("opens");
        assert_eq!(reopened.len(), 3);
        assert_eq!(all_verdicts(&reopened), previous);
        // the 2 new shards, the 2 new name blocks and the staged manifest
        // are orphans, nothing else
        let gc = gnn4ip_eval::gc_checkpoint_dir(&dir, false).expect("collects");
        stranded.sort();
        assert_eq!((gc.orphans.len(), gc.live), (5, 2));
        assert_eq!(gc.orphans, stranded);
        assert_eq!(all_verdicts(&reopen(&p, &dir).expect("opens")), previous);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&cut).ok();
    }

    #[test]
    fn scenario_harness_reports_recall() {
        let mut p = AuditPipeline::new(
            Gnn4Ip::with_seed(6),
            AuditConfig {
                shard_capacity: 4,
                ..AuditConfig::default()
            },
        );
        let report = run_audit_scenarios(&mut p, &ScenarioSpec::rtl(6, 2)).expect("harness runs");
        assert_eq!(report.designs, 6);
        assert_eq!(report.ingested, 6);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.variants_audited, 12);
        assert!((0.0..=1.0).contains(&report.recall_at_1));
        assert!(report.recall_at_k >= report.recall_at_1);
        // even an untrained detector retrieves a lightly-varied source
        // design well above chance (1/6)
        assert!(report.recall_at_k > 0.5, "recall@k {}", report.recall_at_k);
    }

    #[test]
    fn rerunning_a_scenario_on_the_same_pipeline_keeps_recall() {
        // regression: recall used to be counted by label, so a re-ingested
        // corpus (same designs, new labels) made every rank-1 hit on the
        // *older* copy look like a miss
        let mut p = AuditPipeline::new(Gnn4Ip::with_seed(6), AuditConfig::default());
        let spec = ScenarioSpec::rtl(5, 1);
        let first = run_audit_scenarios(&mut p, &spec).expect("first run");
        let second = run_audit_scenarios(&mut p, &spec).expect("second run");
        assert_eq!(p.len(), 10, "both ingests landed");
        assert!(
            second.recall_at_1 >= first.recall_at_1,
            "duplicate copies must not depress recall: {} -> {}",
            first.recall_at_1,
            second.recall_at_1
        );
    }

    #[test]
    fn netlist_scenario_runs() {
        let mut p = AuditPipeline::new(Gnn4Ip::with_seed(6), AuditConfig::default());
        let report =
            run_audit_scenarios(&mut p, &ScenarioSpec::netlist(3, 1)).expect("harness runs");
        assert_eq!(report.level, Level::Netlist);
        assert_eq!(report.variants_audited, 3);
    }
}
