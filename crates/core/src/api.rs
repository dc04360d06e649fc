//! The end-to-end GNN4IP API — Algorithm 1 of the paper.
//!
//! `hw2vec(p)` turns a hardware design into a graph embedding;
//! `gnn4ip(p1, p2)` compares two designs by cosine similarity and applies
//! the decision boundary δ.
//!
//! Every source-level embedding goes through one front end,
//! [`embed_sources`] (parse → DFG → `GraphInput` → tape-free forward
//! pass), and every call that audits or checks a design puts the
//! detector's bounded [`EmbeddingCache`] in front of it: [`Gnn4Ip::hw2vec`],
//! [`Gnn4Ip::embed_many`], [`Gnn4Ip::check`], [`Gnn4Ip::check_many`], and
//! the audits of [`AuditPipeline`](crate::AuditPipeline) and
//! [`AuditSnapshot`](crate::AuditSnapshot), which is every `serve` audit.
//! A call digests each source's exact bytes ([`source_key`]), looks every
//! digest up under one lock, runs the front end once per distinct miss,
//! and stores what embedded. Only ingest runs the front end without the
//! cache: a corpus row is embedded once by definition.

use std::sync::{Mutex, MutexGuard};

use gnn4ip_dfg::graph_from_verilog;
use gnn4ip_hdl::ParseVerilogError;
use gnn4ip_nn::{cosine_of, fan_out, GraphInput, Hw2Vec, Hw2VecConfig, Workspace};
use gnn4ip_tensor::{read_artifact, write_artifact, BinReader, BinWriter};

use crate::cache::{source_key, CacheStats, EmbeddingCache, SourceKey};

/// Kind tag of the binary detector artifact (model + δ).
pub const DETECTOR_KIND: &str = "gnn4ip-detector";

/// The verdict of a piracy check (Algorithm 1's output plus the evidence).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// Cosine similarity `Ŷ ∈ [-1, 1]` (Eq. 6).
    pub score: f32,
    /// Decision boundary δ in force.
    pub delta: f32,
    /// `score > delta` — the binary piracy label.
    pub piracy: bool,
}

/// A trained (or freshly initialized) GNN4IP detector.
///
/// # Examples
///
/// ```
/// use gnn4ip_core::Gnn4Ip;
///
/// let detector = Gnn4Ip::with_seed(42);
/// let a = "module inv(input a, output y); assign y = ~a; endmodule";
/// let verdict = detector.check(a, a)?;
/// assert!(verdict.score > 0.99); // identical designs
/// # Ok::<(), gnn4ip_hdl::ParseVerilogError>(())
/// ```
#[derive(Debug)]
pub struct Gnn4Ip {
    model: Hw2Vec,
    delta: f32,
    /// Source digest → embedding. A `Mutex` (not `RefCell`) so a detector
    /// can be shared across serve workers; it is never held across an
    /// embedding.
    cache: Mutex<EmbeddingCache>,
}

impl Clone for Gnn4Ip {
    fn clone(&self) -> Self {
        Self {
            model: self.model.clone(),
            delta: self.delta,
            cache: Mutex::new(self.cache_lock().clone()),
        }
    }
}

impl Gnn4Ip {
    /// Locks the embedding cache, recovering from poisoning instead of
    /// cascading the panic: the cache is a pure memo whose individual
    /// operations never leave it half-updated, so the state behind a
    /// poisoned lock is still coherent — at worst a panicking thread
    /// failed to record one embedding, which only costs a recompute.
    fn cache_lock(&self) -> MutexGuard<'_, EmbeddingCache> {
        self.cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Creates a detector with the paper's default architecture and an
    /// untuned decision boundary of 0.5.
    pub fn new(config: Hw2VecConfig, seed: u64) -> Self {
        Self::from_model(Hw2Vec::new(config, seed), 0.5)
    }

    /// Creates a detector with all defaults from a seed.
    pub fn with_seed(seed: u64) -> Self {
        Self::new(Hw2VecConfig::default(), seed)
    }

    /// Wraps an externally trained model.
    pub fn from_model(model: Hw2Vec, delta: f32) -> Self {
        let cache = EmbeddingCache::new(model.config().hidden);
        Self {
            model,
            delta,
            cache: Mutex::new(cache),
        }
    }

    /// The underlying hw2vec model.
    pub fn model(&self) -> &Hw2Vec {
        &self.model
    }

    /// The decision boundary δ.
    pub fn delta(&self) -> f32 {
        self.delta
    }

    /// Adjusts δ ("the user can adjust it to decide how much similarity is
    /// considered piracy", §IV-D).
    pub fn set_delta(&mut self, delta: f32) {
        self.delta = delta;
    }

    /// `hw2vec(p)`: Verilog source → graph embedding, on the calling
    /// thread, served from the cache when this detector has embedded the
    /// same bytes at the same `top` before.
    ///
    /// # Errors
    ///
    /// Propagates parse/elaboration failures from the DFG pipeline.
    pub fn hw2vec(&self, verilog: &str, top: Option<&str>) -> Result<Vec<f32>, ParseVerilogError> {
        let mut one = self.embed_cached(&[(verilog, top)], 1);
        // g4check: allow(unwrap-in-lib): embed_cached returns one result per source
        one.pop().expect("one source, one result")
    }

    /// Embeds a batch of `(source, top)` designs, in input order, fanning
    /// the front end out over every core. Cached designs are served from
    /// the cache, and each distinct uncached design is embedded once, so
    /// duplicates inside the batch share one embedding.
    ///
    /// # Errors
    ///
    /// Propagates the first parse/elaboration failure in input order; no
    /// partial results.
    pub fn embed_many(
        &self,
        sources: &[(&str, Option<&str>)],
    ) -> Result<Vec<Vec<f32>>, ParseVerilogError> {
        self.embed_cached(sources, 0).into_iter().collect()
    }

    /// The cached embed path: one result per source, in input order.
    ///
    /// Every source is digested and looked up first, under one lock, so
    /// the counters see exactly one lookup per source at any thread
    /// count: a source found in the table, or repeating an earlier source
    /// of the same call, is a hit; every other source is a miss. The
    /// misses then go through [`embed_sources`] over `threads` workers,
    /// with the lock released, and those that embedded are stored. A
    /// failed parse is not cached.
    pub(crate) fn embed_cached(
        &self,
        sources: &[(&str, Option<&str>)],
        threads: usize,
    ) -> Vec<Result<Vec<f32>, ParseVerilogError>> {
        let keys: Vec<SourceKey> = sources.iter().map(|&(s, top)| source_key(s, top)).collect();
        let first = first_occurrences(&keys);
        // repeats and misses hold a placeholder until they are resolved
        let mut out: Vec<Result<Vec<f32>, ParseVerilogError>> = Vec::with_capacity(keys.len());
        let mut misses = Vec::new();
        {
            let mut cache = self.cache_lock();
            for (i, key) in keys.iter().enumerate() {
                if first[i] != i {
                    cache.record_repeat();
                    out.push(Ok(Vec::new()));
                } else if let Some(embedding) = cache.get(key) {
                    out.push(Ok(embedding));
                } else {
                    misses.push(i);
                    out.push(Ok(Vec::new()));
                }
            }
        }
        if !misses.is_empty() {
            let run: Vec<(&str, Option<&str>)> = misses.iter().map(|&i| sources[i]).collect();
            let embedded = embed_sources(&self.model, &run, threads);
            let mut cache = self.cache_lock();
            for (&i, result) in misses.iter().zip(&embedded) {
                if let Ok(embedding) = result {
                    cache.insert(keys[i], embedding);
                }
            }
            drop(cache);
            for (&i, result) in misses.iter().zip(embedded) {
                out[i] = result;
            }
        }
        for i in 0..out.len() {
            if first[i] != i {
                out[i] = out[first[i]].clone();
            }
        }
        out
    }

    /// Embeds an already-extracted graph (no parsing, no caching).
    pub fn embed(&self, graph: &GraphInput) -> Vec<f32> {
        self.model.embed(graph)
    }

    /// `gnn4ip(p1, p2)`: full Algorithm 1 on two Verilog sources — a thin
    /// wrapper over the cached embedding path.
    ///
    /// # Errors
    ///
    /// Propagates parse/elaboration failures for either source.
    pub fn check(&self, p1: &str, p2: &str) -> Result<Verdict, ParseVerilogError> {
        self.check_with_tops(p1, None, p2, None)
    }

    /// [`Gnn4Ip::check`] with explicit top-module names.
    ///
    /// # Errors
    ///
    /// Propagates parse/elaboration failures for either source.
    pub fn check_with_tops(
        &self,
        p1: &str,
        top1: Option<&str>,
        p2: &str,
        top2: Option<&str>,
    ) -> Result<Verdict, ParseVerilogError> {
        let e1 = self.hw2vec(p1, top1)?;
        let e2 = self.hw2vec(p2, top2)?;
        Ok(self.verdict_on_embeddings(&e1, &e2))
    }

    /// Algorithm 1 over a batch of source pairs, in input order.
    ///
    /// All 2·n sides go through [`Gnn4Ip::embed_many`], so a design that
    /// appears in many pairs — the library-screening deployment — is
    /// embedded exactly once.
    ///
    /// # Errors
    ///
    /// Propagates the first parse/elaboration failure; no partial results.
    pub fn check_many(&self, pairs: &[(&str, &str)]) -> Result<Vec<Verdict>, ParseVerilogError> {
        let sources: Vec<(&str, Option<&str>)> = pairs
            .iter()
            .flat_map(|&(a, b)| [(a, None), (b, None)])
            .collect();
        let embeddings = self.embed_many(&sources)?;
        Ok(embeddings
            .chunks_exact(2)
            .map(|pair| self.verdict_on_embeddings(&pair[0], &pair[1]))
            .collect())
    }

    /// Algorithm 1 on precomputed embeddings (no parsing, no model pass).
    pub fn verdict_on_embeddings(&self, e1: &[f32], e2: &[f32]) -> Verdict {
        let score = cosine_of(e1, e2);
        Verdict {
            score,
            delta: self.delta,
            piracy: score > self.delta,
        }
    }

    /// Hit/miss/entry counters of the embedding cache since it was made
    /// or last cleared.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache_lock().stats()
    }

    /// Drops every cached embedding and resets the counters.
    pub fn clear_cache(&self) {
        self.cache_lock().clear();
    }

    /// Serializes model + δ to the binary artifact format. The detector
    /// round-trips **bit-exactly**: a loaded detector produces bit-identical
    /// embeddings and `check` scores.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = BinWriter::new(DETECTOR_KIND);
        w.f32(self.delta);
        w.bytes(&self.model.to_bytes());
        w.finish()
    }

    /// Restores a detector serialized by [`Gnn4Ip::to_bytes`]. The
    /// embedding cache starts empty.
    ///
    /// # Errors
    ///
    /// Returns a description of the corrupt or mismatched section.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let mut r = BinReader::open(bytes, DETECTOR_KIND)?;
        let delta = finite_delta(r.f32()?)?;
        let model = Hw2Vec::from_bytes(r.bytes()?)?;
        r.done()?;
        Ok(Self::from_model(model, delta))
    }

    /// Writes the binary detector artifact to `path` (atomic: temp file +
    /// rename).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error as text.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), String> {
        write_artifact(path.as_ref(), &self.to_bytes())
    }

    /// Loads a binary detector artifact written by [`Gnn4Ip::save`].
    ///
    /// # Errors
    ///
    /// Returns I/O or format errors as text.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, String> {
        Self::from_bytes(&read_artifact(path.as_ref())?)
    }
}

/// The one front end of every source-level embedding, cached or not: each
/// source goes through parse → DFG → [`GraphInput`] →
/// [`forward_infer`](Hw2Vec::forward_infer) inside one [`fan_out`] over
/// `threads` workers (`1` stays on the calling thread). Each chunk owns
/// one [`Workspace`], dropped when the call returns, and each graph is
/// dropped as soon as it is embedded. One result per source, in input
/// order.
pub(crate) fn embed_sources(
    model: &Hw2Vec,
    sources: &[(&str, Option<&str>)],
    threads: usize,
) -> Vec<Result<Vec<f32>, ParseVerilogError>> {
    fan_out(sources, threads, |_tid, chunk| {
        let mut ws = Workspace::new();
        chunk
            .iter()
            .map(|&(source, top)| -> Result<Vec<f32>, ParseVerilogError> {
                // the DFG is dropped before the forward pass, whose
                // scratch can then reuse its memory
                let graph = GraphInput::from_dfg(&graph_from_verilog(source, top)?);
                Ok(model.forward_infer(&graph, &mut ws))
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// For each key, the position of its first occurrence in `keys`.
fn first_occurrences(keys: &[SourceKey]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_unstable_by_key(|&i| (keys[i], i));
    let mut first: Vec<usize> = (0..keys.len()).collect();
    for pair in order.windows(2) {
        if keys[pair[0]] == keys[pair[1]] {
            first[pair[1]] = first[pair[0]];
        }
    }
    first
}

/// Refuses a NaN or infinite δ: a NaN or +inf δ clears every suspect, and
/// −inf flags every one.
fn finite_delta(delta: f32) -> Result<f32, String> {
    if delta.is_finite() {
        Ok(delta)
    } else {
        Err(format!("non-finite delta {delta}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn4ip_nn::MODEL_KIND;

    const INV: &str = "module inv(input a, output y); assign y = ~a; endmodule";
    const ADDER: &str = "module add(input [3:0] a, input [3:0] b, output [3:0] s);
                           assign s = a + b;
                         endmodule";

    #[test]
    fn identical_sources_score_one() {
        let d = Gnn4Ip::with_seed(1);
        let v = d.check(INV, INV).expect("checks");
        assert!(v.score > 0.999);
        assert!(v.piracy);
    }

    #[test]
    fn verdict_respects_delta() {
        let mut d = Gnn4Ip::with_seed(2);
        let v = d.check(INV, ADDER).expect("checks");
        d.set_delta(1.1); // nothing exceeds 1.0
        let v2 = d.check(INV, ADDER).expect("checks");
        assert_eq!(v.score, v2.score);
        assert!(!v2.piracy);
    }

    #[test]
    fn hw2vec_embedding_width() {
        let d = Gnn4Ip::with_seed(3);
        assert_eq!(d.hw2vec(INV, None).expect("embeds").len(), 16);
    }

    #[test]
    fn parse_errors_propagate() {
        let d = Gnn4Ip::with_seed(5);
        assert!(d.check("module broken(", INV).is_err());
        assert!(d.check_many(&[(INV, "module broken(")]).is_err());
    }

    #[test]
    fn repeat_checks_hit_the_cache() {
        let d = Gnn4Ip::with_seed(8);
        let v1 = d.check(INV, ADDER).expect("cold");
        let s = d.cache_stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 2));
        let v2 = d.check(INV, ADDER).expect("warm");
        assert_eq!(v1, v2);
        let s = d.cache_stats();
        assert_eq!((s.hits, s.misses), (2, 2));
        d.clear_cache();
        assert_eq!(d.cache_stats().entries, 0);
    }

    #[test]
    fn check_many_matches_individual_checks() {
        let d = Gnn4Ip::with_seed(10);
        let pairs = [(INV, ADDER), (INV, INV), (ADDER, INV)];
        let batch = d.check_many(&pairs).expect("batch");
        let d2 = Gnn4Ip::with_seed(10);
        for (v, &(a, b)) in batch.iter().zip(&pairs) {
            assert_eq!(*v, d2.check(a, b).expect("single"));
        }
        // 3 pairs, 6 sides, but only 2 distinct designs were embedded
        assert_eq!(d.cache_stats().entries, 2);
    }

    #[test]
    fn embed_many_dedupes_within_a_batch() {
        let d = Gnn4Ip::with_seed(11);
        let out = d
            .embed_many(&[(INV, None), (ADDER, None), (INV, None)])
            .expect("batch");
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], out[2]);
        let s = d.cache_stats();
        assert_eq!(s.entries, 2);
        // and they agree with the single-source path
        assert_eq!(out[1], d.hw2vec(ADDER, None).expect("single"));
    }

    /// The seed-25 detector with the first weight of parameter `param`
    /// set to `v`.
    fn poisoned(param: &str, v: f32) -> Gnn4Ip {
        let mut model = Hw2Vec::new(Hw2VecConfig::default(), 25);
        let pos = model.params().iter().position(|(n, _)| n == param);
        let pos = pos.expect("the parameter exists");
        let m = model.params_mut().values_mut().nth(pos);
        m.expect("iter and values_mut share one order")
            .as_mut_slice()[0] = v;
        Gnn4Ip::from_model(model, 0.5)
    }

    /// A detector whose file carries a NaN or infinite weight or δ is
    /// refused: it would load and then clear every suspect. The files are
    /// written by `to_bytes`, so their checksums are valid.
    #[test]
    fn binary_loader_refuses_non_finite_values() {
        for v in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let d = poisoned("pool.score.w", v);
            let err = Gnn4Ip::from_bytes(&d.to_bytes()).expect_err("poisoned weight");
            assert!(err.contains("non-finite weight"), "{err}");
            let mut d = Gnn4Ip::with_seed(25);
            d.set_delta(v);
            let err = Gnn4Ip::from_bytes(&d.to_bytes()).expect_err("poisoned delta");
            assert!(err.contains("non-finite delta"), "{err}");
        }
    }

    /// A model artifact declaring `config`, sealed with a valid checksum
    /// and carrying the default architecture's weights.
    fn model_bytes(config: &Hw2VecConfig) -> Vec<u8> {
        let mut w = BinWriter::new(MODEL_KIND);
        w.len_of(config.input_dim);
        w.len_of(config.hidden);
        w.len_of(config.layers);
        w.f32(config.pool_ratio);
        w.f32(config.dropout);
        w.str(config.readout.tag());
        w.str(config.conv.tag());
        let weights = Hw2Vec::new(Hw2VecConfig::default(), 0);
        w.len_of(weights.params().len());
        for (name, m) in weights.params().iter() {
            w.str(name);
            w.matrix(m);
        }
        w.finish()
    }

    /// Model and detector artifacts declaring an architecture no graph
    /// can run are refused with an error naming the bad field rather than
    /// loaded to panic later: with `input_dim` 1, a graph's second node
    /// kind indexes past the first layer's weight rows.
    #[test]
    fn loaders_refuse_unrunnable_architectures() {
        type Corrupt = fn(&mut Hw2VecConfig);
        let cases: [(&str, Corrupt); 6] = [
            ("input_dim", |c| c.input_dim = 1),
            ("hidden", |c| c.hidden = 0),
            ("layers", |c| c.layers = 0),
            ("pool ratio", |c| c.pool_ratio = f32::NAN),
            ("pool ratio", |c| c.pool_ratio = 0.0),
            ("pool ratio", |c| c.pool_ratio = 1.5),
        ];
        for (field, corrupt) in cases {
            let mut config = Hw2VecConfig::default();
            corrupt(&mut config);
            let model = model_bytes(&config);
            let err = Hw2Vec::from_bytes(&model).expect_err("model artifact");
            assert!(err.contains(field), "{field}: {err}");
            let mut w = BinWriter::new(DETECTOR_KIND);
            w.f32(0.5);
            w.bytes(&model);
            let err = Gnn4Ip::from_bytes(&w.finish()).expect_err("detector artifact");
            assert!(err.contains(field), "{field}: {err}");
        }
    }

    /// A text detector is not a `G4IP` artifact, and the loader says so
    /// rather than reporting a corrupt checksum. Nothing past the magic is
    /// read, so its 40 GB parameter declaration allocates nothing.
    #[test]
    fn text_detector_reads_as_bad_magic() {
        let text = "delta 0.5\nhw2vec-model v1\nconfig 45 16 2 0.5 0.1 max gcn\n\
                    param conv0.w 100000 100000\n";
        let err = Gnn4Ip::from_bytes(text.as_bytes()).expect_err("not an artifact");
        assert!(err.contains("bad magic"), "{err}");
    }

    #[test]
    fn binary_roundtrip_reproduces_scores_bit_exactly() {
        let mut d = Gnn4Ip::with_seed(20);
        d.set_delta(0.25);
        let bytes = d.to_bytes();
        let d2 = Gnn4Ip::from_bytes(&bytes).expect("loads");
        assert_eq!(d2.delta(), 0.25);
        assert_eq!(d2.to_bytes(), bytes, "save→load→save drifted");
        let (v1, v2) = (
            d.check(INV, ADDER).expect("a"),
            d2.check(INV, ADDER).expect("b"),
        );
        assert_eq!(v1.score.to_bits(), v2.score.to_bits());
    }

    #[test]
    fn detector_file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("gnn4ip-detector-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let d = Gnn4Ip::with_seed(24);
        let _ = d.hw2vec(INV, None).expect("embeds");
        let dp = dir.join("detector.bin");
        d.save(&dp).expect("saves");
        let d2 = Gnn4Ip::load(&dp).expect("loads");
        assert_eq!(d2.to_bytes(), d.to_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }
}
