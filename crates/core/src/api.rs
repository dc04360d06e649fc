//! The end-to-end GNN4IP API — Algorithm 1 of the paper.
//!
//! `hw2vec(p)` turns a hardware design into a graph embedding;
//! `gnn4ip(p1, p2)` compares two designs by cosine similarity and applies
//! the decision boundary δ.
//!
//! Every source-level entry point is backed by a content-addressed
//! [`EmbeddingCache`]: a design is parsed and embedded once per detector,
//! then served by fingerprint lookup. [`Gnn4Ip::check_many`] and
//! [`Gnn4Ip::embed_many`] are the batched forms — distinct designs in a
//! batch are embedded in parallel via the tape-free inference path.

use std::sync::{Mutex, MutexGuard};

use gnn4ip_dfg::graph_from_verilog;
use gnn4ip_hdl::{design_fingerprint, Fingerprint, ParseVerilogError, StableHasher};
use gnn4ip_nn::{cosine_of, GraphInput, Hw2Vec, Hw2VecConfig};
use gnn4ip_tensor::{read_artifact, write_artifact, BinReader, BinWriter};

use crate::cache::{CacheStats, EmbeddingCache};

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
    /// Fingerprint → embedding. A `Mutex` (not `RefCell`) so a detector can
    /// be shared across scan threads; it is never held across an embedding.
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
    /// poisoned lock is still coherent — at worst a panicking scan thread
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
        Self {
            model,
            delta,
            cache: Mutex::new(EmbeddingCache::new()),
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

    /// `hw2vec(p)`: Verilog source → graph embedding, served from the
    /// content-addressed cache when this detector has embedded an
    /// equivalent design before.
    ///
    /// # Errors
    ///
    /// Propagates parse/elaboration failures from the DFG pipeline.
    pub fn hw2vec(&self, verilog: &str, top: Option<&str>) -> Result<Vec<f32>, ParseVerilogError> {
        let fp = self.fingerprint(verilog, top)?;
        if let Some(e) = self.cache_lock().get(fp) {
            return Ok(e);
        }
        // Parse and embed outside the lock: misses are the slow path.
        let g = graph_from_verilog(verilog, top)?;
        let e = self.model.embed(&GraphInput::from_dfg(&g));
        self.cache_lock().insert(fp, e.clone());
        Ok(e)
    }

    /// Embeds a batch of `(source, top)` designs, in input order.
    ///
    /// Cached designs are served by fingerprint lookup; the distinct
    /// uncached designs are parsed once each (duplicates inside the batch
    /// collapse onto one embedding) and embedded in parallel through the
    /// tape-free batched forward pass.
    ///
    /// # Errors
    ///
    /// Propagates the first parse/elaboration failure; no partial results.
    pub fn embed_many(
        &self,
        sources: &[(&str, Option<&str>)],
    ) -> Result<Vec<Vec<f32>>, ParseVerilogError> {
        let mut fps = Vec::with_capacity(sources.len());
        for &(src, top) in sources {
            fps.push(self.fingerprint(src, top)?);
        }
        // resolve hits and collect the distinct misses
        let mut out: Vec<Option<Vec<f32>>> = vec![None; sources.len()];
        let mut miss_fps = Vec::new();
        let mut seen_misses = std::collections::HashSet::new();
        let mut miss_graphs = Vec::new();
        {
            let mut cache = self.cache_lock();
            for (i, &fp) in fps.iter().enumerate() {
                if let Some(e) = cache.get(fp) {
                    out[i] = Some(e);
                }
            }
        }
        for (i, &fp) in fps.iter().enumerate() {
            if out[i].is_some() || !seen_misses.insert(fp) {
                continue;
            }
            let (src, top) = sources[i];
            miss_fps.push(fp);
            miss_graphs.push(GraphInput::from_dfg(&graph_from_verilog(src, top)?));
        }
        if !miss_graphs.is_empty() {
            let embedded = self.model.embed_batch(&miss_graphs);
            let mut cache = self.cache_lock();
            for (fp, e) in miss_fps.iter().zip(embedded) {
                cache.insert(*fp, e);
            }
            for (i, fp) in fps.iter().enumerate() {
                if out[i].is_none() {
                    out[i] = cache.peek(*fp).cloned();
                }
            }
        }
        Ok(out
            .into_iter()
            // g4check: allow(unwrap-in-lib): every miss was inserted into the cache in the loop above, under the same lock this resolve uses
            .map(|e| e.expect("every fingerprint resolved"))
            .collect())
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

    /// Content fingerprint of a design, memoized on the raw source text:
    /// a byte-identical resubmission skips even preprocessing and lexing.
    fn fingerprint(
        &self,
        verilog: &str,
        top: Option<&str>,
    ) -> Result<Fingerprint, ParseVerilogError> {
        let mut h = StableHasher::new();
        h.write_str(verilog);
        match top {
            Some(t) => {
                h.write(&[1]);
                h.write_str(t);
            }
            None => h.write(&[0]),
        }
        let raw_key = h.finish();
        if let Some(fp) = self.cache_lock().fingerprint_for_raw(raw_key) {
            return Ok(fp);
        }
        let fp = design_fingerprint(verilog, top)?;
        self.cache_lock().remember_raw(raw_key, fp);
        Ok(fp)
    }

    /// Hit/miss/entry counters of the embedding cache.
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
    fn comment_only_changes_share_a_cache_entry() {
        let d = Gnn4Ip::with_seed(9);
        let _ = d.hw2vec(INV, None).expect("embeds");
        let commented = format!("// resubmitted\n{INV}");
        let _ = d.hw2vec(&commented, None).expect("embeds");
        let s = d.cache_stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
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
