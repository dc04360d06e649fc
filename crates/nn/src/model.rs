//! The hw2vec graph-embedding model: stacked GCN layers, self-attention
//! graph pooling, and a graph readout (Fig. 3 of the paper).

use std::cell::RefCell;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gnn4ip_tensor::{
    fnv1a64, read_artifact, write_artifact, BinReader, BinWriter, Matrix, ParamId, ParamStore,
    Tape, Var, Workspace,
};

use crate::graph_input::GraphInput;
use gnn4ip_tensor::fan_out;

thread_local! {
    /// Per-thread scratch for [`Hw2Vec::embed`], so repeated single-graph
    /// embeddings reuse buffers instead of re-allocating each call.
    static EMBED_WS: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// Kind tag of the binary model artifact (see [`Hw2Vec::to_bytes`]).
pub const MODEL_KIND: &str = "hw2vec-model";

/// Graph-readout operation (paper §III-C: sum-, mean-, or max-pooling; the
/// evaluation uses max).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Readout {
    /// Column-wise maximum of node embeddings (the paper's choice).
    #[default]
    Max,
    /// Column-wise mean.
    Mean,
    /// Column-wise sum.
    Sum,
}

impl Readout {
    /// Stable serialization tag.
    pub fn tag(self) -> &'static str {
        match self {
            Readout::Max => "max",
            Readout::Mean => "mean",
            Readout::Sum => "sum",
        }
    }

    /// Parses a serialization tag.
    pub fn from_tag(s: &str) -> Option<Self> {
        Some(match s {
            "max" => Readout::Max,
            "mean" => Readout::Mean,
            "sum" => Readout::Sum,
            _ => return None,
        })
    }
}

/// Graph-convolution operator. The paper's background (Eqs. 1-2) frames
/// message propagation as AGGREGATE + COMBINE; its evaluation instantiates
/// that with GCN (Eq. 5). The SAGE variant (mean-aggregate, separate
/// self/neighbor weights) is provided as the natural ablation of that
/// choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConvKind {
    /// Kipf & Welling GCN: `relu(Â X W)` (the paper's choice).
    #[default]
    Gcn,
    /// GraphSAGE-mean: `relu(X W_self + mean_N(X) W_neigh)`.
    Sage,
}

impl ConvKind {
    /// Stable serialization tag.
    pub fn tag(self) -> &'static str {
        match self {
            ConvKind::Gcn => "gcn",
            ConvKind::Sage => "sage",
        }
    }

    /// Parses a serialization tag.
    pub fn from_tag(s: &str) -> Option<Self> {
        Some(match s {
            "gcn" => ConvKind::Gcn,
            "sage" => ConvKind::Sage,
            _ => return None,
        })
    }
}

/// Hyper-parameters of hw2vec. Defaults are the paper's evaluation settings
/// (§IV): 2 GCN layers, 16 hidden units, pool ratio 0.5, max readout,
/// dropout 0.1.
#[derive(Debug, Clone, PartialEq)]
pub struct Hw2VecConfig {
    /// One-hot input dimension (node-kind vocabulary size).
    pub input_dim: usize,
    /// Hidden units per GCN layer.
    pub hidden: usize,
    /// Number of GCN layers.
    pub layers: usize,
    /// Top-k pooling keep ratio.
    pub pool_ratio: f32,
    /// Dropout probability after each GCN layer (training only).
    pub dropout: f32,
    /// Readout operation.
    pub readout: Readout,
    /// Graph-convolution operator.
    pub conv: ConvKind,
}

impl Default for Hw2VecConfig {
    fn default() -> Self {
        Self {
            input_dim: gnn4ip_dfg::VOCAB_SIZE,
            hidden: 16,
            layers: 2,
            pool_ratio: 0.5,
            dropout: 0.1,
            readout: Readout::Max,
            conv: ConvKind::Gcn,
        }
    }
}

/// Forward-pass mode.
#[derive(Debug)]
pub enum Mode<'r> {
    /// Inference: dropout disabled.
    Eval,
    /// Training: dropout masks drawn from the given RNG.
    Train(&'r mut StdRng),
}

/// The hw2vec model: parameters plus architecture.
///
/// # Examples
///
/// ```
/// use gnn4ip_nn::{Hw2Vec, Hw2VecConfig, GraphInput};
/// use gnn4ip_dfg::graph_from_verilog;
///
/// let model = Hw2Vec::new(Hw2VecConfig::default(), 7);
/// let g = graph_from_verilog(
///     "module inv(input a, output y); assign y = ~a; endmodule", None)?;
/// let h = model.embed(&GraphInput::from_dfg(&g));
/// assert_eq!(h.len(), 16);
/// # Ok::<(), gnn4ip_hdl::ParseVerilogError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Hw2Vec {
    config: Hw2VecConfig,
    params: ParamStore,
    layer_w: Vec<ParamId>,
    /// SAGE neighbor weights (empty for GCN).
    layer_w2: Vec<ParamId>,
    layer_b: Vec<ParamId>,
    score_w: ParamId,
    score_b: ParamId,
}

impl Hw2Vec {
    /// Creates a model with Glorot-initialized weights from a seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero layers or zero hidden units.
    pub fn new(config: Hw2VecConfig, seed: u64) -> Self {
        assert!(config.layers >= 1, "at least one GCN layer required");
        assert!(config.hidden >= 1, "hidden width must be positive");
        assert!(
            config.pool_ratio > 0.0 && config.pool_ratio <= 1.0,
            "pool ratio must be in (0, 1]"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamStore::new();
        let mut layer_w = Vec::new();
        let mut layer_w2 = Vec::new();
        let mut layer_b = Vec::new();
        for l in 0..config.layers {
            let fan_in = if l == 0 {
                config.input_dim
            } else {
                config.hidden
            };
            layer_w.push(params.add_glorot(format!("conv{l}.w"), fan_in, config.hidden, &mut rng));
            if config.conv == ConvKind::Sage {
                layer_w2.push(params.add_glorot(
                    format!("conv{l}.w_neigh"),
                    fan_in,
                    config.hidden,
                    &mut rng,
                ));
            }
            layer_b.push(params.add(format!("conv{l}.b"), Matrix::zeros(1, config.hidden)));
        }
        let score_w = params.add_glorot("pool.score.w", config.hidden, 1, &mut rng);
        let score_b = params.add("pool.score.b", Matrix::zeros(1, 1));
        Self {
            config,
            params,
            layer_w,
            layer_w2,
            layer_b,
            score_w,
            score_b,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &Hw2VecConfig {
        &self.config
    }

    /// The parameter store (for optimizers).
    pub fn params(&self) -> &ParamStore {
        &self.params
    }

    /// Mutable parameter store (for optimizers).
    pub fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.params
    }

    /// Records the hw2vec forward pass on `tape`, returning the `1 x hidden`
    /// graph embedding variable.
    ///
    /// `param_vars` must come from `self.params().inject(tape)`.
    pub fn forward<'t>(
        &self,
        _tape: &'t Tape,
        param_vars: &[Var<'t>],
        graph: &GraphInput,
        mode: &mut Mode<'_>,
    ) -> Var<'t> {
        // --- message propagation: L conv layers (Eq. 5 for GCN; Eqs. 1-2
        // mean-AGGREGATE/COMBINE for SAGE) ---
        // ReLU + dropout between layers; the final layer stays linear so
        // embeddings keep signed components (an all-ReLU stack collapses the
        // cosine objective toward the zero vector — see DESIGN.md).
        // First layer exploits one-hot features: X W = W[kinds].
        let last = self.config.layers - 1;
        let w0 = param_vars[self.layer_w[0].index()];
        let mut h = match self.config.conv {
            ConvKind::Gcn => w0.select_rows(&graph.kinds).spmm(&graph.adj),
            ConvKind::Sage => {
                let wn = param_vars[self.layer_w2[0].index()];
                w0.select_rows(&graph.kinds)
                    .add(wn.select_rows(&graph.kinds).spmm(graph.mean_adj()))
            }
        };
        h = h.add_bias(param_vars[self.layer_b[0].index()]);
        if last > 0 {
            h = self.maybe_dropout(h.relu(), mode);
        }
        for l in 1..self.config.layers {
            let w = param_vars[self.layer_w[l].index()];
            let b = param_vars[self.layer_b[l].index()];
            h = match self.config.conv {
                ConvKind::Gcn => h.matmul(w).spmm(&graph.adj),
                ConvKind::Sage => {
                    let wn = param_vars[self.layer_w2[l].index()];
                    h.matmul(w).add(h.spmm(graph.mean_adj()).matmul(wn))
                }
            };
            h = h.add_bias(b);
            if l < last {
                h = self.maybe_dropout(h.relu(), mode);
            }
        }

        // --- self-attention graph pooling (top-k, GCN scorer) ---
        let sw = param_vars[self.score_w.index()];
        let sb = param_vars[self.score_b.index()];
        let score = h.matmul(sw).spmm(&graph.adj).add_bias(sb);
        let alpha = score.tanh();
        let idx = top_k_indices(&alpha.value(), self.config.pool_ratio);
        let h_pool = h.select_rows(&idx).mul_col(alpha.select_rows(&idx));

        // --- graph readout ---
        match self.config.readout {
            Readout::Max => h_pool.readout_max(),
            Readout::Mean => h_pool.readout_mean(),
            Readout::Sum => h_pool.readout_sum(),
        }
    }

    fn maybe_dropout<'t>(&self, h: Var<'t>, mode: &mut Mode<'_>) -> Var<'t> {
        match mode {
            Mode::Eval => h,
            Mode::Train(rng) => {
                if self.config.dropout <= 0.0 {
                    return h;
                }
                let (r, c) = h.shape();
                let p = self.config.dropout;
                let mask: Vec<bool> = (0..r * c).map(|_| rng.gen::<f32>() >= p).collect();
                h.dropout(&mask, p)
            }
        }
    }

    /// Tape-free forward pass for inference.
    ///
    /// Produces the same embedding as the tape-backed
    /// [`forward`](Hw2Vec::forward) in [`Mode::Eval`] — bit for bit; the two
    /// paths share every compute kernel — but records nothing, clones no
    /// parameters, and draws all scratch from `ws`, so a warm workspace
    /// serves the whole pass without allocating.
    pub fn forward_infer(&self, graph: &GraphInput, ws: &mut Workspace) -> Vec<f32> {
        let n = graph.node_count();
        let hidden = self.config.hidden;
        let last = self.config.layers - 1;

        // --- message propagation (mirrors `forward`, eval mode) ---
        // First layer exploits one-hot features: X W = W[kinds].
        let mut gathered = ws.acquire(n, hidden);
        self.params
            .get(self.layer_w[0])
            .select_rows_into(&graph.kinds, &mut gathered);
        let mut h = ws.acquire(n, hidden);
        match self.config.conv {
            ConvKind::Gcn => graph.adj.spmm_into(&gathered, &mut h),
            ConvKind::Sage => {
                let mut gn = ws.acquire(n, hidden);
                self.params
                    .get(self.layer_w2[0])
                    .select_rows_into(&graph.kinds, &mut gn);
                graph.mean_adj().spmm_into(&gn, &mut h);
                h.add_assign(&gathered);
                ws.release(gn);
            }
        }
        h.add_row_broadcast_assign(self.params.get(self.layer_b[0]));
        if last > 0 {
            h.map_assign(|v| v.max(0.0));
        }
        let mut tmp = gathered; // recycle: same n x hidden shape
        for l in 1..self.config.layers {
            let w = self.params.get(self.layer_w[l]);
            match self.config.conv {
                ConvKind::Gcn => {
                    h.matmul_into(w, &mut tmp); // tmp = H W
                    graph.adj.spmm_into(&tmp, &mut h); // h = Â (H W)
                }
                ConvKind::Sage => {
                    h.matmul_into(w, &mut tmp); // tmp = H W_self
                    let mut agg = ws.acquire(n, hidden);
                    graph.mean_adj().spmm_into(&h, &mut agg); // agg = mean_N(H)
                    agg.matmul_into(self.params.get(self.layer_w2[l]), &mut h);
                    h.add_assign(&tmp); // h = H W_self + agg W_neigh
                    ws.release(agg);
                }
            }
            h.add_row_broadcast_assign(self.params.get(self.layer_b[l]));
            if l < last {
                h.map_assign(|v| v.max(0.0));
            }
        }

        // --- self-attention graph pooling (top-k, GCN scorer) ---
        let mut score = ws.acquire(n, 1);
        h.matmul_into(self.params.get(self.score_w), &mut score);
        let mut alpha = ws.acquire(n, 1);
        graph.adj.spmm_into(&score, &mut alpha);
        alpha.add_row_broadcast_assign(self.params.get(self.score_b));
        alpha.map_assign(f32::tanh);
        let mut order = ws.acquire_idx();
        let mut idx = ws.acquire_idx();
        top_k_into(&alpha, self.config.pool_ratio, &mut order, &mut idx);

        // --- X_pool = H[idx] ⊙ α[idx], then graph readout ---
        let mut pooled = ws.acquire(idx.len(), hidden);
        for (to, &from) in idx.iter().enumerate() {
            let a = alpha.get(from, 0);
            for (d, &s) in pooled.row_mut(to).iter_mut().zip(h.row(from)) {
                *d = s * a;
            }
        }
        let mut out = ws.acquire(1, hidden);
        readout_into(&pooled, self.config.readout, &mut out);
        let embedding = out.row(0).to_vec();

        ws.release(out);
        ws.release(pooled);
        ws.release(alpha);
        ws.release(score);
        ws.release(tmp);
        ws.release(h);
        ws.release_idx(idx);
        ws.release_idx(order);
        embedding
    }

    /// Computes the graph embedding in inference mode (tape-free, with
    /// per-thread scratch reuse).
    pub fn embed(&self, graph: &GraphInput) -> Vec<f32> {
        EMBED_WS.with(|ws| self.forward_infer(graph, &mut ws.borrow_mut()))
    }

    /// Embeds every graph, fanning chunks across scoped worker threads —
    /// the batched inference entry point. Each worker owns one warm
    /// [`Workspace`], so a batch of `m` graphs costs `m` tape-free forward
    /// passes and at most one buffer warm-up per worker.
    pub fn embed_batch(&self, graphs: &[GraphInput]) -> Vec<Vec<f32>> {
        fan_out(graphs, 0, |_tid, chunk| {
            let mut ws = Workspace::new();
            chunk
                .iter()
                .map(|g| self.forward_infer(g, &mut ws))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Cosine similarity of two graphs' embeddings (Eq. 6), in `[-1, 1]`.
    pub fn similarity(&self, a: &GraphInput, b: &GraphInput) -> f32 {
        crate::trainer::cosine_of(&self.embed(a), &self.embed(b))
    }

    /// Serializes config + weights to the binary artifact format
    /// (see `gnn4ip_tensor`'s serialization module: magic/version/kind
    /// header, little-endian `f32` payload, FNV-1a content checksum).
    ///
    /// Weights round-trip **bit-exactly** through
    /// [`from_bytes`](Hw2Vec::from_bytes): a loaded model produces
    /// bit-identical embeddings.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = BinWriter::new(MODEL_KIND);
        w.len_of(self.config.input_dim);
        w.len_of(self.config.hidden);
        w.len_of(self.config.layers);
        w.f32(self.config.pool_ratio);
        w.f32(self.config.dropout);
        w.str(self.config.readout.tag());
        w.str(self.config.conv.tag());
        w.len_of(self.params.len());
        for (name, m) in self.params.iter() {
            w.str(name);
            w.matrix(m);
        }
        w.finish()
    }

    /// Deserializes a model written by [`Hw2Vec::to_bytes`], validating
    /// the checksum, architecture, parameter names, and shapes.
    ///
    /// # Errors
    ///
    /// Returns a description of the first corrupt or mismatched section.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let mut r = BinReader::open(bytes, MODEL_KIND)?;
        let config = Hw2VecConfig {
            input_dim: r.len_of()?,
            hidden: r.len_of()?,
            layers: r.len_of()?,
            pool_ratio: r.f32()?,
            dropout: r.f32()?,
            readout: Readout::from_tag(&r.str()?).ok_or("bad readout tag")?,
            conv: ConvKind::from_tag(&r.str()?).ok_or("bad conv tag")?,
        };
        check_config(&config)?;
        // The checksum is integrity, not authentication: bound the declared
        // architecture against the payload that must carry its weights
        // BEFORE allocating anything, so a forged dims field returns Err
        // instead of a multi-exabyte allocation or a near-infinite loop.
        let min_weights = weight_count(&config)
            .ok_or_else(|| "model file declares an overflowing architecture".to_string())?;
        if min_weights.checked_mul(4).is_none_or(|b| b > r.remaining()) {
            return Err(format!(
                "model file declares {min_weights} weights but carries only {} payload bytes",
                r.remaining()
            ));
        }
        let mut model = Hw2Vec::new(config, 0);
        let n = r.len_of()?;
        if n != model.params.len() {
            return Err(format!(
                "parameter count mismatch: file has {n}, architecture needs {}",
                model.params.len()
            ));
        }
        let expected: Vec<(String, (usize, usize))> = model
            .params
            .iter()
            .map(|(name, m)| (name.to_string(), m.shape()))
            .collect();
        for ((name, shape), slot) in expected.iter().zip(model.params.values_mut()) {
            let file_name = r.str()?;
            if &file_name != name {
                return Err(format!(
                    "parameter order mismatch: expected '{name}', file has '{file_name}'"
                ));
            }
            let m = r.matrix()?;
            if m.shape() != *shape {
                return Err(format!(
                    "parameter '{name}' has shape {:?}, architecture needs {shape:?}",
                    m.shape()
                ));
            }
            check_finite(name, &m)?;
            *slot = m;
        }
        r.done()?;
        Ok(model)
    }

    /// Writes the binary model artifact to `path` (atomic: temp file +
    /// rename).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error as text.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), String> {
        write_artifact(path.as_ref(), &self.to_bytes())
    }

    /// Loads a binary model artifact written by [`Hw2Vec::save`].
    ///
    /// # Errors
    ///
    /// Returns I/O or format errors as text.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, String> {
        Self::from_bytes(&read_artifact(path.as_ref())?)
    }

    /// FNV-1a checksum over the serialized config + weights — the
    /// identity a saved embedding index is pinned to, so stale embeddings
    /// are never served for different weights.
    pub fn weights_checksum(&self) -> u64 {
        fnv1a64(&self.to_bytes())
    }
}

/// Refuses an architecture [`Hw2Vec::new`] cannot build, or one no graph
/// can run: the first layer's weight rows are indexed by node kind, so
/// `input_dim` must be the node-kind vocabulary size.
fn check_config(config: &Hw2VecConfig) -> Result<(), String> {
    if config.input_dim != gnn4ip_dfg::VOCAB_SIZE {
        return Err(format!(
            "model file declares input_dim {}; graphs carry {} node kinds",
            config.input_dim,
            gnn4ip_dfg::VOCAB_SIZE
        ));
    }
    if config.hidden == 0 {
        return Err("model file declares hidden 0".to_string());
    }
    if config.layers == 0 {
        return Err("model file declares layers 0".to_string());
    }
    if !(config.pool_ratio > 0.0 && config.pool_ratio <= 1.0) {
        return Err(format!("bad pool ratio {}", config.pool_ratio));
    }
    Ok(())
}

/// Refuses a weight matrix holding NaN or ±inf: one such weight turns
/// every embedding NaN, and a detector serving NaN embeddings clears
/// every suspect.
fn check_finite(name: &str, m: &Matrix) -> Result<(), String> {
    match m.as_slice().iter().find(|v| !v.is_finite()) {
        Some(v) => Err(format!("parameter '{name}' holds a non-finite weight {v}")),
        None => Ok(()),
    }
}

/// Total scalar weight count of an architecture, without building it
/// (checked: `None` on overflow). Mirrors the parameter registration in
/// [`Hw2Vec::new`].
fn weight_count(config: &Hw2VecConfig) -> Option<usize> {
    let per_conv = if config.conv == ConvKind::Sage { 2 } else { 1 };
    let mut total = 0usize;
    for l in 0..config.layers {
        let fan_in = if l == 0 {
            config.input_dim
        } else {
            config.hidden
        };
        let w = fan_in.checked_mul(config.hidden)?.checked_mul(per_conv)?;
        total = total.checked_add(w)?.checked_add(config.hidden)?;
    }
    // pool scorer: hidden x 1 weight + 1 x 1 bias
    total.checked_add(config.hidden)?.checked_add(1)
}

/// Indices of the top `ceil(ratio * n)` rows of an `n x 1` score column,
/// by descending score (ties broken by node id for determinism), in
/// ascending node order. `-0.0` ties `+0.0`; NaN ranks below every number.
pub fn top_k_indices(alpha: &Matrix, ratio: f32) -> Vec<usize> {
    let mut order = Vec::new();
    let mut idx = Vec::new();
    top_k_into(alpha, ratio, &mut order, &mut idx);
    idx
}

/// [`top_k_indices`] into caller-provided (cleared) scratch, so the
/// inference path can reuse index buffers across passes. Only the kept
/// set matters, so the best `k` are selected, not sorted.
fn top_k_into(alpha: &Matrix, ratio: f32, order: &mut Vec<usize>, idx: &mut Vec<usize>) {
    let n = alpha.rows();
    let k = ((ratio * n as f32).ceil() as usize).clamp(1, n);
    order.clear();
    order.extend(0..n);
    if k < n {
        order.select_nth_unstable_by(k - 1, |&a, &b| pool_rank(alpha, a, b));
    }
    idx.clear();
    idx.extend_from_slice(&order[..k]);
    // preserve original node order inside the pool (stability for spmm reuse)
    idx.sort_unstable();
}

/// The pooling order of nodes `a` and `b`: descending score, NaN last,
/// then ascending node id. A total order, so every node has one rank and
/// the best `k` are one set however they are found.
fn pool_rank(alpha: &Matrix, a: usize, b: usize) -> std::cmp::Ordering {
    let (sa, sb) = (alpha.get(a, 0), alpha.get(b, 0));
    sb.partial_cmp(&sa)
        .unwrap_or_else(|| sa.is_nan().cmp(&sb.is_nan()))
        .then(a.cmp(&b))
}

/// Writes the graph readout of `pooled` (`k x c`) into the `1 x c` buffer
/// `out`, replicating the column reductions of the tape ops exactly.
fn readout_into(pooled: &Matrix, readout: Readout, out: &mut Matrix) {
    let (rows, cols) = pooled.shape();
    debug_assert!(rows > 0, "readout on empty pool");
    debug_assert_eq!(out.shape(), (1, cols));
    match readout {
        Readout::Max => {
            out.row_mut(0).copy_from_slice(pooled.row(0));
            for r in 1..rows {
                for (m, &v) in out.row_mut(0).iter_mut().zip(pooled.row(r)) {
                    if v > *m {
                        *m = v;
                    }
                }
            }
        }
        Readout::Mean | Readout::Sum => {
            out.as_mut_slice().fill(0.0);
            for r in 0..rows {
                for (s, &v) in out.row_mut(0).iter_mut().zip(pooled.row(r)) {
                    *s += v;
                }
            }
            if readout == Readout::Mean {
                let inv = 1.0 / rows as f32;
                out.map_assign(|v| v * inv);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn4ip_dfg::{Dfg, NodeKind};

    fn graph(n_extra: usize) -> GraphInput {
        let mut g = Dfg::new("g");
        let y = g.add_node(NodeKind::Output, "y");
        let op = g.add_node(NodeKind::Xor, "xor");
        let a = g.add_node(NodeKind::Input, "a");
        g.add_edge(y, op);
        g.add_edge(op, a);
        let mut prev = a;
        for i in 0..n_extra {
            let w = g.add_node(NodeKind::And, format!("n{i}"));
            g.add_edge(prev, w);
            prev = w;
        }
        g.add_root(y);
        GraphInput::from_dfg(&g)
    }

    #[test]
    fn embedding_has_hidden_width() {
        let m = Hw2Vec::new(Hw2VecConfig::default(), 1);
        let e = m.embed(&graph(5));
        assert_eq!(e.len(), 16);
        assert!(e.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn identical_graphs_have_similarity_one() {
        let m = Hw2Vec::new(Hw2VecConfig::default(), 2);
        let g = graph(4);
        let s = m.similarity(&g, &g);
        assert!((s - 1.0).abs() < 1e-5, "self-similarity {s}");
    }

    #[test]
    fn similarity_is_symmetric() {
        let m = Hw2Vec::new(Hw2VecConfig::default(), 3);
        let (a, b) = (graph(2), graph(9));
        assert!((m.similarity(&a, &b) - m.similarity(&b, &a)).abs() < 1e-5);
    }

    #[test]
    fn embedding_is_permutation_invariant() {
        // Build the same graph with nodes declared in a different order: the
        // readout over GCN features must not change.
        let m = Hw2Vec::new(Hw2VecConfig::default(), 4);
        let mut g1 = Dfg::new("p1");
        let y1 = g1.add_node(NodeKind::Output, "y");
        let op1 = g1.add_node(NodeKind::Xor, "x");
        let a1 = g1.add_node(NodeKind::Input, "a");
        g1.add_edge(y1, op1);
        g1.add_edge(op1, a1);
        g1.add_root(y1);

        let mut g2 = Dfg::new("p2");
        let a2 = g2.add_node(NodeKind::Input, "a");
        let op2 = g2.add_node(NodeKind::Xor, "x");
        let y2 = g2.add_node(NodeKind::Output, "y");
        g2.add_edge(y2, op2);
        g2.add_edge(op2, a2);
        g2.add_root(y2);

        let e1 = m.embed(&GraphInput::from_dfg(&g1));
        let e2 = m.embed(&GraphInput::from_dfg(&g2));
        for (x, y) in e1.iter().zip(&e2) {
            assert!((x - y).abs() < 1e-5, "{e1:?} vs {e2:?}");
        }
    }

    #[test]
    fn top_k_keeps_best_scores() {
        let alpha = Matrix::from_vec(4, 1, vec![0.1, 0.9, -0.5, 0.4]);
        let idx = top_k_indices(&alpha, 0.5);
        assert_eq!(idx, vec![1, 3]);
    }

    #[test]
    fn top_k_keeps_at_least_one() {
        let alpha = Matrix::from_vec(1, 1, vec![0.0]);
        assert_eq!(top_k_indices(&alpha, 0.01), vec![0]);
    }

    /// Pooling as it was before selection: sort every node by descending
    /// score (`-0.0` ties `+0.0`), ties by node id, and keep the first
    /// `k`. NaN scores, which that comparator could not order, go last.
    fn full_sort_top_k(scores: &[f32], ratio: f32) -> Vec<usize> {
        let n = scores.len();
        let k = ((ratio * n as f32).ceil() as usize).clamp(1, n);
        let (mut order, nans): (Vec<usize>, Vec<usize>) =
            (0..n).partition(|&i| !scores[i].is_nan());
        order.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        order.extend(nans);
        let mut idx = order[..k].to_vec();
        idx.sort_unstable();
        idx
    }

    /// Random score columns with `nan_share` of NaNs and the rest from a
    /// small palette, so ties (`±0.0` among them) are common.
    fn assert_selection_matches_full_sort(seed: u64, columns: usize, nan_share: f64) {
        const PALETTE: [f32; 7] = [0.0, -0.0, 0.5, -0.25, 1.0, 0.25, -0.75];
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..columns {
            let n = rng.gen_range(1..=300usize);
            let colors = rng.gen_range(1..=PALETTE.len());
            let scores: Vec<f32> = (0..n)
                .map(|_| {
                    if rng.gen_bool(nan_share) {
                        f32::NAN
                    } else {
                        PALETTE[rng.gen_range(0..colors)]
                    }
                })
                .collect();
            let ratio = 1.0 - rng.gen::<f32>(); // (0, 1]
            let alpha = Matrix::from_vec(n, 1, scores.clone());
            assert_eq!(
                top_k_indices(&alpha, ratio),
                full_sort_top_k(&scores, ratio),
                "ratio {ratio}, scores {scores:?}"
            );
        }
    }

    #[test]
    fn top_k_selection_keeps_what_the_full_sort_kept() {
        assert_selection_matches_full_sort(0x51de, 2000, 0.0);
        let signed_zeros = Matrix::from_vec(4, 1, vec![0.0, -0.0, -0.0, 0.0]);
        assert_eq!(top_k_indices(&signed_zeros, 0.5), vec![0, 1]);
    }

    #[test]
    fn top_k_ranks_nan_scores_last_without_panicking() {
        assert_selection_matches_full_sort(0x7a7a, 800, 0.3);
        let alpha = Matrix::from_vec(4, 1, vec![f32::NAN, -1.0, f32::NAN, f32::NEG_INFINITY]);
        assert_eq!(top_k_indices(&alpha, 0.5), vec![1, 3]);
        assert_eq!(top_k_indices(&alpha, 0.75), vec![0, 1, 3]);
    }

    #[test]
    fn readout_variants_differ() {
        let g = graph(6);
        let mk = |ro| {
            let cfg = Hw2VecConfig {
                readout: ro,
                ..Hw2VecConfig::default()
            };
            Hw2Vec::new(cfg, 5).embed(&g)
        };
        let (mx, mean, sum) = (mk(Readout::Max), mk(Readout::Mean), mk(Readout::Sum));
        assert_ne!(mx, mean);
        assert_ne!(mean, sum);
    }

    #[test]
    fn binary_roundtrip_is_bit_exact() {
        for conv in [ConvKind::Gcn, ConvKind::Sage] {
            let cfg = Hw2VecConfig {
                conv,
                ..Hw2VecConfig::default()
            };
            let m = Hw2Vec::new(cfg, 51);
            let bytes = m.to_bytes();
            let m2 = Hw2Vec::from_bytes(&bytes).expect("loads");
            assert_eq!(m2.to_bytes(), bytes, "save→load→save drifted");
            let g = graph(6);
            let (e1, e2) = (m.embed(&g), m2.embed(&g));
            let b1: Vec<u32> = e1.iter().map(|v| v.to_bits()).collect();
            let b2: Vec<u32> = e2.iter().map(|v| v.to_bits()).collect();
            assert_eq!(b1, b2, "loaded model embeds differently");
            assert_eq!(m.weights_checksum(), m2.weights_checksum());
        }
    }

    #[test]
    fn from_bytes_rejects_corruption_and_mismatch() {
        let m = Hw2Vec::new(Hw2VecConfig::default(), 52);
        let bytes = m.to_bytes();
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 1;
        assert!(Hw2Vec::from_bytes(&flipped).is_err(), "corruption accepted");
        assert!(Hw2Vec::from_bytes(&[]).is_err());
        assert!(Hw2Vec::from_bytes(b"not an artifact at all").is_err());
    }

    #[test]
    fn save_load_file_roundtrip() {
        let m = Hw2Vec::new(Hw2VecConfig::default(), 53);
        let dir = std::env::temp_dir().join(format!("gnn4ip-model-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("model.bin");
        m.save(&path).expect("saves");
        let m2 = Hw2Vec::load(&path).expect("loads");
        assert_eq!(m2.to_bytes(), m.to_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_load_roundtrip_preserves_embeddings() {
        let m = Hw2Vec::new(Hw2VecConfig::default(), 6);
        let g = graph(3);
        let m2 = Hw2Vec::from_bytes(&m.to_bytes()).expect("loads");
        assert_eq!(m.embed(&g), m2.embed(&g));
    }

    #[test]
    fn train_mode_dropout_changes_activations() {
        let cfg = Hw2VecConfig {
            dropout: 0.5,
            ..Hw2VecConfig::default()
        };
        let m = Hw2Vec::new(cfg, 7);
        let g = graph(10);
        let tape = Tape::new();
        let vars = m.params().inject(&tape);
        let mut rng = StdRng::seed_from_u64(1);
        let h_train = m
            .forward(&tape, &vars, &g, &mut Mode::Train(&mut rng))
            .value();
        let h_eval = m.forward(&tape, &vars, &g, &mut Mode::Eval).value();
        assert_ne!(h_train, h_eval);
    }

    #[test]
    fn sage_conv_embeds_and_roundtrips() {
        let cfg = Hw2VecConfig {
            conv: ConvKind::Sage,
            ..Hw2VecConfig::default()
        };
        let m = Hw2Vec::new(cfg, 21);
        let g = graph(5);
        let e = m.embed(&g);
        assert_eq!(e.len(), 16);
        assert!(e.iter().all(|v| v.is_finite()));
        let m2 = Hw2Vec::from_bytes(&m.to_bytes()).expect("loads");
        assert_eq!(m2.config().conv, ConvKind::Sage);
        assert_eq!(m.embed(&g), m2.embed(&g));
    }

    #[test]
    fn sage_and_gcn_differ() {
        let g = graph(6);
        let gcn = Hw2Vec::new(Hw2VecConfig::default(), 22).embed(&g);
        let sage = Hw2Vec::new(
            Hw2VecConfig {
                conv: ConvKind::Sage,
                ..Hw2VecConfig::default()
            },
            22,
        )
        .embed(&g);
        assert_ne!(gcn, sage);
    }

    /// Tape-backed eval-mode embedding, for equivalence tests.
    fn embed_via_tape(m: &Hw2Vec, g: &GraphInput) -> Vec<f32> {
        let tape = Tape::new();
        let vars = m.params().inject(&tape);
        m.forward(&tape, &vars, g, &mut Mode::Eval)
            .value()
            .into_vec()
    }

    #[test]
    fn forward_infer_matches_tape_forward_bitwise() {
        for conv in [ConvKind::Gcn, ConvKind::Sage] {
            for readout in [Readout::Max, Readout::Mean, Readout::Sum] {
                for layers in [1usize, 2, 3] {
                    let cfg = Hw2VecConfig {
                        conv,
                        readout,
                        layers,
                        ..Hw2VecConfig::default()
                    };
                    let m = Hw2Vec::new(cfg, 41);
                    let g = graph(7);
                    let mut ws = Workspace::new();
                    let fast = m.forward_infer(&g, &mut ws);
                    let slow = embed_via_tape(&m, &g);
                    assert_eq!(
                        fast, slow,
                        "mismatch for {conv:?}/{readout:?}/{layers} layers"
                    );
                }
            }
        }
    }

    #[test]
    fn forward_infer_reuses_workspace_without_allocating() {
        let m = Hw2Vec::new(Hw2VecConfig::default(), 42);
        let g = graph(20);
        let mut ws = Workspace::new();
        let first = m.forward_infer(&g, &mut ws);
        let warm = ws.allocations();
        for _ in 0..5 {
            assert_eq!(m.forward_infer(&g, &mut ws), first);
        }
        // smaller graph must also be served from the warm pool
        let _ = m.forward_infer(&graph(3), &mut ws);
        assert_eq!(ws.allocations(), warm, "warm workspace re-allocated");
    }

    #[test]
    fn embed_batch_matches_sequential_embed() {
        let m = Hw2Vec::new(Hw2VecConfig::default(), 43);
        let graphs: Vec<GraphInput> = (0..13).map(|i| graph(i % 5)).collect();
        let batch = m.embed_batch(&graphs);
        assert_eq!(batch.len(), graphs.len());
        for (b, g) in batch.iter().zip(&graphs) {
            assert_eq!(b, &m.embed(g));
        }
    }

    #[test]
    fn single_layer_config_works() {
        let cfg = Hw2VecConfig {
            layers: 1,
            ..Hw2VecConfig::default()
        };
        let m = Hw2Vec::new(cfg, 8);
        assert_eq!(m.embed(&graph(2)).len(), 16);
    }
}
