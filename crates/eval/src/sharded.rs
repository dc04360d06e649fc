//! A sharded, persistent, read-mostly embedding index for corpus-scale
//! retrieval and concurrent serving.
//!
//! The flat [`EmbeddingIndex`] is the right shape for a few thousand
//! embeddings: one contiguous matrix, one gemm. The deployment the paper's
//! §IV-C motivates — embed every owned IP once, then answer "what is this
//! suspect closest to?" forever — outgrows it in three ways: the corpus
//! arrives *incrementally* (designs stream in; rebuilding a monolithic
//! matrix per insert is quadratic), it must *outlive the process* (an
//! index that vanishes on exit re-embeds the world on every restart), and
//! it must keep *serving queries while it grows* (a monolithic `&mut`
//! structure blocks every reader for the duration of an ingest).
//!
//! [`ShardedEmbeddingIndex`] stores row-normalized embeddings in
//! fixed-capacity shards with a sealed/tail split: every full shard is an
//! immutable, `Arc`-shared [`SealedShard`] carrying precomputed score
//! bounds (centroid, covering radius, max row norm), and exactly one open
//! *tail* shard sits behind the mutable insert path. Because the sealed
//! prefix is immutable, [`snapshot`](ShardedEmbeddingIndex::snapshot) is
//! cheap — it bumps one `Arc` per sealed shard and copies only the tail —
//! and a snapshot serves queries forever without seeing (or blocking)
//! later inserts.
//!
//! Every query goes through one walk,
//! [`query_many`](ShardedEmbeddingIndex::query_many); a single query is a
//! batch of one. Sealed shards store their f32 rows *dim-major* (component
//! `t` of row `j` at `[t * rows + j]`), and one kernel scores 32 rows per
//! tile straight into a running top-k per query, so a row below the
//! query's current k-th best score costs its multiply-adds and one
//! compare. Sealed shards whose *best possible* score (from the
//! centroid/radius bound) cannot beat the query's current top-k floor are
//! skipped without touching a row, and on corpora large enough to be
//! worth threading the surviving shard scans fan out across workers via
//! [`fan_out`]. Results are **bit-identical** to the flat index whatever
//! the options and whatever else the batch holds (property tests in
//! `tests/properties.rs` hold this line): every kernel entry accumulates
//! in the flat index's `score_row` order, pruning only discards shards
//! whose rows provably lose, and the top-k keeps
//! [`EmbeddingIndex`]'s rank order (score, then insertion index) whatever
//! order rows arrive in. Byte formats and row readers see row-major order.
//!
//! **Routing** kicks in at corpus scale (≥ 100k rows): bound pruning only
//! bites when shards are internally coherent, which arrival order does
//! not guarantee; [`rebalance`](ShardedEmbeddingIndex::rebalance) learns
//! k-means-style centroids from the sealed rows and rebuilds the sealed
//! region in cluster order, so the descending-bound walk behaves like an
//! IVF probe of the nearest-centroid shards regardless of how the corpus
//! arrived.
//!
//! The index persists, with its [`NameLog`](crate::NameLog), as a
//! corpus checkpoint directory
//! ([`checkpoint_dir`](ShardedEmbeddingIndex::checkpoint_dir) /
//! [`load_dir`](ShardedEmbeddingIndex::load_dir)) pinned to the checksum
//! of the model weights that produced the embeddings: each sealed shard
//! is written once, as a content-addressed file with its bounds, so a
//! checkpoint writes only the shards sealed since the last one.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use gnn4ip_tensor::{fan_out, worker_count, Fnv64};

use crate::index::{normalize_into, query_norm, EmbeddingIndex, QueryHit};

/// Minimum number of indexed rows before a query at `threads: 0` (the
/// [`QueryOptions`] default) fans per-shard scans across worker threads.
/// Below this, thread spawn/join overhead dwarfs the scan itself and
/// queries stay single-threaded.
pub const PARALLEL_QUERY_MIN_ROWS: usize = 1 << 17;

/// Additive slack applied to a sealed shard's score bound before it is
/// compared against the current top-k floor. The centroid/radius bound
/// holds in exact arithmetic; this slack absorbs f32 rounding in both the
/// bound and the per-row scores, so pruning can never discard a true
/// top-k hit. Scores live in `[-1, 1]` and the accumulated rounding error
/// of a `dim`-term dot product of unit vectors is bounded well below
/// `1e-5` for any practical `dim`, so `1e-4` is a wide margin — and the
/// flat/sharded bit-identity proptest holds the line empirically.
const PRUNE_SLACK: f32 = 1e-4;

/// Largest component magnitude a stored row may hold: rows are
/// normalized on insert (or zeroed), so no component exceeds 1 beyond
/// rounding. Loaders refuse anything else, which keeps every score
/// finite (see [`TopK`]).
const MAX_ROW_COMPONENT: f32 = 1.0 + 1e-6;

/// Refuses rows no [`ShardedEmbeddingIndex::insert`] can store: reports
/// the first non-finite component, or one beyond ±[`MAX_ROW_COMPONENT`],
/// of the row-major `rows` (`dim` components each) with its row.
pub(crate) fn check_rows(rows: impl IntoIterator<Item = f32>, dim: usize) -> Result<(), String> {
    let bad = |&(_, v): &(usize, f32)| !(v.is_finite() && v.abs() <= MAX_ROW_COMPONENT);
    match rows.into_iter().enumerate().find(bad) {
        Some((pos, v)) => Err(format!(
            "row {} holds component {v}, which no normalized row has",
            pos / dim
        )),
        None => Ok(()),
    }
}

/// The open tail shard: the one mutable block of the index. Holds
/// `0..capacity` rows; sealing moves its storage into a [`SealedShard`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Shard {
    /// Row-major `len x dim` normalized rows.
    pub(crate) data: Vec<f32>,
    pub(crate) labels: Vec<usize>,
}

impl Shard {
    pub(crate) fn new(capacity_hint: usize, dim: usize) -> Self {
        Self {
            data: Vec::with_capacity(capacity_hint * dim),
            labels: Vec::with_capacity(capacity_hint),
        }
    }

    fn len(&self) -> usize {
        self.labels.len()
    }
}

/// Writes `n` rows of `dim` components into `out` in dim-major order,
/// component `t` of row `j` at `out[t * n + j]`, reading row `j` through
/// `row(j)`. Rows go [`TILE`] at a time, so every write fills a contiguous
/// run while the tile's source rows stay in cache.
fn write_dim_major<'r>(n: usize, dim: usize, out: &mut Vec<f32>, row: impl Fn(usize) -> &'r [f32]) {
    out.clear();
    out.resize(n * dim, 0.0);
    let mut j0 = 0;
    while j0 < n {
        let w = TILE.min(n - j0);
        // a short last tile repeats its last row; only `w` are written
        let rows: [&[f32]; TILE] = std::array::from_fn(|i| row(j0 + i.min(w - 1)));
        for t in 0..dim {
            let band = &mut out[t * n + j0..t * n + j0 + w];
            // a full tile's width is known at compile time, so it unrolls
            if let Ok(full) = <&mut [f32; TILE]>::try_from(&mut *band) {
                for (o, r) in full.iter_mut().zip(&rows) {
                    *o = r[t];
                }
            } else {
                for (o, r) in band.iter_mut().zip(&rows) {
                    *o = r[t];
                }
            }
        }
        j0 += w;
    }
}

/// [`write_dim_major`] of the row-major `rows` (`dim` components each).
fn to_dim_major(rows: &[f32], dim: usize, out: &mut Vec<f32>) {
    write_dim_major(rows.len() / dim, dim, out, |j| {
        &rows[j * dim..(j + 1) * dim]
    });
}

/// The components of a dim-major block of `rows` rows, in row-major
/// order — the order every byte format and row reader uses.
fn row_major(cols: &[f32], rows: usize) -> impl Iterator<Item = f32> + '_ {
    (0..rows).flat_map(move |j| cols[j..].iter().step_by(rows).copied())
}

/// One full, immutable, `Arc`-shared block of row-normalized embeddings,
/// carrying precomputed query-independent score bounds.
#[derive(Debug, PartialEq)]
pub(crate) struct SealedShard {
    /// Dim-major `dim x capacity` rows: component `t` of row `j` sits at
    /// `[t * capacity + j]`, so the scoring kernel reads each component
    /// of a tile of rows as one contiguous run. Transposed once, when the
    /// shard is sealed or loaded; every byte format and row reader sees
    /// row-major order through [`row_major`].
    pub(crate) rows: Vec<f32>,
    pub(crate) labels: Vec<usize>,
    /// Mean of the rows (not itself normalized).
    pub(crate) centroid: Vec<f32>,
    /// Covering radius: `max_i ‖rᵢ − centroid‖`.
    pub(crate) radius: f32,
    /// `max_i ‖rᵢ‖` — ~1 for normalized rows, 0 for all-zero shards.
    pub(crate) max_norm: f32,
    /// FNV-1a-64 over the stored labels + rows — the shard's content
    /// address in the append-only manifest layout.
    pub(crate) content_id: u64,
}

/// Bounds of one row block: `(centroid, radius, max_norm)` exactly as
/// [`SealedShard`] documents them.
fn compute_bounds(data: &[f32], dim: usize) -> (Vec<f32>, f32, f32) {
    let n = data.len() / dim;
    let mut centroid = vec![0.0f32; dim];
    for row in data.chunks_exact(dim) {
        for (c, &v) in centroid.iter_mut().zip(row) {
            *c += v;
        }
    }
    let inv = 1.0 / n as f32;
    for c in &mut centroid {
        *c *= inv;
    }
    let mut radius = 0.0f32;
    let mut max_norm = 0.0f32;
    for row in data.chunks_exact(dim) {
        let mut d2 = 0.0f32;
        let mut n2 = 0.0f32;
        for (&v, &c) in row.iter().zip(&centroid) {
            d2 += (v - c) * (v - c);
            n2 += v * v;
        }
        radius = radius.max(d2.sqrt());
        max_norm = max_norm.max(n2.sqrt());
    }
    (centroid, radius, max_norm)
}

/// Storage tag of f32 rows, the one row format: content ids hash it, and
/// the checkpoint manifest and every shard file carry it.
pub(crate) const F32_ROWS: u8 = 0;

/// Content address of a shard's stored payload: FNV-1a-64 over the
/// labels, the [`F32_ROWS`] tag and the exact row bytes in row-major
/// order. Two shards with the same id hold the same rows under the same
/// labels; the append-only layout names shard files by this id so an
/// unchanged shard is never rewritten.
fn content_id_of(cols: &[f32], labels: &[usize]) -> u64 {
    let mut h = Fnv64::new();
    for &l in labels {
        h.update(&(l as u64).to_le_bytes());
    }
    h.update(&[F32_ROWS]);
    for v in row_major(cols, labels.len()) {
        h.update(&v.to_bits().to_le_bytes());
    }
    h.finish()
}

impl SealedShard {
    /// Freezes a full tail shard: bounds are computed once from its rows,
    /// which are then transposed to dim-major.
    fn seal(shard: Shard, dim: usize) -> Self {
        debug_assert!(!shard.labels.is_empty(), "sealing an empty shard");
        let (centroid, radius, max_norm) = compute_bounds(&shard.data, dim);
        Self::from_parts(shard.data, shard.labels, dim, centroid, radius, max_norm)
    }

    /// Assembles a sealed shard from row-major parts with already computed
    /// (validated) bounds — the load path of a checkpoint's shard files. The
    /// rows are transposed to dim-major here.
    pub(crate) fn from_parts(
        data: Vec<f32>,
        labels: Vec<usize>,
        dim: usize,
        centroid: Vec<f32>,
        radius: f32,
        max_norm: f32,
    ) -> Self {
        let mut rows = Vec::new();
        to_dim_major(&data, dim, &mut rows);
        let content_id = content_id_of(&rows, &labels);
        Self {
            rows,
            labels,
            centroid,
            radius,
            max_norm,
            content_id,
        }
    }
}

/// An incrementally built, persistent, read-mostly index of row-normalized
/// embeddings: immutable `Arc`-shared sealed shards plus one open tail.
///
/// Scores, tie-breaking, and non-finite handling are identical to the flat
/// [`EmbeddingIndex`]; only the storage layout and algorithms differ.
/// [`snapshot`](ShardedEmbeddingIndex::snapshot) produces an independent
/// copy in `O(sealed shards + tail)` — not `O(rows)` — so a serving thread
/// can keep answering queries while a writer ingests.
///
/// # Examples
///
/// ```
/// use gnn4ip_eval::ShardedEmbeddingIndex;
///
/// let mut index = ShardedEmbeddingIndex::new(2, 2); // dim 2, 2 rows/shard
/// index.insert(&[1.0, 0.0], 0);
/// index.insert(&[0.9, 0.1], 0); // seals the first shard
/// index.insert(&[0.0, 2.0], 1); // opens the tail
/// assert_eq!(index.num_shards(), 2);
/// assert_eq!(index.num_sealed_shards(), 1);
/// let hits = index.query(&[1.0, 0.05], 2);
/// assert_eq!(hits[0].label, 0);
/// assert!(hits[0].score >= hits[1].score);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedEmbeddingIndex {
    pub(crate) dim: usize,
    pub(crate) shard_capacity: usize,
    /// Immutable full shards, cheaply shared between snapshots.
    pub(crate) sealed: Vec<Arc<SealedShard>>,
    /// The one mutable block: `0..shard_capacity` rows. Sealed eagerly the
    /// moment it fills, so it is never full between calls.
    pub(crate) tail: Shard,
}

/// Tuning knobs for [`ShardedEmbeddingIndex::query_opts`].
///
/// The defaults (used by [`ShardedEmbeddingIndex::query`]) enable bound
/// pruning and let the index decide the threading: one worker per core,
/// but only past [`PARALLEL_QUERY_MIN_ROWS`]. Whatever the options, query
/// *results* are bit-identical — only the work done to produce them
/// changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOptions {
    /// Skip sealed shards whose score bound cannot beat the query's
    /// floor: the worst score in its running top-k. Rows of a scanned
    /// shard that fall below that score cost one compare either way.
    pub prune: bool,
    /// Worker threads for the per-shard scans. `0` means one per core
    /// once the index holds [`PARALLEL_QUERY_MIN_ROWS`] rows, and the
    /// calling thread below that; `n ≥ 1` means exactly `n`, so a caller
    /// that is already one of many threads passes `1` and the scan never
    /// leaves its thread.
    pub threads: usize,
}

impl Default for QueryOptions {
    fn default() -> Self {
        Self {
            prune: true,
            threads: 0,
        }
    }
}

/// What the walk did for one query ([`ShardedEmbeddingIndex::query_opts`]
/// returns one, [`ShardedEmbeddingIndex::query_many`] one per query).
/// Results never depend on these numbers; they exist so benches and
/// operators can see pruning and threading actually engage.
#[must_use = "query stats exist only to be inspected; dropping them silences the pruning telemetry"]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Sealed shards in the index at query time.
    pub sealed_shards: usize,
    /// Sealed shards whose rows were actually scanned (probed).
    pub sealed_probed: usize,
    /// Sealed shards skipped by the bound check without scanning a row.
    pub sealed_pruned: usize,
    /// Rows actually scored for this query: the tail's plus every
    /// scanned sealed shard's.
    pub rows_scanned: usize,
    /// Whether the surviving shard scans ran on worker threads.
    pub parallel: bool,
}

/// Tuning knobs for [`ShardedEmbeddingIndex::rebalance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalanceOptions {
    /// Lloyd refinement iterations over the training sample.
    pub iters: usize,
    /// Maximum rows sampled (strided, deterministic) to train centroids;
    /// the final assignment always visits every sealed row.
    pub sample: usize,
    /// Worker threads for the assignment pass (`0` = one per core).
    pub threads: usize,
}

impl Default for RebalanceOptions {
    fn default() -> Self {
        Self {
            iters: 4,
            sample: 16_384,
            threads: 0,
        }
    }
}

/// What one [`ShardedEmbeddingIndex::rebalance`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Sealed rows that participated in the re-clustering.
    pub sealed_rows: usize,
    /// Centroids trained (= sealed shard count; 0 when nothing to do).
    pub centroids: usize,
    /// Lloyd iterations actually run.
    pub iters: usize,
    /// Rows whose shard changed (storage moved; labels and scores do not).
    pub moved: usize,
}

/// A bounded keeper of the `k` best hits under [`EmbeddingIndex::rank`]
/// (score descending, then global index ascending). The heap top is the
/// *worst* retained hit, so an incoming hit either evicts it or is
/// discarded in `O(log k)`.
///
/// Eviction compares by rank, not by score alone, so the kept set is the
/// exact top-k of everything pushed whatever order hits arrive in: a hit
/// that ties the worst retained score evicts it only with a lower index.
/// Rank is a total order because every score is finite — rows are
/// normalized or zeroed on insert and checked on load, and a query with
/// a non-finite norm scores 0 — so no NaN ever reaches a `TopK`.
///
/// The walk keeps one per query as that query's answer, and its worst
/// score doubles as the floor the shard bounds are pruned against.
struct TopK {
    k: usize,
    heap: std::collections::BinaryHeap<WorstFirst>,
}

struct WorstFirst(QueryHit);

impl PartialEq for WorstFirst {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for WorstFirst {}
impl PartialOrd for WorstFirst {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WorstFirst {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // rank() is ascending-is-better; the heap maximum is the worst hit
        EmbeddingIndex::rank(&self.0, &other.0)
    }
}

impl TopK {
    fn new(k: usize) -> Self {
        Self {
            k,
            heap: std::collections::BinaryHeap::with_capacity(k),
        }
    }

    fn push(&mut self, hit: QueryHit) {
        if self.heap.len() < self.k {
            self.heap.push(WorstFirst(hit));
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if EmbeddingIndex::rank(&hit, &worst.0).is_lt() {
                *worst = WorstFirst(hit);
            }
        }
    }

    /// The kept hits, in no particular order.
    fn into_hits(self) -> impl Iterator<Item = QueryHit> {
        self.heap.into_iter().map(|w| w.0)
    }

    /// The kept hits, best first.
    fn into_sorted(self) -> Vec<QueryHit> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|w| w.0)
            .collect()
    }

    /// The lowest score a new hit needs to be kept, which is the floor
    /// pruning reads: the worst retained score once `k` hits are kept,
    /// `-inf` before. A hit *at* the threshold may still win on its
    /// index, so callers skip only hits below it.
    fn threshold(&self) -> f32 {
        match self.heap.peek() {
            Some(worst) if self.heap.len() == self.k => worst.0.score,
            _ => f32::NEG_INFINITY,
        }
    }
}

/// Rows the scoring kernel scores per tile.
const TILE: usize = 32;

/// The scoring kernel: the cosine score of every row of the dim-major
/// block `cols` (`n` rows, component `t` of row `j` at `cols[t * n + j]`)
/// against `query`, handed to `tile(first_row, scores)` one tile of up to
/// [`TILE`] rows at a time.
///
/// Bit-identity with [`score_row`](crate::index::score_row): each
/// accumulator starts at `-0.0` and adds `row[t] * query[t]` in `t`
/// order, then is divided by `qnorm`; a non-finite or sub-`1e-12`
/// `qnorm` takes the zero-query path and scores `+0.0`. A full tile's accumulators are a fixed-size array, so
/// they stay in registers while the tile's columns stream past.
fn score_block(
    cols: &[f32],
    n: usize,
    query: &[f32],
    qnorm: f32,
    mut tile: impl FnMut(usize, &[f32]),
) {
    let zero_query = !qnorm.is_finite() || qnorm < 1e-12;
    let mut j0 = 0;
    while j0 < n {
        let w = TILE.min(n - j0);
        let mut acc = [-0.0f32; TILE];
        if zero_query {
            acc = [0.0; TILE];
        } else {
            if w == TILE {
                tile_dots(cols, n, j0, query, &mut acc);
            } else {
                tile_dots(cols, n, j0, query, &mut acc[..w]);
            }
            for a in &mut acc[..w] {
                *a /= qnorm;
            }
        }
        tile(j0, &acc[..w]);
        j0 += w;
    }
}

/// Adds `row[t] * query[t]` in `t` order into `acc[jj]` for the rows
/// `j0 + jj` of a dim-major block of `n` rows. Inlined, so a full tile
/// runs with the accumulator count known at compile time.
#[inline(always)]
fn tile_dots(cols: &[f32], n: usize, j0: usize, query: &[f32], acc: &mut [f32]) {
    let w = acc.len();
    for (t, &qv) in query.iter().enumerate() {
        for (a, &r) in acc.iter_mut().zip(&cols[t * n + j0..t * n + j0 + w]) {
            *a += r * qv;
        }
    }
}

/// Scores a dim-major block through [`score_block`] into `top`. Block
/// row `j` is the hit `(index, label) = row(j)`; a tile none of whose
/// scores reaches the threshold costs one vector compare.
///
/// Kept out of line: inlined into the large walk functions, the kernel
/// loop compiled 4–5x slower on x86-64.
#[inline(never)]
fn scan_into(
    cols: &[f32],
    n: usize,
    query: &[f32],
    qnorm: f32,
    top: &mut TopK,
    row: impl Fn(usize) -> (usize, usize),
) {
    score_block(cols, n, query, qnorm, |j0, scores| {
        let mut threshold = top.threshold();
        let mut reached = false;
        for &score in scores {
            reached |= score >= threshold;
        }
        if !reached {
            return;
        }
        for (jj, &score) in scores.iter().enumerate() {
            if score >= threshold {
                let (index, label) = row(j0 + jj);
                top.push(QueryHit {
                    index,
                    label,
                    score,
                });
                threshold = top.threshold();
            }
        }
    });
}

/// What every scan step of one [`ShardedEmbeddingIndex::query_many`]
/// call reads: the batch and each query's norm.
struct Batch<'a> {
    queries: &'a [Vec<f32>],
    qnorms: Vec<f32>,
}

/// The splitmix64 output function: a stateless deterministic mixer.
/// [`ShardedEmbeddingIndex::rebalance`] draws its k-means sample indices
/// from `mix64(0), mix64(1), …` — reproducible like a stride, but with
/// none of a stride's arithmetic structure to alias against periodic
/// arrival orders.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Squared L2 norm of each centroid, precomputed so nearest-centroid
/// assignment reduces to `argmin ‖c‖² − 2·r·c` (the `‖r‖²` term is
/// constant per row and drops out of the argmin).
fn centroid_norms2(centroids: &[f32], dim: usize) -> Vec<f32> {
    centroids
        .chunks_exact(dim)
        .map(|c| c.iter().map(|&v| v * v).sum())
        .collect()
}

/// Index of the centroid nearest to `row` under squared L2 distance,
/// ties broken toward the lower index (deterministic).
fn nearest_centroid(row: &[f32], centroids: &[f32], cnorm2: &[f32], dim: usize) -> usize {
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for (c, (centroid, &n2)) in centroids.chunks_exact(dim).zip(cnorm2).enumerate() {
        let dot: f32 = centroid.iter().zip(row).map(|(&a, &b)| a * b).sum();
        let d = n2 - 2.0 * dot;
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

impl ShardedEmbeddingIndex {
    /// Creates an empty index over `dim`-dimensional embeddings with
    /// `shard_capacity` rows per shard.
    ///
    /// # Panics
    ///
    /// Panics if `dim` or `shard_capacity` is zero.
    pub fn new(dim: usize, shard_capacity: usize) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        assert!(shard_capacity > 0, "shard capacity must be positive");
        Self {
            dim,
            shard_capacity,
            sealed: Vec::new(),
            tail: Shard::new(0, dim),
        }
    }

    /// An independent copy that serves queries concurrently with further
    /// inserts on `self`: the sealed shards are shared by `Arc` (no row is
    /// copied) and only the tail — at most one shard — is cloned. This is
    /// the read-mostly serving primitive: a writer keeps ingesting into
    /// the original while any number of reader threads query their own
    /// snapshots, which are immutable and therefore can never observe a
    /// torn tail.
    ///
    /// `Clone` does the same thing; `snapshot` exists to name the intent
    /// at call sites.
    pub fn snapshot(&self) -> Self {
        self.clone()
    }

    /// Total number of indexed embeddings across all shards.
    pub fn len(&self) -> usize {
        self.sealed.len() * self.shard_capacity + self.tail.len()
    }

    /// Whether the index holds no embeddings.
    pub fn is_empty(&self) -> bool {
        self.sealed.is_empty() && self.tail.labels.is_empty()
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Rows per shard.
    pub fn shard_capacity(&self) -> usize {
        self.shard_capacity
    }

    /// Number of shards currently allocated (sealed plus the tail when it
    /// holds rows).
    pub fn num_shards(&self) -> usize {
        self.sealed.len() + usize::from(!self.tail.labels.is_empty())
    }

    /// Number of sealed (immutable, bound-carrying) shards.
    pub fn num_sealed_shards(&self) -> usize {
        self.sealed.len()
    }

    /// Labels of all embeddings in insertion order.
    pub fn labels(&self) -> impl Iterator<Item = usize> + '_ {
        self.sealed
            .iter()
            .flat_map(|s| s.labels.iter().copied())
            .chain(self.tail.labels.iter().copied())
    }

    /// The stored row at global storage index `i` — borrowed from the
    /// tail, or gathered from a sealed shard's dim-major columns into an
    /// owned buffer.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    pub fn normalized_row(&self, i: usize) -> Cow<'_, [f32]> {
        let block = i / self.shard_capacity;
        let dim = self.dim;
        if block < self.sealed.len() {
            let r = i % self.shard_capacity;
            Cow::Owned(
                self.sealed[block].rows[r..]
                    .iter()
                    .step_by(self.shard_capacity)
                    .copied()
                    .collect(),
            )
        } else {
            let r = i - self.sealed.len() * self.shard_capacity;
            Cow::Borrowed(&self.tail.data[r * dim..(r + 1) * dim])
        }
    }

    /// Seals the tail into an immutable bound-carrying shard when full.
    fn seal_tail_if_full(&mut self) {
        if self.tail.len() == self.shard_capacity {
            let full = std::mem::replace(&mut self.tail, Shard::new(self.shard_capacity, self.dim));
            self.sealed
                .push(Arc::new(SealedShard::seal(full, self.dim)));
        }
    }

    /// Appends one embedding (normalized on the way in, exactly like
    /// [`EmbeddingIndex::insert`]: non-finite or zero-norm rows are stored
    /// as zero rows and score 0 against everything). Fills the tail shard;
    /// the moment the tail reaches capacity it is sealed — centroid,
    /// radius, and max-norm bounds computed once — and a fresh tail opens.
    ///
    /// # Panics
    ///
    /// Panics on a dimension mismatch.
    pub fn insert(&mut self, embedding: &[f32], label: usize) {
        assert_eq!(
            embedding.len(),
            self.dim,
            "embedding dimension {} != index dimension {}",
            embedding.len(),
            self.dim
        );
        if self.tail.labels.capacity() == 0 {
            // lazily size the tail so empty indexes stay allocation-free
            self.tail = Shard::new(self.shard_capacity, self.dim);
        }
        normalize_into(embedding, &mut self.tail.data);
        self.tail.labels.push(label);
        self.seal_tail_if_full();
    }

    /// The `k` nearest neighbors of `query` by cosine similarity, highest
    /// first (ties broken by global insertion index) — bit-identical to
    /// the flat [`EmbeddingIndex::query`] over the same insertions, with
    /// default [`QueryOptions`]: bound pruning on, parallel scan gated
    /// behind [`PARALLEL_QUERY_MIN_ROWS`]. `k == 0` yields an empty list.
    ///
    /// # Panics
    ///
    /// Panics on a dimension mismatch.
    pub fn query(&self, query: &[f32], k: usize) -> Vec<QueryHit> {
        self.query_opts(query, k, &QueryOptions::default()).0
    }

    /// [`ShardedEmbeddingIndex::query`] with explicit [`QueryOptions`],
    /// also reporting what the query did ([`QueryStats`]): a batch of
    /// one through [`query_many`](ShardedEmbeddingIndex::query_many),
    /// whose docs describe the walk. The result is bit-identical for
    /// every option combination; options only steer how much work is
    /// spent producing it.
    ///
    /// # Panics
    ///
    /// Panics on a dimension mismatch.
    pub fn query_opts(
        &self,
        query: &[f32],
        k: usize,
        opts: &QueryOptions,
    ) -> (Vec<QueryHit>, QueryStats) {
        self.query_many(&[query.to_vec()], k, opts)
            .pop()
            .unwrap_or_default()
    }

    /// Scores a whole batch of queries in one walk over the index. Each
    /// query's hits are **bit-identical** to the flat
    /// [`EmbeddingIndex::query`] over the same insertions, whatever the
    /// options and whatever else the batch holds: a query answered in a
    /// batch of 32 gets the same hits as in a batch of one, which is
    /// what [`query_opts`](ShardedEmbeddingIndex::query_opts) runs
    /// (property tests hold this line across rebalanced corpora and every
    /// option combination).
    ///
    /// - **One running top-k per query.** Every score comes from one
    ///   kernel that scores 32 rows of a dim-major block per tile, each
    ///   entry accumulated in the flat index's order, and hands the tile
    ///   straight to the query's top-k, which keeps the flat index's rank
    ///   order (score, then insertion index) whatever order rows arrive
    ///   in. A row below the query's current k-th best score costs its
    ///   multiply-adds and one compare. Sealed shards are stored
    ///   dim-major and scored in place, while the tail and the shard
    ///   centroids are written dim-major into per-call scratch first. A
    ///   scanned shard is scored for every query of the batch that needs
    ///   it while it is hot in cache.
    /// - **Pruning.** The tail (which has no bound) is scanned first and
    ///   seeds every query's top-k, whose worst score is the query's
    ///   floor. Sealed shards are then visited in descending order of
    ///   their *batch-max* score bound; a shard is scanned only for the
    ///   queries whose own bound (plus a rounding slack) still reaches
    ///   their floor, and the walk stops outright when the best remaining
    ///   bound loses to **every** query's full floor.
    /// - **Parallelism.** When [`QueryOptions::threads`] asks for more
    ///   than one worker (at `0`, once the corpus holds
    ///   [`PARALLEL_QUERY_MIN_ROWS`] rows), every floor is seeded from the
    ///   tail and the single best-bound shard instead, the rest are pruned
    ///   against those fixed floors (lower bounds of the final ones, so
    ///   still sound), and the surviving `(shard, query subset)` scans fan
    ///   out across [`fan_out`] workers. Each worker keeps its own top-k
    ///   per query, and the caller pushes the workers' hits into each
    ///   query's top-k. This prunes slightly less but keeps workers
    ///   independent; the result never differs.
    ///
    /// Each query gets its own [`QueryStats`]: a shard counts as probed
    /// (and its rows as scanned) for a query only when its rows were
    /// actually scored *for that query*; `parallel` reports the batch
    /// walk's single fan-out decision for every query.
    ///
    /// # Panics
    ///
    /// Panics if any query's dimension mismatches the index.
    pub fn query_many(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        opts: &QueryOptions,
    ) -> Vec<(Vec<QueryHit>, QueryStats)> {
        for q in queries {
            assert_eq!(q.len(), self.dim, "query dimension mismatch");
        }
        let nq = queries.len();
        let base = QueryStats {
            sealed_shards: self.sealed.len(),
            ..QueryStats::default()
        };
        if nq == 0 || k == 0 || self.is_empty() {
            return vec![(Vec::new(), base); nq];
        }
        let total = self.len();
        let batch = Batch {
            queries,
            qnorms: queries.iter().map(|q| query_norm(q)).collect(),
        };
        let mut stats = vec![base; nq];
        // pruning is sound only when some row may be left out at all
        let can_prune = opts.prune && k < total;
        // a top-k never needs more slots than the corpus has rows, so a
        // "give me everything" k cannot size its heap
        let kk = k.min(total);
        let mut tops: Vec<TopK> = (0..nq).map(|_| TopK::new(kk)).collect();
        // dim-major rows written for the kernel: the tail, then the
        // gathered centroids
        let mut cols = Vec::new();

        // the tail is always scanned, and first: it seeds every floor
        if !self.tail.labels.is_empty() {
            let n = self.tail.labels.len();
            let offset = self.sealed.len() * self.shard_capacity;
            to_dim_major(&self.tail.data, self.dim, &mut cols);
            for (qi, top) in tops.iter_mut().enumerate() {
                stats[qi].rows_scanned += n;
                scan_into(&cols, n, &queries[qi], batch.qnorms[qi], top, |j| {
                    (offset + j, self.tail.labels[j])
                });
            }
        }

        // worker threads engage only when the chunking would actually
        // produce more than one worker, and at `threads: 0` only past the
        // row gate
        let threaded = |shards: usize| {
            (opts.threads > 0 || total >= PARALLEL_QUERY_MIN_ROWS)
                && worker_count(shards, opts.threads) > 1
        };
        // the scan step of both walks below: each `(shard, range of
        // qids)` item scans that shard for those queries, fanned out
        // across workers when `parallel`, else in order on this thread
        let scan = |work: &[(usize, Range<usize>)],
                    qids: &[usize],
                    parallel: bool,
                    tops: &mut [TopK],
                    stats: &mut [QueryStats]| {
            for st in stats.iter_mut() {
                st.parallel = parallel;
            }
            if !parallel {
                for (sid, range) in work {
                    self.scan_sealed(*sid, &qids[range.clone()], &batch, tops, stats);
                }
                return;
            }
            let parts = fan_out(work, opts.threads, |_tid, chunk| {
                let mut local: Vec<TopK> = (0..nq).map(|_| TopK::new(kk)).collect();
                let mut counts = vec![QueryStats::default(); nq];
                for (sid, range) in chunk {
                    self.scan_sealed(*sid, &qids[range.clone()], &batch, &mut local, &mut counts);
                }
                (local, counts)
            });
            for (local, counts) in parts {
                for (qi, (top, count)) in local.into_iter().zip(&counts).enumerate() {
                    let st = &mut stats[qi];
                    st.sealed_probed += count.sealed_probed;
                    st.rows_scanned += count.rows_scanned;
                    for hit in top.into_hits() {
                        tops[qi].push(hit);
                    }
                }
            }
        };

        let all: Vec<usize> = (0..nq).collect();
        if !can_prune && !self.sealed.is_empty() {
            // exhaustive scan: every shard against the whole batch, in
            // natural order — bounds are irrelevant
            let work: Vec<(usize, Range<usize>)> =
                (0..self.sealed.len()).map(|sid| (sid, 0..nq)).collect();
            let parallel = threaded(work.len());
            scan(&work, &all, parallel, &mut tops, &mut stats);
        } else if !self.sealed.is_empty() {
            // one walk order for the whole batch: descending *batch-max*
            // bound (ties: lower shard id). Each query's bounds come from
            // the kernel over the centroids, gathered dim-major.
            let s_count = self.sealed.len();
            write_dim_major(s_count, self.dim, &mut cols, |sid| {
                &self.sealed[sid].centroid
            });
            // Upper bound (in exact arithmetic) on any row's score against
            // the query: `dot(r, q̂) = dot(c, q̂) + dot(r − c, q̂) ≤ dot(c,
            // q̂) + ‖r − c‖` by Cauchy–Schwarz, and independently
            // `dot(r, q̂) ≤ ‖r‖`; the tighter of the two. Always finite on
            // the insert path (non-finite embeddings are stored as zero
            // rows) and for loaded artifacts (bounds are validated at
            // load; a forged non-finite value could otherwise force an
            // always-pruned `-inf` bound).
            let mut bounds = vec![0.0f32; nq * s_count];
            for (qi, qbounds) in bounds.chunks_exact_mut(s_count).enumerate() {
                score_block(
                    &cols,
                    s_count,
                    &queries[qi],
                    batch.qnorms[qi],
                    |j0, scores| {
                        let shards = &self.sealed[j0..];
                        for ((b, s), &score) in qbounds[j0..].iter_mut().zip(shards).zip(scores) {
                            *b = (score + s.radius).min(s.max_norm);
                        }
                    },
                );
            }
            let bound = |sid: usize, qi: usize| bounds[qi * s_count + sid];
            let mut order: Vec<(usize, f32)> = (0..s_count)
                .map(|sid| {
                    let mut mb = f32::NEG_INFINITY;
                    for qi in 0..nq {
                        mb = mb.max(bound(sid, qi));
                    }
                    (sid, mb)
                })
                .collect();
            order.sort_unstable_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.0.cmp(&b.0))
            });

            // strict <: a shard that can only tie the floor may still win
            // a tie-break on insertion index, so it is scanned
            let pruned = |floor: &TopK, bnd: f32| bnd + PRUNE_SLACK < floor.threshold();
            // Threaded, the walk scans its first shard for the whole batch
            // on this thread, prunes the rest against the floors that
            // leaves (lower bounds of the final floors, so still sound) and
            // defers their scans to one fan-out; otherwise every scan
            // raises the floors the next shard is pruned against.
            let parallel_walk = threaded(s_count);
            // each shard's query subset; deferred subsets sit back to back
            let mut qids: Vec<usize> = Vec::with_capacity(nq);
            let mut deferred: Vec<(usize, Range<usize>)> = Vec::new();
            for (oi, &(sid, maxb)) in order.iter().enumerate() {
                let seed = parallel_walk && oi == 0;
                // bounds descend in batch-max: once the best remaining
                // bound loses to every query's full floor, everything left
                // is pruned for the whole batch
                if !seed && tops.iter().all(|f| pruned(f, maxb)) {
                    for st in stats.iter_mut() {
                        st.sealed_pruned += order.len() - oi;
                    }
                    break;
                }
                if !parallel_walk {
                    qids.clear();
                }
                let start = qids.len();
                for qi in 0..nq {
                    if !seed && pruned(&tops[qi], bound(sid, qi)) {
                        stats[qi].sealed_pruned += 1;
                    } else {
                        qids.push(qi);
                    }
                }
                if qids.len() == start {
                    continue;
                }
                if parallel_walk && !seed {
                    deferred.push((sid, start..qids.len()));
                } else {
                    self.scan_sealed(sid, &qids[start..], &batch, &mut tops, &mut stats);
                }
            }
            if parallel_walk {
                // report what actually happened: heavy pruning can leave
                // too few scans for the fan-out to spawn anything
                let parallel = worker_count(deferred.len(), opts.threads) > 1;
                scan(&deferred, &qids, parallel, &mut tops, &mut stats);
            }
        }

        tops.into_iter().map(TopK::into_sorted).zip(stats).collect()
    }

    /// Scans sealed shard `sid` for the queries `select` into their
    /// `tops`, scoring its dim-major rows in place, and counts the scan
    /// into their `stats`.
    fn scan_sealed(
        &self,
        sid: usize,
        select: &[usize],
        batch: &Batch<'_>,
        tops: &mut [TopK],
        stats: &mut [QueryStats],
    ) {
        let s = &self.sealed[sid];
        let n = s.labels.len();
        let offset = sid * self.shard_capacity;
        for &qi in select {
            stats[qi].sealed_probed += 1;
            stats[qi].rows_scanned += n;
            let (query, qnorm) = (&batch.queries[qi], batch.qnorms[qi]);
            scan_into(&s.rows, n, query, qnorm, &mut tops[qi], |j| {
                (offset + j, s.labels[j])
            });
        }
    }

    /// Labels of storage block `b`: sealed shard `b`, or the tail at
    /// `b == num_sealed_shards()`.
    pub(crate) fn block_labels(&self, b: usize) -> &[usize] {
        self.sealed.get(b).map_or(&self.tail.labels, |s| &s.labels)
    }

    /// Writes storage block `b`'s rows (see
    /// [`block_labels`](Self::block_labels)) into `out`, row-major;
    /// `out` holds exactly `rows * dim` floats.
    pub(crate) fn copy_block_into(&self, b: usize, out: &mut [f32]) {
        let Some(s) = self.sealed.get(b) else {
            return out.copy_from_slice(&self.tail.data);
        };
        for (o, v) in out.iter_mut().zip(row_major(&s.rows, s.labels.len())) {
            *o = v;
        }
    }

    // --- rebalance (IVF routing) ---------------------------------------

    /// Re-clusters the *sealed* rows into centroid-aligned shards so the
    /// descending-bound walk of [`ShardedEmbeddingIndex::query_many`]
    /// prunes well regardless of arrival order — the IVF coarse-clustering
    /// stage. The open tail is untouched.
    ///
    /// Centroids are seeded from the current shard centroids and refined
    /// with Lloyd iterations over a deterministic strided sample; the
    /// final assignment visits every sealed row (fanned out across
    /// threads), then rows are regrouped by `(cluster, original index)`
    /// with a stable sort and resealed through the normal path, which
    /// recomputes every bound.
    ///
    /// The row *set* is preserved bit for bit: every `(label, row)` pair
    /// survives, so query results keep the same labels and scores — only
    /// [`QueryHit::index`] (the storage position) changes, along with
    /// how effectively shards prune. The whole pass is deterministic: no
    /// RNG, no wall clock, stable tie-breaks.
    pub fn rebalance(&mut self, opts: &RebalanceOptions) -> RebalanceReport {
        let k = self.sealed.len();
        let cap = self.shard_capacity;
        let dim = self.dim;
        if k < 2 {
            return RebalanceReport {
                sealed_rows: k * cap,
                centroids: k,
                iters: 0,
                moved: 0,
            };
        }
        let n = k * cap;

        // Gather the rows and labels once.
        let mut rows = vec![0.0f32; n * dim];
        let mut labels: Vec<usize> = Vec::with_capacity(n);
        for (si, block) in rows.chunks_exact_mut(cap * dim).enumerate() {
            self.copy_block_into(si, block);
            labels.extend_from_slice(self.block_labels(si));
        }

        // A strided sample aliases with periodic arrival: round-robin
        // ingest makes the cluster of row `i` a function of `i mod p`,
        // and any stride sharing a factor with `p` then samples only a
        // subset of the clusters — Lloyd never sees the rest and cannot
        // separate them. Drawing indices from a splitmix64 counter
        // stream keeps the sample deterministic but structure-free;
        // occasional duplicate indices merely double-weight a row.
        let sample = opts.sample.clamp(k, n);
        let sample_ids: Vec<usize> = (0..sample as u64)
            .map(|t| (mix64(t) % n as u64) as usize)
            .collect();

        // Deterministic farthest-point seeding over the sample. (Seeding
        // from the current shard centroids would collapse under
        // round-robin arrival — every shard then holds a slice of every
        // cluster, so all shard centroids coincide and Lloyd cannot pull
        // them apart.) Ties break toward the lower index; no RNG.
        let row_of = |ri: usize| &rows[ri * dim..(ri + 1) * dim];
        let mut centroids = vec![0.0f32; k * dim];
        centroids[..dim].copy_from_slice(row_of(sample_ids[0]));
        let d2 = |a: &[f32], b: &[f32]| -> f32 {
            a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
        };
        let mut nearest2: Vec<f32> = sample_ids
            .iter()
            .map(|&ri| d2(row_of(ri), &centroids[..dim]))
            .collect();
        for c in 1..k {
            let mut far = 0usize;
            let mut far_d = -1.0f32;
            for (i, &d) in nearest2.iter().enumerate() {
                if d > far_d {
                    far_d = d;
                    far = i;
                }
            }
            let seed = row_of(sample_ids[far]).to_vec();
            centroids[c * dim..(c + 1) * dim].copy_from_slice(&seed);
            for (nd, &ri) in nearest2.iter_mut().zip(&sample_ids) {
                *nd = nd.min(d2(row_of(ri), &seed));
            }
        }
        let mut iters_run = 0;
        for _ in 0..opts.iters {
            let cnorm2 = centroid_norms2(&centroids, dim);
            let mut sums = vec![0.0f64; k * dim];
            let mut counts = vec![0usize; k];
            for &ri in &sample_ids {
                let row = &rows[ri * dim..(ri + 1) * dim];
                let c = nearest_centroid(row, &centroids, &cnorm2, dim);
                counts[c] += 1;
                for (s, &v) in sums[c * dim..(c + 1) * dim].iter_mut().zip(row) {
                    *s += f64::from(v);
                }
            }
            for c in 0..k {
                // an empty cluster keeps its previous centroid so the
                // shard count stays fixed
                if counts[c] > 0 {
                    let inv = 1.0 / counts[c] as f64;
                    for (dst, &s) in centroids[c * dim..(c + 1) * dim]
                        .iter_mut()
                        .zip(&sums[c * dim..(c + 1) * dim])
                    {
                        *dst = (s * inv) as f32;
                    }
                }
            }
            iters_run += 1;
        }

        // Full assignment pass over every sealed row, fanned out.
        let cnorm2 = centroid_norms2(&centroids, dim);
        let ids: Vec<usize> = (0..n).collect();
        let assign: Vec<usize> = fan_out(&ids, opts.threads, |_, chunk| {
            chunk
                .iter()
                .map(|&ri| {
                    nearest_centroid(&rows[ri * dim..(ri + 1) * dim], &centroids, &cnorm2, dim)
                })
                .collect::<Vec<usize>>()
        })
        .into_iter()
        .flatten()
        .collect();

        // Cluster sizes rarely divide the shard capacity, so some shards
        // straddle two consecutive clusters of the concatenation — and
        // the farthest-point seeding order would put maximally *distant*
        // clusters next to each other, giving every straddling shard a
        // covering radius near the inter-cluster distance (and a useless
        // bound). Rank the clusters along a greedy nearest-neighbor
        // chain instead: a straddling shard then mixes the most similar
        // cluster pair available and its bound stays tight.
        let mut rank = vec![0usize; k];
        {
            let mut visited = vec![false; k];
            let mut cur = 0usize;
            visited[0] = true;
            for pos in 1..k {
                let from = centroids[cur * dim..(cur + 1) * dim].to_vec();
                let mut next = 0usize;
                let mut next_d = f32::INFINITY;
                for (c, cand) in centroids.chunks_exact(dim).enumerate() {
                    if !visited[c] {
                        let d = d2(&from, cand);
                        if d < next_d {
                            next_d = d;
                            next = c;
                        }
                    }
                }
                visited[next] = true;
                rank[next] = pos;
                cur = next;
            }
        }

        // Stable regroup by (chain rank of cluster, original index) —
        // deterministic tie-break, and rows of one cluster stay in
        // arrival order.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&ri| (rank[assign[ri]], ri));

        let mut moved = 0usize;
        let mut sealed = Vec::with_capacity(k);
        for (new_sid, chunk) in order.chunks(cap).enumerate() {
            let mut shard = Shard::new(cap, dim);
            for &ri in chunk {
                if ri / cap != new_sid {
                    moved += 1;
                }
                shard.labels.push(labels[ri]);
                shard
                    .data
                    .extend_from_slice(&rows[ri * dim..(ri + 1) * dim]);
            }
            sealed.push(Arc::new(SealedShard::seal(shard, dim)));
        }
        self.sealed = sealed;

        RebalanceReport {
            sealed_rows: n,
            centroids: k,
            iters: iters_run,
            moved,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_rows(n: usize, dim: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                (0..dim)
                    .map(|j| {
                        let x = ((i * 31 + j * 17) as u64).wrapping_mul(2654435761) % 97;
                        x as f32 / 97.0 - 0.5
                    })
                    .collect()
            })
            .collect()
    }

    fn both(n: usize, dim: usize, cap: usize) -> (EmbeddingIndex, ShardedEmbeddingIndex) {
        let rows = seeded_rows(n, dim);
        let mut flat = EmbeddingIndex::new(dim);
        let mut sharded = ShardedEmbeddingIndex::new(dim, cap);
        for (i, row) in rows.iter().enumerate() {
            flat.insert(row, i % 5);
            sharded.insert(row, i % 5);
        }
        (flat, sharded)
    }

    /// Every interesting option combination: serial/parallel ×
    /// pruned/exhaustive.
    fn option_grid() -> Vec<QueryOptions> {
        let mut grid = Vec::new();
        for prune in [false, true] {
            for threads in [1, 3, 2] {
                grid.push(QueryOptions { prune, threads });
            }
        }
        grid
    }

    /// Hits as `(index, label, score bits)`: `QueryHit`'s `==` compares
    /// scores as floats, so it cannot tell `-0.0` from `0.0`.
    fn bits(hits: &[QueryHit]) -> Vec<(usize, usize, u32)> {
        hits.iter()
            .map(|h| (h.index, h.label, h.score.to_bits()))
            .collect()
    }

    #[test]
    fn kernel_matches_score_row_bit_for_bit() {
        // every dim across one tile's worth of components, blocks from
        // empty to past two full tiles, every fifth row zero; the queries
        // cover a mixed sign, no positive component (zero rows score
        // -0.0), zero, and non-finite (both score +0.0)
        for dim in 1..=33 {
            let mixed: Vec<f32> = (0..dim).map(|t| (t as f32 * 0.7).sin()).collect();
            let non_positive: Vec<f32> = mixed.iter().map(|v| -v.abs() - 0.01).collect();
            let mut nan = mixed.clone();
            nan[dim / 2] = f32::NAN;
            let mut inf = mixed.clone();
            inf[0] = f32::INFINITY;
            let queries = [mixed, non_positive, vec![0.0; dim], nan, inf];
            for n in 0..=70 {
                let mut rows = seeded_rows(n, dim).concat();
                for row in rows.chunks_exact_mut(dim).step_by(5) {
                    row.fill(0.0);
                }
                let mut cols = Vec::new();
                to_dim_major(&rows, dim, &mut cols);
                for query in &queries {
                    let qnorm = query_norm(query);
                    let mut got = vec![f32::NAN; n];
                    let mut next = 0;
                    score_block(&cols, n, query, qnorm, |j0, scores| {
                        assert_eq!(j0, next, "tiles arrive in order");
                        assert!(scores.len() <= TILE);
                        got[j0..j0 + scores.len()].copy_from_slice(scores);
                        next += scores.len();
                    });
                    assert_eq!(next, n, "every row scored once");
                    for (j, (row, &score)) in rows.chunks_exact(dim).zip(&got).enumerate() {
                        let want = crate::index::score_row(row, query, qnorm);
                        assert_eq!(
                            score.to_bits(),
                            want.to_bits(),
                            "dim {dim} n {n} row {j} query {query:?}: {score} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn shards_fill_to_capacity_in_insertion_order() {
        let (_, sharded) = both(10, 3, 4);
        assert_eq!(sharded.len(), 10);
        assert_eq!(sharded.num_shards(), 3); // 4 + 4 + 2
        assert_eq!(sharded.num_sealed_shards(), 2);
        let labels: Vec<usize> = sharded.labels().collect();
        assert_eq!(labels, (0..10).map(|i| i % 5).collect::<Vec<_>>());
    }

    #[test]
    fn query_matches_flat_bit_for_bit() {
        for cap in [1, 3, 4, 7, 64] {
            let (flat, sharded) = both(23, 6, cap);
            let q: Vec<f32> = (0..6).map(|j| 0.3 - j as f32 * 0.1).collect();
            for k in [1, 2, 5, 23, 40] {
                let a = flat.query(&q, k);
                let b = sharded.query(&q, k);
                assert_eq!(bits(&a), bits(&b), "cap {cap} k {k}");
                // and under every option combination
                for opts in option_grid() {
                    let (c, _) = sharded.query_opts(&q, k, &opts);
                    assert_eq!(bits(&b), bits(&c), "cap {cap} k {k} opts {opts:?}");
                }
            }
        }
    }

    /// A batch of seeded queries exercising distinct directions, plus a
    /// query with no positive component (a zero row scores `-0.0`
    /// against it), a zero query and a poisoned (NaN) query, so every
    /// batch must reproduce the degenerate scores per query.
    fn query_batch(b: usize, dim: usize) -> Vec<Vec<f32>> {
        let mut qs: Vec<Vec<f32>> = (0..b)
            .map(|i| {
                (0..dim)
                    .map(|j| ((i * 13 + j * 7) % 19) as f32 / 19.0 - 0.4)
                    .collect()
            })
            .collect();
        if b > 2 {
            qs[b / 2] = vec![0.0; dim];
            qs[b - 1][0] = f32::NAN;
        }
        if b > 3 {
            qs[1] = (0..dim).map(|j| -0.1 - (j % 3) as f32 * 0.25).collect();
        }
        qs
    }

    /// [`seeded_rows`] with one zero row.
    fn index_with_zero_row(n: usize, dim: usize, cap: usize) -> ShardedEmbeddingIndex {
        let mut rows = seeded_rows(n, dim);
        rows[n / 3].fill(0.0);
        let mut index = ShardedEmbeddingIndex::new(dim, cap);
        for (i, row) in rows.iter().enumerate() {
            index.insert(row, i % 5);
        }
        index
    }

    /// Asserts that every query of `queries` gets the same hits, bit for
    /// bit, in the batch as alone (a batch of one): batch composition
    /// never changes a result.
    fn assert_batch_matches_singletons(
        index: &ShardedEmbeddingIndex,
        queries: &[Vec<f32>],
        k: usize,
        opts: &QueryOptions,
        ctx: &str,
    ) {
        let batch = index.query_many(queries, k, opts);
        assert_eq!(batch.len(), queries.len(), "{ctx}");
        for (qi, (q, (hits, stats))) in queries.iter().zip(&batch).enumerate() {
            let (alone, _) = index.query_opts(q, k, opts);
            assert_eq!(bits(hits), bits(&alone), "{ctx} query {qi}");
            assert_eq!(stats.sealed_shards, index.num_sealed_shards(), "{ctx}");
            if opts.prune {
                assert_eq!(
                    stats.sealed_probed + stats.sealed_pruned,
                    stats.sealed_shards,
                    "{ctx} query {qi}: every shard is probed or pruned per query"
                );
            }
        }
    }

    #[test]
    fn batch_composition_never_changes_results() {
        for cap in [1, 4, 7] {
            let sharded = index_with_zero_row(37, 6, cap);
            let queries = query_batch(6, 6);
            for k in [1, 3, 37, 50] {
                for opts in option_grid() {
                    assert_batch_matches_singletons(
                        &sharded,
                        &queries,
                        k,
                        &opts,
                        &format!("cap {cap} k {k} opts {opts:?}"),
                    );
                }
            }
        }
    }

    #[test]
    fn batch_composition_never_changes_results_after_rebalance() {
        let mut index = index_with_zero_row(60, 6, 8);
        index.rebalance(&RebalanceOptions::default());
        let queries = query_batch(6, 6);
        for k in [4, 60] {
            for opts in option_grid() {
                assert_batch_matches_singletons(
                    &index,
                    &queries,
                    k,
                    &opts,
                    &format!("rebalanced k {k} opts {opts:?}"),
                );
            }
        }
    }

    #[test]
    fn query_many_edge_batches() {
        let (_, sharded) = both(12, 4, 4);
        // empty batch
        assert!(sharded
            .query_many(&[], 3, &QueryOptions::default())
            .is_empty());
        // k == 0 returns one empty result per query
        let qs = query_batch(3, 4);
        let zero = sharded.query_many(&qs, 0, &QueryOptions::default());
        assert_eq!(zero.len(), 3);
        assert!(zero.iter().all(|(hits, _)| hits.is_empty()));
        // a batch of one answers like the batch-of-one query_opts
        assert_batch_matches_singletons(
            &sharded,
            &qs[..1],
            3,
            &QueryOptions::default(),
            "singleton",
        );
        // empty index
        let empty = ShardedEmbeddingIndex::new(4, 4);
        let none = empty.query_many(&qs, 3, &QueryOptions::default());
        assert!(none.iter().all(|(hits, _)| hits.is_empty()));
    }

    #[test]
    fn query_many_prunes_and_shares_the_walk() {
        // clustered corpus (see pruning_skips_losing_shards_on_clustered_
        // data): two queries into different clusters must each keep their
        // own pruning decisions while sharing one walk
        let dim = 6;
        let mut sharded = ShardedEmbeddingIndex::new(dim, 8);
        for c in 0..6 {
            for i in 0..8 {
                let mut row = vec![0.0f32; dim];
                row[c] = 1.0;
                row[(c + 1) % dim] = 0.02 * i as f32;
                sharded.insert(&row, c);
            }
        }
        let mut q2 = vec![0.0f32; dim];
        q2[2] = 1.0;
        let mut q5 = vec![0.0f32; dim];
        q5[4] = 1.0;
        let opts = QueryOptions {
            prune: true,
            threads: 1,
        };
        let queries = vec![q2.clone(), q5.clone()];
        assert_batch_matches_singletons(&sharded, &queries, 4, &opts, "clustered pair");
        let batch = sharded.query_many(&queries, 4, &opts);
        for (qi, (hits, stats)) in batch.iter().enumerate() {
            assert_eq!(hits[0].label, [2usize, 4][qi]);
            assert!(
                stats.sealed_pruned >= 3,
                "query {qi} should prune most foreign clusters: {stats:?}"
            );
        }
    }

    #[test]
    fn pruning_skips_losing_shards_on_clustered_data() {
        // 6 tight clusters of 8 rows along distinct axes; shards align
        // with clusters, so a query into one cluster makes the others'
        // bounds hopeless
        let dim = 6;
        let mut sharded = ShardedEmbeddingIndex::new(dim, 8);
        let mut flat = EmbeddingIndex::new(dim);
        for c in 0..6 {
            for i in 0..8 {
                let mut row = vec![0.0f32; dim];
                row[c] = 1.0;
                row[(c + 1) % dim] = 0.02 * i as f32; // small in-cluster spread
                flat.insert(&row, c);
                sharded.insert(&row, c);
            }
        }
        let mut q = vec![0.0f32; dim];
        q[2] = 1.0;
        let opts = QueryOptions {
            prune: true,
            threads: 1,
        };
        let (hits, stats) = sharded.query_opts(&q, 4, &opts);
        assert_eq!(bits(&hits), bits(&flat.query(&q, 4)));
        assert!(hits.iter().all(|h| h.label == 2));
        assert_eq!(stats.sealed_shards, 6);
        assert!(
            stats.sealed_pruned >= 4,
            "expected most shards pruned, got {stats:?}"
        );
        assert!(stats.rows_scanned < 48);
        // exhaustive scan agrees and scans everything
        let (all, full) = sharded.query_opts(
            &q,
            4,
            &QueryOptions {
                prune: false,
                ..opts
            },
        );
        assert_eq!(bits(&all), bits(&hits));
        assert_eq!(full.sealed_pruned, 0);
        assert_eq!(full.rows_scanned, 48);
    }

    #[test]
    fn parallel_scan_is_bit_identical_and_reports_itself() {
        let (flat, sharded) = both(40, 5, 4);
        let q = [0.4, -0.2, 0.1, 0.3, -0.5];
        let opts = QueryOptions {
            prune: false,
            threads: 4,
        };
        let (hits, stats) = sharded.query_opts(&q, 7, &opts);
        assert_eq!(bits(&hits), bits(&flat.query(&q, 7)));
        assert!(
            stats.parallel,
            "an explicit thread count must engage the fan-out"
        );
        // at `threads: 0` the row gate decides, and 40 rows stay serial;
        // `threads: 1` never leaves the calling thread
        for threads in [0, 1] {
            let (same, serial) = sharded.query_opts(&q, 7, &QueryOptions { threads, ..opts });
            assert_eq!(bits(&same), bits(&hits));
            assert!(!serial.parallel, "threads {threads}");
        }
    }

    #[test]
    fn snapshot_is_immutable_under_later_inserts() {
        let (_, mut sharded) = both(10, 3, 4);
        let snap = sharded.snapshot();
        let q = [0.5, -0.1, 0.3];
        let before = snap.query(&q, 5);
        // writer keeps inserting: fills the tail, seals, opens a new tail
        for i in 0..9 {
            sharded.insert(&[i as f32 * 0.1, 0.2, -0.3], 99);
        }
        assert_eq!(sharded.len(), 19);
        assert_eq!(snap.len(), 10, "snapshot must not see later inserts");
        assert_eq!(
            bits(&snap.query(&q, 5)),
            bits(&before),
            "snapshot answers must be stable"
        );
        // the snapshot shares sealed storage with the original
        assert!(Arc::ptr_eq(&snap.sealed[0], &sharded.sealed[0]));
    }

    #[test]
    fn non_finite_rows_behave_like_flat() {
        // non-finite rows are stored as zero rows (in both sealed shards
        // and the tail here). Against a query with no positive component
        // a zero row scores -0.0 on the flat index, and every batch must
        // keep that sign: `serve` prints scores with `{:+.4}`
        let mut flat = EmbeddingIndex::new(2);
        let mut sharded = ShardedEmbeddingIndex::new(2, 2);
        let rows: [&[f32]; 5] = [
            &[f32::NAN, 1.0],
            &[1.0, 0.0],
            &[0.5, 0.5],
            &[0.0, 0.0],
            &[0.0, 0.0],
        ];
        for (i, row) in rows.iter().enumerate() {
            flat.insert(row, i);
            sharded.insert(row, i);
        }
        let queries = vec![vec![1.0, 0.1], vec![-0.5, -0.25]];
        for opts in option_grid() {
            let batch = sharded.query_many(&queries, 5, &opts);
            for (q, (hits, _)) in queries.iter().zip(&batch) {
                assert_eq!(bits(hits), bits(&flat.query(q, 5)), "{q:?} {opts:?}");
                assert!(hits.iter().all(|h| h.score.is_finite()));
            }
        }
    }

    #[test]
    fn all_zero_shards_prune_cleanly() {
        // a sealed shard of poisoned (zeroed) rows has bound 0; once the
        // floor is positive it is skipped, and the results still match
        let mut flat = EmbeddingIndex::new(2);
        let mut sharded = ShardedEmbeddingIndex::new(2, 2);
        let rows: [&[f32]; 6] = [
            &[1.0, 0.0],
            &[0.9, 0.1],
            &[f32::NAN, 1.0],
            &[0.0, 0.0],
            &[0.8, 0.3],
            &[0.7, 0.2],
        ];
        for (i, row) in rows.iter().enumerate() {
            flat.insert(row, i);
            sharded.insert(row, i);
        }
        let opts = QueryOptions {
            prune: true,
            threads: 1,
        };
        let (hits, stats) = sharded.query_opts(&[1.0, 0.05], 2, &opts);
        assert_eq!(bits(&hits), bits(&flat.query(&[1.0, 0.05], 2)));
        assert!(stats.sealed_pruned >= 1, "zero-bound shard not pruned");
    }

    #[test]
    fn huge_k_dumps_everything_like_flat() {
        // k >> len (even usize::MAX) is a legitimate "give me everything"
        // call on the flat index; the sharded one must accept it without
        // sizing heaps from k
        let (flat, sharded) = both(13, 4, 5);
        let q = [0.2, -0.4, 0.6, 0.1];
        for k in [13, 14, 1 << 40, usize::MAX] {
            assert_eq!(
                bits(&sharded.query(&q, k)),
                bits(&flat.query(&q, k)),
                "k={k}"
            );
        }
    }

    #[test]
    fn zero_k_and_empty_index_query_to_nothing() {
        let idx = ShardedEmbeddingIndex::new(3, 8);
        assert!(idx.is_empty());
        assert!(idx.query(&[1.0, 0.0, 0.0], 5).is_empty());
        // k == 0 is "report nothing", not a panic — matching the flat index
        let (_, filled) = both(5, 3, 2);
        assert!(filled.query(&[1.0, 0.0, 0.0], 0).is_empty());
        let (hits, stats) = filled.query_opts(&[1.0, 0.0, 0.0], 0, &QueryOptions::default());
        assert!(hits.is_empty());
        assert_eq!(stats.rows_scanned, 0);
    }

    // --- rebalance ------------------------------------------------------

    /// Clustered rows inserted in round-robin (worst-case) arrival order:
    /// every shard holds a slice of every cluster, so bounds overlap and
    /// pruning is hopeless until a rebalance regroups them.
    fn scattered_clusters(dim: usize, clusters: usize, per: usize) -> Vec<(Vec<f32>, usize)> {
        let mut rows = Vec::new();
        for i in 0..per {
            for c in 0..clusters {
                let mut row = vec![0.0f32; dim];
                row[c] = 1.0;
                row[(c + 1) % dim] = 0.03 * i as f32;
                rows.push((row, c));
            }
        }
        rows
    }

    #[test]
    fn rebalance_restores_pruning_on_scattered_arrival() {
        let dim = 8;
        let mut index = ShardedEmbeddingIndex::new(dim, 8);
        for (row, c) in scattered_clusters(dim, 8, 8) {
            index.insert(&row, c);
        }
        let mut q = vec![0.0f32; dim];
        q[3] = 1.0;
        let opts = QueryOptions {
            prune: true,
            threads: 1,
        };
        let before_hits = index.query(&q, 4);
        let (_, before) = index.query_opts(&q, 4, &opts);
        assert_eq!(before.sealed_pruned, 0, "round-robin arrival must scatter");
        let report = index.rebalance(&RebalanceOptions::default());
        assert_eq!(report.centroids, 8);
        assert!(report.moved > 0);
        let (after_hits, after) = index.query_opts(&q, 4, &opts);
        assert!(
            after.sealed_pruned >= 5,
            "rebalanced shards must prune: {after:?}"
        );
        // same labels and scores; only storage positions may differ
        let key = |hits: &[QueryHit]| -> Vec<(usize, u32)> {
            hits.iter().map(|h| (h.label, h.score.to_bits())).collect()
        };
        assert_eq!(key(&after_hits), key(&before_hits));
    }

    #[test]
    fn rebalance_is_deterministic_and_preserves_f32_rows() {
        let (_, mut a) = both(40, 5, 4);
        let mut b = a.clone();
        let ra = a.rebalance(&RebalanceOptions::default());
        let rb = b.rebalance(&RebalanceOptions {
            threads: 3,
            ..RebalanceOptions::default()
        });
        assert_eq!(ra, rb, "thread count must not change the outcome");
        assert_eq!(a, b);
        // the row multiset is preserved exactly
        let mut rows_before: Vec<Vec<u32>> = (0..40)
            .map(|i| {
                both(40, 5, 4)
                    .1
                    .normalized_row(i)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            })
            .collect();
        let mut rows_after: Vec<Vec<u32>> = (0..40)
            .map(|i| a.normalized_row(i).iter().map(|v| v.to_bits()).collect())
            .collect();
        rows_before.sort();
        rows_after.sort();
        assert_eq!(rows_before, rows_after);
    }

    #[test]
    fn rebalance_on_tiny_indexes_is_a_no_op() {
        let (_, mut index) = both(5, 3, 8); // tail only, nothing sealed
        let copy = index.clone();
        let report = index.rebalance(&RebalanceOptions::default());
        assert_eq!(report.moved, 0);
        assert_eq!(report.centroids, 0);
        assert_eq!(index, copy);
    }

    #[test]
    fn content_ids_are_stable_and_payload_sensitive() {
        let (_, a) = both(8, 3, 4);
        let (_, b) = both(8, 3, 4);
        assert_eq!(a.sealed[0].content_id, b.sealed[0].content_id);
        assert_ne!(
            a.sealed[0].content_id, a.sealed[1].content_id,
            "different payloads must get different ids"
        );
    }
}
