//! A corpus-scale cosine-similarity index over hw2vec embeddings.
//!
//! §IV-C argues hw2vec embeddings separate designs in embedding space; the
//! deployment consequence is a *library*: embed every owned IP once, then
//! answer "what is this suspect closest to?" forever. [`EmbeddingIndex`]
//! stores row-normalized embeddings in one contiguous matrix, so a query
//! is a single matrix-vector product and the full pairwise similarity
//! of `n` entries is one blocked `E · Eᵀ` gemm instead of `n²` scalar
//! dot-product calls.

use gnn4ip_tensor::Matrix;

/// One query result: the neighbor's position, label, and cosine score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryHit {
    /// Insertion index of the neighbor.
    pub index: usize,
    /// Label the neighbor was inserted with.
    pub label: usize,
    /// Cosine similarity to the query, in `[-1, 1]`.
    pub score: f32,
}

/// An incrementally built index of row-normalized embeddings.
///
/// # Examples
///
/// ```
/// use gnn4ip_eval::EmbeddingIndex;
///
/// let mut index = EmbeddingIndex::new(2);
/// index.insert(&[1.0, 0.0], 0);
/// index.insert(&[0.9, 0.1], 0);
/// index.insert(&[0.0, 2.0], 1);
/// let hits = index.query(&[1.0, 0.05], 2);
/// assert_eq!(hits.len(), 2);
/// assert_eq!(hits[0].label, 0); // nearest neighbors are the x-axis cluster
/// assert!(hits[0].score >= hits[1].score);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingIndex {
    dim: usize,
    /// Row-major `len x dim` normalized embeddings (zero rows for
    /// zero-norm or non-finite inputs, which score 0 against everything).
    data: Vec<f32>,
    labels: Vec<usize>,
}

/// Appends the row-normalized form of `embedding` to `out`.
///
/// Rows containing a NaN/inf component — or whose norm is not a normal
/// positive float — are stored as zero rows: they score 0 against every
/// query instead of poisoning top-k order with NaN comparisons. The flat
/// and sharded indexes share this one implementation so their stored rows
/// are bit-identical for identical inputs.
pub(crate) fn normalize_into(embedding: &[f32], out: &mut Vec<f32>) {
    let norm = embedding.iter().map(|v| v * v).sum::<f32>().sqrt();
    if !norm.is_finite() || norm < 1e-12 || embedding.iter().any(|v| !v.is_finite()) {
        out.extend(std::iter::repeat_n(0.0, embedding.len()));
    } else {
        out.extend(embedding.iter().map(|v| v / norm));
    }
}

/// Cosine score of a *normalized* row against a raw query with
/// precomputed norm `qnorm` (pass a non-finite or sub-`1e-12` `qnorm` to
/// force the zero-query path). The flat index scores every row with it;
/// the sharded index's scoring kernel accumulates each row in the same
/// order from the same `-0.0` start and divides the same way, so a zero
/// row scores `-0.0` against a query with no positive component on both.
pub(crate) fn score_row(row: &[f32], query: &[f32], qnorm: f32) -> f32 {
    if !qnorm.is_finite() || qnorm < 1e-12 {
        return 0.0;
    }
    let dot = row.iter().zip(query).fold(-0.0f32, |s, (&r, &q)| s + r * q);
    dot / qnorm
}

/// Norm of a query vector, collapsed to `0.0` when any component is
/// non-finite so [`score_row`] takes the zero-query path.
pub(crate) fn query_norm(query: &[f32]) -> f32 {
    if query.iter().any(|v| !v.is_finite()) {
        return 0.0;
    }
    query.iter().map(|v| v * v).sum::<f32>().sqrt()
}

impl EmbeddingIndex {
    /// Creates an empty index over `dim`-dimensional embeddings.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        Self {
            dim,
            data: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Builds an index from parallel embedding/label slices, inferring the
    /// dimension from the first embedding. For a possibly-empty corpus use
    /// [`EmbeddingIndex::from_embeddings_dim`], which cannot panic on
    /// emptiness.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length, are empty, or hold ragged
    /// embeddings.
    pub fn from_embeddings(embeddings: &[Vec<f32>], labels: &[usize]) -> Self {
        let dim = embeddings
            .first()
            // g4check: allow(unwrap-in-lib): the empty-set panic is this constructor's documented contract; from_embeddings_dim is the non-panicking form
            .expect("cannot infer dimension from an empty set; use from_embeddings_dim")
            .len();
        Self::from_embeddings_dim(dim, embeddings, labels)
    }

    /// Builds an index of explicit dimension `dim` from parallel
    /// embedding/label slices — the empty-corpus-safe form of
    /// [`EmbeddingIndex::from_embeddings`].
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero, the slices differ in length, or any
    /// embedding disagrees with `dim`.
    pub fn from_embeddings_dim(dim: usize, embeddings: &[Vec<f32>], labels: &[usize]) -> Self {
        assert_eq!(embeddings.len(), labels.len(), "embeddings/labels mismatch");
        let mut index = Self::new(dim);
        for (e, &l) in embeddings.iter().zip(labels) {
            index.insert(e, l);
        }
        index
    }

    /// Number of indexed embeddings.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Labels in insertion order.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Appends one embedding (normalized on the way in). Embeddings with a
    /// NaN/inf component, like zero-norm ones, are stored as zero rows and
    /// score 0 against every query — they can never corrupt top-k order.
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
        normalize_into(embedding, &mut self.data);
        self.labels.push(label);
    }

    /// The stored (normalized) row at insertion index `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    pub fn normalized_row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The `k` nearest neighbors of `query` by cosine similarity, highest
    /// first (ties broken by insertion index). Returns fewer than `k` hits
    /// only when the index holds fewer entries; `k == 0` (like an empty
    /// index) yields an empty hit list rather than being an error. A query
    /// with a NaN/inf component is treated like a zero query: every score
    /// is 0.
    ///
    /// # Panics
    ///
    /// Panics on a dimension mismatch.
    pub fn query(&self, query: &[f32], k: usize) -> Vec<QueryHit> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        if k == 0 {
            return Vec::new();
        }
        let qnorm = query_norm(query);
        let mut hits: Vec<QueryHit> = (0..self.len())
            .map(|i| QueryHit {
                index: i,
                label: self.labels[i],
                score: score_row(self.normalized_row(i), query, qnorm),
            })
            .collect();
        let k = k.min(hits.len());
        if k < hits.len() {
            hits.select_nth_unstable_by(k, Self::rank);
            hits.truncate(k);
        }
        hits.sort_unstable_by(Self::rank);
        hits
    }

    /// Total order on hits: score descending, insertion index ascending.
    /// Scores are always finite (non-finite inputs are zeroed on insert and
    /// query), so the `partial_cmp` fallback is unreachable in practice —
    /// it remains only as a belt against future score sources.
    pub(crate) fn rank(a: &QueryHit, b: &QueryHit) -> std::cmp::Ordering {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.index.cmp(&b.index))
    }

    /// The full `n x n` cosine-similarity Gram matrix, computed as one
    /// blocked `E · Eᵀ` product over the normalized embedding matrix.
    pub fn pairwise_similarity(&self) -> Matrix {
        let e = Matrix::from_vec(self.len(), self.dim, self.data.clone());
        e.matmul_nt(&e)
    }

    /// Mean precision@k of same-label retrieval over the indexed points:
    /// for each entry, the fraction of its `k` nearest neighbors (excluding
    /// itself) that share its label, averaged over all entries.
    ///
    /// Computed from one blocked Gram matrix rather than per-query scans.
    /// `k` is clamped to `len() - 1` (each point has only that many
    /// neighbors); an index with fewer than two points has no neighborhoods
    /// at all and reports 0.0 instead of aborting small-corpus callers.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn precision_at_k(&self, k: usize) -> f64 {
        assert!(k > 0, "k must be positive");
        let n = self.len();
        if n < 2 {
            return 0.0;
        }
        let k = k.min(n - 1);
        let sims = self.pairwise_similarity();
        let mut total = 0.0f64;
        let mut order: Vec<usize> = Vec::with_capacity(n);
        for q in 0..n {
            let row = sims.row(q);
            order.clear();
            order.extend((0..n).filter(|&j| j != q));
            order.select_nth_unstable_by(k - 1, |&a, &b| {
                row[b]
                    .partial_cmp(&row[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            let hits = order[..k]
                .iter()
                .filter(|&&j| self.labels[j] == self.labels[q])
                .count();
            total += hits as f64 / k as f64;
        }
        total / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clustered() -> EmbeddingIndex {
        let mut idx = EmbeddingIndex::new(3);
        for i in 0..5 {
            idx.insert(&[1.0, 0.0, 0.001 * i as f32], 0);
            idx.insert(&[0.0, 1.0, 0.001 * i as f32], 1);
        }
        idx
    }

    #[test]
    fn query_returns_sorted_same_cluster_hits() {
        let idx = clustered();
        let hits = idx.query(&[2.0, 0.1, 0.0], 4);
        assert_eq!(hits.len(), 4);
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        assert!(hits.iter().all(|h| h.label == 0));
    }

    #[test]
    fn query_scores_match_plain_cosine() {
        let mut idx = EmbeddingIndex::new(2);
        idx.insert(&[3.0, 4.0], 7); // normalizes to [0.6, 0.8]
        let hits = idx.query(&[1.0, 0.0], 1);
        assert_eq!(hits[0].index, 0);
        assert_eq!(hits[0].label, 7);
        assert!((hits[0].score - 0.6).abs() < 1e-6);
    }

    #[test]
    fn query_handles_small_index_and_zero_query() {
        let mut idx = EmbeddingIndex::new(2);
        idx.insert(&[1.0, 0.0], 0);
        assert_eq!(idx.query(&[1.0, 0.0], 5).len(), 1);
        let zero_hits = idx.query(&[0.0, 0.0], 1);
        assert_eq!(zero_hits[0].score, 0.0);
    }

    #[test]
    fn zero_norm_entries_score_zero() {
        let mut idx = EmbeddingIndex::new(2);
        idx.insert(&[0.0, 0.0], 0);
        idx.insert(&[1.0, 0.0], 1);
        let hits = idx.query(&[1.0, 0.0], 2);
        assert_eq!(hits[0].label, 1);
        assert_eq!(hits[1].score, 0.0);
    }

    #[test]
    fn pairwise_similarity_is_symmetric_with_unit_diagonal() {
        let idx = clustered();
        let s = idx.pairwise_similarity();
        assert_eq!(s.shape(), (10, 10));
        assert!(s.approx_eq(&s.transpose(), 1e-5));
        for i in 0..10 {
            assert!((s.get(i, i) - 1.0).abs() < 1e-5, "diag {i}");
        }
    }

    #[test]
    fn precision_at_k_is_perfect_for_pure_clusters() {
        let idx = clustered();
        assert!(idx.precision_at_k(3) > 0.99);
    }

    #[test]
    fn incremental_insert_matches_bulk_build() {
        let embeddings: Vec<Vec<f32>> = (0..6)
            .map(|i| vec![(i % 3) as f32 + 1.0, (i % 2) as f32, 0.5])
            .collect();
        let labels: Vec<usize> = (0..6).map(|i| i % 3).collect();
        let bulk = EmbeddingIndex::from_embeddings(&embeddings, &labels);
        let mut inc = EmbeddingIndex::new(3);
        for (e, &l) in embeddings.iter().zip(&labels) {
            inc.insert(e, l);
        }
        assert_eq!(bulk, inc);
    }

    #[test]
    fn non_finite_rows_are_zeroed_and_cannot_corrupt_topk() {
        let mut idx = EmbeddingIndex::new(2);
        idx.insert(&[f32::NAN, 1.0], 0);
        idx.insert(&[1.0, 0.0], 1);
        idx.insert(&[f32::INFINITY, f32::NEG_INFINITY], 2);
        idx.insert(&[0.8, 0.1], 3);
        // the finite rows must rank first with finite scores; the poisoned
        // rows sink to the bottom with exactly 0.0
        let hits = idx.query(&[1.0, 0.0], 4);
        assert_eq!(hits[0].label, 1);
        assert_eq!(hits[1].label, 3);
        assert!(hits.iter().all(|h| h.score.is_finite()));
        assert_eq!(hits[2].score, 0.0);
        assert_eq!(hits[3].score, 0.0);
        // regression: rank() must see no NaN, so top-k of a truncated query
        // is exactly the global best, not an arbitrary survivor
        let top = idx.query(&[1.0, 0.0], 1);
        assert_eq!(top[0].label, 1);
    }

    #[test]
    fn non_finite_query_scores_zero_everywhere() {
        let mut idx = EmbeddingIndex::new(2);
        idx.insert(&[1.0, 0.0], 0);
        idx.insert(&[0.0, 1.0], 1);
        for q in [[f32::NAN, 1.0], [f32::INFINITY, 0.0], [1.0, f32::NAN]] {
            let hits = idx.query(&q, 2);
            assert!(hits.iter().all(|h| h.score == 0.0), "query {q:?}");
            // ties broken by insertion order, deterministically
            assert_eq!(hits[0].index, 0);
            assert_eq!(hits[1].index, 1);
        }
    }

    #[test]
    fn huge_query_norm_falls_back_to_zero_scores() {
        let mut idx = EmbeddingIndex::new(2);
        idx.insert(&[1.0, 0.0], 0);
        // norm overflows f32 -> treated as a zero query, not NaN scores
        let hits = idx.query(&[f32::MAX, f32::MAX], 1);
        assert_eq!(hits[0].score, 0.0);
    }

    #[test]
    fn from_embeddings_dim_accepts_an_empty_corpus() {
        let idx = EmbeddingIndex::from_embeddings_dim(4, &[], &[]);
        assert!(idx.is_empty());
        assert_eq!(idx.dim(), 4);
        assert!(idx.query(&[1.0, 0.0, 0.0, 0.0], 3).is_empty());
        assert_eq!(idx.precision_at_k(5), 0.0);
    }

    #[test]
    fn precision_at_k_clamps_k_to_available_neighbors() {
        let idx = clustered(); // 10 points
                               // k = 100 clamps to 9 neighbors per point instead of panicking
        let clamped = idx.precision_at_k(100);
        assert_eq!(clamped, idx.precision_at_k(9));
        // a singleton index has no neighborhoods at all
        let mut single = EmbeddingIndex::new(2);
        single.insert(&[1.0, 0.0], 0);
        assert_eq!(single.precision_at_k(3), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn insert_rejects_wrong_dimension() {
        EmbeddingIndex::new(3).insert(&[1.0], 0);
    }

    #[test]
    fn zero_k_query_returns_empty() {
        // regression: k == 0 used to panic; a "report nothing" query is a
        // legitimate degenerate request and must return an empty hit list
        let mut idx = EmbeddingIndex::new(1);
        idx.insert(&[1.0], 0);
        assert!(idx.query(&[1.0], 0).is_empty());
        // and on an empty index too
        assert!(EmbeddingIndex::new(1).query(&[1.0], 0).is_empty());
    }
}
