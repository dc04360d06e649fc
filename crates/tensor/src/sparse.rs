//! Compressed sparse row (CSR) matrices for graph adjacency operators.
//!
//! DFGs extracted from netlists average ~3500 nodes; a dense `n x n`
//! adjacency would be ~49 MB per graph. GCN message propagation (Eq. 5 of the
//! paper) only needs `Â · X`, so a CSR product against the dense feature
//! matrix is both the faithful and the practical representation.

use crate::Matrix;

/// A sparse matrix in compressed sparse row format.
///
/// # Examples
///
/// ```
/// use gnn4ip_tensor::{CsrMatrix, Matrix};
///
/// // 2x2 matrix [[0, 1], [2, 0]]
/// let m = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 2.0)]);
/// let x = Matrix::from_rows(&[&[1.0], &[10.0]]);
/// assert_eq!(m.spmm(&x), Matrix::from_rows(&[&[10.0], &[2.0]]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from `(row, col, value)` triplets.
    ///
    /// Duplicate coordinates are summed. Zero-valued triplets are kept (they
    /// are harmless and preserve explicit structure).
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f32)]) -> Self {
        for &(r, c, _) in triplets {
            assert!(
                r < rows && c < cols,
                "triplet ({r},{c}) out of bounds for {rows}x{cols}"
            );
        }
        let mut sorted: Vec<(usize, usize, f32)> = triplets.to_vec();
        sorted.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut indices = Vec::with_capacity(sorted.len());
        let mut values: Vec<f32> = Vec::with_capacity(sorted.len());
        let mut row_of: Vec<usize> = Vec::with_capacity(sorted.len());
        for (r, c, v) in sorted {
            if row_of.last() == Some(&r) && indices.last() == Some(&c) {
                // g4check: allow(unwrap-in-lib): values grows in lockstep with indices, whose last() the guard just matched
                *values.last_mut().expect("values nonempty when merging") += v;
            } else {
                row_of.push(r);
                indices.push(c);
                values.push(v);
            }
        }
        let mut indptr = vec![0usize; rows + 1];
        for &r in &row_of {
            indptr[r + 1] += 1;
        }
        for i in 0..rows {
            indptr[i + 1] += indptr[i];
        }
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates over `(row, col, value)` of stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        (0..self.rows).flat_map(move |r| {
            (self.indptr[r]..self.indptr[r + 1]).map(move |i| (r, self.indices[i], self.values[i]))
        })
    }

    /// Sparse-dense product `self * dense`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn spmm(&self, dense: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, dense.cols());
        self.spmm_into(dense, &mut out);
        out
    }

    /// Sparse-dense product `self * dense` written into a caller-provided
    /// buffer — the allocation-free inference kernel behind
    /// [`CsrMatrix::spmm`]. `out` is overwritten (it need not be zeroed).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch or a mis-shaped `out`.
    pub fn spmm_into(&self, dense: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            dense.rows(),
            "spmm dimension mismatch: {}x{} * {}x{}",
            self.rows,
            self.cols,
            dense.rows(),
            dense.cols()
        );
        assert_eq!(
            out.shape(),
            (self.rows, dense.cols()),
            "spmm_into output shape {:?} != {}x{}",
            out.shape(),
            self.rows,
            dense.cols()
        );
        out.as_mut_slice().fill(0.0);
        let n = dense.cols();
        if n == 0 {
            return;
        }
        for (dst, span) in out
            .as_mut_slice()
            .chunks_exact_mut(n)
            .zip(self.indptr.windows(2))
        {
            let (lo, hi) = (span[0], span[1]);
            for (&c, &v) in self.indices[lo..hi].iter().zip(&self.values[lo..hi]) {
                for (d, &s) in dst.iter_mut().zip(dense.row(c)) {
                    *d += v * s;
                }
            }
        }
    }

    /// Transposed copy (CSR of the transpose).
    pub fn transpose(&self) -> CsrMatrix {
        let triples: Vec<(usize, usize, f32)> = self.iter().map(|(r, c, v)| (c, r, v)).collect();
        CsrMatrix::from_triplets(self.cols, self.rows, &triples)
    }

    /// Densifies into a [`Matrix`] (tests / small graphs only).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            m.set(r, c, m.get(r, c) + v);
        }
        m
    }

    /// Extracts the square submatrix on the given node subset.
    ///
    /// `idx[i]` is the original index of new node `i`. Entries whose row or
    /// column fall outside `idx` are dropped — this is the `A_pool = A[idx,
    /// idx]` step of self-attention graph pooling.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or an index is out of bounds.
    pub fn select_square(&self, idx: &[usize]) -> CsrMatrix {
        assert_eq!(
            self.rows, self.cols,
            "select_square requires a square matrix"
        );
        let mut pos = vec![usize::MAX; self.rows];
        for (new, &old) in idx.iter().enumerate() {
            assert!(old < self.rows, "index {old} out of bounds");
            pos[old] = new;
        }
        let triples: Vec<(usize, usize, f32)> = self
            .iter()
            .filter_map(|(r, c, v)| {
                let (nr, nc) = (pos[r], pos[c]);
                (nr != usize::MAX && nc != usize::MAX).then_some((nr, nc, v))
            })
            .collect();
        CsrMatrix::from_triplets(idx.len(), idx.len(), &triples)
    }
}

/// Builds the symmetric-normalized adjacency `Â = D^-1/2 (A + I) D^-1/2`
/// of Eq. 5 (Kipf & Welling) from a directed edge list on `n` nodes.
///
/// Edges are treated as undirected for message propagation (both `(u, v)` and
/// `(v, u)` receive weight), matching GCN practice; self-loops from `I` are
/// always added so a node's own features survive each propagation step.
///
/// # Examples
///
/// ```
/// use gnn4ip_tensor::normalized_adjacency;
///
/// let a = normalized_adjacency(2, &[(0, 1)]);
/// // Both nodes have degree 2 (self-loop + edge): every weight is 1/2.
/// assert!((a.to_dense().get(0, 1) - 0.5).abs() < 1e-6);
/// assert!((a.to_dense().get(0, 0) - 0.5).abs() < 1e-6);
/// ```
///
/// # Panics
///
/// Panics if an endpoint is `>= n`.
pub fn normalized_adjacency(n: usize, edges: &[(usize, usize)]) -> CsrMatrix {
    let (indptr, indices) = undirected_pattern(n, edges, true);
    // every row holds its self-loop, so every degree is at least 1
    let inv_sqrt: Vec<f32> = indptr
        .windows(2)
        .map(|w| 1.0 / ((w[1] - w[0]) as f32).sqrt())
        .collect();
    let mut values = Vec::with_capacity(indices.len());
    for (r, w) in indptr.windows(2).enumerate() {
        let row = &indices[w[0]..w[1]];
        values.extend(row.iter().map(|&c| inv_sqrt[r] * inv_sqrt[c]));
    }
    CsrMatrix {
        rows: n,
        cols: n,
        indptr,
        indices,
        values,
    }
}

/// Builds the row-normalized neighbor-mean operator `D^-1 A` (no self
/// loops) from a directed edge list treated as undirected — the AGGREGATE
/// step of GraphSAGE-style convolutions (mean of neighbor features).
///
/// Isolated nodes get an all-zero row (their aggregate is the zero vector).
///
/// # Panics
///
/// Panics if an endpoint is `>= n`.
pub fn mean_adjacency(n: usize, edges: &[(usize, usize)]) -> CsrMatrix {
    let (indptr, indices) = undirected_pattern(n, edges, false);
    let mut values = Vec::with_capacity(indices.len());
    for w in indptr.windows(2) {
        let weight = 1.0 / (w[1] - w[0]) as f32;
        values.extend(std::iter::repeat_n(weight, w[1] - w[0]));
    }
    CsrMatrix {
        rows: n,
        cols: n,
        indptr,
        indices,
        values,
    }
}

/// The CSR pattern (`indptr`, `indices`) of the undirected neighbour sets
/// of a directed edge list on `n` nodes: `(u, v)` puts `v` in row `u` and
/// `u` in row `v`. With `self_loops` every node is its own neighbour;
/// without, edges `(u, u)` are ignored. Rows come out sorted and
/// deduplicated, built with one counting pass and one fill, without
/// hashing or a global sort.
///
/// # Panics
///
/// Panics if an endpoint is `>= n`.
fn undirected_pattern(
    n: usize,
    edges: &[(usize, usize)],
    self_loops: bool,
) -> (Vec<usize>, Vec<usize>) {
    let mut indptr = vec![0usize; n + 1];
    if self_loops {
        indptr[1..].fill(1);
    }
    for &(u, v) in edges {
        assert!(u < n && v < n, "edge ({u},{v}) out of bounds for n={n}");
        if u != v || self_loops {
            indptr[u + 1] += 1;
            indptr[v + 1] += 1;
        }
    }
    for i in 0..n {
        indptr[i + 1] += indptr[i];
    }
    let mut fill = indptr[..n].to_vec();
    let mut indices = vec![0usize; indptr[n]];
    let mut put = |r: usize, c: usize| {
        indices[fill[r]] = c;
        fill[r] += 1;
    };
    if self_loops {
        (0..n).for_each(|i| put(i, i));
    }
    for &(u, v) in edges {
        if u != v || self_loops {
            put(u, v);
            put(v, u);
        }
    }
    // sort and dedup each row, sliding it left over the duplicates
    // already dropped; `start` keeps the old row start `indptr[r]` loses
    let mut kept = 0;
    let mut start = 0;
    for r in 0..n {
        let end = indptr[r + 1];
        indices[start..end].sort_unstable();
        indptr[r] = kept;
        for i in start..end {
            let c = indices[i];
            if kept == indptr[r] || indices[kept - 1] != c {
                indices[kept] = c;
                kept += 1;
            }
        }
        start = end;
    }
    indptr[n] = kept;
    indices.truncate(kept);
    (indptr, indices)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_triplets_matches_dense() {
        let m = CsrMatrix::from_triplets(3, 3, &[(0, 1, 2.0), (2, 0, 1.0), (1, 1, -1.0)]);
        let d = m.to_dense();
        assert_eq!(d.get(0, 1), 2.0);
        assert_eq!(d.get(2, 0), 1.0);
        assert_eq!(d.get(1, 1), -1.0);
        assert_eq!(d.get(0, 0), 0.0);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn duplicate_triplets_are_summed() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.5)]);
        assert_eq!(m.to_dense().get(0, 0), 3.5);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        let triples = [(0, 1, 2.0), (1, 0, 3.0), (1, 2, -1.0), (2, 2, 4.0)];
        let s = CsrMatrix::from_triplets(3, 3, &triples);
        let x = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 - 3.0);
        let via_sparse = s.spmm(&x);
        let via_dense = s.to_dense().matmul(&x);
        assert!(via_sparse.approx_eq(&via_dense, 1e-5));
    }

    #[test]
    fn spmm_into_matches_spmm() {
        let s = CsrMatrix::from_triplets(3, 4, &[(0, 3, 1.5), (2, 0, -2.0), (2, 3, 0.5)]);
        let x = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32 - 3.0);
        let mut out = Matrix::filled(3, 2, 42.0); // garbage must be overwritten
        s.spmm_into(&x, &mut out);
        assert_eq!(out, s.spmm(&x));
    }

    #[test]
    #[should_panic(expected = "spmm_into output shape")]
    fn spmm_into_rejects_wrong_shape() {
        let s = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0)]);
        let mut out = Matrix::zeros(3, 1);
        s.spmm_into(&Matrix::zeros(2, 1), &mut out);
    }

    #[test]
    fn transpose_round_trip() {
        let s = CsrMatrix::from_triplets(2, 3, &[(0, 2, 5.0), (1, 0, 1.0)]);
        let t = s.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.to_dense().get(2, 0), 5.0);
        assert_eq!(t.transpose(), s);
    }

    #[test]
    fn select_square_extracts_submatrix() {
        let s = CsrMatrix::from_triplets(
            4,
            4,
            &[
                (0, 1, 1.0),
                (1, 2, 2.0),
                (2, 3, 3.0),
                (3, 0, 4.0),
                (1, 1, 9.0),
            ],
        );
        let sub = s.select_square(&[1, 2]);
        let d = sub.to_dense();
        assert_eq!(d.get(0, 1), 2.0); // old (1,2)
        assert_eq!(d.get(0, 0), 9.0); // old (1,1)
        assert_eq!(d.get(1, 0), 0.0);
    }

    #[test]
    fn normalized_adjacency_rows_are_finite_and_symmetric() {
        let a = normalized_adjacency(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let d = a.to_dense();
        assert!(d.is_finite());
        assert!(d.approx_eq(&d.transpose(), 1e-6));
        // self loops exist
        for i in 0..4 {
            assert!(d.get(i, i) > 0.0);
        }
    }

    #[test]
    fn normalized_adjacency_isolated_node() {
        let a = normalized_adjacency(2, &[]);
        let d = a.to_dense();
        // isolated node with self loop: degree 1, weight 1
        assert!((d.get(0, 0) - 1.0).abs() < 1e-6);
        assert_eq!(d.get(0, 1), 0.0);
    }

    #[test]
    fn normalized_adjacency_dedups_edges() {
        let a = normalized_adjacency(2, &[(0, 1), (0, 1), (1, 0)]);
        let d = a.to_dense();
        assert!((d.get(0, 1) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn mean_adjacency_rows_sum_to_one_or_zero() {
        let a = mean_adjacency(4, &[(0, 1), (0, 2), (1, 2)]);
        let d = a.to_dense();
        for r in 0..4 {
            let sum: f32 = (0..4).map(|c| d.get(r, c)).sum();
            assert!(
                (sum - 1.0).abs() < 1e-6 || sum == 0.0,
                "row {r} sums to {sum}"
            );
        }
        // node 3 is isolated
        assert_eq!((0..4).map(|c| d.get(3, c)).sum::<f32>(), 0.0);
        // no self loops
        for i in 0..4 {
            assert_eq!(d.get(i, i), 0.0);
        }
    }

    #[test]
    fn iter_yields_all_entries() {
        let s = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 2.0)]);
        let got: Vec<_> = s.iter().collect();
        assert_eq!(got, vec![(0, 0, 1.0), (1, 1, 2.0)]);
    }
}
