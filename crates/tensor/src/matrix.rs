//! Dense row-major `f32` matrix used throughout the GNN stack.
//!
//! The paper's model is tiny (two GCN layers with 16 hidden units), so a
//! straightforward dense matrix with cache-friendly row-major storage is the
//! right substrate: no BLAS, no unsafe, and every op is easy to verify.

use std::fmt;

/// A dense, row-major matrix of `f32` values.
///
/// # Examples
///
/// ```
/// use gnn4ip_tensor::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(m.get(1, 0), 3.0);
/// assert_eq!(m.matmul(&Matrix::eye(2)), m);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for r in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:9.4}", self.get(r, c))?;
                if c + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 1.0)
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix buffer length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows are ragged.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows in Matrix::from_rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Creates a matrix whose entries are produced by `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a `1 x 1` matrix holding a single scalar.
    pub fn scalar(value: f32) -> Self {
        Self::from_vec(1, 1, vec![value])
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns its flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets entry `(r, c)` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single value of a `1 x 1` matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not `1 x 1`.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() requires a 1x1 matrix");
        self.data[0]
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols());
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Matrix product `self * rhs` written into a caller-provided buffer —
    /// the allocation-free inference kernel behind [`Matrix::matmul`].
    ///
    /// `out` is overwritten (it need not be zeroed) and must already have
    /// shape `self.rows() x rhs.cols()`; pair with
    /// [`Workspace`](crate::Workspace) to reuse scratch across passes.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch or a mis-shaped `out`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, rhs.cols),
            "matmul_into output shape {:?} != {}x{}",
            out.shape(),
            self.rows,
            rhs.cols
        );
        const TILE: usize = 16;
        let (inner, n) = (self.cols, rhs.cols);
        if inner == 0 || n == 0 {
            out.data.fill(0.0);
            return;
        }
        // Every entry sums `a[i][k] * b[k][j]` from +0.0 in k order. A
        // zero `a` adds `±0.0`, which never changes the bits of a sum that
        // starts at +0.0, so for finite `rhs` this equals skipping zero
        // `a`s, without a branch that mispredicts on sparse (ReLU, one-hot)
        // rows. Each output row is built in TILE-wide column tiles held in
        // a fixed-size accumulator while k runs, and the columns past the
        // last whole tile in one scalar accumulator each, so partial sums
        // stay in registers instead of being reloaded from `out` at every k.
        let tiled = n - n % TILE;
        for (arow, orow) in self
            .data
            .chunks_exact(inner)
            .zip(out.data.chunks_exact_mut(n))
        {
            for (j0, otile) in (0..tiled).step_by(TILE).zip(orow.chunks_exact_mut(TILE)) {
                let mut acc = [0.0f32; TILE];
                for (&a, brow) in arow.iter().zip(rhs.data.chunks_exact(n)) {
                    for (s, &b) in acc.iter_mut().zip(&brow[j0..j0 + TILE]) {
                        *s += a * b;
                    }
                }
                otile.copy_from_slice(&acc);
            }
            for (j, o) in (tiled..n).zip(&mut orow[tiled..]) {
                let mut acc = 0.0f32;
                for (&a, brow) in arow.iter().zip(rhs.data.chunks_exact(n)) {
                    acc += a * brow[j];
                }
                *o = acc;
            }
        }
    }

    /// Product against a transposed right-hand side: `self * rhs^T`, without
    /// materializing the transpose.
    ///
    /// `out[i][j] = dot(self.row(i), rhs.row(j))` — the similarity kernel:
    /// for an `n x d` embedding matrix `E`, `E.matmul_nt(&E)` is the full
    /// `n x n` cosine-similarity Gram matrix (after row normalization).
    ///
    /// # Panics
    ///
    /// Panics unless `self.cols() == rhs.cols()`.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.rows());
        self.matmul_nt_into(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul_nt`] into a caller-provided buffer.
    ///
    /// Each entry's dot product starts at `-0.0` and accumulates left to
    /// right over the two contiguous rows — the same operation order as
    /// a scalar `fold(-0.0, |s, (x, y)| s + x * y)` dot — so one entry is
    /// bit-identical to scoring that row pair alone, down to the sign of
    /// a zero (a zero row against one with no positive component gives
    /// `-0.0`, as the scalar dot does).
    ///
    /// Blocked over 64-row tiles of `rhs` so corpus-scale Gram matrices
    /// (`n` in the thousands) keep the tile resident in cache. Each tile
    /// is packed transposed so the sixteen output entries advancing
    /// together read contiguous lanes (a scalar loop takes the
    /// remainder): the independent accumulator chains vectorize and hide
    /// the floating-point add latency that bounds a single dot walk, and
    /// the pack amortizes over every `self` row. Neither touches any
    /// individual entry's operation order.
    ///
    /// # Panics
    ///
    /// Panics unless `self.cols() == rhs.cols()` and `out` is
    /// `self.rows() x rhs.rows()`.
    pub fn matmul_nt_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            rhs.cols(),
            "matmul_nt width mismatch: {}x{} * ({}x{})^T",
            self.rows,
            self.cols,
            rhs.rows(),
            rhs.cols()
        );
        assert_eq!(
            out.shape(),
            (self.rows, rhs.rows()),
            "matmul_nt_into output shape {:?} != {}x{}",
            out.shape(),
            self.rows,
            rhs.rows()
        );
        const BLOCK: usize = 64;
        const LANES: usize = 16;
        let (a, b, dim) = (&self.data, &rhs.data, self.cols);
        let (an, bn) = (self.rows, rhs.rows());
        let out = &mut out.data;
        // bᵀ tile pack: pack[t * jw + jj] = b[(jb + jj) * dim + t]. The
        // transpose makes the LANES entries advancing together
        // *contiguous* in the inner loop, so it vectorizes as plain SIMD
        // lanes instead of one strided load per accumulator chain; one
        // 8 KiB-per-32-dims tile amortizes over every `a` row, and the
        // 2x16 micro-kernel reuses each tile load for two `a` rows.
        let mut pack = vec![0.0f32; BLOCK.min(bn) * dim];
        for jb in (0..bn).step_by(BLOCK) {
            let jmax = (jb + BLOCK).min(bn);
            let jw = jmax - jb;
            for jj in 0..jw {
                let brow = &b[(jb + jj) * dim..(jb + jj + 1) * dim];
                for (t, &v) in brow.iter().enumerate() {
                    pack[t * jw + jj] = v;
                }
            }
            let mut i = 0;
            while i + 2 <= an {
                let a0 = &a[i * dim..(i + 1) * dim];
                let a1 = &a[(i + 1) * dim..(i + 2) * dim];
                let mut jj = 0;
                while jj + LANES <= jw {
                    let mut s0 = [-0.0f32; LANES];
                    let mut s1 = [-0.0f32; LANES];
                    for t in 0..dim {
                        let (av0, av1) = (a0[t], a1[t]);
                        let tile = &pack[t * jw + jj..t * jw + jj + LANES];
                        for ((x0, x1), &tv) in s0.iter_mut().zip(&mut s1).zip(tile) {
                            *x0 += av0 * tv;
                            *x1 += av1 * tv;
                        }
                    }
                    out[i * bn + jb + jj..i * bn + jb + jj + LANES].copy_from_slice(&s0);
                    out[(i + 1) * bn + jb + jj..(i + 1) * bn + jb + jj + LANES]
                        .copy_from_slice(&s1);
                    jj += LANES;
                }
                while jj < jw {
                    let (mut s0, mut s1) = (-0.0f32, -0.0f32);
                    for t in 0..dim {
                        let tv = pack[t * jw + jj];
                        s0 += a0[t] * tv;
                        s1 += a1[t] * tv;
                    }
                    out[i * bn + jb + jj] = s0;
                    out[(i + 1) * bn + jb + jj] = s1;
                    jj += 1;
                }
                i += 2;
            }
            if i < an {
                let arow = &a[i * dim..(i + 1) * dim];
                let orow = &mut out[i * bn + jb..i * bn + jmax];
                let mut jj = 0;
                while jj + LANES <= jw {
                    let mut s = [-0.0f32; LANES];
                    for (t, &av) in arow.iter().enumerate() {
                        let tile = &pack[t * jw + jj..t * jw + jj + LANES];
                        for (sl, &tv) in s.iter_mut().zip(tile) {
                            *sl += av * tv;
                        }
                    }
                    orow[jj..jj + LANES].copy_from_slice(&s);
                    jj += LANES;
                }
                while jj < jw {
                    let mut s = -0.0f32;
                    for (t, &av) in arow.iter().enumerate() {
                        s += av * pack[t * jw + jj];
                    }
                    orow[jj] = s;
                    jj += 1;
                }
            }
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise sum.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a + b)
    }

    /// Elementwise difference.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a * b)
    }

    /// Elementwise combination of two same-shaped matrices.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip_with(&self, rhs: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "elementwise op on mismatched shapes {:?} vs {:?}",
            self.shape(),
            rhs.shape()
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Elementwise map in place (the allocation-free sibling of
    /// [`Matrix::map`]).
    pub fn map_assign(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Scales every entry by `s`.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|v| v * s)
    }

    /// Adds a `1 x cols` row vector to every row (bias broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 x self.cols()`.
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.add_row_broadcast_assign(bias);
        out
    }

    /// Adds a `1 x cols` row vector to every row in place.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 x self.cols()`.
    pub fn add_row_broadcast_assign(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        if self.cols == 0 {
            return;
        }
        for row in self.data.chunks_exact_mut(self.cols) {
            for (v, &b) in row.iter_mut().zip(&bias.data) {
                *v += b;
            }
        }
    }

    /// Multiplies every row `r` by the scalar `col[r]` (an `n x 1` column).
    ///
    /// # Panics
    ///
    /// Panics if `col` is not `self.rows() x 1`.
    pub fn mul_col_broadcast(&self, col: &Matrix) -> Matrix {
        assert_eq!(col.cols, 1, "col must be a column vector");
        assert_eq!(col.rows, self.rows, "col height mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            let s = col.data[r];
            for v in out.row_mut(r) {
                *v *= s;
            }
        }
        out
    }

    /// Gathers the given rows into a new matrix (in `idx` order).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        self.select_rows_into(idx, &mut out);
        out
    }

    /// Gathers the given rows into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds or `out` is not
    /// `idx.len() x self.cols()`.
    pub fn select_rows_into(&self, idx: &[usize], out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (idx.len(), self.cols),
            "select_rows_into output shape mismatch"
        );
        for (to, &from) in idx.iter().enumerate() {
            out.row_mut(to).copy_from_slice(self.row(from));
        }
    }

    /// Column-wise maximum over all rows, with the argmax row per column.
    ///
    /// Returns `(1 x cols max, argmax-row-per-column)`. Used by the
    /// max-pooling graph readout, whose backward routes gradient only to the
    /// argmax rows.
    ///
    /// # Panics
    ///
    /// Panics if the matrix has no rows.
    pub fn col_max(&self) -> (Matrix, Vec<usize>) {
        assert!(self.rows > 0, "col_max on empty matrix");
        let mut max = self.row(0).to_vec();
        let mut arg = vec![0usize; self.cols];
        for r in 1..self.rows {
            for (c, &v) in self.row(r).iter().enumerate() {
                if v > max[c] {
                    max[c] = v;
                    arg[c] = r;
                }
            }
        }
        (Matrix::from_vec(1, self.cols, max), arg)
    }

    /// Column-wise mean over all rows (`1 x cols`).
    ///
    /// # Panics
    ///
    /// Panics if the matrix has no rows.
    pub fn col_mean(&self) -> Matrix {
        assert!(self.rows > 0, "col_mean on empty matrix");
        self.col_sum().scale(1.0 / self.rows as f32)
    }

    /// Column-wise sum over all rows (`1 x cols`).
    pub fn col_sum(&self) -> Matrix {
        let mut sum = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (c, &v) in self.row(r).iter().enumerate() {
                sum[c] += v;
            }
        }
        Matrix::from_vec(1, self.cols, sum)
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Euclidean (Frobenius) norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Dot product of two matrices viewed as flat vectors.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn dot(&self, rhs: &Matrix) -> f32 {
        assert_eq!(self.shape(), rhs.shape(), "dot on mismatched shapes");
        self.data.iter().zip(&rhs.data).map(|(&a, &b)| a * b).sum()
    }

    /// Maximum absolute entry (0 for an empty matrix).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// True when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// True when `self` and `rhs` differ by at most `tol` in every entry.
    pub fn approx_eq(&self, rhs: &Matrix, tol: f32) -> bool {
        self.shape() == rhs.shape()
            && self
                .data
                .iter()
                .zip(&rhs.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// Accumulates `rhs` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Accumulates `scale * rhs` into `self` in place (axpy).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled_assign(&mut self, rhs: &Matrix, scale: f32) {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "add_scaled_assign shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += scale * b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_eye() {
        assert_eq!(Matrix::zeros(2, 3).sum(), 0.0);
        assert_eq!(Matrix::ones(2, 3).sum(), 6.0);
        let i = Matrix::eye(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.matmul(&Matrix::eye(3)), m);
        assert_eq!(Matrix::eye(2).matmul(&m), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_mismatch_panics() {
        let _ = Matrix::zeros(2, 3).matmul(&Matrix::zeros(2, 3));
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 7 + c) as f32);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(4, 2), m.get(2, 4));
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.add(&b), Matrix::from_rows(&[&[4.0, 2.0]]));
        assert_eq!(a.sub(&b), Matrix::from_rows(&[&[-2.0, -6.0]]));
        assert_eq!(a.hadamard(&b), Matrix::from_rows(&[&[3.0, -8.0]]));
        assert_eq!(a.scale(2.0), Matrix::from_rows(&[&[2.0, -4.0]]));
    }

    #[test]
    fn broadcast_ops() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let bias = Matrix::from_rows(&[&[10.0, 20.0]]);
        assert_eq!(
            x.add_row_broadcast(&bias),
            Matrix::from_rows(&[&[11.0, 22.0], &[13.0, 24.0]])
        );
        let col = Matrix::from_vec(2, 1, vec![2.0, -1.0]);
        assert_eq!(
            x.mul_col_broadcast(&col),
            Matrix::from_rows(&[&[2.0, 4.0], &[-3.0, -4.0]])
        );
    }

    #[test]
    fn select_rows_gathers_in_order() {
        let x = Matrix::from_fn(4, 2, |r, c| (r * 10 + c) as f32);
        let g = x.select_rows(&[2, 0, 2]);
        assert_eq!(g.row(0), &[20.0, 21.0]);
        assert_eq!(g.row(1), &[0.0, 1.0]);
        assert_eq!(g.row(2), &[20.0, 21.0]);
    }

    #[test]
    fn col_reductions() {
        let x = Matrix::from_rows(&[&[1.0, 5.0], &[3.0, 2.0], &[2.0, 2.0]]);
        let (mx, arg) = x.col_max();
        assert_eq!(mx, Matrix::from_rows(&[&[3.0, 5.0]]));
        assert_eq!(arg, vec![1, 0]);
        assert_eq!(x.col_sum(), Matrix::from_rows(&[&[6.0, 9.0]]));
        assert!(x
            .col_mean()
            .approx_eq(&Matrix::from_rows(&[&[2.0, 3.0]]), 1e-6));
    }

    #[test]
    fn norms_and_dot() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
        let b = Matrix::from_rows(&[&[1.0, 2.0]]);
        assert_eq!(a.dot(&b), 11.0);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = Matrix::zeros(1, 2);
        a.add_assign(&Matrix::from_rows(&[&[1.0, 2.0]]));
        a.add_scaled_assign(&Matrix::from_rows(&[&[1.0, 1.0]]), 0.5);
        assert_eq!(a, Matrix::from_rows(&[&[1.5, 2.5]]));
    }

    #[test]
    fn item_and_scalar() {
        assert_eq!(Matrix::scalar(3.5).item(), 3.5);
    }

    #[test]
    #[should_panic(expected = "item() requires")]
    fn item_requires_1x1() {
        let _ = Matrix::zeros(2, 1).item();
    }

    #[test]
    fn matmul_into_matches_matmul() {
        let a = Matrix::from_fn(5, 3, |r, c| (r * 3 + c) as f32 - 4.0);
        let b = Matrix::from_fn(3, 7, |r, c| (r * 7 + c) as f32 * 0.25 - 2.0);
        let mut out = Matrix::filled(5, 7, 99.0); // garbage must be overwritten
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
    }

    /// The tiled kernel against a plain i-k-j loop (per-entry sums from
    /// 0.0 in k order, zero `a`s skipped), bit for bit, at widths on both
    /// sides of whole tiles and with zeros, negative zeros and empty
    /// dimensions.
    #[test]
    fn matmul_into_matches_ikj_reference_bitwise() {
        for (m, k, n) in [(0, 3, 4), (3, 0, 5), (4, 3, 0), (7, 5, 1), (5, 16, 16)]
            .into_iter()
            .chain((1..=35).map(|n| (6, 4, n)))
        {
            let a = Matrix::from_fn(m, k, |r, c| match (r * 7 + c * 3) % 5 {
                0 => 0.0,
                1 => -0.0,
                x => (x as f32 - 2.5) / (c as f32 + 1.3),
            });
            let b = Matrix::from_fn(k, n, |r, c| ((r * 11 + c * 5) % 9) as f32 * 0.37 - 1.1);
            let mut want = vec![0.0f32; m * n];
            for i in 0..m {
                for kk in 0..k {
                    let av = a.get(i, kk);
                    if av == 0.0 {
                        continue;
                    }
                    for j in 0..n {
                        want[i * n + j] += av * b.get(kk, j);
                    }
                }
            }
            let mut got = Matrix::filled(m, n, f32::NAN);
            a.matmul_into(&b, &mut got);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got.as_slice()), bits(&want), "{m}x{k} * {k}x{n}");
        }
    }

    #[test]
    #[should_panic(expected = "matmul_into output shape")]
    fn matmul_into_rejects_wrong_shape() {
        let a = Matrix::zeros(2, 2);
        let mut out = Matrix::zeros(3, 3);
        a.matmul_into(&a.clone(), &mut out);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        // sizes straddling the 64-wide block boundary
        for (m, n, d) in [(3, 5, 4), (70, 65, 16), (1, 130, 8)] {
            let a = Matrix::from_fn(m, d, |r, c| ((r * 13 + c * 7) % 11) as f32 - 5.0);
            let b = Matrix::from_fn(n, d, |r, c| ((r * 5 + c * 3) % 9) as f32 - 4.0);
            let fast = a.matmul_nt(&b);
            let slow = a.matmul(&b.transpose());
            assert!(fast.approx_eq(&slow, 1e-4), "mismatch at {m}x{n}x{d}");
        }
    }

    #[test]
    #[should_panic(expected = "matmul_nt width mismatch")]
    fn matmul_nt_rejects_width_mismatch() {
        let _ = Matrix::zeros(2, 3).matmul_nt(&Matrix::zeros(2, 4));
    }

    #[test]
    fn matmul_nt_entries_are_bit_identical_to_scalar_dots() {
        // straddle the 64-row block boundary on both operands. The `true`
        // cases zero `b` rows 3 and 18 (the packed micro-kernel and its
        // scalar tail at m = 1, 2 and 3) against an `a` with no positive
        // component: every product is -0.0, and so is the dot from -0.0
        for (m, n, d, zero_rows) in [
            (3, 5, 4, false),
            (70, 65, 16, false),
            (1, 130, 8, false),
            (1, 7, 3, false),
            (1, 21, 4, true),
            (2, 21, 4, true),
            (3, 21, 4, true),
        ] {
            let a: Vec<f32> = (0..m * d)
                .map(|i| {
                    let v = ((i * 13) % 11) as f32 / 7.0 - 0.5;
                    if zero_rows {
                        -v.abs() - 0.1
                    } else {
                        v
                    }
                })
                .collect();
            let b: Vec<f32> = (0..n * d)
                .map(|i| {
                    if zero_rows && matches!(i / d, 3 | 18) {
                        0.0
                    } else {
                        ((i * 5) % 9) as f32 / 3.0 - 1.0
                    }
                })
                .collect();
            let out = Matrix::from_vec(m, d, a.clone())
                .matmul_nt(&Matrix::from_vec(n, d, b.clone()))
                .into_vec();
            for i in 0..m {
                for j in 0..n {
                    let dot = a[i * d..(i + 1) * d]
                        .iter()
                        .zip(&b[j * d..(j + 1) * d])
                        .fold(-0.0f32, |s, (&x, &y)| s + x * y);
                    assert_eq!(
                        out[i * n + j].to_bits(),
                        dot.to_bits(),
                        "entry ({i},{j}) of {m}x{n}x{d} not bit-identical: {} vs {dot}",
                        out[i * n + j]
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "matmul_nt_into output shape")]
    fn matmul_nt_into_rejects_bad_output_shape() {
        let mut out = Matrix::zeros(1, 3);
        Matrix::zeros(1, 2).matmul_nt_into(&Matrix::zeros(1, 2), &mut out);
    }

    #[test]
    fn map_assign_matches_map() {
        let m = Matrix::from_rows(&[&[-1.0, 2.0], &[3.0, -4.0]]);
        let mut inplace = m.clone();
        inplace.map_assign(|v| v.max(0.0));
        assert_eq!(inplace, m.map(|v| v.max(0.0)));
    }

    #[test]
    fn add_row_broadcast_assign_matches_copy() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let bias = Matrix::from_rows(&[&[10.0, -1.0]]);
        let mut inplace = m.clone();
        inplace.add_row_broadcast_assign(&bias);
        assert_eq!(inplace, m.add_row_broadcast(&bias));
    }

    #[test]
    fn select_rows_into_matches_select_rows() {
        let m = Matrix::from_fn(4, 3, |r, c| (r * 10 + c) as f32);
        let mut out = Matrix::ones(3, 3);
        m.select_rows_into(&[3, 0, 3], &mut out);
        assert_eq!(out, m.select_rows(&[3, 0, 3]));
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut m = Matrix::ones(1, 2);
        assert!(m.is_finite());
        m.set(0, 1, f32::NAN);
        assert!(!m.is_finite());
    }
}
