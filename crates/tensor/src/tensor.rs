use rand::rngs::StdRng;
use rand::Rng;

use crate::kernels;
use crate::{Result, TensorError};

/// A dense row-major matrix of `f32`.
///
/// All workspace math is 2-D: node feature matrices `[n, d]`, per-edge score
/// matrices `[e, heads]`, parameter matrices `[d_in, d_out]`, and scalars as
/// `[1, 1]`. Row-major layout keeps per-node feature rows contiguous, which
/// is what the gather/segment kernels iterate over.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// A `rows x cols` tensor of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A `rows x cols` tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// A `1 x 1` tensor holding a single scalar.
    pub fn scalar(value: f32) -> Self {
        Tensor::full(1, 1, value)
    }

    /// Builds a `len x 1` column vector — infallible, since the shape is
    /// derived from the buffer instead of validated against it.
    pub fn column(data: Vec<f32>) -> Self {
        Tensor {
            rows: data.len(),
            cols: 1,
            data,
        }
    }

    /// Builds a tensor from a row-major buffer, validating the length.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::BadBuffer {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Tensor { rows, cols, data })
    }

    /// Builds a tensor from row slices; all rows must have equal length.
    ///
    /// # Panics
    /// Panics if rows have unequal lengths (test/bench convenience only).
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows passed to Tensor::from_rows");
            data.extend_from_slice(row);
        }
        Tensor {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Uniform random tensor in `[lo, hi)`.
    pub fn rand_uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut StdRng) -> Self {
        let data = (0..rows * cols).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor { rows, cols, data }
    }

    /// Glorot/Xavier-uniform initialisation for a `[fan_in, fan_out]` weight.
    pub fn glorot_uniform(fan_in: usize, fan_out: usize, rng: &mut StdRng) -> Self {
        let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
        Tensor::rand_uniform(fan_in, fan_out, -limit, limit, rng)
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The value of the single element of a `1 x 1` tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not `1 x 1`.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() on non-scalar tensor");
        self.data[0]
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// A borrowed view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self @ rhs`, validated (see
    /// [`kernels::matmul_into`] for the loop structure).
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor> {
        if self.cols != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        Ok(self.matmul_unchecked(rhs))
    }

    /// `self @ rhs` for shapes the caller has already checked.
    pub(crate) fn matmul_unchecked(&self, rhs: &Tensor) -> Tensor {
        debug_assert_eq!(self.cols, rhs.rows);
        let mut out = Tensor::zeros(self.rows, rhs.cols);
        kernels::matmul_into(
            &self.data,
            &rhs.data,
            &mut out.data,
            self.rows,
            self.cols,
            rhs.cols,
        );
        out
    }

    /// `self^T @ rhs`.
    pub fn matmul_tn(&self, rhs: &Tensor) -> Result<Tensor> {
        if self.rows != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_tn",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        Ok(self.matmul_tn_unchecked(rhs))
    }

    /// `self^T @ rhs` for shapes the caller has already checked.
    pub(crate) fn matmul_tn_unchecked(&self, rhs: &Tensor) -> Tensor {
        debug_assert_eq!(self.rows, rhs.rows);
        let mut out = Tensor::zeros(self.cols, rhs.cols);
        kernels::matmul_tn_into(
            &self.data,
            &rhs.data,
            &mut out.data,
            self.cols,
            self.rows,
            rhs.cols,
        );
        out
    }

    /// `self @ rhs^T`.
    pub fn matmul_nt(&self, rhs: &Tensor) -> Result<Tensor> {
        if self.cols != rhs.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_nt",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        // `out[i][j] = Σ_k self[i][k] · rhs[j][k]`, `k` in order — exactly the
        // sum `matmul` forms against the transpose, so take its blocked kernel
        // (many `j` in flight per pass) for the price of one weight-sized copy.
        Ok(self.matmul_unchecked(&rhs.transpose()))
    }

    /// The materialised transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Elementwise in-place addition; shapes must match.
    pub fn add_assign(&mut self, rhs: &Tensor) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "add_assign",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        self.add_assign_unchecked(rhs);
        Ok(())
    }

    /// Elementwise in-place addition for shapes the caller has already
    /// checked.
    pub(crate) fn add_assign_unchecked(&mut self, rhs: &Tensor) {
        debug_assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// In-place scaling by a scalar.
    pub fn scale_assign(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise `f(self, rhs)` into a new tensor; shapes must match.
    pub(crate) fn zip_map(&self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        debug_assert_eq!(self.shape(), rhs.shape(), "elementwise shape mismatch");
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&x, &y)| f(x, y))
                .collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Fills the tensor with zeros, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Maximum absolute elementwise difference to another tensor of the same
    /// shape. Used by the distributed-training tests to assert replica
    /// weight equality after a DDP step.
    pub fn max_abs_diff(&self, rhs: &Tensor) -> f32 {
        assert_eq!(self.shape(), rhs.shape());
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn matmul_matches_hand_computed_product() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Tensor::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_shape_mismatch_is_an_error() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Tensor::rand_uniform(4, 3, -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(4, 5, -1.0, 1.0, &mut rng);
        let fast = a.matmul_tn(&b).unwrap();
        let slow = a.transpose().matmul(&b).unwrap();
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fast), bits(&slow), "same k order, same bits");
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Tensor::rand_uniform(4, 3, -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(5, 3, -1.0, 1.0, &mut rng);
        let fast = a.matmul_nt(&b).unwrap();
        let slow = a.matmul(&b.transpose()).unwrap();
        assert!(fast.max_abs_diff(&slow) < 1e-6);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(Tensor::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn glorot_bounds_hold() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = Tensor::glorot_uniform(10, 20, &mut rng);
        let limit = (6.0f32 / 30.0).sqrt();
        assert!(t.data().iter().all(|&x| x.abs() <= limit));
    }

    #[test]
    fn row_views_are_contiguous() {
        let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(t.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn scalar_item_roundtrip() {
        assert_eq!(Tensor::scalar(4.5).item(), 4.5);
    }
}
