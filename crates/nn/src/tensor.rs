//! Dense row-major f32 matrices and the raw math kernels.
//!
//! Everything in the model is a 2D matrix (vectors are `1 × d`), which
//! keeps both the autograd tape and the kernels simple.

use serde::{Deserialize, Serialize};

/// A dense row-major matrix of f32.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// A `rows × cols` tensor of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A tensor from explicit row data.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "tensor needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// A tensor wrapping a flat buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "flat buffer size mismatch");
        Self { rows, cols, data }
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// The underlying flat buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The underlying flat buffer, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics on an inner-dimension mismatch.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Tensor::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let orow = &other.data[k * other.cols..(k + 1) * other.cols];
                let dst = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (d, &b) in dst.iter_mut().zip(orow) {
                    *d += a * b;
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Elementwise sum with another tensor of the same shape.
    ///
    /// # Panics
    ///
    /// Panics on a shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Tensor::from_flat(self.rows, self.cols, data)
    }

    /// Elementwise product.
    ///
    /// # Panics
    ///
    /// Panics on a shape mismatch.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "mul shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .collect();
        Tensor::from_flat(self.rows, self.cols, data)
    }

    /// Scalar multiple.
    pub fn scale(&self, s: f32) -> Tensor {
        Tensor::from_flat(
            self.rows,
            self.cols,
            self.data.iter().map(|a| a * s).collect(),
        )
    }

    /// Adds a `1 × cols` row vector to every row.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 × cols`.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Tensor {
        assert_eq!(bias.shape(), (1, self.cols), "bias must be 1 x cols");
        let mut out = self.clone();
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[r * self.cols + c] += bias.data[c];
            }
        }
        out
    }

    /// Mean over rows → `1 × cols`.
    pub fn mean_rows(&self) -> Tensor {
        let mut out = Tensor::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.get(r, c);
            }
        }
        let n = self.rows as f32;
        for v in &mut out.data {
            *v /= n;
        }
        out
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        for r in 0..self.rows {
            let row = &mut out.data[r * self.cols..(r + 1) * self.cols];
            let m = row.iter().copied().fold(f32::MIN, f32::max);
            let mut s = 0.0;
            for v in row.iter_mut() {
                *v = (*v - m).exp();
                s += *v;
            }
            for v in row.iter_mut() {
                *v /= s;
            }
        }
        out
    }

    /// Columns `[start, start + len)` as a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds `cols`.
    pub fn slice_cols(&self, start: usize, len: usize) -> Tensor {
        assert!(start + len <= self.cols, "column slice out of range");
        let mut out = Tensor::zeros(self.rows, len);
        for r in 0..self.rows {
            out.data[r * len..(r + 1) * len]
                .copy_from_slice(&self.data[r * self.cols + start..r * self.cols + start + len]);
        }
        out
    }

    /// Frobenius-style sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Maximum absolute element (0 for empty tensors).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }
}

/// `sqrt(2/pi)`, the GELU tanh approximation's scale.
const GELU_C: f32 = 0.797_884_6;

/// GELU (tanh approximation) applied elementwise.
pub fn gelu(x: f32) -> f32 {
    gelu_tanh(x).0
}

/// Derivative of [`gelu`].
pub fn gelu_grad(x: f32) -> f32 {
    gelu_grad_tanh(x, gelu_tanh(x).1)
}

/// [`gelu`] together with its tanh term `t = tanh(C·(x + 0.044715·x³))`,
/// which [`gelu_grad_tanh`] takes so a backward pass need not recompute
/// it.
pub fn gelu_tanh(x: f32) -> (f32, f32) {
    let t = (GELU_C * (x + 0.044_715 * x * x * x)).tanh();
    (0.5 * x * (1.0 + t), t)
}

/// [`gelu_grad`] from the tanh term `t` that [`gelu_tanh`] returns.
pub fn gelu_grad_tanh(x: f32, t: f32) -> f32 {
    let du = GELU_C * (1.0 + 3.0 * 0.044_715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

/// Logistic sigmoid.
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(t.shape(), (2, 2));
        assert_eq!(t.get(1, 0), 3.0);
        assert_eq!(t.row(0), &[1.0, 2.0]);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.max_abs(), 4.0);
    }

    #[test]
    fn matmul_matches_hand_calc() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Tensor::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn transpose_is_involution() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn softmax_rows_are_distributions() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![-5.0, 0.0, 5.0]]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            for &v in s.row(r) {
                assert!(v > 0.0 && v < 1.0);
            }
        }
        // Monotone within a row.
        assert!(s.get(0, 2) > s.get(0, 1));
    }

    #[test]
    fn broadcast_and_elementwise_ops() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Tensor::from_rows(&[vec![10.0, 20.0]]);
        let c = a.add_row_broadcast(&b);
        assert_eq!(c.as_slice(), &[11.0, 22.0, 13.0, 24.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(a.mul(&a).as_slice(), &[1.0, 4.0, 9.0, 16.0]);
        let m = a.mean_rows();
        assert_eq!(m.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn slice_cols_extracts_a_block() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0, 3.0, 4.0], vec![5.0, 6.0, 7.0, 8.0]]);
        let s = a.slice_cols(1, 2);
        assert_eq!(s.as_slice(), &[2.0, 3.0, 6.0, 7.0]);
    }

    #[test]
    fn gelu_properties() {
        assert!((gelu(0.0)).abs() < 1e-7);
        assert!(gelu(3.0) > 2.9);
        assert!(gelu(-3.0).abs() < 0.01);
        // Numerical derivative check.
        for &x in &[-2.0f32, -0.5, 0.0, 0.7, 2.5] {
            let h = 1e-3;
            let num = (gelu(x + h) - gelu(x - h)) / (2.0 * h);
            assert!((num - gelu_grad(x)).abs() < 1e-3, "x={x}");
        }
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let _ = Tensor::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
