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

    /// Matrix product `self · other`, under the [crate]-level kernel
    /// contract.
    ///
    /// # Panics
    ///
    /// Panics on an inner-dimension mismatch.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out, false);
        out
    }

    /// `out = self · other`, or `out += self · other` with `add` (the bits
    /// of adding the product as a separate tensor).
    ///
    /// # Panics
    ///
    /// Panics on an inner-dimension or output-shape mismatch.
    pub(crate) fn matmul_into(&self, other: &Tensor, out: &mut Tensor, add: bool) {
        assert_eq!(
            self.cols, other.rows,
            "matmul {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(out.shape(), (self.rows, other.cols), "matmul output shape");
        gemm(
            (self.rows, other.cols, self.cols),
            Strided::rows(&self.data, self.cols),
            Strided::rows(&other.data, other.cols),
            &mut out.data,
            other.cols,
            add,
        );
    }

    /// `out (+)= selfᵀ · other` as in [`Tensor::matmul_into`], without
    /// building the transpose; bit-identical to
    /// `self.transpose().matmul(other)`.
    ///
    /// # Panics
    ///
    /// Panics on a row-count or output-shape mismatch.
    pub(crate) fn transpose_matmul_into(&self, other: &Tensor, out: &mut Tensor, add: bool) {
        assert_eq!(
            self.rows, other.rows,
            "transpose_matmul {}x{}ᵀ · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(out.shape(), (self.cols, other.cols), "matmul output shape");
        gemm(
            (self.cols, other.cols, self.rows),
            Strided::cols(&self.data, self.cols),
            Strided::rows(&other.data, other.cols),
            &mut out.data,
            other.cols,
            add,
        );
    }

    /// Transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        transpose_into(
            &self.data,
            self.shape(),
            self.cols,
            &mut out.data,
            self.rows,
        );
        out
    }

    /// Elementwise `self += other`: the same bits as `self.add(other)`.
    ///
    /// # Panics
    ///
    /// Panics on a shape mismatch.
    pub(crate) fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
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
            let row = &mut out.data[r * self.cols..(r + 1) * self.cols];
            for (o, b) in row.iter_mut().zip(&bias.data) {
                *o += b;
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
            softmax_in_place(&mut out.data[r * self.cols..(r + 1) * self.cols]);
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

/// A read-only strided matrix: element `(r, c)` is `data[r * rs + c * cs]`.
/// A row-major matrix, a block of its columns and its transpose are all
/// views of the same buffer.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Strided<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl<'a> Strided<'a> {
    /// A row-major matrix whose rows start `ld` apart.
    pub(crate) fn rows(data: &'a [f32], ld: usize) -> Self {
        Self {
            data,
            rs: ld,
            cs: 1,
        }
    }

    /// The transpose of a row-major matrix whose rows start `ld` apart.
    pub(crate) fn cols(data: &'a [f32], ld: usize) -> Self {
        Self {
            data,
            rs: 1,
            cs: ld,
        }
    }
}

/// `out[i·ldo + j] = Σₖ a(i, k) · b(k, j)` for `i < m`, `j < n`, `k < depth`;
/// `b` must have unit column stride.
///
/// Each output element is summed over `k` in ascending order from `+0.0`,
/// skipping the terms whose left operand `a(i, k)` is zero, with a
/// separate multiply and add: the exact bits of the naive triple loop.
/// Only the schedule differs: two rows at a time, in column blocks of 24,
/// 16, 8 and the remainder, whose accumulators stay in registers for the
/// whole `k` loop instead of being reloaded and stored once per `k`.
/// With `add` each finished sum is added to the output element instead
/// of replacing it.
pub(crate) fn gemm(
    (m, n, depth): (usize, usize, usize),
    a: Strided<'_>,
    b: Strided<'_>,
    out: &mut [f32],
    ldo: usize,
    add: bool,
) {
    debug_assert_eq!(b.cs, 1, "gemm reads rows of b");
    let k = Gemm {
        depth,
        a,
        b,
        ldo,
        n,
        add,
    };
    let mut i = 0;
    while i + 2 <= m {
        k.rows::<2>(i, out);
        i += 2;
    }
    if i < m {
        k.rows::<1>(i, out);
    }
}

/// One [`gemm`] call's operands.
#[derive(Clone, Copy)]
struct Gemm<'a> {
    depth: usize,
    a: Strided<'a>,
    b: Strided<'a>,
    ldo: usize,
    n: usize,
    add: bool,
}

impl Gemm<'_> {
    /// Output rows `[i, i + R)`, block by block.
    #[inline(always)]
    fn rows<const R: usize>(self, i: usize, out: &mut [f32]) {
        let mut j = 0;
        while j + 24 <= self.n {
            self.block::<R, 24>(i, j, out);
            j += 24;
        }
        if j + 16 <= self.n {
            self.block::<R, 16>(i, j, out);
            j += 16;
        }
        if j + 8 <= self.n {
            self.block::<R, 8>(i, j, out);
            j += 8;
        }
        match self.n - j {
            0 => {}
            1 => self.block::<R, 1>(i, j, out),
            2 => self.block::<R, 2>(i, j, out),
            3 => self.block::<R, 3>(i, j, out),
            4 => self.block::<R, 4>(i, j, out),
            5 => self.block::<R, 5>(i, j, out),
            6 => self.block::<R, 6>(i, j, out),
            _ => self.block::<R, 7>(i, j, out),
        }
    }

    /// Columns `[j, j + W)` of output rows `[i, i + R)`.
    #[inline(always)]
    fn block<const R: usize, const W: usize>(self, i: usize, j: usize, out: &mut [f32]) {
        let (a, b) = (self.a, self.b);
        let mut acc = [[0.0f32; W]; R];
        for k in 0..self.depth {
            let row: [f32; W] = b.data[k * b.rs + j..][..W]
                .try_into()
                .expect("a block of W columns");
            for (r, acc) in acc.iter_mut().enumerate() {
                let x = a.data[(i + r) * a.rs + k * a.cs];
                if x != 0.0 {
                    for (s, &y) in acc.iter_mut().zip(&row) {
                        *s += x * y;
                    }
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            let dst = &mut out[(i + r) * self.ldo + j..][..W];
            if self.add {
                for (d, s) in dst.iter_mut().zip(acc) {
                    *d += s;
                }
            } else {
                dst.copy_from_slice(acc);
            }
        }
    }
}

/// Writes the transpose of the `rows × cols` matrix whose rows start
/// `lds` apart in `src` into `dst`, whose rows start `ldd` apart.
pub(crate) fn transpose_into(
    src: &[f32],
    (rows, cols): (usize, usize),
    lds: usize,
    dst: &mut [f32],
    ldd: usize,
) {
    // 4 × 4 tiles, so each tile moves through registers, then the edges.
    let (r4, c4) = (rows - rows % 4, cols - cols % 4);
    for r in (0..r4).step_by(4) {
        for c in (0..c4).step_by(4) {
            let t: [[f32; 4]; 4] = std::array::from_fn(|i| {
                src[(r + i) * lds + c..][..4]
                    .try_into()
                    .expect("a tile row")
            });
            for j in 0..4 {
                dst[(c + j) * ldd + r..][..4]
                    .copy_from_slice(&[t[0][j], t[1][j], t[2][j], t[3][j]]);
            }
        }
    }
    for r in 0..rows {
        let tail = if r < r4 { c4 } else { 0 };
        for c in tail..cols {
            dst[c * ldd + r] = src[r * lds + c];
        }
    }
}

/// Softmax of one row, in place.
pub(crate) fn softmax_in_place(row: &mut [f32]) {
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The naive triple loop every product kernel must match bit for bit.
    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            for k in 0..a.cols {
                let x = a.get(i, k);
                if x == 0.0 {
                    continue;
                }
                let orow = &b.data[k * b.cols..(k + 1) * b.cols];
                let dst = &mut out.data[i * b.cols..(i + 1) * b.cols];
                for (d, &y) in dst.iter_mut().zip(orow) {
                    *d += x * y;
                }
            }
        }
        out
    }

    /// The element-by-element transpose.
    fn naive_transpose(a: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.cols, a.rows);
        for r in 0..a.rows {
            for c in 0..a.cols {
                out.set(c, r, a.get(r, c));
            }
        }
        out
    }

    fn transpose_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.cols, b.cols);
        a.transpose_matmul_into(b, &mut out, false);
        out
    }

    /// Element bits, with every NaN as one value: which NaN payload a sum
    /// of two NaNs keeps depends on the operand order the compiler picks.
    fn bits(t: &Tensor) -> Vec<u32> {
        let canon = |v: f32| if v.is_nan() { f32::NAN } else { v }.to_bits();
        t.data.iter().map(|&v| canon(v)).collect()
    }

    /// Random entries, a fifth of them `+0.0` or `-0.0`; with `specials`
    /// also `±inf` and NaN.
    fn spiky(rng: &mut StdRng, rows: usize, cols: usize, specials: bool) -> Tensor {
        let data = (0..rows * cols)
            .map(|_| match rng.gen_range(0..20) {
                0 | 1 => 0.0,
                2 | 3 => -0.0,
                4 if specials => f32::INFINITY,
                5 if specials => f32::NEG_INFINITY,
                6 if specials => f32::NAN,
                _ => rng.gen_range(-2.0f32..2.0),
            })
            .collect();
        Tensor::from_flat(rows, cols, data)
    }

    #[test]
    fn kernels_match_the_naive_loops_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(17);
        for case in 0..300 {
            let m = rng.gen_range(1..=50);
            let k = if case % 4 == 0 {
                1
            } else {
                rng.gen_range(1..=50)
            };
            let n = rng.gen_range(1..=50);
            // ±inf and NaN only in the right operand: a zero on the left
            // must skip them, as the naive loop does.
            let a = spiky(&mut rng, m, k, false);
            let b = spiky(&mut rng, k, n, true);
            let shape = format!("{m}x{k} · {k}x{n}");
            assert_eq!(bits(&a.matmul(&b)), bits(&naive_matmul(&a, &b)), "{shape}");
            let at = naive_transpose(&a);
            assert_eq!(bits(&a.transpose()), bits(&at), "transpose {m}x{k}");
            assert_eq!(
                bits(&transpose_matmul(&at, &b)),
                bits(&naive_matmul(&a, &b)),
                "transposed {shape}"
            );
            // Accumulating into an existing output adds the product.
            let c = spiky(&mut rng, m, n, true);
            let want = bits(&c.add(&naive_matmul(&a, &b)));
            let mut got = c.clone();
            a.matmul_into(&b, &mut got, true);
            assert_eq!(bits(&got), want, "accumulated {shape}");
            let mut got = c.clone();
            at.transpose_matmul_into(&b, &mut got, true);
            assert_eq!(bits(&got), want, "accumulated transposed {shape}");
            let mut sum = a.clone();
            let other = spiky(&mut rng, m, k, true);
            sum.add_assign(&other);
            assert_eq!(bits(&sum), bits(&a.add(&other)), "add_assign {m}x{k}");
        }
    }

    #[test]
    fn the_zero_skip_keeps_infinities_out() {
        // 0 · inf would be NaN; the skipped term leaves the sum finite.
        let a = Tensor::from_rows(&[vec![0.0, 1.0], vec![-0.0, 2.0]]);
        let b = Tensor::from_rows(&[vec![f32::INFINITY, f32::NAN], vec![3.0, -4.0]]);
        assert_eq!(a.matmul(&b).as_slice(), &[3.0, -4.0, 6.0, -8.0]);
        let at = a.transpose();
        assert_eq!(
            transpose_matmul(&at, &b).as_slice(),
            &[3.0, -4.0, 6.0, -8.0]
        );
    }

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
