//! Reverse-mode autograd over a per-forward-pass tape.
//!
//! Every primitive op appends a node holding its inputs (by index) and its
//! forward value; [`Tape::backward`] walks the tape once in reverse,
//! accumulating gradients. Each op's backward rule is verified against
//! central-difference numerical gradients in this module's tests.

use crate::tensor::{gelu_grad_tanh, gelu_tanh, sigmoid, Tensor};

/// Handle to a tape node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

impl Var {
    /// Raw tape index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug)]
enum Op {
    Leaf,
    MatMul(usize, usize),
    Add(usize, usize),
    AddRowBroadcast(usize, usize),
    Mul(usize, usize),
    Scale(usize, f32),
    /// Keeps the forward's tanh terms so backward need not recompute them.
    Gelu {
        x: usize,
        tanh: Vec<f32>,
    },
    Sigmoid(usize),
    SoftmaxRows(usize),
    LayerNormRows {
        x: usize,
        gamma: usize,
        beta: usize,
        eps: f32,
    },
    Transpose(usize),
    MeanRows(usize),
    SliceCols {
        src: usize,
        start: usize,
        len: usize,
    },
    ConcatCols(Vec<usize>),
    SumAll(usize),
    BceWithLogits {
        logits: usize,
        targets: Vec<f32>,
    },
}

#[derive(Debug)]
struct Node {
    op: Op,
    value: Tensor,
}

/// Accumulated gradients per tape node.
#[derive(Debug)]
pub struct Gradients(Vec<Option<Tensor>>);

impl Gradients {
    /// Gradient of the loss w.r.t. a var, if it received any.
    pub fn get(&self, v: Var) -> Option<&Tensor> {
        self.0[v.0].as_ref()
    }
}

/// The autograd tape. Create one per forward pass.
#[derive(Debug, Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Forward value of a var.
    #[inline]
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    fn push(&mut self, op: Op, value: Tensor) -> Var {
        self.nodes.push(Node { op, value });
        Var(self.nodes.len() - 1)
    }

    /// Records an input (leaf) tensor.
    pub fn leaf(&mut self, t: Tensor) -> Var {
        self.push(Op::Leaf, t)
    }

    /// `a · b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        self.push(Op::MatMul(a.0, b.0), v)
    }

    /// `a + b` (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).add(self.value(b));
        self.push(Op::Add(a.0, b.0), v)
    }

    /// `a + bias` with `bias: 1 × cols` broadcast over rows.
    pub fn add_row_broadcast(&mut self, a: Var, bias: Var) -> Var {
        let v = self.value(a).add_row_broadcast(self.value(bias));
        self.push(Op::AddRowBroadcast(a.0, bias.0), v)
    }

    /// Elementwise `a ⊙ b`.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).mul(self.value(b));
        self.push(Op::Mul(a.0, b.0), v)
    }

    /// `s · a`.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let v = self.value(a).scale(s);
        self.push(Op::Scale(a.0, s), v)
    }

    /// Elementwise GELU.
    pub fn gelu(&mut self, a: Var) -> Var {
        let xv = self.value(a);
        let (ys, tanh) = xv.as_slice().iter().map(|&x| gelu_tanh(x)).unzip();
        let v = Tensor::from_flat(xv.rows(), xv.cols(), ys);
        self.push(Op::Gelu { x: a.0, tanh }, v)
    }

    /// Elementwise sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let mut v = self.value(a).clone();
        for x in v.as_mut_slice() {
            *x = sigmoid(*x);
        }
        self.push(Op::Sigmoid(a.0), v)
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let v = self.value(a).softmax_rows();
        self.push(Op::SoftmaxRows(a.0), v)
    }

    /// Row-wise layer normalization with learned `gamma`/`beta`
    /// (`1 × cols` each).
    pub fn layer_norm_rows(&mut self, x: Var, gamma: Var, beta: Var) -> Var {
        let eps = 1e-5_f32;
        let xv = self.value(x);
        let (rows, cols) = xv.shape();
        let g = self.value(gamma).as_slice().to_vec();
        let b = self.value(beta).as_slice().to_vec();
        let mut out = Tensor::zeros(rows, cols);
        for r in 0..rows {
            let row = xv.row(r);
            let mean = row.iter().sum::<f32>() / cols as f32;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
            let inv = 1.0 / (var + eps).sqrt();
            for c in 0..cols {
                out.set(r, c, g[c] * (row[c] - mean) * inv + b[c]);
            }
        }
        self.push(
            Op::LayerNormRows {
                x: x.0,
                gamma: gamma.0,
                beta: beta.0,
                eps,
            },
            out,
        )
    }

    /// Transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.value(a).transpose();
        self.push(Op::Transpose(a.0), v)
    }

    /// Mean over rows → `1 × cols`.
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let v = self.value(a).mean_rows();
        self.push(Op::MeanRows(a.0), v)
    }

    /// Column block `[start, start + len)`.
    pub fn slice_cols(&mut self, a: Var, start: usize, len: usize) -> Var {
        let v = self.value(a).slice_cols(start, len);
        self.push(
            Op::SliceCols {
                src: a.0,
                start,
                len,
            },
            v,
        )
    }

    /// Horizontal concatenation of tensors with equal row counts.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or row counts differ.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat needs at least one part");
        let rows = self.value(parts[0]).rows();
        let total: usize = parts.iter().map(|&p| self.value(p).cols()).sum();
        let mut out = Tensor::zeros(rows, total);
        let mut off = 0;
        for &p in parts {
            let t = self.value(p);
            assert_eq!(t.rows(), rows, "concat row mismatch");
            for r in 0..rows {
                for c in 0..t.cols() {
                    out.set(r, off + c, t.get(r, c));
                }
            }
            off += t.cols();
        }
        self.push(Op::ConcatCols(parts.iter().map(|p| p.0).collect()), out)
    }

    /// Sum of all elements → `1 × 1`.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Tensor::from_flat(1, 1, vec![self.value(a).sum()]);
        self.push(Op::SumAll(a.0), v)
    }

    /// Mean binary cross-entropy with logits against constant targets →
    /// `1 × 1`. Numerically stable form.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` differs from the logit element count.
    pub fn bce_with_logits(&mut self, logits: Var, targets: &[f32]) -> Var {
        let z = self.value(logits);
        assert_eq!(targets.len(), z.as_slice().len(), "one target per logit");
        let n = targets.len() as f32;
        let loss: f32 = z
            .as_slice()
            .iter()
            .zip(targets)
            .map(|(&z, &t)| z.max(0.0) - z * t + (1.0 + (-z.abs()).exp()).ln())
            .sum::<f32>()
            / n;
        self.push(
            Op::BceWithLogits {
                logits: logits.0,
                targets: targets.to_vec(),
            },
            Tensor::from_flat(1, 1, vec![loss]),
        )
    }

    /// Runs backpropagation from a scalar loss var.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not `1 × 1`.
    pub fn backward(&self, loss: Var) -> Gradients {
        assert_eq!(self.value(loss).shape(), (1, 1), "loss must be scalar");
        let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        grads[loss.0] = Some(Tensor::from_flat(1, 1, vec![1.0]));

        for i in (0..=loss.0).rev() {
            let Some(gy) = grads[i].take() else {
                continue;
            };
            match &self.nodes[i].op {
                Op::Leaf => {
                    grads[i] = Some(gy);
                    continue;
                }
                Op::MatMul(a, b) => {
                    let av = &self.nodes[*a].value;
                    let bv = &self.nodes[*b].value;
                    accum(&mut grads, *a, gy.matmul(&bv.transpose()));
                    accum(&mut grads, *b, av.transpose().matmul(&gy));
                }
                Op::Add(a, b) => {
                    accum(&mut grads, *a, gy.clone());
                    accum(&mut grads, *b, gy);
                }
                Op::AddRowBroadcast(a, bias) => {
                    // Bias gradient: column sums.
                    let mut gb = Tensor::zeros(1, gy.cols());
                    for r in 0..gy.rows() {
                        for c in 0..gy.cols() {
                            gb.set(0, c, gb.get(0, c) + gy.get(r, c));
                        }
                    }
                    accum(&mut grads, *bias, gb);
                    accum(&mut grads, *a, gy);
                }
                Op::Mul(a, b) => {
                    let av = self.nodes[*a].value.clone();
                    let bv = self.nodes[*b].value.clone();
                    accum(&mut grads, *a, gy.mul(&bv));
                    accum(&mut grads, *b, gy.mul(&av));
                }
                Op::Scale(a, s) => accum(&mut grads, *a, gy.scale(*s)),
                Op::Gelu { x, tanh } => {
                    let xv = self.nodes[*x].value.as_slice();
                    let mut gx = gy;
                    for ((g, &xi), &t) in gx.as_mut_slice().iter_mut().zip(xv).zip(tanh) {
                        *g *= gelu_grad_tanh(xi, t);
                    }
                    accum(&mut grads, *x, gx);
                }
                Op::Sigmoid(a) => {
                    let yv = &self.nodes[i].value;
                    let mut gx = gy.clone();
                    for (g, &y) in gx.as_mut_slice().iter_mut().zip(yv.as_slice()) {
                        *g *= y * (1.0 - y);
                    }
                    accum(&mut grads, *a, gx);
                }
                Op::SoftmaxRows(a) => {
                    let yv = &self.nodes[i].value;
                    let (rows, cols) = yv.shape();
                    let mut gx = Tensor::zeros(rows, cols);
                    for r in 0..rows {
                        let dot: f32 = (0..cols).map(|c| gy.get(r, c) * yv.get(r, c)).sum();
                        for c in 0..cols {
                            gx.set(r, c, yv.get(r, c) * (gy.get(r, c) - dot));
                        }
                    }
                    accum(&mut grads, *a, gx);
                }
                Op::LayerNormRows {
                    x,
                    gamma,
                    beta,
                    eps,
                } => {
                    let xv = &self.nodes[*x].value;
                    let gv = &self.nodes[*gamma].value;
                    let (rows, cols) = xv.shape();
                    let d = cols as f32;
                    let mut gx = Tensor::zeros(rows, cols);
                    let mut ggamma = Tensor::zeros(1, cols);
                    let mut gbeta = Tensor::zeros(1, cols);
                    for r in 0..rows {
                        let row = xv.row(r);
                        let mean = row.iter().sum::<f32>() / d;
                        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d;
                        let inv = 1.0 / (var + eps).sqrt();
                        let xhat: Vec<f32> = row.iter().map(|v| (v - mean) * inv).collect();
                        // dgamma / dbeta.
                        for (c, &xh) in xhat.iter().enumerate() {
                            ggamma.set(0, c, ggamma.get(0, c) + gy.get(r, c) * xh);
                            gbeta.set(0, c, gbeta.get(0, c) + gy.get(r, c));
                        }
                        // dx.
                        let gyg: Vec<f32> =
                            (0..cols).map(|c| gy.get(r, c) * gv.get(0, c)).collect();
                        let m1 = gyg.iter().sum::<f32>() / d;
                        let m2 = gyg.iter().zip(&xhat).map(|(a, b)| a * b).sum::<f32>() / d;
                        for c in 0..cols {
                            gx.set(r, c, (gyg[c] - m1 - xhat[c] * m2) * inv);
                        }
                    }
                    accum(&mut grads, *x, gx);
                    accum(&mut grads, *gamma, ggamma);
                    accum(&mut grads, *beta, gbeta);
                }
                Op::Transpose(a) => accum(&mut grads, *a, gy.transpose()),
                Op::MeanRows(a) => {
                    let rows = self.nodes[*a].value.rows();
                    let cols = gy.cols();
                    let mut gx = Tensor::zeros(rows, cols);
                    for r in 0..rows {
                        for c in 0..cols {
                            gx.set(r, c, gy.get(0, c) / rows as f32);
                        }
                    }
                    accum(&mut grads, *a, gx);
                }
                Op::SliceCols { src, start, len } => {
                    let (rows, cols) = self.nodes[*src].value.shape();
                    let mut gx = Tensor::zeros(rows, cols);
                    for r in 0..rows {
                        for c in 0..*len {
                            gx.set(r, start + c, gy.get(r, c));
                        }
                    }
                    accum(&mut grads, *src, gx);
                }
                Op::ConcatCols(parts) => {
                    let mut off = 0;
                    for &p in parts {
                        let (rows, cols) = self.nodes[p].value.shape();
                        let mut gp = Tensor::zeros(rows, cols);
                        for r in 0..rows {
                            for c in 0..cols {
                                gp.set(r, c, gy.get(r, off + c));
                            }
                        }
                        accum(&mut grads, p, gp);
                        off += cols;
                    }
                }
                Op::SumAll(a) => {
                    let (rows, cols) = self.nodes[*a].value.shape();
                    let g = gy.get(0, 0);
                    accum(
                        &mut grads,
                        *a,
                        Tensor::from_flat(rows, cols, vec![g; rows * cols]),
                    );
                }
                Op::BceWithLogits { logits, targets } => {
                    let zv = &self.nodes[*logits].value;
                    let (rows, cols) = zv.shape();
                    let n = targets.len() as f32;
                    let g = gy.get(0, 0);
                    let data: Vec<f32> = zv
                        .as_slice()
                        .iter()
                        .zip(targets)
                        .map(|(&z, &t)| g * (sigmoid(z) - t) / n)
                        .collect();
                    accum(&mut grads, *logits, Tensor::from_flat(rows, cols, data));
                }
            }
        }
        Gradients(grads)
    }
}

fn accum(grads: &mut [Option<Tensor>], idx: usize, g: Tensor) {
    match &mut grads[idx] {
        Some(existing) => *existing = existing.add(&g),
        slot @ None => *slot = Some(g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_tensor(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
        Tensor::from_flat(
            rows,
            cols,
            (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
    }

    /// Central-difference gradient check of `f` w.r.t. one leaf.
    ///
    /// `f` builds a scalar loss from leaves; we perturb `leaf_idx`.
    fn grad_check(leaves: &[Tensor], leaf_idx: usize, f: impl Fn(&mut Tape, &[Var]) -> Var) {
        let run = |tensors: &[Tensor]| -> f32 {
            let mut tape = Tape::new();
            let vars: Vec<Var> = tensors.iter().map(|t| tape.leaf(t.clone())).collect();
            let loss = f(&mut tape, &vars);
            tape.value(loss).get(0, 0)
        };
        // Analytic.
        let mut tape = Tape::new();
        let vars: Vec<Var> = leaves.iter().map(|t| tape.leaf(t.clone())).collect();
        let loss = f(&mut tape, &vars);
        let grads = tape.backward(loss);
        let ga = grads
            .get(vars[leaf_idx])
            .expect("leaf participates in the loss")
            .clone();

        let (rows, cols) = leaves[leaf_idx].shape();
        let h = 2e-2_f32;
        for r in 0..rows {
            for c in 0..cols {
                let mut plus = leaves.to_vec();
                let v0 = plus[leaf_idx].get(r, c);
                plus[leaf_idx].set(r, c, v0 + h);
                let mut minus = leaves.to_vec();
                minus[leaf_idx].set(r, c, v0 - h);
                let num = (run(&plus) - run(&minus)) / (2.0 * h);
                let ana = ga.get(r, c);
                let tol = 3e-2 * (1.0 + num.abs().max(ana.abs()));
                assert!(
                    (num - ana).abs() < tol,
                    "grad mismatch at ({r},{c}): numeric {num} vs analytic {ana}"
                );
            }
        }
    }

    #[test]
    fn matmul_and_bce_gradients() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = rand_tensor(&mut rng, 3, 4);
        let w = rand_tensor(&mut rng, 4, 1);
        let targets = vec![1.0, 0.0, 1.0];
        for leaf in 0..2 {
            grad_check(&[x.clone(), w.clone()], leaf, |tape, v| {
                let z = tape.matmul(v[0], v[1]);
                tape.bce_with_logits(z, &targets)
            });
        }
    }

    #[test]
    fn softmax_gradients() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = rand_tensor(&mut rng, 2, 5);
        let w = rand_tensor(&mut rng, 5, 1);
        grad_check(&[x, w], 0, |tape, v| {
            let s = tape.softmax_rows(v[0]);
            let z = tape.matmul(s, v[1]);
            tape.bce_with_logits(z, &[1.0, 0.0])
        });
    }

    #[test]
    fn layernorm_gradients() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = rand_tensor(&mut rng, 3, 4);
        let gamma = rand_tensor(&mut rng, 1, 4);
        let beta = rand_tensor(&mut rng, 1, 4);
        let w = rand_tensor(&mut rng, 4, 1);
        for leaf in 0..3 {
            grad_check(
                &[x.clone(), gamma.clone(), beta.clone(), w.clone()],
                leaf,
                |tape, v| {
                    let y = tape.layer_norm_rows(v[0], v[1], v[2]);
                    let z = tape.matmul(y, v[3]);
                    tape.bce_with_logits(z, &[1.0, 0.0, 1.0])
                },
            );
        }
    }

    #[test]
    fn gelu_sigmoid_mul_gradients() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = rand_tensor(&mut rng, 2, 3);
        let y = rand_tensor(&mut rng, 2, 3);
        let w = rand_tensor(&mut rng, 3, 1);
        for leaf in 0..2 {
            grad_check(&[x.clone(), y.clone(), w.clone()], leaf, |tape, v| {
                let g = tape.gelu(v[0]);
                let s = tape.sigmoid(v[1]);
                let m = tape.mul(g, s);
                let z = tape.matmul(m, v[2]);
                tape.bce_with_logits(z, &[0.0, 1.0])
            });
        }
    }

    #[test]
    fn gelu_matches_the_scalar_kernels_bit_for_bit() {
        use crate::tensor::{gelu, gelu_grad};
        let xs = [
            0.0f32, 1e-30, -1e-30, 0.5, -0.5, 3.0, -3.0, 20.0, -20.0, 1e4, -1e4,
        ];
        // A distinct upstream gradient per element: backward must be
        // exactly `gy * gelu_grad(x)`.
        let gys: Vec<f32> = (0..xs.len()).map(|i| 0.75 - 0.3 * i as f32).collect();
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_flat(1, xs.len(), xs.to_vec()));
        let w = tape.leaf(Tensor::from_flat(1, xs.len(), gys.clone()));
        let y = tape.gelu(x);
        let m = tape.mul(y, w);
        let loss = tape.sum_all(m);
        let grads = tape.backward(loss);
        let gx = grads.get(x).unwrap();
        for (i, &xi) in xs.iter().enumerate() {
            assert_eq!(
                tape.value(y).as_slice()[i].to_bits(),
                gelu(xi).to_bits(),
                "forward at x={xi}"
            );
            assert_eq!(
                gx.as_slice()[i].to_bits(),
                (gys[i] * gelu_grad(xi)).to_bits(),
                "backward at x={xi}"
            );
        }
    }

    #[test]
    fn broadcast_slice_concat_gradients() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = rand_tensor(&mut rng, 2, 4);
        let b = rand_tensor(&mut rng, 1, 4);
        let w = rand_tensor(&mut rng, 4, 1);
        for leaf in 0..2 {
            grad_check(&[x.clone(), b.clone(), w.clone()], leaf, |tape, v| {
                let y = tape.add_row_broadcast(v[0], v[1]);
                let l = tape.slice_cols(y, 0, 2);
                let r = tape.slice_cols(y, 2, 2);
                let cat = tape.concat_cols(&[l, r]);
                let z = tape.matmul(cat, v[2]);
                tape.bce_with_logits(z, &[1.0, 1.0])
            });
        }
    }

    #[test]
    fn mean_rows_transpose_scale_gradients() {
        let mut rng = StdRng::seed_from_u64(6);
        let x = rand_tensor(&mut rng, 3, 3);
        grad_check(&[x], 0, |tape, v| {
            let m = tape.mean_rows(v[0]); // 1x3
            let t = tape.transpose(v[0]); // 3x3
            let z = tape.matmul(m, t); // 1x3
            let z = tape.scale(z, 0.5);
            let s = tape.sum_all(z);
            // Wrap in BCE-free scalar path: sum is already 1x1.
            s
        });
    }

    #[test]
    fn shared_subexpression_accumulates_gradients() {
        // loss = sum(x·w + x·w) -> dx should be 2·(ones·wᵀ).
        let x = Tensor::from_rows(&[vec![1.0, 2.0]]);
        let w = Tensor::from_rows(&[vec![3.0], vec![4.0]]);
        let mut tape = Tape::new();
        let xv = tape.leaf(x);
        let wv = tape.leaf(w);
        let a = tape.matmul(xv, wv);
        let b = tape.matmul(xv, wv);
        let s = tape.add(a, b);
        let loss = tape.sum_all(s);
        let grads = tape.backward(loss);
        let gx = grads.get(xv).unwrap();
        assert_eq!(gx.as_slice(), &[6.0, 8.0]);
    }

    #[test]
    fn bce_loss_value_is_stable_for_large_logits() {
        let mut tape = Tape::new();
        let z = tape.leaf(Tensor::from_rows(&[vec![100.0, -100.0]]));
        let l = tape.bce_with_logits(z, &[1.0, 0.0]);
        let v = tape.value(l).get(0, 0);
        assert!(v.is_finite());
        assert!(v < 1e-3, "perfect predictions give ~0 loss, got {v}");
    }

    #[test]
    #[should_panic(expected = "loss must be scalar")]
    fn backward_from_non_scalar_panics() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::zeros(2, 2));
        tape.backward(x);
    }
}
