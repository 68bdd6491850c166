//! Reverse-mode autograd over a per-forward-pass tape.
//!
//! Every primitive op appends a node holding its inputs (by index) and its
//! forward value; [`Tape::backward`] walks the tape once in reverse,
//! accumulating gradients. Each op's backward rule is verified against
//! central-difference numerical gradients in this module's tests.
//!
//! A node carries a gradient only if a [`Tape::leaf`] or [`Tape::leaf_ref`]
//! feeds it: inputs recorded with [`Tape::constant`] get none, and
//! backward computes nothing on their behalf.

use std::borrow::Cow;

use crate::tensor::{
    gelu_grad_tanh, gelu_tanh, gemm, sigmoid, softmax_in_place, transpose_into, Strided, Tensor,
};

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
    /// Keeps every head's attention probabilities, `heads × n × n`.
    Attention {
        q: usize,
        k: usize,
        v: usize,
        heads: usize,
        probs: Vec<f32>,
    },
}

#[derive(Debug)]
struct Node<'a> {
    op: Op,
    value: Cow<'a, Tensor>,
    /// Whether a gradient flows into this node.
    grad: bool,
}

/// Accumulated gradients per tape node.
#[derive(Debug)]
pub struct Gradients(Vec<Option<Tensor>>);

impl Gradients {
    /// Gradient of the loss w.r.t. a var, if it received any.
    pub fn get(&self, v: Var) -> Option<&Tensor> {
        self.0[v.0].as_ref()
    }

    /// Moves a var's gradient out, leaving `None` behind.
    pub fn take(&mut self, v: Var) -> Option<Tensor> {
        self.0[v.0].take()
    }
}

/// The autograd tape. Create one per forward pass; it may borrow its
/// leaves (see [`Tape::leaf_ref`]) for its lifetime `'a`.
#[derive(Debug, Default)]
pub struct Tape<'a> {
    nodes: Vec<Node<'a>>,
}

impl<'a> Tape<'a> {
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

    fn grad(&self, v: Var) -> bool {
        self.nodes[v.0].grad
    }

    fn push(&mut self, op: Op, value: Tensor, grad: bool) -> Var {
        self.push_cow(op, Cow::Owned(value), grad)
    }

    fn push_cow(&mut self, op: Op, value: Cow<'a, Tensor>, grad: bool) -> Var {
        self.nodes.push(Node { op, value, grad });
        Var(self.nodes.len() - 1)
    }

    /// Records an input (leaf) tensor that receives a gradient.
    pub fn leaf(&mut self, t: Tensor) -> Var {
        self.push(Op::Leaf, t, true)
    }

    /// Records a borrowed leaf that receives a gradient, without copying
    /// it ([`crate::Params::bind`] lends parameters this way).
    pub fn leaf_ref(&mut self, t: &'a Tensor) -> Var {
        self.push_cow(Op::Leaf, Cow::Borrowed(t), true)
    }

    /// Records an input that receives no gradient (features, positional
    /// encodings, adjacency).
    pub fn constant(&mut self, t: Tensor) -> Var {
        self.push(Op::Leaf, t, false)
    }

    /// `a · b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        let grad = self.grad(a) || self.grad(b);
        self.push(Op::MatMul(a.0, b.0), v, grad)
    }

    /// `a + b` (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).add(self.value(b));
        let grad = self.grad(a) || self.grad(b);
        self.push(Op::Add(a.0, b.0), v, grad)
    }

    /// `a + bias` with `bias: 1 × cols` broadcast over rows.
    pub fn add_row_broadcast(&mut self, a: Var, bias: Var) -> Var {
        let v = self.value(a).add_row_broadcast(self.value(bias));
        let grad = self.grad(a) || self.grad(bias);
        self.push(Op::AddRowBroadcast(a.0, bias.0), v, grad)
    }

    /// Elementwise `a ⊙ b`.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).mul(self.value(b));
        let grad = self.grad(a) || self.grad(b);
        self.push(Op::Mul(a.0, b.0), v, grad)
    }

    /// `s · a`.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let v = self.value(a).scale(s);
        self.push(Op::Scale(a.0, s), v, self.grad(a))
    }

    /// Elementwise GELU.
    pub fn gelu(&mut self, a: Var) -> Var {
        let xv = self.value(a);
        let mut v = Tensor::zeros(xv.rows(), xv.cols());
        let mut tanh = vec![0.0; xv.as_slice().len()];
        for ((y, t), &x) in v
            .as_mut_slice()
            .iter_mut()
            .zip(&mut tanh)
            .zip(xv.as_slice())
        {
            (*y, *t) = gelu_tanh(x);
        }
        self.push(Op::Gelu { x: a.0, tanh }, v, self.grad(a))
    }

    /// Elementwise sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let mut v = self.value(a).clone();
        for x in v.as_mut_slice() {
            *x = sigmoid(*x);
        }
        self.push(Op::Sigmoid(a.0), v, self.grad(a))
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let v = self.value(a).softmax_rows();
        self.push(Op::SoftmaxRows(a.0), v, self.grad(a))
    }

    /// Row-wise layer normalization with learned `gamma`/`beta`
    /// (`1 × cols` each).
    pub fn layer_norm_rows(&mut self, x: Var, gamma: Var, beta: Var) -> Var {
        let eps = 1e-5_f32;
        let xv = self.value(x);
        let (rows, cols) = xv.shape();
        let g = self.value(gamma).as_slice();
        let b = self.value(beta).as_slice();
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
        let grad = self.grad(x) || self.grad(gamma) || self.grad(beta);
        self.push(
            Op::LayerNormRows {
                x: x.0,
                gamma: gamma.0,
                beta: beta.0,
                eps,
            },
            out,
            grad,
        )
    }

    /// Transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.value(a).transpose();
        self.push(Op::Transpose(a.0), v, self.grad(a))
    }

    /// Mean over rows → `1 × cols`.
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let v = self.value(a).mean_rows();
        self.push(Op::MeanRows(a.0), v, self.grad(a))
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
            self.grad(a),
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
            let w = t.cols();
            for r in 0..rows {
                out.as_mut_slice()[r * total + off..r * total + off + w].copy_from_slice(t.row(r));
            }
            off += w;
        }
        let grad = parts.iter().any(|&p| self.grad(p));
        self.push(
            Op::ConcatCols(parts.iter().map(|p| p.0).collect()),
            out,
            grad,
        )
    }

    /// Sum of all elements → `1 × 1`.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Tensor::from_flat(1, 1, vec![self.value(a).sum()]);
        self.push(Op::SumAll(a.0), v, self.grad(a))
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
            self.grad(logits),
        )
    }

    /// Multi-head scaled dot-product attention of `q` over `k`, `v` (all
    /// `n × d`): head `h` uses columns `[h·d/heads, (h+1)·d/heads)` of
    /// each, and the heads' outputs come back side by side (`n × d`).
    ///
    /// One op, with the same bits — forward values and the gradients of
    /// `q`, `k` and `v` — as the per-head chain of public ops: slice each
    /// of `q`, `k`, `v`, transpose the key block, matmul, scale by
    /// `1/√(d/heads)`, softmax, matmul by the value block, concatenate.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ or `heads` does not divide `d`.
    pub fn attention(&mut self, q: Var, k: Var, v: Var, heads: usize) -> Var {
        let (qv, kv, vv) = (self.value(q), self.value(k), self.value(v));
        let (n, d) = qv.shape();
        assert!(
            kv.shape() == (n, d) && vv.shape() == (n, d),
            "attention q, k, v shapes differ"
        );
        assert!(heads > 0 && d % heads == 0, "d must be divisible by heads");
        let hd = d / heads;
        let scale = 1.0 / (hd as f32).sqrt();
        let mut out = Tensor::zeros(n, d);
        let mut probs = vec![0.0; heads * n * n];
        let mut kt = vec![0.0; hd * n];
        // An empty sequence has nothing to attend to.
        for h in (0..heads).filter(|_| n > 0) {
            let s = h * hd;
            let p = &mut probs[h * n * n..(h + 1) * n * n];
            transpose_into(&kv.as_slice()[s..], (n, hd), d, &mut kt, n);
            let qh = Strided::rows(&qv.as_slice()[s..], d);
            gemm((n, n, hd), qh, Strided::rows(&kt, n), p, n, false);
            for x in p.iter_mut() {
                *x *= scale;
            }
            for r in 0..n {
                softmax_in_place(&mut p[r * n..(r + 1) * n]);
            }
            let vh = Strided::rows(&vv.as_slice()[s..], d);
            gemm(
                (n, hd, n),
                Strided::rows(p, n),
                vh,
                &mut out.as_mut_slice()[s..],
                d,
                false,
            );
        }
        let grad = self.grad(q) || self.grad(k) || self.grad(v);
        self.push(
            Op::Attention {
                q: q.0,
                k: k.0,
                v: v.0,
                heads,
                probs,
            },
            out,
            grad,
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
        // `bᵀ` of every matmul's right operand, built once per backward:
        // a weight shared by several products (the real and the
        // corrupted DGI pass) is transposed once.
        let mut transposed: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        grads[loss.0] = Some(Tensor::from_flat(1, 1, vec![1.0]));

        for i in (0..=loss.0).rev() {
            let Some(gy) = grads[i].take() else {
                continue;
            };
            let wants = |j: usize| self.nodes[j].grad;
            match &self.nodes[i].op {
                Op::Leaf => {
                    grads[i] = Some(gy);
                    continue;
                }
                Op::MatMul(a, b) => {
                    let (av, bv) = (&self.nodes[*a].value, &self.nodes[*b].value);
                    if wants(*a) {
                        let bt = transposed[*b].get_or_insert_with(|| bv.transpose());
                        accum_product(&mut grads, *a, av.shape(), |g, add| {
                            gy.matmul_into(bt, g, add)
                        });
                    }
                    if wants(*b) {
                        accum_product(&mut grads, *b, bv.shape(), |g, add| {
                            av.transpose_matmul_into(&gy, g, add)
                        });
                    }
                }
                Op::Add(a, b) => {
                    if wants(*a) {
                        accum_ref(&mut grads, *a, &gy);
                    }
                    if wants(*b) {
                        accum(&mut grads, *b, gy);
                    }
                }
                Op::AddRowBroadcast(a, bias) => {
                    if wants(*bias) {
                        // Bias gradient: column sums.
                        let mut gb = Tensor::zeros(1, gy.cols());
                        for r in 0..gy.rows() {
                            for (s, &g) in gb.as_mut_slice().iter_mut().zip(gy.row(r)) {
                                *s += g;
                            }
                        }
                        accum(&mut grads, *bias, gb);
                    }
                    if wants(*a) {
                        accum(&mut grads, *a, gy);
                    }
                }
                Op::Mul(a, b) => {
                    if wants(*a) {
                        accum(&mut grads, *a, gy.mul(&self.nodes[*b].value));
                    }
                    if wants(*b) {
                        accum(&mut grads, *b, gy.mul(&self.nodes[*a].value));
                    }
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
                    let mut gx = gy;
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
                    let gv = self.nodes[*gamma].value.as_slice();
                    let (rows, cols) = xv.shape();
                    let d = cols as f32;
                    let mut gx = Tensor::zeros(rows, cols);
                    let mut ggamma = Tensor::zeros(1, cols);
                    let mut gbeta = Tensor::zeros(1, cols);
                    for r in 0..rows {
                        let (row, gyr) = (xv.row(r), gy.row(r));
                        let mean = row.iter().sum::<f32>() / d;
                        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d;
                        let inv = 1.0 / (var + eps).sqrt();
                        let xhat = |v: f32| (v - mean) * inv;
                        // dgamma / dbeta.
                        let gg = ggamma.as_mut_slice().iter_mut();
                        for ((gg, gb), (&g, &v)) in
                            gg.zip(gbeta.as_mut_slice()).zip(gyr.iter().zip(row))
                        {
                            *gg += g * xhat(v);
                            *gb += g;
                        }
                        // dx, from gy ⊙ gamma built in place.
                        let gxr = &mut gx.as_mut_slice()[r * cols..(r + 1) * cols];
                        for ((o, &g), &w) in gxr.iter_mut().zip(gyr).zip(gv) {
                            *o = g * w;
                        }
                        let m1 = gxr.iter().sum::<f32>() / d;
                        let m2 = gxr.iter().zip(row).map(|(a, &v)| a * xhat(v)).sum::<f32>() / d;
                        for (o, &v) in gxr.iter_mut().zip(row) {
                            *o = (*o - m1 - xhat(v) * m2) * inv;
                        }
                    }
                    if wants(*x) {
                        accum(&mut grads, *x, gx);
                    }
                    if wants(*gamma) {
                        accum(&mut grads, *gamma, ggamma);
                    }
                    if wants(*beta) {
                        accum(&mut grads, *beta, gbeta);
                    }
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
                    match &mut grads[*src] {
                        // Adding the zero-padded slice gradient: the other
                        // columns get +0.0, which turns a −0.0 into +0.0.
                        Some(gx) => {
                            for r in 0..rows {
                                let dst = &mut gx.as_mut_slice()[r * cols..(r + 1) * cols];
                                let (before, rest) = dst.split_at_mut(*start);
                                let (mid, after) = rest.split_at_mut(*len);
                                for (d, &g) in mid.iter_mut().zip(gy.row(r)) {
                                    *d += g;
                                }
                                for d in before.iter_mut().chain(after) {
                                    *d += 0.0;
                                }
                            }
                        }
                        slot @ None => {
                            let mut gx = Tensor::zeros(rows, cols);
                            for r in 0..rows {
                                gx.as_mut_slice()[r * cols + start..][..*len]
                                    .copy_from_slice(gy.row(r));
                            }
                            *slot = Some(gx);
                        }
                    }
                }
                Op::ConcatCols(parts) => {
                    let total = gy.cols();
                    let mut off = 0;
                    for &p in parts {
                        let (rows, cols) = self.nodes[p].value.shape();
                        match &mut grads[p] {
                            Some(gp) => {
                                for r in 0..rows {
                                    let src = &gy.as_slice()[r * total + off..][..cols];
                                    let dst = &mut gp.as_mut_slice()[r * cols..(r + 1) * cols];
                                    for (d, &g) in dst.iter_mut().zip(src) {
                                        *d += g;
                                    }
                                }
                            }
                            slot @ None if wants(p) => *slot = Some(gy.slice_cols(off, cols)),
                            None => {}
                        }
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
                Op::Attention {
                    q,
                    k,
                    v,
                    heads,
                    probs,
                } => {
                    let value = |j: usize| &*self.nodes[j].value;
                    let [gq, gk, gv] =
                        attention_backward(value(*q), value(*k), value(*v), *heads, probs, &gy);
                    for (j, g) in [(*q, gq), (*k, gk), (*v, gv)] {
                        if wants(j) {
                            accum(&mut grads, j, g);
                        }
                    }
                }
            }
        }
        Gradients(grads)
    }
}

/// The gradients of `q`, `k` and `v` of [`Tape::attention`] from the
/// output gradient `gy`, computed head by head exactly as the per-head
/// chain's backward computes them.
fn attention_backward(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    heads: usize,
    probs: &[f32],
    gy: &Tensor,
) -> [Tensor; 3] {
    let (n, d) = q.shape();
    let hd = d / heads;
    let scale = 1.0 / (hd as f32).sqrt();
    let [mut gq, mut gk, mut gv] = [(); 3].map(|()| Tensor::zeros(n, d));
    let mut scratch = vec![0.0; 2 * hd * n + n * n];
    let (vt, rest) = scratch.split_at_mut(hd * n);
    let (gkt, gs) = rest.split_at_mut(hd * n);
    for h in (0..heads).rev().filter(|_| n > 0) {
        let s = h * hd;
        let p = &probs[h * n * n..(h + 1) * n * n];
        let gh = Strided::rows(&gy.as_slice()[s..], d);
        // Output matmul: ∂P = ∂Oₕ · Vₕᵀ, ∂Vₕ = Pᵀ · ∂Oₕ.
        transpose_into(&v.as_slice()[s..], (n, hd), d, vt, n);
        gemm((n, n, hd), gh, Strided::rows(vt, n), gs, n, false);
        let pt = Strided::cols(p, n);
        gemm((n, hd, n), pt, gh, &mut gv.as_mut_slice()[s..], d, false);
        // Softmax, then the score scale.
        for r in 0..n {
            let (g, y) = (&mut gs[r * n..(r + 1) * n], &p[r * n..(r + 1) * n]);
            let dot: f32 = g.iter().zip(y).map(|(g, y)| g * y).sum();
            for (g, &y) in g.iter_mut().zip(y) {
                *g = y * (*g - dot) * scale;
            }
        }
        // Score matmul: ∂Qₕ = ∂S · Kₕ, ∂Kₕᵀ = Qₕᵀ · ∂S.
        let kh = Strided::rows(&k.as_slice()[s..], d);
        gemm(
            (n, hd, n),
            Strided::rows(gs, n),
            kh,
            &mut gq.as_mut_slice()[s..],
            d,
            false,
        );
        let qt = Strided::cols(&q.as_slice()[s..], d);
        gemm((hd, n, n), qt, Strided::rows(gs, n), gkt, n, false);
        transpose_into(gkt, (hd, n), n, &mut gk.as_mut_slice()[s..], d);
    }
    if heads > 1 {
        // The chain summed each head's zero-padded full-width slice
        // gradient, which adds +0.0 to every element.
        for g in [&mut gq, &mut gk, &mut gv] {
            for x in g.as_mut_slice() {
                *x += 0.0;
            }
        }
    }
    [gq, gk, gv]
}

/// Adds `g` into a node's gradient slot, in place.
fn accum(grads: &mut [Option<Tensor>], idx: usize, g: Tensor) {
    match &mut grads[idx] {
        Some(existing) => existing.add_assign(&g),
        slot @ None => *slot = Some(g),
    }
}

/// [`accum`] of a product that `write(g, add)` stores into `g`, or adds
/// to it with `add`, with the bits of adding it as its own tensor.
fn accum_product(
    grads: &mut [Option<Tensor>],
    idx: usize,
    (rows, cols): (usize, usize),
    write: impl FnOnce(&mut Tensor, bool),
) {
    match &mut grads[idx] {
        Some(existing) => write(existing, true),
        slot @ None => {
            let mut g = Tensor::zeros(rows, cols);
            write(&mut g, false);
            *slot = Some(g);
        }
    }
}

/// [`accum`] of a borrowed gradient, copied only into an empty slot.
fn accum_ref(grads: &mut [Option<Tensor>], idx: usize, g: &Tensor) {
    match &mut grads[idx] {
        Some(existing) => existing.add_assign(g),
        slot @ None => *slot = Some(g.clone()),
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
