//! Model layers: linear, layer-norm, multi-head self-attention,
//! transformer encoder blocks, a mean-aggregation GCN (ablation baseline),
//! and the 2-layer MLP head.
//!
//! The paper's encoder (Section III-C): 3 transformer layers, 3 attention
//! heads each, pre-LN residual blocks, sinusoidal positional encodings to
//! preserve the sequential order of timing-path nodes.

use crate::optim::{ParamId, ParamVars, Params};
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

/// Fully connected layer `y = x·W + b`.
#[derive(Clone, Debug)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// A new layer with Xavier-initialized weights.
    pub fn new(params: &mut Params, in_dim: usize, out_dim: usize) -> Self {
        Self {
            w: params.xavier(in_dim, out_dim),
            b: params.zeros(1, out_dim),
            in_dim,
            out_dim,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Applies the layer.
    pub fn forward(&self, tape: &mut Tape, pv: &ParamVars, x: Var) -> Var {
        let y = tape.matmul(x, pv.var(self.w));
        tape.add_row_broadcast(y, pv.var(self.b))
    }
}

/// Row-wise layer normalization with learned scale and shift.
#[derive(Clone, Debug)]
pub struct LayerNorm {
    gamma: ParamId,
    beta: ParamId,
}

impl LayerNorm {
    /// A new layer-norm over `dim` features.
    pub fn new(params: &mut Params, dim: usize) -> Self {
        Self {
            gamma: params.ones(1, dim),
            beta: params.zeros(1, dim),
        }
    }

    /// Applies the normalization.
    pub fn forward(&self, tape: &mut Tape, pv: &ParamVars, x: Var) -> Var {
        tape.layer_norm_rows(x, pv.var(self.gamma), pv.var(self.beta))
    }
}

/// Multi-head scaled dot-product self-attention.
#[derive(Clone, Debug)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
}

impl MultiHeadAttention {
    /// A new attention block.
    ///
    /// # Panics
    ///
    /// Panics if `d_model` is not divisible by `heads`.
    pub fn new(params: &mut Params, d_model: usize, heads: usize) -> Self {
        assert_eq!(d_model % heads, 0, "d_model must be divisible by heads");
        Self {
            wq: Linear::new(params, d_model, d_model),
            wk: Linear::new(params, d_model, d_model),
            wv: Linear::new(params, d_model, d_model),
            wo: Linear::new(params, d_model, d_model),
            heads,
        }
    }

    /// Self-attention over the whole sequence (`x: n × d_model`).
    pub fn forward(&self, tape: &mut Tape, pv: &ParamVars, x: Var) -> Var {
        let q = self.wq.forward(tape, pv, x);
        let k = self.wk.forward(tape, pv, x);
        let v = self.wv.forward(tape, pv, x);
        let cat = tape.attention(q, k, v, self.heads);
        self.wo.forward(tape, pv, cat)
    }
}

/// Position-wise feed-forward block with GELU.
#[derive(Clone, Debug)]
pub struct FeedForward {
    l1: Linear,
    l2: Linear,
}

impl FeedForward {
    /// A new FFN `d → hidden → d`.
    pub fn new(params: &mut Params, d_model: usize, hidden: usize) -> Self {
        Self {
            l1: Linear::new(params, d_model, hidden),
            l2: Linear::new(params, hidden, d_model),
        }
    }

    /// Applies the block.
    pub fn forward(&self, tape: &mut Tape, pv: &ParamVars, x: Var) -> Var {
        let h = self.l1.forward(tape, pv, x);
        let h = tape.gelu(h);
        self.l2.forward(tape, pv, h)
    }
}

/// One pre-LN transformer encoder block.
#[derive(Clone, Debug)]
pub struct TransformerBlock {
    ln1: LayerNorm,
    mha: MultiHeadAttention,
    ln2: LayerNorm,
    ffn: FeedForward,
}

impl TransformerBlock {
    /// A new block.
    pub fn new(params: &mut Params, d_model: usize, heads: usize, ffn_hidden: usize) -> Self {
        Self {
            ln1: LayerNorm::new(params, d_model),
            mha: MultiHeadAttention::new(params, d_model, heads),
            ln2: LayerNorm::new(params, d_model),
            ffn: FeedForward::new(params, d_model, ffn_hidden),
        }
    }

    /// `x + MHA(LN(x))`, then `+ FFN(LN(·))`.
    pub fn forward(&self, tape: &mut Tape, pv: &ParamVars, x: Var) -> Var {
        let n = self.ln1.forward(tape, pv, x);
        let a = self.mha.forward(tape, pv, n);
        let x = tape.add(x, a);
        let n = self.ln2.forward(tape, pv, x);
        let f = self.ffn.forward(tape, pv, n);
        tape.add(x, f)
    }
}

/// Sinusoidal positional encoding, `n × d` (Vaswani et al., 2017).
pub fn positional_encoding(n: usize, d: usize) -> Tensor {
    let wavelengths: Vec<f32> = (0..d)
        .map(|i| 10_000f32.powf((2 * (i / 2)) as f32 / d as f32))
        .collect();
    let mut pe = Tensor::zeros(n, d);
    for pos in 0..n {
        for (i, &w) in wavelengths.iter().enumerate() {
            let angle = pos as f32 / w;
            pe.set(pos, i, if i % 2 == 0 { angle.sin() } else { angle.cos() });
        }
    }
    pe
}

/// The paper's graph-Transformer encoder: feature embedding + positional
/// encoding + `layers` pre-LN blocks + final layer-norm.
#[derive(Clone, Debug)]
pub struct TransformerEncoder {
    embed: Linear,
    blocks: Vec<TransformerBlock>,
    ln_f: LayerNorm,
    d_model: usize,
    /// Whether to add positional encodings (ablation knob; the paper keeps
    /// them on to preserve path order).
    pub use_positional: bool,
}

impl TransformerEncoder {
    /// A new encoder for `in_dim` node features.
    pub fn new(
        params: &mut Params,
        in_dim: usize,
        d_model: usize,
        heads: usize,
        layers: usize,
    ) -> Self {
        Self {
            embed: Linear::new(params, in_dim, d_model),
            blocks: (0..layers)
                .map(|_| TransformerBlock::new(params, d_model, heads, d_model * 2))
                .collect(),
            ln_f: LayerNorm::new(params, d_model),
            d_model,
            use_positional: true,
        }
    }

    /// Embedding width.
    pub fn d_model(&self) -> usize {
        self.d_model
    }

    /// Encodes a path's node features (`x: n × in_dim`) into embeddings
    /// (`n × d_model`).
    pub fn forward(&self, tape: &mut Tape, pv: &ParamVars, x: Var) -> Var {
        let mut h = self.embed.forward(tape, pv, x);
        if self.use_positional {
            let n = tape.value(h).rows();
            let pe = tape.constant(positional_encoding(n, self.d_model));
            h = tape.add(h, pe);
        }
        for b in &self.blocks {
            h = b.forward(tape, pv, h);
        }
        self.ln_f.forward(tape, pv, h)
    }
}

/// Plain mean-aggregation graph encoder — the "traditional GNN" the paper
/// argues is insufficient (Section III-C); kept as the ablation baseline.
#[derive(Clone, Debug)]
pub struct GcnEncoder {
    embed: Linear,
    layers: Vec<(Linear, Linear, LayerNorm)>,
    d_model: usize,
}

impl GcnEncoder {
    /// A new encoder with `layers` aggregation rounds.
    pub fn new(params: &mut Params, in_dim: usize, d_model: usize, layers: usize) -> Self {
        Self {
            embed: Linear::new(params, in_dim, d_model),
            layers: (0..layers)
                .map(|_| {
                    (
                        Linear::new(params, d_model, d_model),
                        Linear::new(params, d_model, d_model),
                        LayerNorm::new(params, d_model),
                    )
                })
                .collect(),
            d_model,
        }
    }

    /// Embedding width.
    pub fn d_model(&self) -> usize {
        self.d_model
    }

    /// Encodes node features with a row-normalized adjacency (`adj: n × n`).
    ///
    /// Each round: `h ← GELU(LN(A·h·W₁ + h·W₂)) + h`.
    pub fn forward(&self, tape: &mut Tape, pv: &ParamVars, x: Var, adj: &Tensor) -> Var {
        let a = tape.constant(adj.clone());
        let mut h = self.embed.forward(tape, pv, x);
        for (w1, w2, ln) in &self.layers {
            let agg = tape.matmul(a, h);
            let agg = w1.forward(tape, pv, agg);
            let own = w2.forward(tape, pv, h);
            let s = tape.add(agg, own);
            let s = ln.forward(tape, pv, s);
            let s = tape.gelu(s);
            h = tape.add(h, s);
        }
        h
    }
}

/// The 2-layer MLP fine-tuning head (embedding → hidden → logit).
#[derive(Clone, Debug)]
pub struct Mlp {
    l1: Linear,
    l2: Linear,
}

impl Mlp {
    /// A new head.
    pub fn new(params: &mut Params, in_dim: usize, hidden: usize, out_dim: usize) -> Self {
        Self {
            l1: Linear::new(params, in_dim, hidden),
            l2: Linear::new(params, hidden, out_dim),
        }
    }

    /// Produces logits (`n × out_dim`).
    pub fn forward(&self, tape: &mut Tape, pv: &ParamVars, x: Var) -> Var {
        let h = self.l1.forward(tape, pv, x);
        let h = tape.gelu(h);
        self.l2.forward(tape, pv, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_x(rng: &mut StdRng, n: usize, d: usize) -> Tensor {
        Tensor::from_flat(n, d, (0..n * d).map(|_| rng.gen_range(-1.0..1.0)).collect())
    }

    #[test]
    fn transformer_shapes_and_gradients_flow() {
        let mut params = Params::new(7);
        let enc = TransformerEncoder::new(&mut params, 9, 24, 3, 3);
        let head = Mlp::new(&mut params, 24, 16, 1);
        let mut rng = StdRng::seed_from_u64(0);
        let x = rand_x(&mut rng, 6, 9);
        let mut tape = Tape::new();
        let pv = params.bind(&mut tape);
        let xv = tape.leaf(x);
        let h = enc.forward(&mut tape, &pv, xv);
        assert_eq!(tape.value(h).shape(), (6, 24));
        let z = head.forward(&mut tape, &pv, h);
        assert_eq!(tape.value(z).shape(), (6, 1));
        let loss = tape.bce_with_logits(z, &[1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
        let mut grads = tape.backward(loss);
        let g = pv.collect_grads(&mut grads, &params);
        let live = g.iter().filter(|t| t.max_abs() > 0.0).count();
        assert!(
            live as f64 > 0.9 * g.len() as f64,
            "nearly all params get gradient: {live}/{}",
            g.len()
        );
    }

    #[test]
    fn transformer_overfits_a_tiny_task() {
        // Learn "label = sign of feature 0" on a fixed batch.
        let mut params = Params::new(11);
        let enc = TransformerEncoder::new(&mut params, 4, 12, 3, 2);
        let head = Mlp::new(&mut params, 12, 8, 1);
        let mut rng = StdRng::seed_from_u64(5);
        let x = rand_x(&mut rng, 8, 4);
        let targets: Vec<f32> = (0..8).map(|r| f32::from(x.get(r, 0) > 0.0)).collect();
        let mut adam = Adam::new(0.01);
        let mut last = f32::MAX;
        for step in 0..300 {
            let mut tape = Tape::new();
            let pv = params.bind(&mut tape);
            let xv = tape.leaf(x.clone());
            let h = enc.forward(&mut tape, &pv, xv);
            let z = head.forward(&mut tape, &pv, h);
            let loss = tape.bce_with_logits(z, &targets);
            last = tape.value(loss).get(0, 0);
            let mut grads = tape.backward(loss);
            let g = pv.collect_grads(&mut grads, &params);
            adam.step(&mut params, &g);
            let _ = step;
        }
        assert!(last < 0.1, "training should converge, loss {last}");
    }

    #[test]
    fn positional_encoding_distinguishes_positions() {
        let pe = positional_encoding(10, 8);
        assert_eq!(pe.shape(), (10, 8));
        assert_ne!(pe.row(0), pe.row(5));
        // Bounded by construction.
        assert!(pe.max_abs() <= 1.0 + 1e-6);
        // Position 0: sin(0)=0, cos(0)=1 alternating.
        assert_eq!(pe.get(0, 0), 0.0);
        assert_eq!(pe.get(0, 1), 1.0);
    }

    #[test]
    fn positional_encoding_changes_output() {
        let mut params = Params::new(3);
        let mut enc = TransformerEncoder::new(&mut params, 4, 12, 3, 1);
        let mut rng = StdRng::seed_from_u64(9);
        let x = rand_x(&mut rng, 5, 4);

        let run = |enc: &TransformerEncoder, params: &Params| -> Tensor {
            let mut tape = Tape::new();
            let pv = params.bind(&mut tape);
            let xv = tape.leaf(x.clone());
            let h = enc.forward(&mut tape, &pv, xv);
            tape.value(h).clone()
        };
        let with_pe = run(&enc, &params);
        enc.use_positional = false;
        let without = run(&enc, &params);
        assert_ne!(with_pe, without);
    }

    #[test]
    fn gcn_encoder_respects_adjacency() {
        let mut params = Params::new(4);
        let enc = GcnEncoder::new(&mut params, 3, 8, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let x = rand_x(&mut rng, 4, 3);
        // Chain adjacency (row-normalized).
        let mut adj = Tensor::zeros(4, 4);
        for i in 0..3 {
            adj.set(i + 1, i, 1.0);
            adj.set(i, i + 1, 1.0);
        }
        let mut tape = Tape::new();
        let pv = params.bind(&mut tape);
        let xv = tape.leaf(x.clone());
        let h = enc.forward(&mut tape, &pv, xv, &adj);
        assert_eq!(tape.value(h).shape(), (4, 8));
        // Disconnected graph gives a different embedding for node 0.
        let mut tape2 = Tape::new();
        let pv2 = params.bind(&mut tape2);
        let xv2 = tape2.leaf(x);
        let h2 = enc.forward(&mut tape2, &pv2, xv2, &Tensor::zeros(4, 4));
        assert_ne!(tape.value(h).row(0), tape2.value(h2).row(0));
    }

    /// The per-head chain of public ops that [`Tape::attention`] fuses.
    fn attention_chain(tape: &mut Tape, q: Var, k: Var, v: Var, heads: usize) -> Var {
        let hd = tape.value(q).cols() / heads;
        let scale = 1.0 / (hd as f32).sqrt();
        let outs: Vec<Var> = (0..heads)
            .map(|h| {
                let s = h * hd;
                let qh = tape.slice_cols(q, s, hd);
                let kh = tape.slice_cols(k, s, hd);
                let vh = tape.slice_cols(v, s, hd);
                let kt = tape.transpose(kh);
                let scores = tape.matmul(qh, kt);
                let scores = tape.scale(scores, scale);
                let attn = tape.softmax_rows(scores);
                tape.matmul(attn, vh)
            })
            .collect();
        tape.concat_cols(&outs)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Random `n × d` entries with exact `+0.0` and `-0.0` mixed in.
    fn with_zeros(rng: &mut StdRng, n: usize, d: usize) -> Tensor {
        let mut t = rand_x(rng, n, d);
        for v in t.as_mut_slice() {
            match rng.gen_range(0..8) {
                0 => *v = 0.0,
                1 => *v = -0.0,
                _ => {}
            }
        }
        t
    }

    #[test]
    fn fused_attention_matches_the_per_head_chain_bit_for_bit() {
        let d = 12;
        for heads in [1, 3] {
            for n in [0, 1, 2, 7, 20] {
                let case = format!("heads={heads} n={n}");
                let mut rng = StdRng::seed_from_u64((heads * 100 + n) as u64);
                let inputs: Vec<Tensor> = (0..4).map(|_| with_zeros(&mut rng, n, d)).collect();

                // q, k, v as leaves: forward values and their gradients.
                let leaves = |fused: bool| {
                    let mut tape = Tape::new();
                    let [q, k, v, w] = [0, 1, 2, 3].map(|i| tape.leaf(inputs[i].clone()));
                    let a = if fused {
                        tape.attention(q, k, v, heads)
                    } else {
                        attention_chain(&mut tape, q, k, v, heads)
                    };
                    let m = tape.mul(a, w);
                    let loss = tape.sum_all(m);
                    let grads = tape.backward(loss);
                    let g = [q, k, v].map(|x| bits(grads.get(x).expect("leaf gradient")));
                    (bits(tape.value(a)), g)
                };
                assert_eq!(leaves(true), leaves(false), "{case}: q, k, v leaves");

                // Inside a block: the projection weights' gradients.
                let mut params = Params::new(n as u64);
                let mha = MultiHeadAttention::new(&mut params, d, heads);
                let weights = |fused: bool| {
                    let mut tape = Tape::new();
                    let pv = params.bind(&mut tape);
                    let x = tape.constant(inputs[0].clone());
                    let w = tape.constant(inputs[3].clone());
                    let [q, k, v] =
                        [&mha.wq, &mha.wk, &mha.wv].map(|l| l.forward(&mut tape, &pv, x));
                    let a = if fused {
                        tape.attention(q, k, v, heads)
                    } else {
                        attention_chain(&mut tape, q, k, v, heads)
                    };
                    let y = mha.wo.forward(&mut tape, &pv, a);
                    let m = tape.mul(y, w);
                    let loss = tape.sum_all(m);
                    let mut grads = tape.backward(loss);
                    let g = pv.collect_grads(&mut grads, &params);
                    (bits(tape.value(y)), g.iter().map(bits).collect::<Vec<_>>())
                };
                assert_eq!(weights(true), weights(false), "{case}: projection weights");
            }
        }
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn indivisible_heads_panic() {
        let mut params = Params::new(0);
        let _ = MultiHeadAttention::new(&mut params, 10, 3);
    }
}
