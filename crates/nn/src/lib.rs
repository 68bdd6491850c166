//! Minimal neural-network substrate for GNN-MLS.
//!
//! The paper's model is small — a 3-layer, 3-head graph Transformer with a
//! 2-layer MLP head, pretrained with Deep Graph Infomax — so this crate
//! implements exactly what that needs, from scratch:
//!
//! - [`tensor`] — dense row-major f32 matrices and the raw math kernels.
//! - [`tape`] — reverse-mode autograd over a per-forward-pass tape with an
//!   enum of primitive ops (matmul, softmax, layer-norm, GELU, …), each
//!   verified against numerical gradients in the test suite.
//! - [`optim`] — a parameter store and the Adam optimizer.
//! - [`layers`] — `Linear`, multi-head self-attention, pre-LN transformer
//!   encoder blocks with sinusoidal positional encodings, a mean-
//!   aggregation GCN encoder (the ablation baseline), and a 2-layer MLP.
//! - [`loss`] — binary cross-entropy with logits and the DGI objective
//!   (Veličković et al., 2018): maximize agreement between node
//!   embeddings and the sigmoid-pooled graph summary, against feature-
//!   shuffled negatives.
//! - [`metrics`] — accuracy / precision / recall / F1 for the fine-tuned
//!   classifier.
//!
//! # Kernel contract
//!
//! Training is order-dependent and its results are compared bit for bit,
//! so every matrix product — [`Tensor::matmul`], the products inside
//! [`Tape::backward`] and [`Tape::attention`] — computes each output
//! element the same way: summed over `k` in ascending order, starting
//! from `+0.0`, skipping the terms whose left operand is zero (so a zero
//! times `±inf` or NaN on the right never enters the sum), with a
//! separate multiply and add and no fused multiply-add. The kernels only
//! choose how many elements run side by side, never the order within
//! one, so any SIMD width gives the bits of the naive triple loop.
//!
//! # Example
//!
//! ```
//! use gnnmls_nn::{Params, Adam, layers::Linear, tape::Tape, tensor::Tensor};
//!
//! let mut params = Params::new(42);
//! let lin = Linear::new(&mut params, 4, 2);
//! let x = Tensor::from_rows(&[vec![1.0, 0.5, -0.5, 2.0]]);
//! let mut tape = Tape::new();
//! let bound = params.bind(&mut tape);
//! let xv = tape.leaf(x);
//! let y = lin.forward(&mut tape, &bound, xv);
//! assert_eq!(tape.value(y).shape(), (1, 2));
//! ```

pub mod layers;
pub mod loss;
pub mod metrics;
pub mod optim;
pub mod tape;
pub mod tensor;

pub use layers::{GcnEncoder, Linear, Mlp, TransformerEncoder};
pub use loss::{bce_with_logits, dgi_loss};
pub use metrics::Classification;
pub use optim::{Adam, ParamId, Params};
pub use tape::{Tape, Var};
pub use tensor::Tensor;
