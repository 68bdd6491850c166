//! Loss functions: BCE-with-logits and the Deep Graph Infomax objective.
//!
//! Note on the paper's eq. (3): as printed, both the positive and negative
//! terms are `log σ(⟨·, g⟩)`, which the same embeddings would maximize —
//! a sign typo. We implement the standard DGI objective from Veličković
//! et al. (2018): maximize `log σ(v·g)` for real nodes and
//! `log(1 − σ(v*·g))` for corrupted ones, i.e. a binary cross-entropy
//! where the summary vector plays discriminator.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

/// Mean binary cross-entropy with logits (numerically stable).
///
/// Thin wrapper over [`Tape::bce_with_logits`] for API symmetry with
/// [`dgi_loss`].
///
/// # Panics
///
/// Panics if `targets.len()` differs from the number of logits.
pub fn bce_with_logits(tape: &mut Tape, logits: Var, targets: &[f32]) -> Var {
    tape.bce_with_logits(logits, targets)
}

/// The DGI loss for one graph.
///
/// `h` are the encoder's node embeddings of the real graph (`n × d`),
/// `h_corrupt` the embeddings of the corrupted graph (`m × d`). The
/// summary is `g = σ(mean(h))`; scores are inner products `⟨v, g⟩`
/// classified real-vs-corrupt with BCE.
pub fn dgi_loss(tape: &mut Tape, h: Var, h_corrupt: Var) -> Var {
    let n = tape.value(h).rows();
    let m = tape.value(h_corrupt).rows();
    let mean = tape.mean_rows(h);
    let g = tape.sigmoid(mean); // 1 × d
    let gt = tape.transpose(g); // d × 1
    let pos = tape.matmul(h, gt); // n × 1
    let neg = tape.matmul(h_corrupt, gt); // m × 1
    let pos_t = tape.transpose(pos); // 1 × n
    let neg_t = tape.transpose(neg); // 1 × m
    let logits = tape.concat_cols(&[pos_t, neg_t]); // 1 × (n+m)
    let mut targets = vec![1.0f32; n];
    targets.extend(std::iter::repeat_n(0.0, m));
    tape.bce_with_logits(logits, &targets)
}

/// DGI's corruption function: shuffle node feature rows (the paper's
/// "perturbing node features"), preserving the feature marginals while
/// destroying node-position association.
pub fn corrupt_features(x: &Tensor, rng: &mut StdRng) -> Tensor {
    let n = x.rows();
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(rng);
    let mut data = Vec::with_capacity(x.as_slice().len());
    for &r in &perm {
        data.extend_from_slice(x.row(r));
    }
    Tensor::from_flat(n, x.cols(), data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{GcnEncoder, TransformerEncoder};
    use crate::optim::{Adam, Params};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn dgi_loss_decreases_under_training() {
        let mut params = Params::new(21);
        let enc = TransformerEncoder::new(&mut params, 5, 12, 3, 2);
        let mut rng = StdRng::seed_from_u64(1);
        // Structured features: node i leans toward a position-dependent
        // pattern, so real vs shuffled is learnable.
        let x = Tensor::from_flat(
            8,
            5,
            (0..40)
                .map(|i| ((i / 5) as f32 / 8.0) + 0.1 * rng.gen_range(-1.0f32..1.0))
                .collect(),
        );
        let mut adam = Adam::new(0.005);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..120 {
            let corrupt = corrupt_features(&x, &mut rng);
            let mut tape = Tape::new();
            let pv = params.bind(&mut tape);
            let xv = tape.leaf(x.clone());
            let cv = tape.leaf(corrupt);
            let h = enc.forward(&mut tape, &pv, xv);
            let hc = enc.forward(&mut tape, &pv, cv);
            let loss = dgi_loss(&mut tape, h, hc);
            last = tape.value(loss).get(0, 0);
            first.get_or_insert(last);
            let mut grads = tape.backward(loss);
            let g = pv.collect_grads(&mut grads, &params);
            adam.step(&mut params, &g);
        }
        let first = first.unwrap();
        assert!(
            last < first,
            "DGI training should reduce the loss: {first} -> {last}"
        );
        assert!(last.is_finite());
    }

    /// One DGI step on a 7-node chain: the loss, the gradients and the
    /// parameters after one Adam update, as bits. `lend` binds the
    /// parameters by reference and the inputs as constants; otherwise
    /// all of them are copied into the tape as leaves.
    fn dgi_step(gcn: bool, lend: bool) -> (u32, Vec<u32>, Vec<u32>) {
        let n = 7;
        // Both encoders share the store; the unused one gets zero
        // gradients either way.
        let mut params = Params::new(13);
        let transformer = TransformerEncoder::new(&mut params, 5, 12, 3, 2);
        let graph = GcnEncoder::new(&mut params, 5, 12, 2);
        let mut adj = Tensor::zeros(n, n);
        for i in 0..n - 1 {
            adj.set(i, i + 1, 0.5);
            adj.set(i + 1, i, 0.5);
        }
        let mut rng = StdRng::seed_from_u64(8);
        let x = Tensor::from_flat(n, 5, (0..n * 5).map(|_| rng.gen_range(-1.0..1.0)).collect());
        let xc = corrupt_features(&x, &mut rng);

        let mut tape = Tape::new();
        let (pv, xv, cv) = if lend {
            let pv = params.bind(&mut tape);
            (pv, tape.constant(x), tape.constant(xc))
        } else {
            let pv = params.bind_cloned(&mut tape);
            (pv, tape.leaf(x), tape.leaf(xc))
        };
        let mut encode = |x| {
            if gcn {
                graph.forward(&mut tape, &pv, x, &adj)
            } else {
                transformer.forward(&mut tape, &pv, x)
            }
        };
        let (h, hc) = (encode(xv), encode(cv));
        let loss = dgi_loss(&mut tape, h, hc);
        let loss_bits = tape.value(loss).get(0, 0).to_bits();
        let mut grads = tape.backward(loss);
        let g = pv.collect_grads(&mut grads, &params);
        Adam::new(0.01).step(&mut params, &g);
        let bits = |ts: &[Tensor]| -> Vec<u32> {
            ts.iter()
                .flat_map(|t| t.as_slice().iter().map(|v| v.to_bits()))
                .collect()
        };
        (loss_bits, bits(&g), bits(params.tensors()))
    }

    #[test]
    fn a_dgi_step_with_lent_parameters_matches_cloned_leaves_bit_for_bit() {
        for gcn in [false, true] {
            let lent = dgi_step(gcn, true);
            assert!(lent.1.iter().any(|&b| b != 0), "gradients flow");
            assert_eq!(lent, dgi_step(gcn, false), "gcn={gcn}");
        }
    }

    #[test]
    fn corruption_permutes_rows() {
        let x = Tensor::from_rows(&[
            vec![1.0, 0.0],
            vec![2.0, 0.0],
            vec![3.0, 0.0],
            vec![4.0, 0.0],
        ]);
        let mut rng = StdRng::seed_from_u64(3);
        let c = corrupt_features(&x, &mut rng);
        assert_eq!(c.shape(), x.shape());
        // Same multiset of rows.
        let mut a: Vec<Vec<f32>> = (0..4).map(|r| x.row(r).to_vec()).collect();
        let mut b: Vec<Vec<f32>> = (0..4).map(|r| c.row(r).to_vec()).collect();
        a.sort_by(|p, q| p[0].total_cmp(&q[0]));
        b.sort_by(|p, q| p[0].total_cmp(&q[0]));
        assert_eq!(a, b);
    }

    #[test]
    fn dgi_loss_is_log2_at_chance() {
        // With h == h_corrupt the discriminator cannot do better than
        // chance; the loss equals ln 2 at a zero-information optimum and
        // is certainly finite/positive here.
        let mut tape = Tape::new();
        let h = tape.leaf(Tensor::zeros(4, 6));
        let hc = tape.leaf(Tensor::zeros(4, 6));
        let loss = dgi_loss(&mut tape, h, hc);
        let v = tape.value(loss).get(0, 0);
        assert!((v - std::f32::consts::LN_2).abs() < 1e-5);
    }
}
