//! Parameter store and the Adam optimizer.
//!
//! Parameters live outside any tape in a [`Params`] store. Each forward
//! pass lends them to the tape ([`Params::bind`]), and after backward
//! the per-parameter gradients are moved back out by id.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::tape::{Gradients, Tape, Var};
use crate::tensor::Tensor;

/// Handle to a parameter tensor in a [`Params`] store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParamId(usize);

/// A store of trainable tensors.
#[derive(Debug)]
pub struct Params {
    tensors: Vec<Tensor>,
    rng: StdRng,
}

impl Params {
    /// An empty store with a seeded initializer RNG.
    pub fn new(seed: u64) -> Self {
        Self {
            tensors: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Registers an explicit tensor.
    pub fn add(&mut self, t: Tensor) -> ParamId {
        self.tensors.push(t);
        ParamId(self.tensors.len() - 1)
    }

    /// Registers a Xavier/Glorot-uniform `rows × cols` matrix.
    pub fn xavier(&mut self, rows: usize, cols: usize) -> ParamId {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| self.rng.gen_range(-bound..bound))
            .collect();
        self.add(Tensor::from_flat(rows, cols, data))
    }

    /// Registers a zero tensor.
    pub fn zeros(&mut self, rows: usize, cols: usize) -> ParamId {
        self.add(Tensor::zeros(rows, cols))
    }

    /// Registers an all-ones tensor.
    pub fn ones(&mut self, rows: usize, cols: usize) -> ParamId {
        self.add(Tensor::from_flat(rows, cols, vec![1.0; rows * cols]))
    }

    /// The current value of a parameter.
    #[inline]
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.tensors[id.0]
    }

    /// Mutable access (used by the optimizer).
    #[inline]
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.tensors[id.0]
    }

    /// Number of registered parameters.
    #[inline]
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// Whether the store is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Total scalar count across all parameters.
    pub fn scalar_count(&self) -> usize {
        self.tensors.iter().map(|t| t.as_slice().len()).sum()
    }

    /// All parameter tensors in registration order (checkpointing).
    pub fn tensors(&self) -> &[Tensor] {
        &self.tensors
    }

    /// Replaces every parameter value (checkpoint restore).
    ///
    /// # Errors
    ///
    /// Returns the offending index if counts or shapes differ from the
    /// registered parameters.
    pub fn restore(&mut self, values: Vec<Tensor>) -> Result<(), usize> {
        if values.len() != self.tensors.len() {
            return Err(values.len());
        }
        for (i, (cur, new)) in self.tensors.iter().zip(&values).enumerate() {
            if cur.shape() != new.shape() {
                return Err(i);
            }
        }
        self.tensors = values;
        Ok(())
    }

    /// Lends every parameter to a tape as a leaf, without copying;
    /// returns the mapping.
    pub fn bind<'a>(&'a self, tape: &mut Tape<'a>) -> ParamVars {
        ParamVars {
            vars: self.tensors.iter().map(|t| tape.leaf_ref(t)).collect(),
        }
    }

    /// [`Params::bind`] by copying every parameter into the tape.
    #[cfg(test)]
    pub(crate) fn bind_cloned(&self, tape: &mut Tape) -> ParamVars {
        ParamVars {
            vars: self.tensors.iter().map(|t| tape.leaf(t.clone())).collect(),
        }
    }
}

/// Tape bindings of a parameter store, valid for one forward pass.
#[derive(Debug)]
pub struct ParamVars {
    vars: Vec<Var>,
}

impl ParamVars {
    /// The tape var bound to a parameter.
    #[inline]
    pub fn var(&self, id: ParamId) -> Var {
        self.vars[id.0]
    }

    /// Moves per-parameter gradients out of `grads` after backward (zero
    /// tensors for parameters the loss never touched).
    pub fn collect_grads(&self, grads: &mut Gradients, params: &Params) -> Vec<Tensor> {
        self.vars
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                grads.take(v).unwrap_or_else(|| {
                    let (r, c) = params.get(ParamId(i)).shape();
                    Tensor::zeros(r, c)
                })
            })
            .collect()
    }
}

/// The Adam optimizer (Kingma & Ba, 2015).
#[derive(Debug)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub eps: f32,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    t: i32,
}

impl Adam {
    /// Adam with the usual defaults and a given learning rate.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        }
    }

    /// Applies one update step.
    ///
    /// # Panics
    ///
    /// Panics if `grads.len() != params.len()`.
    pub fn step(&mut self, params: &mut Params, grads: &[Tensor]) {
        assert_eq!(grads.len(), params.len(), "one gradient per parameter");
        if self.m.len() != params.len() {
            self.m = grads
                .iter()
                .map(|g| Tensor::zeros(g.rows(), g.cols()))
                .collect();
            self.v = self.m.clone();
            self.t = 0;
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t);
        let bc2 = 1.0 - self.beta2.powi(self.t);
        for (i, g) in grads.iter().enumerate() {
            let p = params.get_mut(ParamId(i));
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            for ((pw, &gw), (mw, vw)) in p
                .as_mut_slice()
                .iter_mut()
                .zip(g.as_slice())
                .zip(m.as_mut_slice().iter_mut().zip(v.as_mut_slice()))
            {
                *mw = self.beta1 * *mw + (1.0 - self.beta1) * gw;
                *vw = self.beta2 * *vw + (1.0 - self.beta2) * gw * gw;
                let mhat = *mw / bc1;
                let vhat = *vw / bc2;
                *pw -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_minimizes_a_quadratic() {
        // Minimize ||w - target||² with gradients 2(w - target).
        let mut params = Params::new(0);
        let w = params.add(Tensor::from_rows(&[vec![5.0, -3.0]]));
        let target = [1.0f32, 2.0];
        let mut adam = Adam::new(0.1);
        for _ in 0..500 {
            let cur = params.get(w).clone();
            let grad = Tensor::from_rows(&[vec![
                2.0 * (cur.get(0, 0) - target[0]),
                2.0 * (cur.get(0, 1) - target[1]),
            ]]);
            adam.step(&mut params, &[grad]);
        }
        let w = params.get(w);
        assert!((w.get(0, 0) - 1.0).abs() < 1e-2);
        assert!((w.get(0, 1) - 2.0).abs() < 1e-2);
    }

    #[test]
    fn bind_and_collect_roundtrip() {
        let mut params = Params::new(1);
        let a = params.xavier(2, 2);
        let b = params.zeros(1, 2);
        let mut tape = Tape::new();
        let pv = params.bind(&mut tape);
        let x = tape.leaf(Tensor::from_rows(&[vec![1.0, 1.0]]));
        let y = tape.matmul(x, pv.var(a));
        let y = tape.add_row_broadcast(y, pv.var(b));
        let loss = tape.bce_with_logits(y, &[1.0, 0.0]);
        let mut grads = tape.backward(loss);
        let g = pv.collect_grads(&mut grads, &params);
        assert_eq!(g.len(), 2);
        assert!(g[0].max_abs() > 0.0, "weight gradient flows");
        assert!(g[1].max_abs() > 0.0, "bias gradient flows");
        assert!(params.scalar_count() == 6);
    }

    #[test]
    fn untouched_params_get_zero_grads() {
        let mut params = Params::new(2);
        let used = params.xavier(2, 1);
        let unused = params.xavier(3, 3);
        let mut tape = Tape::new();
        let pv = params.bind(&mut tape);
        let x = tape.leaf(Tensor::from_rows(&[vec![1.0, 2.0]]));
        let z = tape.matmul(x, pv.var(used));
        let loss = tape.bce_with_logits(z, &[1.0]);
        let mut grads = tape.backward(loss);
        let g = pv.collect_grads(&mut grads, &params);
        assert!(g[used.0].max_abs() > 0.0);
        assert_eq!(g[unused.0].max_abs(), 0.0);
    }

    #[test]
    fn xavier_bounds_scale_with_fanin() {
        let mut params = Params::new(3);
        let big = params.xavier(1000, 1000);
        let small = params.xavier(2, 2);
        assert!(params.get(big).max_abs() < params.get(small).max_abs() + 1.3);
        assert!(params.get(big).max_abs() < 0.1);
    }
}
