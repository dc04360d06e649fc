//! Trainable-parameter storage and first-order optimizers.
//!
//! Parameters live outside any [`Tape`](crate::Tape): each training step
//! injects them into a fresh tape as leaves, runs forward/backward, then
//! applies an [`Optimizer`] update to the store.

use rand::Rng;

use crate::{Matrix, Tape, Var};

/// Identifier of a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

impl ParamId {
    /// Raw index (stable for the life of the store).
    pub fn index(self) -> usize {
        self.0
    }
}

/// A named collection of trainable matrices.
///
/// # Examples
///
/// ```
/// use gnn4ip_tensor::{Matrix, ParamStore, Tape};
///
/// let mut params = ParamStore::new();
/// let w = params.add("w", Matrix::scalar(2.0));
/// let tape = Tape::new();
/// let vars = params.inject(&tape);
/// assert_eq!(vars[w.index()].item(), 2.0);
/// ```
#[derive(Debug, Default, Clone)]
pub struct ParamStore {
    names: Vec<String>,
    mats: Vec<Matrix>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter and returns its id.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        self.names.push(name.into());
        self.mats.push(value);
        ParamId(self.mats.len() - 1)
    }

    /// Registers a parameter with Glorot-uniform initialization
    /// (`U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`).
    pub fn add_glorot(
        &mut self,
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        rng: &mut impl Rng,
    ) -> ParamId {
        let a = (6.0 / (rows + cols) as f32).sqrt();
        let m = Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-a..a));
        self.add(name, m)
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.mats.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.mats.is_empty()
    }

    /// The current value of a parameter.
    pub fn get(&self, id: ParamId) -> &Matrix {
        &self.mats[id.0]
    }

    /// Mutable access to a parameter value.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.mats[id.0]
    }

    /// The registered name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterates `(name, matrix)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Matrix)> {
        self.names.iter().map(String::as_str).zip(self.mats.iter())
    }

    /// Iterates parameter values mutably, in registration order — the
    /// deserialization path overwrites freshly initialized weights through
    /// this without needing per-parameter ids.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut Matrix> {
        self.mats.iter_mut()
    }

    /// Records every parameter as a leaf on `tape`; element `i` of the result
    /// corresponds to `ParamId` with `index() == i`.
    pub fn inject<'t>(&self, tape: &'t Tape) -> Vec<Var<'t>> {
        self.mats.iter().map(|m| tape.input(m.clone())).collect()
    }
}

/// A first-order optimizer over a [`ParamStore`].
pub trait Optimizer {
    /// Applies one update from per-parameter gradients (aligned with
    /// `ParamId::index`).
    ///
    /// # Panics
    ///
    /// Implementations may panic if `grads` does not line up with `params`.
    fn step(&mut self, params: &mut ParamStore, grads: &[Matrix]);

    /// Replaces the learning rate — the hook LR schedules drive between
    /// epochs. Momentum/moment state is untouched.
    fn set_lr(&mut self, lr: f32);
}

/// Plain stochastic (batch) gradient descent — the paper's stated
/// "batch gradient descent algorithm with batch size 64 and learning rate
/// 0.001".
#[derive(Debug, Clone)]
pub struct Sgd {
    pub(crate) lr: f32,
}

impl Sgd {
    /// Creates SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Self { lr }
    }

    /// The learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut ParamStore, grads: &[Matrix]) {
        assert_eq!(grads.len(), params.len(), "gradient count mismatch");
        for (p, g) in params.mats.iter_mut().zip(grads) {
            p.add_scaled_assign(g, -self.lr);
        }
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba) — the practical default; converges in far fewer epochs
/// than plain SGD on the cosine-embedding objective.
#[derive(Debug, Clone)]
pub struct Adam {
    pub(crate) lr: f32,
    pub(crate) beta1: f32,
    pub(crate) beta2: f32,
    pub(crate) eps: f32,
    pub(crate) t: u64,
    pub(crate) m: Vec<Matrix>,
    pub(crate) v: Vec<Matrix>,
}

impl Adam {
    /// Creates Adam with the given learning rate and standard betas
    /// (0.9 / 0.999) and epsilon (1e-8).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// The learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut ParamStore, grads: &[Matrix]) {
        assert_eq!(grads.len(), params.len(), "gradient count mismatch");
        if self.m.is_empty() {
            self.m = grads
                .iter()
                .map(|g| Matrix::zeros(g.rows(), g.cols()))
                .collect();
            self.v = self.m.clone();
        }
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for (i, g) in grads.iter().enumerate() {
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            *m = m.scale(self.beta1).add(&g.scale(1.0 - self.beta1));
            *v = v
                .scale(self.beta2)
                .add(&g.hadamard(g).scale(1.0 - self.beta2));
            let mhat = m.scale(1.0 / b1t);
            let vhat = v.scale(1.0 / b2t);
            let update = mhat.zip_with(&vhat, |mh, vh| mh / (vh.sqrt() + self.eps));
            params.mats[i].add_scaled_assign(&update, -self.lr);
        }
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_grad(params: &ParamStore, id: ParamId) -> Vec<Matrix> {
        // f(w) = sum(w^2); grad = 2w
        vec![params.get(id).scale(2.0)]
    }

    #[test]
    fn sgd_descends_quadratic() {
        let mut params = ParamStore::new();
        let id = params.add("w", Matrix::from_rows(&[&[4.0, -2.0]]));
        let mut opt = Sgd::new(0.1);
        for _ in 0..100 {
            let g = quadratic_grad(&params, id);
            opt.step(&mut params, &g);
        }
        assert!(params.get(id).max_abs() < 1e-3);
    }

    #[test]
    fn adam_descends_quadratic() {
        let mut params = ParamStore::new();
        let id = params.add("w", Matrix::from_rows(&[&[4.0, -2.0]]));
        let mut opt = Adam::new(0.05);
        for _ in 0..500 {
            let g = quadratic_grad(&params, id);
            opt.step(&mut params, &g);
        }
        assert!(params.get(id).max_abs() < 1e-2);
    }

    #[test]
    fn glorot_init_is_bounded() {
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let mut params = ParamStore::new();
        let id = params.add_glorot("w", 8, 8, &mut rng);
        let bound = (6.0f32 / 16.0).sqrt();
        assert!(params.get(id).max_abs() <= bound);
    }

    #[test]
    fn param_store_roundtrip() {
        let mut params = ParamStore::new();
        let a = params.add("alpha", Matrix::scalar(1.0));
        let b = params.add("beta", Matrix::scalar(2.0));
        assert_eq!(params.name(a), "alpha");
        assert_eq!(params.name(b), "beta");
        assert_eq!(params.len(), 2);
        let names: Vec<_> = params.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names, vec!["alpha", "beta"]);
    }
}
