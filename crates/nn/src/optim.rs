use std::collections::HashMap;

/// A first-order optimizer updating one parameter tensor at a time.
///
/// Implementations keep per-tensor state (momentum buffers, Adam moments)
/// keyed by the caller-supplied `tensor_id`; [`crate::Sequential`] assigns
/// stable ids so state survives across steps.
pub trait Optimizer {
    /// Performs one update `params -= f(grads)` for the tensor
    /// identified by `tensor_id`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `params.len() != grads.len()` or if a
    /// `tensor_id` is reused with a different length.
    fn step(&mut self, tensor_id: usize, params: &mut [f64], grads: &[f64]);

    /// Current learning rate.
    fn learning_rate(&self) -> f64;

    /// Replaces the learning rate (for schedules).
    fn set_learning_rate(&mut self, lr: f64);
}

/// Stochastic gradient descent with optional classical momentum.
///
/// # Example
///
/// ```
/// use cnd_nn::{Optimizer, Sgd};
/// let mut opt = Sgd::new(0.1);
/// let mut p = vec![1.0];
/// opt.step(0, &mut p, &[2.0]);
/// assert!((p[0] - 0.8).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f64,
    momentum: f64,
    velocity: HashMap<usize, Vec<f64>>,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    pub fn new(lr: f64) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            velocity: HashMap::new(),
        }
    }

    /// SGD with classical momentum.
    pub fn with_momentum(lr: f64, momentum: f64) -> Self {
        Sgd {
            lr,
            momentum,
            velocity: HashMap::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, tensor_id: usize, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "sgd: length mismatch");
        if self.momentum == 0.0 {
            for (p, &g) in params.iter_mut().zip(grads) {
                *p -= self.lr * g;
            }
            return;
        }
        let v = self
            .velocity
            .entry(tensor_id)
            .or_insert_with(|| vec![0.0; params.len()]);
        assert_eq!(
            v.len(),
            params.len(),
            "sgd: tensor_id reused with new length"
        );
        for ((p, &g), vi) in params.iter_mut().zip(grads).zip(v.iter_mut()) {
            *vi = self.momentum * *vi - self.lr * g;
            *p += *vi;
        }
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }
}

/// Adam optimizer (Kingma & Ba, 2017) — the paper trains the CFE with
/// Adam at learning rate `0.001`, which is the [`Adam::new`] default
/// configuration's intended use.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    /// Per-tensor `(m, v, t)` state.
    state: HashMap<usize, AdamState>,
}

#[derive(Debug, Clone)]
struct AdamState {
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// Adam with the canonical hyper-parameters
    /// `β₁ = 0.9, β₂ = 0.999, ε = 1e-8`.
    pub fn new(lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            state: HashMap::new(),
        }
    }

    /// Adam with explicit moment decay rates.
    pub fn with_betas(lr: f64, beta1: f64, beta2: f64) -> Self {
        Adam {
            lr,
            beta1,
            beta2,
            eps: 1e-8,
            state: HashMap::new(),
        }
    }

    /// Discards all per-tensor state (fresh start, e.g. at an experience
    /// boundary if desired).
    pub fn reset(&mut self) {
        self.state.clear();
    }
}

impl Optimizer for Adam {
    fn step(&mut self, tensor_id: usize, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "adam: length mismatch");
        let st = self.state.entry(tensor_id).or_insert_with(|| AdamState {
            m: vec![0.0; params.len()],
            v: vec![0.0; params.len()],
            t: 0,
        });
        assert_eq!(
            st.m.len(),
            params.len(),
            "adam: tensor_id reused with new length"
        );
        st.t += 1;
        let b1t = 1.0 - self.beta1.powi(st.t as i32);
        let b2t = 1.0 - self.beta2.powi(st.t as i32);
        // Hyper-parameters in locals and moments as slices: the loop then
        // reloads nothing through `self` after each store.
        let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let (m, v) = (st.m.as_mut_slice(), st.v.as_mut_slice());
        for i in 0..params.len() {
            let g = grads[i];
            m[i] = beta1 * m[i] + (1.0 - beta1) * g;
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
            let m_hat = m[i] / b1t;
            let v_hat = v[i] / b2t;
            params[i] -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_plain_step() {
        let mut o = Sgd::new(0.5);
        let mut p = vec![1.0, 2.0];
        o.step(0, &mut p, &[1.0, -1.0]);
        assert_eq!(p, vec![0.5, 2.5]);
    }

    #[test]
    fn sgd_momentum_accelerates() {
        let mut o = Sgd::with_momentum(0.1, 0.9);
        let mut p = vec![0.0];
        o.step(0, &mut p, &[1.0]);
        let first = p[0];
        o.step(0, &mut p, &[1.0]);
        let second_delta = p[0] - first;
        // With momentum the second step is larger than the first.
        assert!(second_delta.abs() > first.abs());
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction the very first Adam step has magnitude ~lr.
        let mut o = Adam::new(0.001);
        let mut p = vec![1.0];
        o.step(0, &mut p, &[0.3]);
        assert!((1.0 - p[0] - 0.001).abs() < 1e-6, "step = {}", 1.0 - p[0]);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimize f(x) = (x - 3)^2 with gradient 2(x - 3).
        let mut o = Adam::new(0.1);
        let mut p = vec![0.0];
        for _ in 0..500 {
            let g = 2.0 * (p[0] - 3.0);
            o.step(0, &mut p, &[g]);
        }
        assert!((p[0] - 3.0).abs() < 1e-3, "x = {}", p[0]);
    }

    #[test]
    fn adam_state_separate_per_tensor() {
        let mut o = Adam::new(0.1);
        let mut a = vec![0.0];
        let mut b = vec![0.0, 0.0];
        o.step(0, &mut a, &[1.0]);
        o.step(1, &mut b, &[1.0, 1.0]);
        assert!(a[0] != 0.0 && b[0] != 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn adam_rejects_bad_lengths() {
        let mut o = Adam::new(0.1);
        let mut p = vec![0.0];
        o.step(0, &mut p, &[1.0, 2.0]);
    }

    #[test]
    fn learning_rate_round_trip() {
        let mut o = Adam::new(0.1);
        o.set_learning_rate(0.01);
        assert_eq!(o.learning_rate(), 0.01);
        let mut s = Sgd::new(0.2);
        s.set_learning_rate(0.3);
        assert_eq!(s.learning_rate(), 0.3);
    }

    #[test]
    fn adam_reset_clears_state() {
        let mut o = Adam::new(0.1);
        let mut p = vec![0.0];
        o.step(0, &mut p, &[1.0]);
        o.reset();
        let mut q = vec![0.0];
        o.step(0, &mut q, &[1.0]);
        assert!(
            (p[0] - q[0]).abs() < 1e-12,
            "fresh state reproduces first step"
        );
    }
}
