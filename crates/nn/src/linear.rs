use cnd_linalg::Matrix;
use rand::Rng;

use crate::{init, NnError, Optimizer};

/// A fully connected layer computing `y = xW + b` over a batch.
///
/// Weights have shape `(fan_in, fan_out)`; inputs are one sample per row.
/// The layer caches its input during [`forward`](Linear::forward) so that
/// [`backward`](Linear::backward) can compute parameter gradients.
/// Gradients *accumulate* across backward calls until
/// [`zero_grad`](Linear::zero_grad) — this is what lets the CFE sum
/// gradient contributions from several losses.
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    w: Matrix,
    b: Vec<f64>,
    grad_w: Matrix,
    grad_b: Vec<f64>,
    cached_input: Option<Matrix>,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights and zero biases.
    pub fn new<R: Rng + ?Sized>(fan_in: usize, fan_out: usize, rng: &mut R) -> Self {
        Linear {
            w: init::xavier_uniform(fan_in, fan_out, rng),
            b: vec![0.0; fan_out],
            grad_w: Matrix::zeros(fan_in, fan_out),
            grad_b: vec![0.0; fan_out],
            cached_input: None,
        }
    }

    /// Creates a layer from explicit parameters (used by tests and
    /// model-snapshot restoration).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != w.cols()`.
    pub fn from_parts(w: Matrix, b: Vec<f64>) -> Self {
        assert_eq!(b.len(), w.cols(), "bias length must equal fan_out");
        let (fan_in, fan_out) = w.shape();
        Linear {
            w,
            b,
            grad_w: Matrix::zeros(fan_in, fan_out),
            grad_b: vec![0.0; fan_out],
            cached_input: None,
        }
    }

    /// Input dimensionality.
    pub fn fan_in(&self) -> usize {
        self.w.rows()
    }

    /// Output dimensionality.
    pub fn fan_out(&self) -> usize {
        self.w.cols()
    }

    /// Borrow of the weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// Borrow of the bias vector.
    pub fn bias(&self) -> &[f64] {
        &self.b
    }

    /// Mutable borrow of the weight matrix (for tests / perturbation).
    pub fn weights_mut(&mut self) -> &mut Matrix {
        &mut self.w
    }

    /// Mutable borrow of the bias vector.
    pub fn bias_mut(&mut self) -> &mut [f64] {
        &mut self.b
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Forward pass over a batch, caching the input for backward.
    ///
    /// # Errors
    ///
    /// Returns an error if `x.cols() != fan_in`.
    pub fn forward(&mut self, x: &Matrix) -> Result<Matrix, NnError> {
        let y = x.matmul(&self.w)?.add_row_broadcast(&self.b)?;
        self.cached_input = Some(x.clone());
        Ok(y)
    }

    /// Forward pass without caching — used for inference.
    ///
    /// # Errors
    ///
    /// Returns an error if `x.cols() != fan_in`.
    pub fn forward_inference(&self, x: &Matrix) -> Result<Matrix, NnError> {
        Ok(x.matmul(&self.w)?.add_row_broadcast(&self.b)?)
    }

    /// Backward pass: accumulates `dW`, `db` and returns `dL/dx`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardPass`] if called before `forward`, or a
    /// shape error if `d_out` does not match the cached batch.
    pub fn backward(&mut self, d_out: &Matrix) -> Result<Matrix, NnError> {
        let x = self.cached_input.as_ref().ok_or(NnError::NoForwardPass)?;
        if d_out.rows() != x.rows() || d_out.cols() != self.w.cols() {
            return Err(NnError::BatchMismatch {
                left: d_out.shape(),
                right: (x.rows(), self.w.cols()),
            });
        }
        // Transposed views feed the packed GEMM directly; no clone of
        // xᵀ / Wᵀ is materialized per backward step.
        let dw = x.view().t().matmul(&d_out.view())?;
        debug_assert_eq!(dw.shape(), self.grad_w.shape());
        for (g, d) in self.grad_w.as_mut_slice().iter_mut().zip(dw.as_slice()) {
            *g += d;
        }
        for (gb, s) in self.grad_b.iter_mut().zip(d_out.col_sums()) {
            *gb += s;
        }
        let dx = d_out.view().matmul(&self.w.view().t())?;
        Ok(dx)
    }

    /// Clears accumulated gradients (in place) and the cached input.
    pub fn zero_grad(&mut self) {
        self.grad_w.as_mut_slice().fill(0.0);
        self.grad_b.fill(0.0);
        self.cached_input = None;
    }

    /// Accumulated weight gradient (for tests).
    pub fn grad_weights(&self) -> &Matrix {
        &self.grad_w
    }

    /// Accumulated bias gradient (for tests).
    pub fn grad_bias(&self) -> &[f64] {
        &self.grad_b
    }

    /// Applies one optimizer step to the weights and biases.
    ///
    /// `tensor_id` must be unique per parameter tensor across the whole
    /// model so the optimizer can associate its per-tensor state; the
    /// layer uses `tensor_id` for weights and `tensor_id + 1` for biases.
    pub fn apply_gradients<O: Optimizer + ?Sized>(&mut self, opt: &mut O, tensor_id: usize) {
        opt.step(tensor_id, self.w.as_mut_slice(), self.grad_w.as_slice());
        opt.step(tensor_id + 1, &mut self.b, &self.grad_b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn layer_2x3() -> Linear {
        let w = Matrix::from_rows(&[vec![1.0, 0.0, 2.0], vec![0.0, 1.0, -1.0]]).unwrap();
        Linear::from_parts(w, vec![0.5, -0.5, 0.0])
    }

    #[test]
    fn forward_known_values() {
        let mut l = layer_2x3();
        let x = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let y = l.forward(&x).unwrap();
        assert_eq!(y.row(0), &[1.5, 1.5, 0.0]);
    }

    #[test]
    fn forward_inference_matches_forward() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut l = Linear::new(4, 3, &mut rng);
        let x = Matrix::from_fn(5, 4, |i, j| (i + j) as f64 * 0.1);
        let a = l.forward(&x).unwrap();
        let b = l.forward_inference(&x).unwrap();
        assert!(a.max_abs_diff(&b) < 1e-15);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut l = layer_2x3();
        let d = Matrix::zeros(1, 3);
        assert_eq!(l.backward(&d), Err(NnError::NoForwardPass));
    }

    #[test]
    fn backward_shapes_and_values() {
        let mut l = layer_2x3();
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        l.forward(&x).unwrap();
        let d_out = Matrix::filled(2, 3, 1.0);
        let dx = l.backward(&d_out).unwrap();
        assert_eq!(dx.shape(), (2, 2));
        // dx = d_out * W^T; row i = col sums of W.
        assert_eq!(dx.row(0), &[3.0, 0.0]);
        // dW = x^T d_out: entry (0,0) = 1+3 = 4.
        assert_eq!(l.grad_weights()[(0, 0)], 4.0);
        // db = column sums of d_out = [2,2,2].
        assert_eq!(l.grad_bias(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut l = layer_2x3();
        let x = Matrix::filled(1, 2, 1.0);
        l.forward(&x).unwrap();
        let d = Matrix::filled(1, 3, 1.0);
        l.backward(&d).unwrap();
        l.forward(&x).unwrap();
        l.backward(&d).unwrap();
        assert_eq!(l.grad_bias(), &[2.0, 2.0, 2.0]);
        l.zero_grad();
        assert_eq!(l.grad_bias(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn backward_rejects_bad_shape() {
        let mut l = layer_2x3();
        let x = Matrix::filled(2, 2, 1.0);
        l.forward(&x).unwrap();
        let d = Matrix::zeros(3, 3);
        assert!(matches!(l.backward(&d), Err(NnError::BatchMismatch { .. })));
    }

    #[test]
    #[should_panic(expected = "bias length")]
    fn from_parts_validates_bias() {
        Linear::from_parts(Matrix::zeros(2, 3), vec![0.0; 2]);
    }

    #[test]
    fn param_count() {
        assert_eq!(layer_2x3().param_count(), 9);
    }
}
