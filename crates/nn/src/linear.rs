use cnd_linalg::{matmul_packed_into, Matrix, PackedB};
use rand::Rng;

use crate::sequential::{overwritable, pass_blocks};
use crate::{init, Activation, Optimizer};

/// A fully connected layer computing `y = xW + b` over a batch.
///
/// Weights have shape `(fan_in, fan_out)`; inputs are one sample per row.
/// The layer caches nothing: in training, the owning
/// [`Sequential`](crate::Sequential)'s workspace holds the input its
/// backward reads. Gradients *accumulate* across backward calls until
/// [`zero_grad`](Linear::zero_grad) — this is what lets the CFE sum
/// gradient contributions from several losses.
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    w: Matrix,
    b: Vec<f64>,
    grad_w: Matrix,
    grad_b: Vec<f64>,
}

/// Buffers one layer backward reuses from call to call: `d` packed for
/// `dW = xᵀ·d`, `Wᵀ` packed for `dx = d·Wᵀ`, and this call's `dW` and
/// `db` before they are added to the accumulated gradients.
#[derive(Debug, Default)]
pub(crate) struct BackwardScratch {
    packed_d: PackedB,
    packed_wt: PackedB,
    dw: Vec<f64>,
    db: Vec<f64>,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights and zero biases.
    pub fn new<R: Rng + ?Sized>(fan_in: usize, fan_out: usize, rng: &mut R) -> Self {
        Linear::from_parts(
            init::xavier_uniform(fan_in, fan_out, rng),
            vec![0.0; fan_out],
        )
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

    /// Backward pass for the batch input `x` and output gradient `d`:
    /// adds `dW = xᵀ·d` and `db = Σ_rows d` to the accumulated
    /// gradients, and, when `dx` is given, writes `dx = d·Wᵀ` into it,
    /// each element then multiplied by `act′` at the value in `at` when
    /// an activation is fused in. Shapes are the caller's to check.
    ///
    /// One pool dispatch when the layer is large enough: `dx` splits by
    /// batch rows and `dW` by its own rows, one block of each per pool
    /// thread, all side by side. Every output element still sums its
    /// terms over ascending batch rows (`dW`) or outputs (`dx`) from
    /// `+0.0`, so the split never changes a bit.
    pub(crate) fn backward_into(
        &mut self,
        x: &Matrix,
        d: &Matrix,
        dx: Option<(&mut Matrix, Option<(Activation, &Matrix)>)>,
        scratch: &mut BackwardScratch,
    ) {
        let (rows, fan_in, fan_out) = (d.rows(), self.fan_in(), self.fan_out());
        scratch.db.resize(fan_out, 0.0);
        d.col_sums_into(&mut scratch.db);
        for (gb, s) in self.grad_b.iter_mut().zip(&scratch.db) {
            *gb += s;
        }
        scratch.packed_d.repack(d.view());
        scratch.dw.resize(fan_in * fan_out, 0.0);
        let mut madds = rows * fan_in * fan_out;
        let dx = dx.map(|(dx, fused)| {
            scratch.packed_wt.repack(self.w.view().t());
            overwritable(dx, rows, fan_in);
            madds *= 2;
            (dx, fused)
        });
        let xt = x.view().t();
        let packed_d = &scratch.packed_d;
        let packed_wt = &scratch.packed_wt;
        let dw_rows = |r0: usize, dw: &mut [f64], grad: &mut [f64]| {
            let r1 = r0 + grad.len() / fan_out.max(1);
            matmul_packed_into(xt.rows_view(r0, r1), packed_d, dw)
                .expect("linear: cached input does not match the layer");
            for (g, v) in grad.iter_mut().zip(dw.iter()) {
                *g += v;
            }
        };
        let dx_rows = |r0: usize, out: &mut [f64], fused: Option<(Activation, &Matrix)>| {
            let r1 = r0 + out.len() / fan_in.max(1);
            matmul_packed_into(d.view().rows_view(r0, r1), packed_wt, out)
                .expect("linear: gradient does not match the layer");
            if let Some((act, at)) = fused {
                // In place as `dx * act′`, the operand order of `hadamard`.
                let at = &at.as_slice()[r0 * fan_in..r1 * fan_in];
                for (g, &v) in out.iter_mut().zip(at) {
                    *g *= act.derivative_cached(v);
                }
            }
        };
        let pool = cnd_parallel::current();
        let grad_w = self.grad_w.as_mut_slice();
        let Some(blocks) = pass_blocks(&pool, madds) else {
            dw_rows(0, &mut scratch.dw, grad_w);
            if let Some((dx, fused)) = dx {
                dx_rows(0, dx.as_mut_slice(), fused);
            }
            return;
        };
        let dw_step = fan_in.div_ceil(blocks);
        let step = dw_step * fan_out;
        let dw_blocks = scratch.dw.chunks_mut(step).zip(grad_w.chunks_mut(step));
        pool.scope(|s| {
            let (dw_rows, dx_rows) = (&dw_rows, &dx_rows);
            for (i, (dw, grad)) in dw_blocks.enumerate() {
                s.spawn(move || dw_rows(i * dw_step, dw, grad));
            }
            if let Some((dx, fused)) = dx {
                let dx_step = rows.div_ceil(blocks);
                for (i, out) in dx.as_mut_slice().chunks_mut(dx_step * fan_in).enumerate() {
                    s.spawn(move || dx_rows(i * dx_step, out, fused));
                }
            }
        });
    }

    /// Clears accumulated gradients (in place).
    pub fn zero_grad(&mut self) {
        self.grad_w.as_mut_slice().fill(0.0);
        self.grad_b.fill(0.0);
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
    use crate::{NnError, Sequential};

    /// The layer alone in a network: training runs through `Sequential`.
    fn net(layer: Linear) -> Sequential {
        let mut net = Sequential::new();
        net.push_layer(layer);
        net
    }

    fn layer_2x3() -> Sequential {
        let w = Matrix::from_rows(&[vec![1.0, 0.0, 2.0], vec![0.0, 1.0, -1.0]]).unwrap();
        net(Linear::from_parts(w, vec![0.5, -0.5, 0.0]))
    }

    fn only(net: &Sequential) -> &Linear {
        net.linear_layers().next().unwrap()
    }

    #[test]
    fn forward_known_values() {
        let mut l = layer_2x3();
        let x = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let y = l.forward(&x);
        assert_eq!(y.row(0), &[1.5, 1.5, 0.0]);
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
        l.forward(&x);
        let d_out = Matrix::filled(2, 3, 1.0);
        let dx = l.backward(&d_out).unwrap();
        assert_eq!(dx.shape(), (2, 2));
        // dx = d_out * W^T; row i = col sums of W.
        assert_eq!(dx.row(0), &[3.0, 0.0]);
        // dW = x^T d_out: entry (0,0) = 1+3 = 4.
        assert_eq!(only(&l).grad_weights()[(0, 0)], 4.0);
        // db = column sums of d_out = [2,2,2].
        assert_eq!(only(&l).grad_bias(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut l = layer_2x3();
        let x = Matrix::filled(1, 2, 1.0);
        l.forward(&x);
        let d = Matrix::filled(1, 3, 1.0);
        l.backward(&d).unwrap();
        l.forward(&x);
        l.backward(&d).unwrap();
        assert_eq!(only(&l).grad_bias(), &[2.0, 2.0, 2.0]);
        l.zero_grad();
        assert_eq!(only(&l).grad_bias(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn backward_rejects_bad_shape() {
        let mut l = layer_2x3();
        let x = Matrix::filled(2, 2, 1.0);
        l.forward(&x);
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
        assert_eq!(only(&layer_2x3()).param_count(), 9);
    }
}
