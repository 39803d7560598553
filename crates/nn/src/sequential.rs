use cnd_linalg::{matmul_packed_into, Matrix, MatrixRef, PackedB};
use rand::Rng;

use crate::{Activation, Linear, NnError, Optimizer};

/// One layer of a [`Sequential`] network.
#[derive(Debug, Clone)]
pub enum Layer {
    /// Fully connected layer.
    Linear(Linear),
    /// Elementwise activation; caches between forward and backward what
    /// its derivative reads. Tanh and sigmoid cache their output, so
    /// backward takes `1 − y·y` and `y·(1 − y)` without a second `tanh`
    /// or `exp`, bit-identical to the derivative at the input. The
    /// piecewise-linear activations cache their input and keep the
    /// derivative rule at it: a negative-slope `LeakyRelu` output does
    /// not keep the input's sign.
    Activation {
        /// The activation function.
        act: Activation,
        /// The last forward pass's output (tanh, sigmoid) or input (the
        /// piecewise-linear activations).
        cached: Option<Matrix>,
    },
}

/// A feed-forward stack of layers with explicit backward passes.
///
/// `Sequential` is the building block for the CFE encoder and decoder:
/// `forward` caches activations, `backward` consumes an output gradient
/// and returns the input gradient while accumulating parameter gradients,
/// and `apply_gradients` hands the accumulated gradients to an optimizer.
///
/// Because gradients accumulate until [`zero_grad`](Sequential::zero_grad),
/// a training step may run several loss functions, sum their gradients at
/// any interface, and push each stream through the network.
///
/// # Example
///
/// ```
/// use cnd_linalg::Matrix;
/// use cnd_nn::{Activation, Sequential};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut net = Sequential::new();
/// net.push_linear(3, 2, &mut rng);
/// net.push_activation(Activation::Relu);
/// let y = net.forward(&Matrix::zeros(4, 3));
/// assert_eq!(y.shape(), (4, 2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Sequential {
    layers: Vec<Layer>,
}

impl Sequential {
    /// Creates an empty network.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Builds an MLP from a list of layer widths, inserting `act` between
    /// consecutive linear layers (none after the last).
    ///
    /// `Sequential::mlp(&[64, 256, 32], Activation::Relu, rng)` produces
    /// `Linear(64→256) → ReLU → Linear(256→32)`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn mlp<R: Rng + ?Sized>(widths: &[usize], act: Activation, rng: &mut R) -> Self {
        assert!(
            widths.len() >= 2,
            "mlp needs at least input and output widths"
        );
        let mut net = Sequential::new();
        for w in widths.windows(2) {
            net.push_linear(w[0], w[1], rng);
            net.push_activation(act);
        }
        // Drop the trailing activation so the output layer is linear.
        net.layers.pop();
        net
    }

    /// Appends a Xavier-initialized linear layer.
    pub fn push_linear<R: Rng + ?Sized>(&mut self, fan_in: usize, fan_out: usize, rng: &mut R) {
        self.layers
            .push(Layer::Linear(Linear::new(fan_in, fan_out, rng)));
    }

    /// Appends a pre-built linear layer.
    pub fn push_layer(&mut self, layer: Linear) {
        self.layers.push(Layer::Linear(layer));
    }

    /// Appends an activation layer.
    pub fn push_activation(&mut self, act: Activation) {
        self.layers.push(Layer::Activation { act, cached: None });
    }

    /// Number of layers (linear and activation combined).
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` if the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match l {
                Layer::Linear(lin) => lin.param_count(),
                Layer::Activation { .. } => 0,
            })
            .sum()
    }

    /// All layers in order (for inspection and model persistence).
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Iterates over the linear layers.
    pub fn linear_layers(&self) -> impl Iterator<Item = &Linear> {
        self.layers.iter().filter_map(|l| match l {
            Layer::Linear(lin) => Some(lin),
            Layer::Activation { .. } => None,
        })
    }

    /// Forward pass with caching (training mode).
    ///
    /// # Panics
    ///
    /// Panics if an internal shape mismatch occurs, which indicates the
    /// network was built with inconsistent widths.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        for layer in &mut self.layers {
            h = match layer {
                Layer::Linear(lin) => lin
                    .forward(&h)
                    .expect("sequential: layer widths are inconsistent"),
                Layer::Activation { act, cached } => {
                    let a = *act;
                    let y = h.map(move |v| a.apply(v));
                    *cached = Some(if a.backward_reads_output() {
                        y.clone()
                    } else {
                        h
                    });
                    y
                }
            };
        }
        h
    }

    /// Forward pass without caching (inference mode, `&self`).
    ///
    /// Packs every weight once for this call ([`PackedSequential`]),
    /// then gives each [`cnd_parallel::current`] pool thread one
    /// contiguous row block to run through the whole layer stack.
    /// Every row passes through the identical serial layer sequence,
    /// so the output is bit-identical to a fully serial pass at any
    /// `CND_THREADS`.
    ///
    /// # Panics
    ///
    /// Panics if an internal shape mismatch occurs.
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        PackedSequential::new(self).forward(x)
    }

    /// [`forward_inference`](Self::forward_inference) written into
    /// `out`, row-major, `x.rows()` rows as wide as the last linear
    /// layer: the same bits, into a buffer the caller owns.
    ///
    /// # Panics
    ///
    /// Panics if `out` has another length or the layer widths do not
    /// chain from `x.cols()`.
    pub fn forward_inference_into(&self, x: &Matrix, out: &mut [f64]) {
        PackedSequential::new(self).forward_into(x, out);
    }

    /// Backward pass: takes `dL/d_output`, returns `dL/d_input`,
    /// accumulating parameter gradients in each linear layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardPass`] if `forward` has not been called
    /// since construction or the last `zero_grad`.
    pub fn backward(&mut self, d_out: &Matrix) -> Result<Matrix, NnError> {
        let mut d = d_out.clone();
        for layer in self.layers.iter_mut().rev() {
            d = match layer {
                Layer::Linear(lin) => lin.backward(&d)?,
                Layer::Activation { act, cached } => {
                    let c = cached.as_ref().ok_or(NnError::NoForwardPass)?;
                    if c.shape() != d.shape() {
                        return Err(NnError::BatchMismatch {
                            left: d.shape(),
                            right: c.shape(),
                        });
                    }
                    let a = *act;
                    // In place as `d * act′`, the operand order of `hadamard`.
                    for (g, &v) in d.as_mut_slice().iter_mut().zip(c.as_slice()) {
                        *g *= a.derivative_cached(v);
                    }
                    d
                }
            };
        }
        Ok(d)
    }

    /// Clears all accumulated gradients and cached activations.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            match layer {
                Layer::Linear(lin) => lin.zero_grad(),
                Layer::Activation { cached, .. } => *cached = None,
            }
        }
    }

    /// Applies one optimizer step to every linear layer.
    ///
    /// Tensor ids are assigned as `2 * layer_index` / `2 * layer_index + 1`
    /// so optimizer state stays attached to the same tensors across steps.
    pub fn apply_gradients<O: Optimizer + ?Sized>(&mut self, opt: &mut O) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            if let Layer::Linear(lin) = layer {
                lin.apply_gradients(opt, 2 * i);
            }
        }
    }

    /// Applies gradients with tensor ids offset by `id_offset` — lets two
    /// networks (e.g. encoder and decoder) share one optimizer without
    /// colliding state.
    pub fn apply_gradients_offset<O: Optimizer + ?Sized>(&mut self, opt: &mut O, id_offset: usize) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            if let Layer::Linear(lin) = layer {
                lin.apply_gradients(opt, id_offset + 2 * i);
            }
        }
    }

    /// Deep-copies the parameters of `other` into `self`.
    ///
    /// Used to restore model snapshots for the latent continual-learning
    /// loss. Architectures must match.
    ///
    /// # Panics
    ///
    /// Panics if the two networks have different architectures.
    pub fn copy_params_from(&mut self, other: &Sequential) {
        assert_eq!(
            self.layers.len(),
            other.layers.len(),
            "copy_params_from: architecture mismatch"
        );
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            match (a, b) {
                (Layer::Linear(la), Layer::Linear(lb)) => {
                    assert_eq!(
                        la.weights().shape(),
                        lb.weights().shape(),
                        "copy_params_from: layer shape mismatch"
                    );
                    *la = Linear::from_parts(lb.weights().clone(), lb.bias().to_vec());
                }
                (Layer::Activation { .. }, Layer::Activation { .. }) => {}
                _ => panic!("copy_params_from: layer kind mismatch"),
            }
        }
    }
}

/// The inference path of a [`Sequential`], with every `Linear` weight
/// packed once for the GEMM.
///
/// A frozen scorer builds one at load and reuses it for every batch;
/// [`Sequential::forward_inference`] builds one per call. It holds no
/// reference to the network, so later training of the source network
/// does not reach it.
#[derive(Debug, Clone)]
pub struct PackedSequential {
    layers: Vec<PackedLayer>,
}

#[derive(Debug, Clone)]
enum PackedLayer {
    Linear { w: PackedB, b: Vec<f64> },
    Activation(Activation),
}

impl PackedSequential {
    /// Packs the weights of `net`.
    pub fn new(net: &Sequential) -> Self {
        let layers = net
            .layers
            .iter()
            .map(|l| match l {
                Layer::Linear(lin) => PackedLayer::Linear {
                    w: PackedB::pack(lin.weights().view()),
                    b: lin.bias().to_vec(),
                },
                Layer::Activation { act, .. } => PackedLayer::Activation(*act),
            })
            .collect();
        PackedSequential { layers }
    }

    /// Output width for inputs `in_cols` wide: the last linear layer's
    /// fan-out, or `in_cols` for a network without one.
    pub(crate) fn out_cols(&self, in_cols: usize) -> usize {
        self.layers
            .iter()
            .rev()
            .find_map(|l| match l {
                PackedLayer::Linear { w, .. } => Some(w.cols()),
                PackedLayer::Activation(_) => None,
            })
            .unwrap_or(in_cols)
    }

    /// Inference over a batch, one contiguous row block per pool thread
    /// ([`cnd_parallel::ThreadPool::par_row_blocks`]), each tile of a
    /// block through [`forward_rows`](Self::forward_rows).
    ///
    /// # Panics
    ///
    /// Panics if the layer widths do not chain from `x.cols()`.
    pub(crate) fn forward(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), self.out_cols(x.cols()));
        self.forward_into(x, out.as_mut_slice());
        out
    }

    /// [`forward`](Self::forward) into `out`, `x.rows()` output rows.
    ///
    /// # Panics
    ///
    /// Panics if `out` has another length or the layer widths do not
    /// chain from `x.cols()`.
    pub(crate) fn forward_into(&self, x: &Matrix, out: &mut [f64]) {
        assert_eq!(
            out.len(),
            x.rows() * self.out_cols(x.cols()),
            "sequential: output buffer does not hold the batch"
        );
        cnd_parallel::current().par_row_blocks(
            out,
            x.rows(),
            |r, tile, (h, tmp): &mut (Vec<f64>, Vec<f64>)| {
                self.forward_rows(x.view().rows_view(r.start, r.end), h, tmp);
                tile.copy_from_slice(h);
            },
        );
    }

    /// Serial inference over the rows of `x`. The output lands in `h`,
    /// row-major, as wide as the last linear layer; `h` and `tmp` are
    /// the two buffers the layers alternate between, resized here, so a
    /// caller running many tiles allocates them once. The first linear
    /// layer reads `x` in place.
    ///
    /// # Panics
    ///
    /// Panics if the layer widths do not chain from `x.cols()`.
    pub fn forward_rows(&self, x: MatrixRef<'_>, h: &mut Vec<f64>, tmp: &mut Vec<f64>) {
        let rows = x.rows();
        let mut width = x.cols();
        // Until the first layer writes `h`, the running activation is `x`.
        let mut in_x = true;
        for layer in &self.layers {
            match layer {
                PackedLayer::Linear { w, b } => {
                    tmp.resize(rows * w.cols(), 0.0);
                    let input = if in_x {
                        x
                    } else {
                        MatrixRef::from_slice(rows, width, h)
                    };
                    matmul_packed_into(input, w, tmp)
                        .expect("sequential: layer widths are inconsistent");
                    width = w.cols();
                    for row in tmp.chunks_exact_mut(width) {
                        for (v, &bias) in row.iter_mut().zip(b) {
                            *v += bias;
                        }
                    }
                    std::mem::swap(h, tmp);
                }
                PackedLayer::Activation(act) => {
                    if in_x {
                        copy_rows(x, h);
                    }
                    let a = *act;
                    for v in h.iter_mut() {
                        *v = a.apply(*v);
                    }
                }
            }
            in_x = false;
        }
        if in_x {
            copy_rows(x, h);
        }
    }
}

/// Copies the rows of `x` into `out`, row-major.
fn copy_rows(x: MatrixRef<'_>, out: &mut Vec<f64>) {
    out.clear();
    for i in 0..x.rows() {
        out.extend_from_slice(x.row(i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
    }

    #[test]
    fn mlp_builder_shapes() {
        let mut r = rng();
        let net = Sequential::mlp(&[6, 8, 3], Activation::Relu, &mut r);
        // Linear, Act, Linear — trailing activation dropped.
        assert_eq!(net.len(), 3);
        assert_eq!(net.param_count(), 6 * 8 + 8 + 8 * 3 + 3);
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn mlp_needs_two_widths() {
        let mut r = rng();
        Sequential::mlp(&[4], Activation::Relu, &mut r);
    }

    #[test]
    fn forward_shapes() {
        let mut r = rng();
        let mut net = Sequential::mlp(&[5, 7, 2], Activation::Tanh, &mut r);
        let y = net.forward(&Matrix::zeros(3, 5));
        assert_eq!(y.shape(), (3, 2));
    }

    #[test]
    fn inference_matches_training_forward() {
        let mut r = rng();
        let mut net = Sequential::mlp(&[4, 6, 4], Activation::Sigmoid, &mut r);
        let x = Matrix::from_fn(5, 4, |i, j| ((i * j) as f64).sin());
        let a = net.forward(&x);
        let b = net.forward_inference(&x);
        assert!(a.max_abs_diff(&b) < 1e-15);
    }

    #[test]
    fn inference_into_a_caller_block_matches_forward_inference() {
        let mut r = rng();
        let net = Sequential::mlp(&[4, 6, 3], Activation::Tanh, &mut r);
        // 300 rows reach the pool's row blocks; the block sits between
        // two sentinel rows that must stay untouched.
        let x = Matrix::from_fn(300, 4, |i, j| ((i * 4 + j) as f64 * 0.37).sin());
        let mut buf = vec![-1.0; 302 * 3];
        net.forward_inference_into(&x, &mut buf[3..301 * 3]);
        let want = net.forward_inference(&x);
        assert_eq!(bits(&buf[3..301 * 3]), bits(want.as_slice()));
        assert!(buf[..3].iter().chain(&buf[301 * 3..]).all(|&v| v == -1.0));
    }

    #[test]
    #[should_panic(expected = "output buffer")]
    fn inference_into_rejects_a_short_block() {
        let mut r = rng();
        let net = Sequential::mlp(&[4, 6, 3], Activation::Tanh, &mut r);
        net.forward_inference_into(&Matrix::zeros(2, 4), &mut [0.0; 5]);
    }

    /// Reference backward pass: each activation keeps its input and
    /// multiplies the gradient by `derivative(x)` through `hadamard`.
    /// Returns the input gradient and the linear layers with their
    /// accumulated gradients.
    fn backward_by_input_derivative(
        net: &Sequential,
        x: &Matrix,
        d_out: &Matrix,
    ) -> (Matrix, Vec<Linear>) {
        enum Step {
            Lin(Linear),
            Act(Activation, Matrix),
        }
        let mut steps = Vec::new();
        let mut h = x.clone();
        for layer in net.layers() {
            match layer {
                Layer::Linear(lin) => {
                    let mut lin = lin.clone();
                    h = lin.forward(&h).unwrap();
                    steps.push(Step::Lin(lin));
                }
                Layer::Activation { act, .. } => {
                    let a = *act;
                    let y = h.map(move |v| a.apply(v));
                    steps.push(Step::Act(a, std::mem::replace(&mut h, y)));
                }
            }
        }
        let mut d = d_out.clone();
        for step in steps.iter_mut().rev() {
            d = match step {
                Step::Lin(lin) => lin.backward(&d).unwrap(),
                Step::Act(a, x) => {
                    let a = *a;
                    d.hadamard(&x.map(move |v| a.derivative(v))).unwrap()
                }
            };
        }
        let lins = steps
            .into_iter()
            .filter_map(|s| match s {
                Step::Lin(lin) => Some(lin),
                Step::Act(..) => None,
            })
            .collect();
        (d, lins)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn backward_matches_input_derivative_rule_bit_for_bit() {
        // The first activation sees the input itself: ±0.0, the ReLU
        // kink, saturated tanh and sigmoid, and products that underflow
        // on the LeakyRelu negative side.
        let x = Matrix::from_rows(&[
            vec![0.0, -0.0, 25.0, -40.0],
            vec![1e-300, -1e-300, 0.3, -2.5],
            vec![-0.0, 700.0, -700.0, 0.0],
            vec![1.5, -0.75, 19.0, -1e-9],
        ])
        .unwrap();
        // Hidden column 0 has zero weights: its pre-activation sits at
        // the kink. Column 1 is scaled into tanh/sigmoid saturation.
        let mut w1 = Matrix::from_fn(4, 5, |i, j| ((i * 5 + j) % 7) as f64 * 0.3 - 0.9);
        for i in 0..4 {
            w1[(i, 0)] = 0.0;
            w1[(i, 1)] *= 60.0;
        }
        let w2 = Matrix::from_fn(5, 3, |i, j| ((i * 3 + j) % 5) as f64 * 0.4 - 0.8);
        let d_out = Matrix::from_fn(4, 3, |i, j| ((i + 2 * j) % 4) as f64 * 0.5 - 0.5);
        for act in [
            Activation::Relu,
            Activation::LeakyRelu(0.01),
            Activation::LeakyRelu(0.0),
            Activation::LeakyRelu(-0.5),
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::Identity,
        ] {
            let mut net = Sequential::new();
            net.push_activation(act);
            net.push_layer(Linear::from_parts(
                w1.clone(),
                vec![-0.0, 0.0, 0.1, -0.2, 0.3],
            ));
            net.push_activation(act);
            net.push_layer(Linear::from_parts(w2.clone(), vec![0.05, -0.05, 0.0]));
            net.push_activation(act);
            let (want_dx, want_lins) = backward_by_input_derivative(&net, &x, &d_out);
            net.forward(&x);
            let dx = net.backward(&d_out).unwrap();
            assert_eq!(bits(dx.as_slice()), bits(want_dx.as_slice()), "{act:?} dx");
            let lins: Vec<&Linear> = net.linear_layers().collect();
            assert_eq!(lins.len(), want_lins.len());
            for (got, want) in lins.iter().zip(&want_lins) {
                assert_eq!(
                    bits(got.grad_weights().as_slice()),
                    bits(want.grad_weights().as_slice()),
                    "{act:?} grad_weights"
                );
                assert_eq!(
                    bits(got.grad_bias()),
                    bits(want.grad_bias()),
                    "{act:?} grad_bias"
                );
            }
        }
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut r = rng();
        let mut net = Sequential::mlp(&[3, 3], Activation::Relu, &mut r);
        assert!(net.backward(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn training_reduces_reconstruction_loss() {
        let mut r = rng();
        let mut net = Sequential::mlp(&[4, 8, 4], Activation::Tanh, &mut r);
        let x = Matrix::from_fn(16, 4, |i, j| ((i * 3 + j) % 5) as f64 / 5.0);
        let mut opt = crate::Adam::new(0.01);
        let initial = {
            let y = net.forward(&x);
            y.sub(&x).unwrap().frobenius_sq() / x.len() as f64
        };
        for _ in 0..200 {
            net.zero_grad();
            let y = net.forward(&x);
            let diff = y.sub(&x).unwrap();
            let d = diff.scale(2.0 / x.len() as f64);
            net.backward(&d).unwrap();
            net.apply_gradients(&mut opt);
        }
        let final_loss = {
            let y = net.forward(&x);
            y.sub(&x).unwrap().frobenius_sq() / x.len() as f64
        };
        assert!(
            final_loss < initial * 0.5,
            "loss did not halve: {initial} -> {final_loss}"
        );
    }

    #[test]
    fn copy_params_from_clones_behaviour() {
        let mut r = rng();
        let mut a = Sequential::mlp(&[3, 5, 3], Activation::Relu, &mut r);
        let mut b = Sequential::mlp(&[3, 5, 3], Activation::Relu, &mut r);
        let x = Matrix::from_fn(4, 3, |i, j| (i + j) as f64 * 0.3);
        assert!(a.forward(&x).max_abs_diff(&b.forward(&x)) > 1e-6);
        b.copy_params_from(&a);
        assert!(
            a.forward_inference(&x)
                .max_abs_diff(&b.forward_inference(&x))
                < 1e-15
        );
    }

    #[test]
    #[should_panic(expected = "architecture mismatch")]
    fn copy_params_rejects_mismatch() {
        let mut r = rng();
        let mut a = Sequential::mlp(&[3, 5, 3], Activation::Relu, &mut r);
        let b = Sequential::mlp(&[3, 5, 5, 3], Activation::Relu, &mut r);
        a.copy_params_from(&b);
    }

    #[test]
    fn shared_optimizer_offsets_do_not_collide() {
        let mut r = rng();
        let mut enc = Sequential::mlp(&[4, 3], Activation::Identity, &mut r);
        let mut dec = Sequential::mlp(&[3, 4], Activation::Identity, &mut r);
        let x = Matrix::filled(2, 4, 1.0);
        let mut opt = crate::Adam::new(0.01);
        enc.zero_grad();
        dec.zero_grad();
        let h = enc.forward(&x);
        let y = dec.forward(&h);
        let d = y.sub(&x).unwrap().scale(2.0 / x.len() as f64);
        let dh = dec.backward(&d).unwrap();
        enc.backward(&dh).unwrap();
        enc.apply_gradients_offset(&mut opt, 0);
        dec.apply_gradients_offset(&mut opt, 1000);
        // Smoke: both nets updated without state-collision panics.
        assert!(enc.forward_inference(&x).is_finite());
    }
}
