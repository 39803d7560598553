use cnd_linalg::{matmul_packed_into, Matrix, MatrixRef, PackedB};
use cnd_parallel::ThreadPool;
use rand::Rng;

use crate::linear::BackwardScratch;
use crate::{Activation, Linear, NnError, Optimizer};

/// One layer of a [`Sequential`] network.
#[derive(Debug, Clone)]
pub enum Layer {
    /// Fully connected layer.
    Linear(Linear),
    /// Elementwise activation. It caches nothing itself: the network's
    /// training workspace keeps every layer's output, and backward
    /// reads the derivative from there. Tanh and sigmoid read their
    /// output, so backward takes `1 − y·y` and `y·(1 − y)` without a
    /// second `tanh` or `exp`, bit-identical to the derivative at the
    /// input. The piecewise-linear activations read their input and
    /// keep the derivative rule at it: a negative-slope `LeakyRelu`
    /// output does not keep the input's sign.
    Activation(Activation),
}

/// A feed-forward stack of layers with explicit backward passes.
///
/// `Sequential` is the building block for the CFE encoder and decoder:
/// `forward` keeps every layer's output in the network's training
/// workspace, `backward` consumes an output gradient and returns the
/// input gradient while accumulating parameter gradients, and
/// `apply_gradients` hands the accumulated gradients to an optimizer.
///
/// Because gradients accumulate until [`zero_grad`](Sequential::zero_grad),
/// a training step may run several loss functions, sum their gradients at
/// any interface, and push each stream through the network.
///
/// The workspace is sized by the first batch and reused after, so a
/// `zero_grad → forward → backward → apply_gradients` step at a fixed
/// batch size allocates nothing on a serial pool. Cloning a network
/// copies its parameters, not its workspace.
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
    ws: Workspace,
}

/// What a training step keeps between forward and backward, and the
/// buffers both reuse from step to step.
#[derive(Default)]
struct Workspace {
    /// `vals[0]` is a copy of the last forward's input and `vals[l + 1]`
    /// is layer `l`'s output: the next layer's input and what backward
    /// reads for layer `l + 1`'s `dW` or layer `l`'s derivative.
    vals: Vec<Matrix>,
    /// Each linear layer's weights packed for the forward GEMM, indexed
    /// like the layers (empty for activations).
    packed: Vec<PackedB>,
    /// The gradients at layer boundaries; backward alternates between them.
    grads: [Matrix; 2],
    scratch: BackwardScratch,
    /// `true` from a forward until the next `zero_grad`.
    forwarded: bool,
}

impl Clone for Workspace {
    /// A fresh, empty workspace: snapshots and copies of a network never
    /// carry its training buffers.
    fn clone(&self) -> Self {
        Workspace::default()
    }
}

impl std::fmt::Debug for Workspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workspace")
            .field("forwarded", &self.forwarded)
            .finish_non_exhaustive()
    }
}

impl Sequential {
    /// Creates an empty network.
    pub fn new() -> Self {
        Sequential::default()
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
        self.layers.push(Layer::Activation(act));
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
        self.linear_layers().map(Linear::param_count).sum()
    }

    /// All layers in order (for inspection and model persistence).
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Iterates over the linear layers.
    pub fn linear_layers(&self) -> impl Iterator<Item = &Linear> {
        self.layers.iter().filter_map(|l| match l {
            Layer::Linear(lin) => Some(lin),
            Layer::Activation(_) => None,
        })
    }

    /// Forward pass (training mode): every layer's output stays in the
    /// workspace for [`backward`](Self::backward), and the last one is
    /// returned.
    ///
    /// Packs each weight once, then runs the network as one pool
    /// dispatch: each thread takes one contiguous row block through
    /// every layer and writes its rows of every layer's output. Every
    /// row passes through the identical serial layer sequence, so the
    /// output is bit-identical at any pool size.
    ///
    /// # Panics
    ///
    /// Panics if an internal shape mismatch occurs, which indicates the
    /// network was built with inconsistent widths.
    pub fn forward(&mut self, x: &Matrix) -> &Matrix {
        let ws = &mut self.ws;
        let (rows, mut width) = x.shape();
        ws.vals.resize_with(self.layers.len() + 1, Matrix::default);
        ws.packed.resize_with(self.layers.len(), PackedB::default);
        let mut madds = 0;
        for ((layer, val), packed) in self
            .layers
            .iter()
            .zip(&mut ws.vals[1..])
            .zip(&mut ws.packed)
        {
            if let Layer::Linear(lin) = layer {
                assert_eq!(
                    lin.fan_in(),
                    width,
                    "sequential: layer widths are inconsistent"
                );
                packed.repack(lin.weights().view());
                madds += rows * lin.fan_in() * lin.fan_out();
                width = lin.fan_out();
            }
            overwritable(val, rows, width);
        }
        copy_into(&mut ws.vals[0], x);
        ws.forwarded = true;
        let (layers, packed) = (&self.layers, &ws.packed);
        let pool = cnd_parallel::current();
        let Some(blocks) = pass_blocks(&pool, madds) else {
            for (l, layer) in layers.iter().enumerate() {
                let (done, rest) = ws.vals.split_at_mut(l + 1);
                layer_rows(
                    layer,
                    &packed[l],
                    done[l].as_slice(),
                    rest[0].as_mut_slice(),
                );
            }
            return ws.vals.last().expect("vals holds the input");
        };
        let step = rows.div_ceil(blocks);
        let mut pieces: Vec<_> = ws.vals[1..]
            .iter_mut()
            .map(|m| {
                let cols = m.cols();
                m.as_mut_slice().chunks_mut((step * cols).max(1))
            })
            .collect();
        let x_cols = x.cols();
        pool.scope(|s| {
            for r0 in (0..rows).step_by(step) {
                let x_rows = &x.as_slice()[r0 * x_cols..(r0 + step).min(rows) * x_cols];
                let block: Vec<&mut [f64]> = pieces
                    .iter_mut()
                    .map(|p| p.next().unwrap_or_default())
                    .collect();
                s.spawn(move || {
                    let mut input = x_rows;
                    for ((layer, packed), out) in layers.iter().zip(packed).zip(block) {
                        layer_rows(layer, packed, input, out);
                        input = out;
                    }
                });
            }
        });
        ws.vals.last().expect("vals holds the input")
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
    /// Each linear layer's backward is one pool dispatch: `dx` splits
    /// by batch rows, with the preceding activation's derivative fused
    /// in, and `dW` by its own rows (never by the batch rows it sums
    /// over), so the result is bit-identical at any pool size.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardPass`] if `forward` has not been called
    /// since construction or the last `zero_grad`, and
    /// [`NnError::BatchMismatch`] if `d_out` is not shaped like its output.
    pub fn backward(&mut self, d_out: &Matrix) -> Result<&Matrix, NnError> {
        let at = self.backward_impl(d_out, true)?;
        Ok(&self.ws.grads[at.expect("backward with dx fills a gradient buffer")])
    }

    /// [`backward`](Self::backward) for training: accumulates the same
    /// parameter gradients, bit for bit, but skips the input gradient
    /// nothing reads, the first linear layer's `dx` and everything below it.
    ///
    /// # Errors
    ///
    /// As [`backward`](Self::backward).
    pub fn backward_params(&mut self, d_out: &Matrix) -> Result<(), NnError> {
        self.backward_impl(d_out, false).map(drop)
    }

    /// The backward walk. Returns which `grads` buffer holds the input
    /// gradient when `want_dx`.
    fn backward_impl(&mut self, d_out: &Matrix, want_dx: bool) -> Result<Option<usize>, NnError> {
        let ws = &mut self.ws;
        if !ws.forwarded {
            return Err(NnError::NoForwardPass);
        }
        let out = ws.vals.last().expect("a forward pass fills vals");
        if d_out.shape() != out.shape() {
            return Err(NnError::BatchMismatch {
                left: d_out.shape(),
                right: out.shape(),
            });
        }
        // Layers below this one need no input gradient when it is not wanted.
        let stop = if want_dx {
            0
        } else {
            self.layers
                .iter()
                .position(|l| matches!(l, Layer::Linear(_)))
                .map_or(self.layers.len(), |first| first + 1)
        };
        // Which `grads` buffer holds the gradient at the current layer's
        // output; `None` while it is still `d_out`.
        let mut cur: Option<usize> = None;
        let mut l = self.layers.len();
        while l > 0 {
            l -= 1;
            let (below, rest) = self.layers.split_at_mut(l);
            match &mut rest[0] {
                Layer::Activation(act) => {
                    if l < stop {
                        break;
                    }
                    let act = *act;
                    let i = match cur {
                        Some(i) => i,
                        None => {
                            copy_into(&mut ws.grads[0], d_out);
                            0
                        }
                    };
                    let at = &ws.vals[l + usize::from(act.backward_reads_output())];
                    // In place as `d * act′`, the operand order of `hadamard`.
                    for (g, &v) in ws.grads[i].as_mut_slice().iter_mut().zip(at.as_slice()) {
                        *g *= act.derivative_cached(v);
                    }
                    cur = Some(i);
                }
                Layer::Linear(lin) => {
                    let next = cur.map_or(0, |i| 1 - i);
                    let [g0, g1] = &mut ws.grads;
                    let (d, dx) = match (cur, next) {
                        (None, _) => (d_out, g0),
                        (Some(_), 0) => (&*g1, g0),
                        _ => (&*g0, g1),
                    };
                    let x = &ws.vals[l];
                    if l < stop {
                        lin.backward_into(x, d, None, &mut ws.scratch);
                        return Ok(None);
                    }
                    // Fuse the derivative of an activation right below.
                    let fused = match below.last() {
                        Some(Layer::Activation(act)) => Some((
                            *act,
                            &ws.vals[l - 1 + usize::from(act.backward_reads_output())],
                        )),
                        _ => None,
                    };
                    lin.backward_into(x, d, Some((dx, fused)), &mut ws.scratch);
                    cur = Some(next);
                    if fused.is_some() {
                        l -= 1;
                    }
                }
            }
        }
        if want_dx && cur.is_none() {
            // No layers: the input gradient is `d_out`.
            copy_into(&mut ws.grads[0], d_out);
            cur = Some(0);
        }
        Ok(cur)
    }

    /// Frees the training workspace, so a trained network kept for
    /// inference holds no training buffers. The next forward sizes a
    /// new one.
    pub fn release_workspace(&mut self) {
        self.ws = Workspace::default();
    }

    /// Clears all accumulated gradients and marks the workspace stale:
    /// the next backward needs a new forward.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            if let Layer::Linear(lin) = layer {
                lin.zero_grad();
            }
        }
        self.ws.forwarded = false;
    }

    /// Applies one optimizer step to every linear layer.
    ///
    /// Tensor ids are assigned as `2 * layer_index` / `2 * layer_index + 1`
    /// so optimizer state stays attached to the same tensors across steps.
    pub fn apply_gradients<O: Optimizer + ?Sized>(&mut self, opt: &mut O) {
        self.apply_gradients_offset(opt, 0);
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
                (Layer::Activation(_), Layer::Activation(_)) => {}
                _ => panic!("copy_params_from: layer kind mismatch"),
            }
        }
    }
}

/// Shapes a workspace buffer as `rows × cols` for a writer that
/// overwrites every element: only a change of shape pays for zeroing.
pub(crate) fn overwritable(m: &mut Matrix, rows: usize, cols: usize) {
    if m.shape() != (rows, cols) {
        m.reset_zeros(rows, cols);
    }
}

/// Copies `src` into the workspace buffer `dst`.
fn copy_into(dst: &mut Matrix, src: &Matrix) {
    overwritable(dst, src.rows(), src.cols());
    dst.as_mut_slice().copy_from_slice(src.as_slice());
}

/// Multiply-adds from which a training pass (a network's forward, or one
/// linear layer's backward) splits across the pool. Two sweeps of a
/// 2-way split of one fast-config layer (64→116, tanh; a 2-vCPU host
/// whose second core is shared; medians of 21 rounds) ran its backward
/// (`dW` and `dx`) at 0.89–1.44× the serial time below 2¹⁹·⁹
/// multiply-adds and at 0.65–1.09× from there, and its forward at
/// 0.53–0.76× from 2¹⁸·⁹. A network's forward counts all its layers, so
/// at 2²⁰ it is past that point too.
const PAR_TRAIN_MADDS_MIN: usize = 1 << 20;

/// How many blocks a training pass of `madds` multiply-adds splits into
/// across `pool`, one per thread; `None` when it runs on the calling
/// thread: below [`PAR_TRAIN_MADDS_MIN`], on a serial pool, or inside a
/// pool job.
pub(crate) fn pass_blocks(pool: &ThreadPool, madds: usize) -> Option<usize> {
    let blocks = pool.split_count();
    (madds >= PAR_TRAIN_MADDS_MIN && blocks > 1).then_some(blocks)
}

/// One layer over the rows of `x`, row-major, serially: the step each
/// block of the training forward runs per layer.
fn layer_rows(layer: &Layer, packed: &PackedB, x: &[f64], out: &mut [f64]) {
    match layer {
        Layer::Linear(lin) => {
            let x = MatrixRef::from_slice(x.len() / lin.fan_in().max(1), lin.fan_in(), x);
            affine_rows(x, packed, lin.bias(), out);
        }
        Layer::Activation(act) => {
            let a = *act;
            for (y, &v) in out.iter_mut().zip(x) {
                *y = a.apply(v);
            }
        }
    }
}

/// `out = x·W + b` for the rows of `x`, against `w`, the layer's weights
/// packed for the GEMM: the linear step of both the training and the
/// inference forward.
fn affine_rows(x: MatrixRef<'_>, w: &PackedB, b: &[f64], out: &mut [f64]) {
    matmul_packed_into(x, w, out).expect("sequential: layer widths are inconsistent");
    for row in out.chunks_exact_mut(b.len().max(1)) {
        for (v, &bias) in row.iter_mut().zip(b) {
            *v += bias;
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
                Layer::Activation(act) => PackedLayer::Activation(*act),
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
                    affine_rows(input, w, b, tmp);
                    width = w.cols();
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
        let b = net.forward_inference(&x);
        let a = net.forward(&x);
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

    /// Reference backward pass from whole-matrix products: each
    /// activation keeps its input and multiplies the gradient by
    /// `derivative(x)` through `hadamard`; each linear layer takes
    /// `dW = xᵀ·d`, `db = Σ_rows d` and `dx = d·Wᵀ` from transposed
    /// copies. Returns the input gradient and each linear layer's
    /// `(dW, db)`.
    fn backward_by_input_derivative(
        net: &Sequential,
        x: &Matrix,
        d_out: &Matrix,
    ) -> (Matrix, Vec<(Matrix, Vec<f64>)>) {
        let mut inputs = Vec::new();
        let mut h = x.clone();
        for layer in net.layers() {
            let y = match layer {
                Layer::Linear(lin) => h
                    .matmul(lin.weights())
                    .unwrap()
                    .add_row_broadcast(lin.bias())
                    .unwrap(),
                Layer::Activation(a) => {
                    let a = *a;
                    h.map(move |v| a.apply(v))
                }
            };
            inputs.push(std::mem::replace(&mut h, y));
        }
        let mut d = d_out.clone();
        let mut grads = Vec::new();
        for (layer, x) in net.layers().iter().zip(&inputs).rev() {
            d = match layer {
                Layer::Linear(lin) => {
                    grads.push((x.transpose().matmul(&d).unwrap(), d.col_sums()));
                    d.matmul(&lin.weights().transpose()).unwrap()
                }
                Layer::Activation(a) => {
                    let a = *a;
                    d.hadamard(&x.map(move |v| a.derivative(v))).unwrap()
                }
            };
        }
        grads.reverse();
        (d, grads)
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
            let (want_dx, want_grads) = backward_by_input_derivative(&net, &x, &d_out);
            net.forward(&x);
            let dx = net.backward(&d_out).unwrap();
            assert_eq!(bits(dx.as_slice()), bits(want_dx.as_slice()), "{act:?} dx");
            let lins: Vec<&Linear> = net.linear_layers().collect();
            assert_eq!(lins.len(), want_grads.len());
            for (got, (want_w, want_b)) in lins.iter().zip(&want_grads) {
                assert_eq!(
                    bits(got.grad_weights().as_slice()),
                    bits(want_w.as_slice()),
                    "{act:?} grad_weights"
                );
                assert_eq!(bits(got.grad_bias()), bits(want_b), "{act:?} grad_bias");
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
        assert!(a.forward(&x).max_abs_diff(b.forward(&x)) > 1e-6);
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
        let y = dec.forward(h);
        let d = y.sub(&x).unwrap().scale(2.0 / x.len() as f64);
        let dh = dec.backward(&d).unwrap();
        enc.backward(dh).unwrap();
        enc.apply_gradients_offset(&mut opt, 0);
        dec.apply_gradients_offset(&mut opt, 1000);
        // Smoke: both nets updated without state-collision panics.
        assert!(enc.forward_inference(&x).is_finite());
    }
}
