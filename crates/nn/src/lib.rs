//! # cnd-nn
//!
//! A from-scratch neural-network substrate for the CND-IDS reproduction.
//!
//! The paper's continual feature extractor (CFE) is a 4-layer MLP
//! autoencoder trained with a composite loss whose three terms all inject
//! gradient at the encoder output: the reconstruction loss flows back
//! through the decoder, while the cluster-separation (triplet) loss and the
//! latent continual-learning loss act on the embedding directly. Rather
//! than pulling in an autograd engine, this crate provides a transparent
//! [`Sequential`] network with *cached forward / explicit backward*
//! passes: `backward` takes the loss gradient w.r.t. the network output and
//! returns the gradient w.r.t. the input, accumulating parameter gradients
//! along the way. Multiple gradient streams are simply summed before being
//! pushed through a sub-network — exactly what the CFE needs.
//!
//! Contents:
//!
//! * [`Linear`] — fully connected layer `y = xW + b`.
//! * [`Activation`] — ReLU / LeakyReLU / Tanh / Sigmoid / Identity.
//! * [`Sequential`] — layer stack with `forward` / `backward` /
//!   `zero_grad` / optimizer hookup.
//! * [`Adam`], [`Sgd`] — optimizers (paper uses Adam, lr 0.001).
//! * [`loss`] — MSE and squared-Euclidean triplet-margin losses, each
//!   returning `(value, gradient)`.
//!
//! All gradients are verified against finite differences in the test
//! suite (`tests/grad_check.rs`).
//!
//! # Example
//!
//! ```
//! use cnd_linalg::Matrix;
//! use cnd_nn::{Activation, Sequential, Adam, loss};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! // Tiny autoencoder: 4 -> 2 -> 4.
//! let mut net = Sequential::new();
//! net.push_linear(4, 2, &mut rng);
//! net.push_activation(Activation::Tanh);
//! net.push_linear(2, 4, &mut rng);
//!
//! let x = Matrix::from_fn(8, 4, |i, j| ((i + j) % 3) as f64 * 0.5);
//! let mut opt = Adam::new(0.01);
//! for _ in 0..50 {
//!     net.zero_grad();
//!     let y = net.forward(&x);
//!     let (l, d) = loss::mse(&y, &x)?;
//!     let _ = l;
//!     net.backward(&d)?;
//!     net.apply_gradients(&mut opt);
//! }
//! # Ok::<(), cnd_nn::NnError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod error;
mod linear;
mod optim;
mod sequential;

pub mod init;
pub mod loss;

pub use activation::Activation;
pub use error::NnError;
pub use linear::Linear;
pub use optim::{Adam, Optimizer, Sgd};
pub use sequential::{Layer, PackedSequential, Sequential};
