//! # cnd-linalg
//!
//! Dense linear-algebra substrate for the CND-IDS reproduction.
//!
//! Everything in this workspace that touches numeric data — the MLP
//! autoencoder in `cnd-nn`, K-Means and PCA in `cnd-ml`, the novelty
//! detectors, and the synthetic dataset generators — is built on the
//! row-major [`Matrix`] type defined here. The crate deliberately has **no
//! external dependencies**: the goal of the reproduction is an auditable,
//! self-contained implementation of the paper's numerical stack.
//!
//! Provided functionality:
//!
//! * [`Matrix`] — owned, row-major, `f64` dense matrix with the usual
//!   elementwise and matrix products, slicing, stacking and reductions.
//! * [`MatrixRef`] / [`MatrixMut`] — borrowed stride-based views;
//!   transposition and row-windowing are free, and views feed the GEMM
//!   directly so hot paths never materialize `transpose()` clones.
//! * [`gemm`] — the packed-panel GEMM microkernel behind every matrix
//!   product, with runtime AVX2/portable dispatch
//!   ([`gemm::active_kernel`], `CND_GEMM_KERNEL` override) and the f64
//!   bit-identity contract documented on the module. [`PackedB`] and
//!   [`matmul_packed_into`] reuse a right operand packed once (frozen
//!   inference weights) across products.
//! * [`eigen::symmetric_eigen`] — cyclic Jacobi eigendecomposition of
//!   symmetric matrices (used by PCA on covariance matrices).
//! * [`stats`] — column means/variances, covariance matrices, pairwise
//!   distances.
//! * [`vector`] — free functions on `&[f64]` slices (dot products, norms,
//!   distances) shared by the higher-level crates.
//!
//! # Example
//!
//! ```
//! use cnd_linalg::Matrix;
//!
//! let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c, a);
//! # Ok::<(), cnd_linalg::LinalgError>(())
//! ```

// `deny` rather than `forbid`: the one sanctioned exception is the
// `#[target_feature]` kernel wrappers in `gemm::arms`, which carry a
// scoped `#[allow(unsafe_code)]` and a SAFETY argument tied to runtime
// feature detection. Everything else in the crate stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod matrix;
mod view;

pub mod eigen;
pub mod gemm;
pub mod stats;
pub mod vector;

pub use error::LinalgError;
pub use gemm::{matmul_packed_into, GemmKernel, PackedB};
pub use matrix::Matrix;
pub use view::{MatrixMut, MatrixRef};
