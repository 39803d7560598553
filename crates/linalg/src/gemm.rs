//! Packed-panel GEMM with register-tile microkernels and runtime
//! SIMD dispatch.
//!
//! The hot matrix products in CND-IDS (CFE forward passes, PCA
//! reconstruction scoring, detector inference) all funnel through this
//! module. The kernel follows the classic BLIS decomposition, shrunk to
//! the two levels that matter at our sizes:
//!
//! * **Packing.** The right operand `B` is packed into [`PackedB`]:
//!   `NR`-column panels, k-major (`panel[k * NR + j]`), in k-blocks of
//!   at most `KC` rows; the left operand `A` is packed per row-panel
//!   into `MR`-row panels (`panel[k * MR + i]`). Packing absorbs
//!   arbitrary input strides, which is what lets transposed
//!   [`MatrixRef`] views multiply at full speed without a materialized
//!   `transpose()`. [`Matrix::matmul`] packs `B` once per product; a
//!   right operand that never changes (a frozen layer weight, the PCA
//!   components) is packed once with [`PackedB::pack`] and reused by
//!   every [`matmul_packed_into`] call.
//! * **Microkernel.** An `MR×NR` (4×8) register tile accumulates over
//!   one k-block via `chunks_exact` slices, so LLVM keeps the tile in
//!   vector registers and autovectorizes the `NR`-wide inner loop.
//!
//! # Dispatch
//!
//! [`active_kernel`] picks the widest implementation the CPU supports
//! at runtime via `is_x86_feature_detected!`: an
//! `#[target_feature(enable = "avx2,fma")]` recompilation of the same
//! driver (4-lane f64 ymm arithmetic), or the portable baseline build.
//! `CND_GEMM_KERNEL=portable|avx2|auto` overrides the choice (CI uses
//! it to exercise both arms on one machine); forcing `avx2` on a CPU
//! without AVX2 falls back to portable rather than faulting.
//!
//! # Bit-identity
//!
//! The kernel keeps the workspace-wide determinism contract: every
//! output element accumulates its `a[i][k] * b[k][j]` terms over
//! strictly ascending `k` with a separate multiply then add (never FMA,
//! never split-`k` partial accumulators — k-blocks load, extend, and
//! store the exact partial sum in order). Zero-padding is applied only
//! to `M`/`N` tile tails whose results are discarded, never to `K`
//! (padding `k` would add `+0.0` terms, which can flip a `-0.0` partial
//! sum to `+0.0`). Consequently portable, AVX2, serial, and
//! pool-parallel products are all bit-identical to
//! [`Matrix::matmul_naive`] on finite inputs, at every thread count.

use std::sync::OnceLock;

use crate::view::MatrixRef;
use crate::Matrix;

/// Microkernel tile height: rows of `A` held in registers.
const MR: usize = 4;

/// Microkernel tile width: columns of `B` held in registers
/// (one 4-lane f64 ymm pair per accumulator row).
const NR: usize = 8;

/// k-block depth: a `KC×NR` f64 panel of `B` is 16 KiB and a `KC×MR`
/// panel of `A` is 8 KiB, so one panel of each lives in L1d while the
/// microkernel streams over it.
const KC: usize = 256;

/// Multiply-add count below which packing overhead outweighs the
/// microkernel win and the product stays on the small-product path.
const PACK_MADDS_MIN: usize = 1 << 16;

/// Minimum multiply-add count before the product fans out to the pool.
const PAR_MADDS_MIN: usize = 1 << 17;

/// Which GEMM implementation the dispatcher selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmKernel {
    /// Baseline build of the row driver (SSE2 on x86-64).
    Portable,
    /// `#[target_feature(enable = "avx2,fma")]` build of the same
    /// driver; only ever selected when the CPU reports AVX2 + FMA.
    Avx2,
}

/// The kernel the current process uses, resolved once.
///
/// Honors `CND_GEMM_KERNEL` (`portable`, `avx2`, or `auto`); otherwise
/// auto-detects. Requests for `avx2` on hardware without it degrade to
/// [`GemmKernel::Portable`].
pub fn active_kernel() -> GemmKernel {
    static KERNEL: OnceLock<GemmKernel> = OnceLock::new();
    *KERNEL.get_or_init(|| {
        let forced = std::env::var("CND_GEMM_KERNEL").ok();
        match forced.as_deref() {
            Some("portable") => GemmKernel::Portable,
            Some("avx2") if avx2_available() => GemmKernel::Avx2,
            Some("avx2") => GemmKernel::Portable,
            _ => {
                if avx2_available() {
                    GemmKernel::Avx2
                } else {
                    GemmKernel::Portable
                }
            }
        }
    })
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_available() -> bool {
    false
}

/// A right operand `B` packed for the GEMM kernel: k-major `NR`-column
/// panels, grouped by k-block. Every panel slot is `kc_slot * NR` long,
/// where `kc_slot = min(KC, rows)` (the final, shorter k-block of a
/// deep `B` leaves its tail zeros unread), so panel offsets are pure
/// arithmetic and a shallow `B` carries no k-padding at all.
///
/// Packing reads any strides, so a transposed view packs as cheaply as
/// a row-major matrix. Build it once for an operand that does not
/// change and pass it to [`matmul_packed_into`] for every product.
#[derive(Clone, PartialEq, Default)]
pub struct PackedB {
    data: Vec<f64>,
    /// Elements per k-block: `panels * kc_slot * NR`.
    block_stride: usize,
    rows: usize,
    cols: usize,
}

impl std::fmt::Debug for PackedB {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedB")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .finish_non_exhaustive()
    }
}

impl PackedB {
    /// Packs `b` (any strides) into GEMM panels.
    pub fn pack(b: MatrixRef<'_>) -> PackedB {
        let mut packed = PackedB::default();
        packed.repack(b);
        packed
    }

    /// Packs `b` into this buffer, keeping its allocation when it is
    /// large enough: an operand that changes every step (a training
    /// weight) repacks without allocating.
    pub fn repack(&mut self, b: MatrixRef<'_>) {
        let (m, p) = b.shape();
        let (rs, cs) = b.strides();
        let panels = p.div_ceil(NR);
        let blocks = m.div_ceil(KC).max(1);
        let kc_slot = KC.min(m);
        let block_stride = panels * kc_slot * NR;
        let data = &mut self.data;
        data.clear();
        data.resize(blocks * block_stride, 0.0);
        for (kb, k0) in (0..m).step_by(KC).enumerate() {
            let kc = KC.min(m - k0);
            for jp in 0..panels {
                let j0 = jp * NR;
                let nv = NR.min(p - j0);
                let panel = &mut data[kb * block_stride + jp * kc_slot * NR..][..kc * NR];
                if cs == 1 {
                    // Row-contiguous source: copy NR-wide row segments.
                    let raw = b.raw();
                    for (kk, dst) in panel.chunks_exact_mut(NR).enumerate() {
                        let src = (k0 + kk) * rs + j0;
                        dst[..nv].copy_from_slice(&raw[src..src + nv]);
                    }
                } else {
                    for kk in 0..kc {
                        let src = (k0 + kk) * rs + j0 * cs;
                        for jj in 0..nv {
                            panel[kk * NR + jj] = b.flat(src + jj * cs);
                        }
                    }
                }
            }
        }
        self.block_stride = block_stride;
        self.rows = m;
        self.cols = p;
    }

    /// Rows of the packed operand (the product's k-depth).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the packed operand (the product's output width).
    pub fn cols(&self) -> usize {
        self.cols
    }
}

/// The register-tile inner loop: `acc[i][j] += a_panel[k][i] *
/// b_panel[k][j]` for one k-block, `k` ascending, multiply separate
/// from add. `ap` is `kc * MR` k-major, `bp` is `kc * NR` k-major.
#[inline(always)]
fn microkernel(ap: &[f64], bp: &[f64], acc: &mut [[f64; NR]; MR]) {
    for (ak, bk) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        for i in 0..MR {
            let a = ak[i];
            let row = &mut acc[i];
            for (c, &b) in row.iter_mut().zip(bk.iter()) {
                *c += a * b;
            }
        }
    }
}

/// Packed product of output rows `r0..r1` into `out` (which holds
/// exactly those rows, `(r1 - r0) * p` elements, pre-zeroed on the
/// first k-block). Always inlined, so the wrappers below recompile it
/// per target feature set.
///
/// The packed `B` buffer arrives as a raw slice + `block_stride`
/// rather than `&PackedB` on purpose: routing the loads through a
/// struct field (one more pointer indirection) was observed to defeat
/// LLVM's register promotion of the accumulator tile, scalarizing the
/// whole microkernel (~3.4 GFLOP/s instead of ~15).
#[inline(always)]
fn gemm_rows(
    a: MatrixRef<'_>,
    pbdata: &[f64],
    block_stride: usize,
    p: usize,
    out: &mut [f64],
    r0: usize,
    r1: usize,
) {
    let m = a.cols();
    let (ars, acs) = a.strides();
    let panels = p.div_ceil(NR);
    let panel_stride = block_stride / panels;
    let mut ap = [0.0; KC * MR];
    for (kb, k0) in (0..m).step_by(KC).enumerate() {
        let kc = KC.min(m - k0);
        let apk = kc * MR;
        for ip in (r0..r1).step_by(MR) {
            let mv = MR.min(r1 - ip);
            // Pack the A panel k-major; pad short M tails with zeros
            // (their tile rows are never copied out).
            for kk in 0..kc {
                let src = (ip * ars) + (k0 + kk) * acs;
                for ii in 0..mv {
                    ap[kk * MR + ii] = a.flat(src + ii * ars);
                }
                for slot in &mut ap[kk * MR + mv..kk * MR + MR] {
                    *slot = 0.0;
                }
            }
            for jp in 0..panels {
                let j0 = jp * NR;
                let nv = NR.min(p - j0);
                let bp = &pbdata[kb * block_stride + jp * panel_stride..][..kc * NR];
                let mut acc = [[0.0; NR]; MR];
                // Load the current partial sums (exact f64 round-trip,
                // so k-blocking preserves the ascending-k order).
                for ii in 0..mv {
                    let orow = &out[(ip - r0 + ii) * p + j0..][..nv];
                    acc[ii][..nv].copy_from_slice(orow);
                }
                microkernel(&ap[..apk], bp, &mut acc);
                for ii in 0..mv {
                    let orow = &mut out[(ip - r0 + ii) * p + j0..][..nv];
                    orow.copy_from_slice(&acc[ii][..nv]);
                }
            }
        }
    }
}

/// Kernel entry points per feature set.
///
/// The AVX2 wrapper is the one place the crate needs `unsafe`: a
/// `#[target_feature]` function is unsafe to call because the caller
/// must guarantee the CPU supports the features. [`active_kernel`]
/// provides exactly that guarantee — `Avx2` is only ever returned after
/// `is_x86_feature_detected!("avx2")` and `("fma")` both pass.
#[allow(unsafe_code)]
mod arms {
    use super::*;

    fn rows_portable(
        a: MatrixRef<'_>,
        pbdata: &[f64],
        block_stride: usize,
        p: usize,
        out: &mut [f64],
        r0: usize,
        r1: usize,
    ) {
        gemm_rows(a, pbdata, block_stride, p, out, r0, r1);
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn rows_avx2(
        a: MatrixRef<'_>,
        pbdata: &[f64],
        block_stride: usize,
        p: usize,
        out: &mut [f64],
        r0: usize,
        r1: usize,
    ) {
        // No explicit intrinsics: the row driver inlines here and LLVM
        // re-vectorizes it for the enabled features. Rust never
        // contracts `mul` + `add` into FMA without fast-math flags, so
        // the results stay bit-identical to the portable build.
        gemm_rows(a, pbdata, block_stride, p, out, r0, r1);
    }

    /// Dispatches one row-block to the selected kernel arm. Called on
    /// pool worker threads, so the feature check rides in `kernel`.
    #[inline]
    #[allow(clippy::too_many_arguments)] // deliberate flat-slice signature (see module docs)
    pub(super) fn rows(
        kernel: GemmKernel,
        a: MatrixRef<'_>,
        pbdata: &[f64],
        block_stride: usize,
        p: usize,
        out: &mut [f64],
        r0: usize,
        r1: usize,
    ) {
        match kernel {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2` is only produced by `active_kernel` (or
            // the test hook) after runtime detection of avx2 + fma.
            GemmKernel::Avx2 => unsafe { rows_avx2(a, pbdata, block_stride, p, out, r0, r1) },
            _ => rows_portable(a, pbdata, block_stride, p, out, r0, r1),
        }
    }
}

/// Small-product fallback: per-element ascending-k loop straight off
/// the (possibly strided) views. Bit-identical to `matmul_naive` by
/// construction; used where packing costs more than it saves.
fn simple_matmul(a: MatrixRef<'_>, b: MatrixRef<'_>, out: &mut [f64]) {
    let (n, m) = a.shape();
    let p = b.cols();
    let (ars, acs) = a.strides();
    let (brs, bcs) = b.strides();
    if acs == 1 && bcs == 1 && ars == m && brs == p {
        // Densely packed row-major operands (whole matrices or row
        // windows): reuse the cache-blocked ikj kernel unchanged.
        crate::matrix::matmul_block_into(a.raw(), b.raw(), out, 0, n, m, p);
        return;
    }
    for i in 0..n {
        for j in 0..p {
            let mut acc = 0.0;
            for k in 0..m {
                acc += a.flat(i * ars + k * acs) * b.flat(k * brs + j * bcs);
            }
            out[i * p + j] = acc;
        }
    }
}

/// View product through the packed kernel (shape-checked by the
/// caller): small-product fallback, packed serial, or packed
/// pool-parallel, under the active kernel arm.
pub(crate) fn matmul(a: MatrixRef<'_>, b: MatrixRef<'_>) -> Matrix {
    let (n, m) = a.shape();
    let p = b.cols();
    debug_assert_eq!(m, b.rows());
    let mut result = Matrix::zeros(n, p);
    if n == 0 || m == 0 || p == 0 {
        return result;
    }
    let out = result.as_mut_slice();
    let madds = n.saturating_mul(m).saturating_mul(p);
    if madds < PACK_MADDS_MIN {
        simple_matmul(a, b, out);
        return result;
    }
    let kernel = active_kernel();
    let pb = PackedB::pack(b);
    let pool = cnd_parallel::current();
    if madds >= PAR_MADDS_MIN && pool.threads() > 1 && n > 1 {
        let min_rows = n.div_ceil(pool.threads()).max(MR * 2);
        pool.par_map_rows(out, n, p, min_rows, |r0, block| {
            let rows = block.len() / p;
            arms::rows(
                kernel,
                a,
                &pb.data,
                pb.block_stride,
                p,
                block,
                r0,
                r0 + rows,
            );
        });
    } else {
        arms::rows(kernel, a, &pb.data, pb.block_stride, p, out, 0, n);
    }
    result
}

/// `out = a · b` against a pre-packed `b`, on the calling thread.
///
/// `out` is row-major `a.rows() × b.cols()`; its previous contents are
/// overwritten. The product runs serially through the active kernel
/// arm: callers that split rows over the pool call this once per row
/// block. Results are bit-identical to [`Matrix::matmul`] of the same
/// operands (same per-element ascending-k order).
///
/// # Errors
///
/// Returns [`crate::LinalgError::ShapeMismatch`] unless
/// `a.cols() == b.rows()` and `out.len() == a.rows() * b.cols()`.
pub fn matmul_packed_into(
    a: MatrixRef<'_>,
    b: &PackedB,
    out: &mut [f64],
) -> Result<(), crate::LinalgError> {
    let (n, m, p) = (a.rows(), a.cols(), b.cols);
    if m != b.rows || out.len() != n * p {
        return Err(crate::LinalgError::ShapeMismatch {
            left: a.shape(),
            right: (b.rows, b.cols),
            op: "matmul_packed_into",
        });
    }
    out.fill(0.0);
    if n == 0 || m == 0 || p == 0 {
        return Ok(());
    }
    arms::rows(active_kernel(), a, &b.data, b.block_stride, p, out, 0, n);
    Ok(())
}

/// Test/bench hook: full f64 product forced onto a specific kernel arm.
///
/// Requests for [`GemmKernel::Avx2`] on hardware without AVX2 + FMA
/// degrade to portable. Always takes the packed path (no small-product
/// shortcut), so tests exercise the panel logic on tiny shapes too.
///
/// # Errors
///
/// Returns [`crate::LinalgError::ShapeMismatch`] unless
/// `a.cols() == b.rows()`.
pub fn matmul_with_kernel(
    a: &Matrix,
    b: &Matrix,
    kernel: GemmKernel,
) -> Result<Matrix, crate::LinalgError> {
    if a.cols() != b.rows() {
        return Err(crate::LinalgError::ShapeMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "matmul",
        });
    }
    let kernel = match kernel {
        GemmKernel::Avx2 if avx2_available() => GemmKernel::Avx2,
        _ => GemmKernel::Portable,
    };
    let (n, m, p) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(n, p);
    if n == 0 || m == 0 || p == 0 {
        return Ok(out);
    }
    let pb = PackedB::pack(b.view());
    arms::rows(
        kernel,
        a.view(),
        &pb.data,
        pb.block_stride,
        p,
        out.as_mut_slice(),
        0,
        n,
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(n: usize, m: usize, seed: u64) -> Matrix {
        Matrix::from_fn(n, m, |i, j| {
            let h = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(j as u64)
                .wrapping_mul(1442695040888963407)
                .wrapping_add(seed);
            ((h >> 33) as i64 % 1000) as f64 / 250.0 - 1.0
        })
    }

    #[test]
    fn packed_matches_naive_on_tile_straddling_shapes() {
        // Shapes chosen to straddle MR, NR and KC boundaries.
        for (n, m, p) in [
            (1, 1, 1),
            (4, 8, 8),
            (5, 7, 9),
            (3, 300, 5),
            (17, 256, 8),
            (16, 257, 24),
            (33, 64, 65),
        ] {
            let a = mat(n, m, 1);
            let b = mat(m, p, 2);
            let naive = a.matmul_naive(&b).unwrap();
            for kernel in [GemmKernel::Portable, GemmKernel::Avx2] {
                let got = matmul_with_kernel(&a, &b, kernel).unwrap();
                assert_eq!(got, naive, "({n},{m},{p}) {kernel:?}");
            }
        }
    }

    #[test]
    fn both_arms_agree_bit_for_bit() {
        let a = mat(40, 130, 7);
        let b = mat(130, 21, 8);
        let portable = matmul_with_kernel(&a, &b, GemmKernel::Portable).unwrap();
        let avx2 = matmul_with_kernel(&a, &b, GemmKernel::Avx2).unwrap();
        assert_eq!(portable, avx2);
    }

    #[test]
    fn negative_zero_partials_survive_k_blocking() {
        // A product whose exact partial sums pass through -0.0: K
        // spans two KC blocks and every term is -0.0 * x = -0.0.
        let m = 2 * KC;
        let a = Matrix::from_fn(1, m, |_, _| -0.0);
        let b = Matrix::from_fn(m, 1, |_, _| 1.0);
        let naive = a.matmul_naive(&b).unwrap();
        for kernel in [GemmKernel::Portable, GemmKernel::Avx2] {
            let got = matmul_with_kernel(&a, &b, kernel).unwrap();
            assert_eq!(got[(0, 0)].to_bits(), naive[(0, 0)].to_bits(), "{kernel:?}");
        }
    }

    #[test]
    fn prepacked_product_matches_naive() {
        // Shallow (k < KC) and deep (k > KC) operands, strided and not.
        for (n, m, p) in [(1, 1, 1), (7, 58, 64), (9, 64, 116), (5, 300, 13)] {
            let a = mat(n, m, 5);
            let b = mat(m, p, 6);
            let naive = a.matmul_naive(&b).unwrap();
            let mut out = vec![f64::NAN; n * p];
            matmul_packed_into(a.view(), &PackedB::pack(b.view()), &mut out).unwrap();
            assert_eq!(out, naive.as_slice(), "({n},{m},{p})");
            let bt = b.transpose();
            let packed_t = PackedB::pack(bt.view().t());
            matmul_packed_into(a.view(), &packed_t, &mut out).unwrap();
            assert_eq!(out, naive.as_slice(), "({n},{m},{p}) transposed view");
        }
        let packed = PackedB::pack(mat(4, 3, 1).view());
        assert!(matmul_packed_into(mat(2, 5, 1).view(), &packed, &mut [0.0; 6]).is_err());
        assert!(matmul_packed_into(mat(2, 4, 1).view(), &packed, &mut [0.0; 5]).is_err());
    }

    #[test]
    fn active_kernel_is_stable() {
        assert_eq!(active_kernel(), active_kernel());
    }
}
