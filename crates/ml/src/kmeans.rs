//! K-Means clustering (Lloyd's algorithm, k-means++ seeding) and the
//! elbow method for selecting `K`.
//!
//! The CFE's cluster-separation loss assigns pseudo-labels by clustering
//! `X_train` and checking which clusters contain points of the clean
//! normal subset `N_c` (paper Section III-C). The paper selects `K` with
//! the elbow method (Section IV-A); [`select_k_elbow`] implements the
//! standard distance-to-chord knee detector over the inertia curve. The
//! ADCN baseline uses it; the CFE fixes `K = min(max_k, round(√n))`.

use cnd_linalg::{stats, vector, Matrix};
use rand::Rng;

use crate::MlError;

/// Fixed assignment-chunk row count: chunk boundaries never depend on
/// the pool size, so assignments and inertia are identical at every
/// `CND_THREADS`.
const ASSIGN_CHUNK_ROWS: usize = 512;

/// Nearest-centroid index for every row of a pairwise-distance matrix,
/// fanned out over the [`cnd_parallel::current`] pool. Argmin over a row
/// is exact, so the result is independent of pool size.
fn nearest_centroids(d: &Matrix) -> Vec<usize> {
    let n = d.rows();
    if n == 0 {
        return Vec::new();
    }
    let pool = cnd_parallel::current();
    let chunks = pool.par_chunks(n, ASSIGN_CHUNK_ROWS, |r| {
        r.map(|i| vector::argmin(d.row(i)).expect("k >= 1").0)
            .collect::<Vec<usize>>()
    });
    let mut out = Vec::with_capacity(n);
    for c in chunks {
        out.extend(c);
    }
    out
}

/// A fitted K-Means model.
///
/// # Example
///
/// ```
/// use cnd_linalg::Matrix;
/// use cnd_ml::KMeans;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let x = Matrix::from_fn(30, 2, |i, _| if i < 15 { 0.0 } else { 8.0 });
/// let km = KMeans::fit(&x, 2, 100, &mut rng)?;
/// let labels = km.predict(&x)?;
/// assert_ne!(labels[0], labels[29]);
/// # Ok::<(), cnd_ml::MlError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KMeans {
    centroids: Matrix,
    inertia: f64,
    iterations: usize,
}

impl KMeans {
    /// Fits `k` clusters to `x` with at most `max_iter` Lloyd iterations.
    ///
    /// Seeding uses k-means++ driven by `rng`; convergence is declared
    /// when no assignment changes between iterations.
    ///
    /// # Errors
    ///
    /// * [`MlError::EmptyInput`] for an empty matrix.
    /// * [`MlError::BadClusterCount`] when `k == 0` or `k > x.rows()`.
    pub fn fit<R: Rng + ?Sized>(
        x: &Matrix,
        k: usize,
        max_iter: usize,
        rng: &mut R,
    ) -> Result<Self, MlError> {
        if x.rows() == 0 {
            return Err(MlError::EmptyInput);
        }
        if k == 0 || k > x.rows() {
            return Err(MlError::BadClusterCount {
                k,
                samples: x.rows(),
            });
        }
        let mut centroids = kmeans_pp_init(x, k, rng)?;
        let mut assignment = vec![usize::MAX; x.rows()];
        let mut iterations = 0;
        for it in 0..max_iter.max(1) {
            iterations = it + 1;
            let d = stats::pairwise_sq_distances(x, &centroids)?;
            let nearest = nearest_centroids(&d);
            let mut changed = false;
            for (slot, best) in assignment.iter_mut().zip(nearest) {
                if *slot != best {
                    *slot = best;
                    changed = true;
                }
            }
            if !changed && it > 0 {
                break;
            }
            // Recompute centroids; empty clusters keep their position.
            let mut sums = Matrix::zeros(k, x.cols());
            let mut counts = vec![0usize; k];
            for (i, &c) in assignment.iter().enumerate() {
                vector::axpy(sums.row_mut(c), 1.0, x.row(i));
                counts[c] += 1;
            }
            for (c, &count) in counts.iter().enumerate() {
                if count > 0 {
                    let inv = 1.0 / count as f64;
                    for (dst, &s) in centroids.row_mut(c).iter_mut().zip(sums.row(c)) {
                        *dst = s * inv;
                    }
                }
            }
        }
        let inertia = compute_inertia(x, &centroids)?;
        Ok(KMeans {
            centroids,
            inertia,
            iterations,
        })
    }

    /// The fitted cluster centers, one per row.
    pub fn centroids(&self) -> &Matrix {
        &self.centroids
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.rows()
    }

    /// Sum of squared distances of samples to their closest centroid at
    /// the end of fitting.
    pub fn inertia(&self) -> f64 {
        self.inertia
    }

    /// Lloyd iterations performed before convergence.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Assigns each row of `x` to its nearest centroid.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] if the feature count differs
    /// from the fitted data.
    pub fn predict(&self, x: &Matrix) -> Result<Vec<usize>, MlError> {
        if x.cols() != self.centroids.cols() {
            return Err(MlError::DimensionMismatch {
                fitted: self.centroids.cols(),
                given: x.cols(),
            });
        }
        let d = stats::pairwise_sq_distances(x, &self.centroids)?;
        Ok(nearest_centroids(&d))
    }
}

/// k-means++ seeding: first center uniform, subsequent centers sampled
/// proportional to squared distance from the nearest chosen center.
fn kmeans_pp_init<R: Rng + ?Sized>(x: &Matrix, k: usize, rng: &mut R) -> Result<Matrix, MlError> {
    let n = x.rows();
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    chosen.push(rng.gen_range(0..n));
    let mut min_sq = vec![f64::INFINITY; n];
    while chosen.len() < k {
        let last = *chosen.last().expect("non-empty");
        for (i, slot) in min_sq.iter_mut().enumerate() {
            let d = vector::sq_distance(x.row(i), x.row(last));
            if d < *slot {
                *slot = d;
            }
        }
        let total: f64 = min_sq.iter().sum();
        let next = if total <= f64::EPSILON {
            // All remaining mass at zero distance (duplicate points):
            // fall back to uniform choice.
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut pick = n - 1;
            for (i, &d) in min_sq.iter().enumerate() {
                if target < d {
                    pick = i;
                    break;
                }
                target -= d;
            }
            pick
        };
        chosen.push(next);
    }
    Ok(x.select_rows(&chosen)?)
}

fn compute_inertia(x: &Matrix, centroids: &Matrix) -> Result<f64, MlError> {
    let d = stats::pairwise_sq_distances(x, centroids)?;
    // Per-chunk sums accumulate in ascending row order and are combined
    // with an ordered tree reduction, so the total is bit-identical at
    // every pool size.
    Ok(cnd_parallel::current()
        .par_reduce(
            d.rows(),
            ASSIGN_CHUNK_ROWS,
            |r| {
                r.map(|i| vector::argmin(d.row(i)).expect("k >= 1").1)
                    .sum::<f64>()
            },
            |a, b| a + b,
        )
        .unwrap_or(0.0))
}

/// Selects `K` with the elbow method over `k_range` (inclusive).
///
/// Fits K-Means for every `k` in the range, records the inertia curve,
/// and returns the `k` whose point has maximum perpendicular distance to
/// the chord joining the curve's endpoints — the standard geometric knee
/// detector.
///
/// # Errors
///
/// Propagates fit errors; returns [`MlError::InvalidParameter`] when the
/// range is empty or starts at zero.
///
/// # Example
///
/// ```
/// use cnd_linalg::Matrix;
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// // Three well-separated blobs.
/// let x = Matrix::from_fn(60, 2, |i, _| (i / 20) as f64 * 10.0);
/// let k = cnd_ml::kmeans::select_k_elbow(&x, 1..=6, 50, &mut rng)?;
/// assert_eq!(k, 3);
/// # Ok::<(), cnd_ml::MlError>(())
/// ```
pub fn select_k_elbow<R: Rng + ?Sized>(
    x: &Matrix,
    k_range: std::ops::RangeInclusive<usize>,
    max_iter: usize,
    rng: &mut R,
) -> Result<usize, MlError> {
    let ks: Vec<usize> = k_range.collect();
    if ks.is_empty() || ks[0] == 0 {
        return Err(MlError::InvalidParameter {
            name: "k_range",
            constraint: "must be non-empty and start at k >= 1",
        });
    }
    let mut inertias = Vec::with_capacity(ks.len());
    for &k in &ks {
        if k > x.rows() {
            break;
        }
        let km = KMeans::fit(x, k, max_iter, rng)?;
        inertias.push(km.inertia());
    }
    if inertias.is_empty() {
        return Err(MlError::BadClusterCount {
            k: ks[0],
            samples: x.rows(),
        });
    }
    if inertias.len() <= 2 {
        return Ok(ks[inertias.len() - 1]);
    }
    // Knee = max distance from the (k, inertia) point to the chord
    // between the first and last points, with both axes normalized.
    let n = inertias.len();
    let (x0, y0) = (0.0, 1.0);
    let (x1, y1) = (1.0, 0.0);
    let span = (inertias[0] - inertias[n - 1]).abs().max(f64::EPSILON);
    let mut best = (0, f64::MIN);
    for i in 0..n {
        let px = i as f64 / (n - 1) as f64;
        let py = (inertias[i] - inertias[n - 1]) / span;
        // Distance from (px, py) to the line through (x0,y0)-(x1,y1).
        let num = ((y1 - y0) * px - (x1 - x0) * py + x1 * y0 - y1 * x0).abs();
        let den = ((y1 - y0).powi(2) + (x1 - x0).powi(2)).sqrt();
        let d = num / den;
        if d > best.1 {
            best = (i, d);
        }
    }
    Ok(ks[best.0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(7)
    }

    /// Two tight blobs at 0 and 100.
    fn two_blobs() -> Matrix {
        Matrix::from_fn(40, 3, |i, j| {
            let base = if i < 20 { 0.0 } else { 100.0 };
            base + ((i * 7 + j * 3) % 5) as f64 * 0.1
        })
    }

    #[test]
    fn separates_two_blobs() {
        let x = two_blobs();
        let km = KMeans::fit(&x, 2, 100, &mut rng()).unwrap();
        let labels = km.predict(&x).unwrap();
        let first = labels[0];
        assert!(labels[..20].iter().all(|&l| l == first));
        assert!(labels[20..].iter().all(|&l| l != first));
    }

    #[test]
    fn inertia_decreases_with_k() {
        let x = two_blobs();
        let mut r = rng();
        let i1 = KMeans::fit(&x, 1, 100, &mut r).unwrap().inertia();
        let i2 = KMeans::fit(&x, 2, 100, &mut r).unwrap().inertia();
        let i4 = KMeans::fit(&x, 4, 100, &mut r).unwrap().inertia();
        assert!(i1 > i2);
        assert!(i2 >= i4);
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let x = Matrix::from_fn(5, 2, |i, j| (i * 2 + j) as f64);
        let km = KMeans::fit(&x, 5, 100, &mut rng()).unwrap();
        assert!(km.inertia() < 1e-9);
    }

    #[test]
    fn rejects_bad_k() {
        let x = Matrix::zeros(3, 2);
        assert!(matches!(
            KMeans::fit(&x, 0, 10, &mut rng()),
            Err(MlError::BadClusterCount { .. })
        ));
        assert!(matches!(
            KMeans::fit(&x, 4, 10, &mut rng()),
            Err(MlError::BadClusterCount { .. })
        ));
    }

    #[test]
    fn rejects_empty() {
        let x = Matrix::zeros(0, 2);
        assert!(matches!(
            KMeans::fit(&x, 1, 10, &mut rng()),
            Err(MlError::EmptyInput)
        ));
    }

    #[test]
    fn predict_dimension_check() {
        let x = two_blobs();
        let km = KMeans::fit(&x, 2, 50, &mut rng()).unwrap();
        let bad = Matrix::zeros(2, 5);
        assert!(matches!(
            km.predict(&bad),
            Err(MlError::DimensionMismatch {
                fitted: 3,
                given: 5
            })
        ));
    }

    #[test]
    fn handles_duplicate_points() {
        let x = Matrix::filled(10, 2, 3.0);
        let km = KMeans::fit(&x, 3, 50, &mut rng()).unwrap();
        assert!(km.inertia() < 1e-12);
        assert_eq!(km.predict(&x).unwrap().len(), 10);
    }

    #[test]
    fn elbow_finds_three_blobs() {
        let x = Matrix::from_fn(90, 2, |i, j| {
            (i / 30) as f64 * 20.0 + ((i + j) % 3) as f64 * 0.2
        });
        let k = select_k_elbow(&x, 1..=8, 100, &mut rng()).unwrap();
        assert_eq!(k, 3);
    }

    #[test]
    fn elbow_rejects_zero_start() {
        let x = two_blobs();
        assert!(matches!(
            select_k_elbow(&x, 0..=3, 10, &mut rng()),
            Err(MlError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn elbow_short_range() {
        let x = two_blobs();
        // Only k=1..2 evaluated; degenerate case returns the last k.
        let k = select_k_elbow(&x, 1..=2, 50, &mut rng()).unwrap();
        assert_eq!(k, 2);
    }

    #[test]
    fn deterministic_with_seed() {
        let x = two_blobs();
        let mut a = rand::rngs::StdRng::seed_from_u64(5);
        let mut b = rand::rngs::StdRng::seed_from_u64(5);
        let ka = KMeans::fit(&x, 3, 100, &mut a).unwrap();
        let kb = KMeans::fit(&x, 3, 100, &mut b).unwrap();
        assert_eq!(ka.centroids(), kb.centroids());
    }
}
