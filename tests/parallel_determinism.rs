//! Determinism guarantees of the parallel compute substrate.
//!
//! The `cnd-parallel` pool promises that every parallelized kernel is
//! **bit-identical** to its serial execution at any thread count. Reductions use fixed chunk
//! boundaries (never derived from the pool size) and combine partials
//! with an ordered tree; per-row kernels (GEMM, inference, PCA-FRE
//! scoring) split rows into one block per thread, which is exact
//! because no row's result depends on its neighbours. These tests pin
//! that guarantee across thread counts {1, 2, 4, 7} ({1, 2, 3, 4, 7}
//! for the deployed scorer) and adversarial shapes (empty, 1×N, N×1,
//! non-multiples of the blocking factors, blocks straddling the
//! parallel cut-off).

use cnd_ids::core::deploy::DeployedScorer;
use cnd_ids::core::{CfeConfig, CndIds, CndIdsConfig, ContinualFeatureExtractor};
use cnd_ids::linalg::Matrix;
use cnd_ids::ml::pca::{ComponentSelection, Pca};
use cnd_ids::ml::KMeans;
use cnd_ids::nn::{Activation, Sequential};
use cnd_ids::parallel::ThreadPool;
use proptest::prelude::*;
use rand::SeedableRng;

/// Thread counts exercised for every property: serial, even splits, and
/// a prime count that never divides the test shapes evenly.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// Exact bit patterns of a matrix (distinguishes `0.0` from `-0.0`).
fn matrix_bits(m: &Matrix) -> Vec<u64> {
    m.iter().map(|v| v.to_bits()).collect()
}

fn slice_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs `f` once per thread count and asserts all outputs agree bitwise
/// with the serial (1-thread) run via `bits`.
fn assert_pool_invariant<T, F, B>(f: F, bits: B)
where
    F: Fn(&ThreadPool) -> T,
    B: Fn(&T) -> Vec<u64>,
{
    let reference = {
        let pool = ThreadPool::new(1);
        let out = pool.install(|| f(&pool));
        bits(&out)
    };
    for &t in &THREAD_COUNTS[1..] {
        let pool = ThreadPool::new(t);
        let out = pool.install(|| f(&pool));
        assert_eq!(
            bits(&out),
            reference,
            "output diverged from serial at {t} threads"
        );
    }
}

/// Strategy: multiplicable matrix pair with shapes large enough that
/// many cases cross the parallel-dispatch thresholds.
fn matmul_pair() -> impl Strategy<Value = (Matrix, Matrix)> {
    (1usize..=80, 1usize..=70, 1usize..=90).prop_flat_map(|(n, m, p)| {
        (
            prop::collection::vec(-10.0..10.0f64, n * m),
            prop::collection::vec(-10.0..10.0f64, m * p),
        )
            .prop_map(move |(a, b)| {
                (
                    Matrix::from_vec(n, m, a).expect("sized"),
                    Matrix::from_vec(m, p, b).expect("sized"),
                )
            })
    })
}

/// Strategy: a data matrix with enough rows to span several scoring
/// chunks and enough spread for PCA/k-means to be well-posed.
fn data_matrix() -> impl Strategy<Value = Matrix> {
    (20usize..=300, 2usize..=12).prop_flat_map(|(r, c)| {
        prop::collection::vec(-50.0..50.0f64, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).expect("sized"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_bit_identical_across_thread_counts((a, b) in matmul_pair()) {
        let reference = a.matmul_naive(&b).expect("shapes agree");
        assert_pool_invariant(
            |_| a.matmul(&b).expect("shapes agree"),
            matrix_bits,
        );
        // The blocked kernel also agrees exactly with the naive oracle:
        // per-output-element accumulation order is identical.
        prop_assert_eq!(
            matrix_bits(&a.matmul(&b).expect("shapes agree")),
            matrix_bits(&reference)
        );
    }

    #[test]
    fn transpose_bit_identical_across_thread_counts((a, _b) in matmul_pair()) {
        assert_pool_invariant(|_| a.transpose(), matrix_bits);
    }

    #[test]
    fn pca_scores_bit_identical_across_thread_counts(x in data_matrix()) {
        let k = (x.cols() / 2).max(1);
        let pca = Pca::fit(&x, ComponentSelection::Fixed(k)).expect("fits");
        assert_pool_invariant(
            |_| pca.reconstruction_errors(&x).expect("scores"),
            |v| slice_bits(v),
        );
    }

    #[test]
    fn kmeans_identical_across_thread_counts(x in data_matrix()) {
        let k = 4.min(x.rows());
        assert_pool_invariant(
            |_| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(9);
                let km = KMeans::fit(&x, k, 40, &mut rng).expect("fits");
                let labels = km.predict(&x).expect("dims match");
                (matrix_bits(km.centroids()), km.inertia().to_bits(), labels)
            },
            |(centroids, inertia, labels)| {
                let mut bits = centroids.clone();
                bits.push(*inertia);
                bits.extend(labels.iter().map(|&l| l as u64));
                bits
            },
        );
    }

    #[test]
    fn forward_inference_bit_identical_across_thread_counts(x in data_matrix()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let net = Sequential::mlp(&[x.cols(), 16, 8], Activation::Relu, &mut rng);
        assert_pool_invariant(|_| net.forward_inference(&x), matrix_bits);
    }
}

/// The CFE encodes each frozen encoder snapshot over a whole experience
/// once and trains on minibatch rows of the result, so a row's output
/// must carry the same bits in any batch at any pool size: here rows of
/// one 1500-row pass (uneven row blocks, several 256-row tiles) against
/// shuffled minibatches of 1, 63 and 128 rows scored serially, at the
/// CFE's X-IIoTID widths.
#[test]
fn forward_inference_rows_match_minibatch_rows_bit_for_bit() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let net = Sequential::mlp(&[58, 64, 116], Activation::Tanh, &mut rng);
    let n = 1500;
    let x = Matrix::from_fn(n, 58, |i, j| ((i * 37 + j * 11) % 41) as f64 / 8.0 - 2.5);
    // 7919 is prime, so this visits every row once.
    let order: Vec<usize> = (0..n).map(|i| (i * 7919) % n).collect();
    let serial = ThreadPool::new(1);
    for t in [1, 2, 3, 4, 7] {
        let pool = ThreadPool::new(t);
        let whole = pool.install(|| net.forward_inference(&x));
        for batch in [1, 63, 128] {
            for chunk in order.chunks(batch) {
                let xb = x.select_rows(chunk).expect("rows in range");
                let want = serial.install(|| net.forward_inference(&xb));
                let got = whole.select_rows(chunk).expect("rows in range");
                assert_eq!(
                    matrix_bits(&got),
                    matrix_bits(&want),
                    "{batch}-row minibatch diverged from a {n}-row pass at {t} threads"
                );
            }
        }
    }
}

/// Shapes chosen to stress boundaries: empty, single row/column, and
/// sizes that are not multiples of the 64/32 blocking factors.
#[test]
fn matmul_adversarial_shapes_match_naive_at_every_thread_count() {
    let shapes: [(usize, usize, usize); 7] = [
        (0, 5, 3),
        (3, 0, 4),
        (4, 5, 0),
        (1, 200, 1),
        (200, 1, 200),
        (65, 67, 33),
        (129, 63, 66),
    ];
    for (n, m, p) in shapes {
        let a = Matrix::from_fn(n, m, |i, j| ((i * 31 + j * 17) % 23) as f64 - 11.0);
        let b = Matrix::from_fn(m, p, |i, j| ((i * 13 + j * 7) % 19) as f64 - 9.0);
        let oracle = a.matmul_naive(&b).expect("shapes agree");
        for t in THREAD_COUNTS {
            let pool = ThreadPool::new(t);
            let out = pool.install(|| a.matmul(&b).expect("shapes agree"));
            assert_eq!(
                matrix_bits(&out),
                matrix_bits(&oracle),
                "({n}x{m})*({m}x{p}) diverged at {t} threads"
            );
        }
    }
}

/// Features of the synthetic flows the deployed-scorer test trains on.
const FLOW_DIM: usize = 10;

/// A flow matrix with a normal bulk and a shifted anomalous tail.
fn flows(rows: usize, offset: usize) -> Matrix {
    flows_of_width(rows, FLOW_DIM, offset)
}

fn flows_of_width(rows: usize, dim: usize, offset: usize) -> Matrix {
    Matrix::from_fn(rows, dim, |i, j| {
        let i = i + offset;
        let base = ((i * 7 + j * 3) % 13) as f64 * 0.1 + ((i * j) as f64 * 0.37).sin() * 0.05;
        if i.is_multiple_of(9) {
            base + 2.5
        } else {
            base
        }
    })
}

#[test]
fn deployed_scorer_bit_identical_across_pool_sizes_batches_and_reload() {
    let mut model = CndIds::new(CndIdsConfig::fast(4), &flows(60, 0)).expect("builds");
    model.train_experience(&flows(400, 100)).expect("trains");
    let frozen = DeployedScorer::from_model(&model).expect("trained");
    let mut artifact = Vec::new();
    frozen.save(&mut artifact).expect("saves");
    let reloaded = DeployedScorer::load(artifact.as_slice()).expect("loads");

    // Batch sizes around the 128-row parallel cut-off and a large batch
    // whose row blocks are uneven at 3 and 7 threads.
    let x = flows(8193, 1000);
    let batches = [0, 1, 63, 64, 127, 128, 129, 8193];
    let reference: Vec<Vec<u64>> = {
        let pool = ThreadPool::new(1);
        pool.install(|| {
            batches
                .iter()
                .map(|&n| {
                    let xb = x.slice_rows(0, n).expect("rows in range");
                    slice_bits(&frozen.anomaly_scores(&xb).expect("scores"))
                })
                .collect()
        })
    };
    // The live model scores through `Sequential::forward_inference` and
    // `Pca::reconstruction_errors`; the frozen scorer must match it.
    let xb = x.slice_rows(0, 129).expect("rows in range");
    assert_eq!(
        slice_bits(&model.anomaly_scores(&xb).expect("scores")),
        reference[6],
        "frozen scorer diverged from the live model"
    );
    for t in [1, 2, 3, 4, 7] {
        let pool = ThreadPool::new(t);
        pool.install(|| {
            for (&n, want) in batches.iter().zip(&reference) {
                let xb = x.slice_rows(0, n).expect("rows in range");
                for (name, scorer) in [("from_model", &frozen), ("save->load", &reloaded)] {
                    let got = slice_bits(&scorer.anomaly_scores(&xb).expect("scores"));
                    assert_eq!(&got, want, "{name}: {n} rows diverged at {t} threads");
                }
            }
        });
    }
}

/// Bit patterns of every weight and bias of a network, layer by layer.
fn net_bits(net: &Sequential) -> Vec<u64> {
    net.linear_layers()
        .flat_map(|l| l.weights().iter().chain(l.bias()).map(|v| v.to_bits()))
        .collect()
}

#[test]
fn cfe_training_bit_identical_across_pool_sizes() {
    // Three experiences with L_CL on: the third trains against two
    // snapshots. 210 rows make a full 128-row minibatch and a partial
    // 82-row one. 72 features (latent 144) put both minibatches' forward
    // and the 64↔144 layers' backward past the training cut-off (2²⁰
    // multiply-adds), so they split into uneven row blocks at 3 and 7
    // threads.
    let dim = 72;
    let (x, n_c) = (flows_of_width(210, dim, 0), flows_of_width(40, dim, 5000));
    let train = || {
        let mut cfe =
            ContinualFeatureExtractor::new(dim, CfeConfig::fast(11)).expect("valid config");
        for e in 0..3 {
            let xe = x.map(|v| v + 0.3 * e as f64);
            cfe.train_experience(&xe, &n_c).expect("trains");
        }
        (net_bits(cfe.encoder()), net_bits(cfe.decoder()))
    };
    let reference = ThreadPool::new(1).install(train);
    for t in [2, 3, 4, 7] {
        let got = ThreadPool::new(t).install(train);
        assert!(got.0 == reference.0, "encoder bits diverged at {t} threads");
        assert!(got.1 == reference.1, "decoder bits diverged at {t} threads");
    }
}

#[test]
fn pca_scoring_spans_many_chunks_bit_identically() {
    // 1000 rows: uneven row blocks at 7 threads.
    let x = Matrix::from_fn(1000, 16, |i, j| ((i * 29 + j * 3) % 31) as f64 / 31.0);
    let pca = Pca::fit(&x, ComponentSelection::Fixed(8)).expect("fits");
    assert_pool_invariant(
        |_| pca.reconstruction_errors(&x).expect("scores"),
        |v| slice_bits(v),
    );
}

#[test]
fn empty_batches_are_handled() {
    let x = Matrix::from_fn(50, 6, |i, j| (i + j) as f64);
    let pca = Pca::fit(&x, ComponentSelection::Fixed(3)).expect("fits");
    let empty = Matrix::zeros(0, 6);
    for t in THREAD_COUNTS {
        let pool = ThreadPool::new(t);
        let scores = pool.install(|| pca.reconstruction_errors(&empty).expect("scores"));
        assert!(scores.is_empty(), "{t} threads");
    }
}
