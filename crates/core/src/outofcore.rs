//! Out-of-core training and scoring against `.cnds` flow stores.
//!
//! The in-memory pipeline assumes the whole experience fits in a
//! [`Matrix`](cnd_linalg::Matrix). Real IDS captures do not: a day of flows is tens of
//! gigabytes. This module closes the gap using the `cnd-store` data
//! plane:
//!
//! * [`DeployedScorer::score_chunks`] scores a stream of [`RowChunk`]s
//!   one slab at a time, never holding more than a single chunk of
//!   features in memory. Every score is **bitwise identical** to the
//!   score the same flow would receive from
//!   [`DeployedScorer::anomaly_scores`] on the fully materialized
//!   matrix — scoring is row-independent, so slab boundaries cannot
//!   perturb it (property-tested in `tests/out_of_core.rs`).
//! * [`train_from_store`] runs Algorithm 1's per-experience step
//!   against a store of arbitrary size with O(reservoir) memory: one
//!   sequential pass feeds two seeded Algorithm-R reservoirs (clean
//!   normals for the paper's `N_c`, and the training sample), then the
//!   usual [`CndIds`] machinery trains on the sampled matrices. While
//!   the store is *smaller* than the reservoir capacities the sample is
//!   the identity (insertion order preserved, nothing displaced), so
//!   the result is bitwise identical to in-memory training on the same
//!   rows with the same config.
//!
//! Labelled stores (label width 2) treat label `0` as benign/normal;
//! only those rows are candidates for the clean-normal reservoir. For
//! unlabelled stores every row is a candidate — the caller asserts the
//! capture is clean, exactly as the paper assumes for `N_c`.

use cnd_store::{default_chunk_rows, FlowStore, ReservoirBuffer, RowChunk};

use crate::cfe::TrainStats;
use crate::deploy::DeployedScorer;
use crate::{CndIds, CndIdsConfig, CoreError};

/// Scores for one chunk of flows, carrying the chunk's provenance so
/// callers can line results back up with the source store.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredChunk {
    /// Anomaly scores, one per row of the chunk (higher = more anomalous).
    pub scores: Vec<f64>,
    /// Labels from the store (empty when the store is unlabelled).
    pub labels: Vec<u16>,
    /// Index of the chunk's first row within the store.
    pub start: u64,
}

impl DeployedScorer {
    /// Scores a chunk stream one slab at a time.
    ///
    /// Accepts anything yielding `Result<RowChunk, E>` — a
    /// [`ChunkIter`](cnd_store::ChunkIter) straight off a store, or an
    /// adapter pipeline. Errors from the source are converted into
    /// [`CoreError`] and yielded in place; iteration can continue past
    /// a failed chunk if the source itself can.
    ///
    /// Peak memory is one chunk plus its encoded activations,
    /// regardless of store size. Scores are bitwise identical to the
    /// in-memory path (see module docs).
    ///
    /// Each chunk's feature rows are freed only when the next chunk is
    /// requested, right before the source decodes it. Whatever the
    /// caller allocates while it handles a [`ScoredChunk`] therefore
    /// cannot take the space the rows held, and the next chunk's rows
    /// reuse that space instead of growing the heap by one chunk.
    pub fn score_chunks<'a, E, I>(
        &'a self,
        chunks: I,
    ) -> impl Iterator<Item = Result<ScoredChunk, CoreError>> + 'a
    where
        CoreError: From<E>,
        I: IntoIterator<Item = Result<RowChunk, E>>,
        I::IntoIter: 'a,
    {
        let mut chunks = chunks.into_iter();
        let mut held = None;
        std::iter::from_fn(move || {
            drop(held.take());
            let chunk = match chunks.next()? {
                Ok(chunk) => chunk,
                Err(e) => return Some(Err(e.into())),
            };
            let _span = cnd_obs::span!("deploy.score_chunk", rows = chunk.len());
            let scores = match self.anomaly_scores(&chunk.rows) {
                Ok(scores) => scores,
                Err(e) => return Some(Err(e)),
            };
            cnd_obs::counter_add("deploy.score_chunks.rows.count", scores.len() as u64);
            let RowChunk {
                rows,
                labels,
                start,
            } = chunk;
            held = Some(rows);
            Some(Ok(ScoredChunk {
                scores,
                labels,
                start,
            }))
        })
    }
}

/// Configuration for [`train_from_store`].
#[derive(Debug, Clone)]
pub struct OutOfCoreTrainConfig {
    /// Model configuration for the [`CndIds`] pipeline.
    pub model: CndIdsConfig,
    /// Capacity of the clean-normal (`N_c`) reservoir.
    pub clean_capacity: usize,
    /// Capacity of the training-sample reservoir.
    pub train_capacity: usize,
    /// Seed for both reservoirs (the clean reservoir uses `seed`, the
    /// training reservoir `seed ^ 0x9E37_79B9`, so the two samples are
    /// decorrelated but the whole pass stays deterministic).
    pub seed: u64,
    /// Rows per streamed chunk; defaults to
    /// [`cnd_store::default_chunk_rows`] (`CND_STORE_CHUNK_ROWS`).
    pub chunk_rows: usize,
}

impl OutOfCoreTrainConfig {
    /// Defaults around a given model configuration.
    pub fn new(model: CndIdsConfig) -> Self {
        OutOfCoreTrainConfig {
            model,
            clean_capacity: 2_000,
            train_capacity: 20_000,
            seed: 42,
            chunk_rows: default_chunk_rows(),
        }
    }
}

/// What [`train_from_store`] produced, with sampling provenance.
#[derive(Debug)]
pub struct OutOfCoreTrainReport {
    /// The trained model (one completed experience).
    pub model: CndIds,
    /// Training statistics from the experience.
    pub stats: TrainStats,
    /// Total rows streamed from the store.
    pub rows_streamed: u64,
    /// Rows that were candidates for the clean-normal reservoir.
    pub clean_candidates: u64,
    /// Rows actually retained in the clean-normal sample (`N_c`).
    pub clean_sampled: usize,
    /// Rows actually retained in the training sample.
    pub train_sampled: usize,
}

/// Trains one CND-IDS experience from a `.cnds` store without ever
/// materializing the full dataset (see module docs for the sampling
/// and determinism contract).
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for zero reservoir capacities
/// or an empty clean sample, [`CoreError::Storage`] for store
/// failures (including a corrupt payload detected at end of stream),
/// and propagates training errors.
pub fn train_from_store(
    store: &FlowStore,
    cfg: &OutOfCoreTrainConfig,
) -> Result<OutOfCoreTrainReport, CoreError> {
    if cfg.clean_capacity == 0 || cfg.train_capacity == 0 {
        return Err(CoreError::InvalidConfig {
            name: "clean_capacity/train_capacity",
            constraint: "reservoir capacities must be positive",
        });
    }
    let _span = cnd_obs::span!(
        "core.train_from_store",
        rows = store.len(),
        chunk_rows = cfg.chunk_rows,
    );
    let mut clean = ReservoirBuffer::new(cfg.clean_capacity, cfg.seed);
    let mut train = ReservoirBuffer::new(cfg.train_capacity, cfg.seed ^ 0x9E37_79B9);
    let mut rows_streamed = 0u64;
    for chunk in store.chunks(cfg.chunk_rows)? {
        let chunk = chunk?;
        let labelled = !chunk.labels.is_empty();
        for (i, row) in chunk.rows.iter_rows().enumerate() {
            rows_streamed += 1;
            if !labelled || chunk.labels[i] == 0 {
                clean.offer(row.to_vec());
            }
            train.offer(row.to_vec());
        }
    }
    let clean_candidates = clean.seen();
    let n_c = clean.to_matrix().ok_or(CoreError::InvalidConfig {
        name: "store",
        constraint: "store contains no clean-normal rows to seed N_c",
    })?;
    let x = train.to_matrix().ok_or(CoreError::InvalidConfig {
        name: "store",
        constraint: "store contains no rows to train on",
    })?;
    cnd_obs::gauge_set_volatile("core.oocore.clean_sampled.gauge", n_c.rows() as f64);
    cnd_obs::gauge_set_volatile("core.oocore.train_sampled.gauge", x.rows() as f64);
    let mut model = CndIds::new(cfg.model, &n_c)?;
    let stats = model.train_experience(&x)?;
    cnd_obs::counter_add("core.oocore.train.count", 1);
    Ok(OutOfCoreTrainReport {
        model,
        stats,
        rows_streamed,
        clean_candidates,
        clean_sampled: n_c.rows(),
        train_sampled: x.rows(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnd_linalg::Matrix;
    use cnd_store::StoreWriter;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static CASE: AtomicU64 = AtomicU64::new(0);

    fn tmp_store(rows: &Matrix, labels: Option<&[u16]>) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "cnd_oocore_{}_{}.cnds",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let mut w =
            StoreWriter::create(&path, rows.cols(), cnd_store::DType::F64, labels.is_some())
                .unwrap();
        for (i, row) in rows.iter_rows().enumerate() {
            w.push_row(row, labels.map(|l| l[i])).unwrap();
        }
        w.finalize().unwrap();
        path
    }

    fn flow(i: usize, j: usize) -> f64 {
        ((i * 7 + j * 3) % 13) as f64 * 0.1
    }

    fn trained_scorer(d: usize) -> DeployedScorer {
        let n_c = Matrix::from_fn(50, d, flow);
        let train = Matrix::from_fn(300, d, |i, j| {
            if i < 240 {
                flow(i + 100, j)
            } else {
                flow(i + 100, j) + 2.5
            }
        });
        let mut model = CndIds::new(CndIdsConfig::fast(3), &n_c).unwrap();
        model.train_experience(&train).unwrap();
        DeployedScorer::from_model(&model).unwrap()
    }

    #[test]
    fn chunked_scores_are_bitwise_identical_to_in_memory() {
        let d = 6;
        let scorer = trained_scorer(d);
        let x = Matrix::from_fn(257, d, |i, j| flow(i + 900, j) + (i % 5) as f64 * 0.7);
        let labels: Vec<u16> = (0..x.rows()).map(|i| (i % 3) as u16).collect();
        let path = tmp_store(&x, Some(&labels));
        let store = FlowStore::open(&path).unwrap();
        let oracle = scorer.anomaly_scores(&x).unwrap();

        for chunk_rows in [1usize, 7, 64, 256, 1000] {
            let mut streamed = Vec::new();
            let mut streamed_labels = Vec::new();
            for sc in scorer.score_chunks(store.chunks(chunk_rows).unwrap()) {
                let sc = sc.unwrap();
                assert_eq!(sc.start as usize, streamed.len());
                streamed.extend_from_slice(&sc.scores);
                streamed_labels.extend_from_slice(&sc.labels);
            }
            assert_eq!(
                streamed, oracle,
                "chunked scores must be bitwise identical at chunk_rows={chunk_rows}"
            );
            assert_eq!(streamed_labels, labels);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_failed_chunk_is_yielded_in_place_and_scoring_continues() {
        let d = 6;
        let scorer = trained_scorer(d);
        let chunk = |start: usize| RowChunk {
            rows: Matrix::from_fn(5, d, |i, j| flow(start + i, j)),
            labels: vec![1; 5],
            start: start as u64,
        };
        let source = vec![
            Ok(chunk(0)),
            Err(cnd_store::StoreError::Usage("unreadable slab".into())),
            Ok(chunk(10)),
        ];
        let out: Vec<_> = scorer.score_chunks(source).collect();
        assert_eq!(out.len(), 3);
        for (got, start) in [(&out[0], 0), (&out[2], 10)] {
            let got = got.as_ref().unwrap();
            assert_eq!(got.start, start as u64);
            assert_eq!(got.labels, vec![1; 5]);
            assert_eq!(
                got.scores,
                scorer.anomaly_scores(&chunk(start).rows).unwrap()
            );
        }
        assert!(matches!(out[1], Err(CoreError::Storage(_))));
    }

    #[test]
    fn below_capacity_store_training_matches_in_memory() {
        let d = 6;
        let n = 260;
        let x = Matrix::from_fn(n, d, |i, j| {
            if i % 10 == 9 {
                flow(i, j) + 2.5
            } else {
                flow(i, j)
            }
        });
        // Label the shifted decile as attacks (1), the rest benign (0).
        let labels: Vec<u16> = (0..n).map(|i| u16::from(i % 10 == 9)).collect();
        let path = tmp_store(&x, Some(&labels));
        let store = FlowStore::open(&path).unwrap();

        let cfg = OutOfCoreTrainConfig {
            chunk_rows: 37,
            ..OutOfCoreTrainConfig::new(CndIdsConfig::fast(3))
        };
        let report = train_from_store(&store, &cfg).unwrap();
        assert_eq!(report.rows_streamed, n as u64);
        assert_eq!(report.clean_candidates, (n - n / 10) as u64);
        assert_eq!(report.clean_sampled, n - n / 10);
        assert_eq!(report.train_sampled, n);

        // Below reservoir capacity the sample is the identity, so the
        // whole pipeline must match in-memory training bitwise.
        let clean_rows: Vec<Vec<f64>> = (0..n)
            .filter(|i| labels[*i] == 0)
            .map(|i| x.row(i).to_vec())
            .collect();
        let n_c = Matrix::from_rows(&clean_rows).unwrap();
        let mut oracle = CndIds::new(CndIdsConfig::fast(3), &n_c).unwrap();
        oracle.train_experience(&x).unwrap();

        let probe = Matrix::from_fn(40, d, |i, j| flow(i + 500, j) + (i % 4) as f64);
        assert_eq!(
            report.model.anomaly_scores(&probe).unwrap(),
            oracle.anomaly_scores(&probe).unwrap(),
            "out-of-core training below reservoir capacity must be bitwise identical"
        );
    }

    #[test]
    fn oversized_store_trains_with_bounded_sample() {
        let d = 4;
        let n = 600;
        let x = Matrix::from_fn(n, d, flow);
        let path = tmp_store(&x, None);
        let store = FlowStore::open(&path).unwrap();
        let cfg = OutOfCoreTrainConfig {
            clean_capacity: 80,
            train_capacity: 150,
            chunk_rows: 64,
            ..OutOfCoreTrainConfig::new(CndIdsConfig::fast(3))
        };
        let report = train_from_store(&store, &cfg).unwrap();
        assert_eq!(report.rows_streamed, n as u64);
        assert_eq!(report.clean_candidates, n as u64);
        assert_eq!(report.clean_sampled, 80);
        assert_eq!(report.train_sampled, 150);
        assert_eq!(report.model.experiences_trained(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn zero_capacity_is_rejected() {
        let x = Matrix::from_fn(10, 3, flow);
        let path = tmp_store(&x, None);
        let store = FlowStore::open(&path).unwrap();
        let cfg = OutOfCoreTrainConfig {
            clean_capacity: 0,
            ..OutOfCoreTrainConfig::new(CndIdsConfig::fast(2))
        };
        assert!(matches!(
            train_from_store(&store, &cfg),
            Err(CoreError::InvalidConfig { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }
}
