//! # cnd-store — out-of-core flow storage for the CND-IDS data plane
//!
//! Every other crate in this workspace computes on an in-memory
//! [`Matrix`](cnd_linalg::Matrix). That is the right call for the paper's
//! benchmark datasets, but CND-IDS is pitched at IIoT flow streams that
//! are unbounded: a deployment cannot materialize "the dataset" before
//! fitting a scaler or scoring a day of traffic. This crate is the
//! storage layer that breaks that assumption without touching the math:
//!
//! * [`StoreWriter`] / [`FlowStore`] / [`ChunkIter`] — a versioned,
//!   CRC-checked, fixed-stride binary flow-record format (`.cnds`) with
//!   an atomic tmp+rename writer, a random-access reader for indexed
//!   experience slicing, and a buffered sequential reader that yields
//!   bounded [`RowChunk`] slabs.
//! * [`ReservoirBuffer`] — seeded Algorithm-R reservoir sampling, the
//!   bounded replacement for whole-dataset replay memory in the
//!   streaming/continual paths (CITADEL's memory-budget argument).
//!
//! Fitting stays in memory: `cnd_core::outofcore::train_from_store`
//! fills two reservoirs in one pass over a store and runs the ordinary
//! in-memory fits on them.
//!
//! # Determinism contract
//!
//! The on-disk format stores raw IEEE-754 little-endian bits, so a
//! write→read round trip of f64 rows is bitwise lossless (f32 stores are
//! lossless in f32; readers widen to f64). Scoring is row-independent,
//! so scores streamed chunk by chunk equal the in-memory scores bit for
//! bit at any chunk size, and a reservoir below capacity keeps every
//! row, in store order.
//!
//! # Hostile input
//!
//! `.cnds` files may arrive over operational channels, so [`FlowStore::open`]
//! treats them as untrusted: magic/version/dtype checks, a dimension cap,
//! exact file-size cross-check against the header row count, and a footer
//! whose row count must agree with the header. [`ChunkIter`] additionally
//! verifies the payload CRC-32 as a running digest and fails the final
//! chunk on mismatch, so truncation and bit rot are detected rather than
//! silently scored.

mod format;
mod reader;
mod reservoir;
mod writer;

pub use format::{DType, StoreMeta, FOOTER_LEN, HEADER_LEN, MAX_DIM};
pub use reader::{ChunkIter, FlowStore, RowChunk};
pub use reservoir::ReservoirBuffer;
pub use writer::StoreWriter;

use std::fmt;

/// Default row count per [`RowChunk`] slab when the caller does not pick
/// one (overridable via the `CND_STORE_CHUNK_ROWS` environment variable).
pub const DEFAULT_CHUNK_ROWS: usize = 8192;

/// Chunk-slab row count: `CND_STORE_CHUNK_ROWS` if set to a positive
/// integer, else [`DEFAULT_CHUNK_ROWS`].
pub fn default_chunk_rows() -> usize {
    std::env::var("CND_STORE_CHUNK_ROWS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_CHUNK_ROWS)
}

/// Errors from writing, opening, or streaming a `.cnds` flow store.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem / IO failure.
    Io(std::io::Error),
    /// The file is structurally not a valid `.cnds` store (bad magic,
    /// unsupported version/dtype, size mismatch, header/footer conflict).
    Format(String),
    /// The payload CRC-32 did not match the footer digest.
    Corrupt {
        /// Digest recomputed from the row payload actually read.
        computed: u32,
        /// Digest recorded in the footer at write time.
        stored: u32,
    },
    /// A caller handed the writer/reader inconsistent shapes (wrong row
    /// width, label on an unlabelled store, out-of-range slice, …).
    Usage(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::Format(m) => write!(f, "invalid store file: {m}"),
            StoreError::Corrupt { computed, stored } => write!(
                f,
                "store payload corrupt: crc32 {computed:#010x} != stored {stored:#010x}"
            ),
            StoreError::Usage(m) => write!(f, "store misuse: {m}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnd_linalg::Matrix;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cnd_store_{}_{}", std::process::id(), name));
        p
    }

    fn write_store(path: &PathBuf, dtype: DType, labels: bool, rows: &[Vec<f64>]) -> StoreMeta {
        let dim = rows.first().map_or(3, Vec::len);
        let mut w = StoreWriter::create(path, dim, dtype, labels).unwrap();
        for (i, r) in rows.iter().enumerate() {
            let label = labels.then_some((i % 5) as u16);
            w.push_row(r, label).unwrap();
        }
        w.finalize().unwrap()
    }

    fn demo_rows(n: usize, dim: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..dim)
                    .map(|j| ((i * dim + j) as f64).sin() * 1e3 + i as f64)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn round_trip_f64_bitwise() {
        let path = tmp("rt_f64.cnds");
        let rows = demo_rows(37, 4);
        let meta = write_store(&path, DType::F64, true, &rows);
        assert_eq!(meta.count, 37);
        assert_eq!(meta.dim, 4);

        let store = FlowStore::open(&path).unwrap();
        assert_eq!(store.meta().count, 37);
        let all = store.read_rows(0, 37).unwrap();
        for (i, r) in rows.iter().enumerate() {
            for (j, &v) in r.iter().enumerate() {
                assert_eq!(all.rows.row(i)[j].to_bits(), v.to_bits());
            }
            assert_eq!(all.labels[i], (i % 5) as u16);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn round_trip_f32_narrows_then_widens() {
        let path = tmp("rt_f32.cnds");
        let rows = demo_rows(9, 3);
        write_store(&path, DType::F32, false, &rows);
        let store = FlowStore::open(&path).unwrap();
        let all = store.read_rows(0, 9).unwrap();
        assert!(all.labels.is_empty());
        for (i, r) in rows.iter().enumerate() {
            for (j, &v) in r.iter().enumerate() {
                assert_eq!(all.rows.row(i)[j].to_bits(), f64::from(v as f32).to_bits());
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn chunk_iter_matches_random_access_and_is_fused() {
        let path = tmp("chunks.cnds");
        let rows = demo_rows(103, 5);
        write_store(&path, DType::F64, true, &rows);
        let store = FlowStore::open(&path).unwrap();
        for chunk_rows in [1usize, 7, 64, 103, 500] {
            let mut seen = 0usize;
            let mut it = store.chunks(chunk_rows).unwrap();
            for chunk in it.by_ref() {
                let chunk = chunk.unwrap();
                assert!(chunk.rows.rows() <= chunk_rows);
                assert_eq!(chunk.start, seen as u64);
                let oracle = store.read_rows(seen, chunk.rows.rows()).unwrap();
                assert_eq!(chunk.rows.as_slice(), oracle.rows.as_slice());
                assert_eq!(chunk.labels, oracle.labels);
                seen += chunk.rows.rows();
            }
            assert_eq!(seen, 103);
            assert!(it.next().is_none(), "iterator must fuse after end");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_file_rejected() {
        let path = tmp("trunc.cnds");
        write_store(&path, DType::F64, false, &demo_rows(20, 3));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        assert!(matches!(FlowStore::open(&path), Err(StoreError::Format(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_payload_rejected_by_chunk_iter() {
        let path = tmp("crc.cnds");
        write_store(&path, DType::F64, false, &demo_rows(20, 3));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = HEADER_LEN + 11;
        bytes[mid as usize] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        // Structure is intact, so open succeeds…
        let store = FlowStore::open(&path).unwrap();
        // …but a full sequential pass must flag the payload digest.
        let results: Vec<_> = store.chunks(7).unwrap().collect();
        assert!(matches!(
            results.last(),
            Some(Err(StoreError::Corrupt { .. }))
        ));
        assert!(store.verify_crc().is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_and_garbage_rejected() {
        let path = tmp("junk.cnds");
        std::fs::write(&path, b"not a store at all").unwrap();
        assert!(FlowStore::open(&path).is_err());
        std::fs::write(&path, b"").unwrap();
        assert!(FlowStore::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn writer_is_atomic_no_partial_file_on_drop() {
        let path = tmp("atomic.cnds");
        {
            let mut w = StoreWriter::create(&path, 3, DType::F64, false).unwrap();
            w.push_row(&[1.0, 2.0, 3.0], None).unwrap();
            // dropped without finalize
        }
        assert!(!path.exists(), "unfinalized write must not leave a store");
        let mut tmp_path = path.clone().into_os_string();
        tmp_path.push(".tmp");
        assert!(
            !PathBuf::from(tmp_path).exists(),
            "tmp file must be cleaned up"
        );
    }

    #[test]
    fn push_matrix_and_slicing() {
        let path = tmp("slice.cnds");
        let x = Matrix::from_rows(&demo_rows(12, 2)).unwrap();
        let mut w = StoreWriter::create(&path, 2, DType::F64, false).unwrap();
        w.push_matrix(&x, &[]).unwrap();
        w.finalize().unwrap();
        let store = FlowStore::open(&path).unwrap();
        let mid = store.read_rows(4, 5).unwrap();
        assert_eq!(mid.start, 4);
        assert_eq!(mid.rows.as_slice(), x.slice_rows(4, 9).unwrap().as_slice());
        assert!(store.read_rows(10, 3).is_err(), "out of range slice");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn usage_errors() {
        let path = tmp("usage.cnds");
        let mut w = StoreWriter::create(&path, 2, DType::F64, true).unwrap();
        assert!(w.push_row(&[1.0], Some(0)).is_err(), "wrong width");
        assert!(w.push_row(&[1.0, 2.0], None).is_err(), "missing label");
        w.push_row(&[1.0, 2.0], Some(1)).unwrap();
        w.finalize().unwrap();
        assert!(StoreWriter::create(&path, 0, DType::F64, false).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn default_chunk_rows_is_positive() {
        assert!(default_chunk_rows() >= 1);
    }
}
