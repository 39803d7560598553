//! Property-based tests for the `.cnds` binary format: write→read
//! bitwise identity across dtypes, shapes, and chunk sizes, rejection
//! of truncated and bit-flipped files, and typed errors (never panics)
//! for random and hostile headers.

use cnd_store::{
    ChunkIter, DType, FlowStore, StoreError, StoreWriter, FOOTER_LEN, HEADER_LEN, MAX_DIM,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

/// Fresh per-case path so shrinking never races an earlier file.
fn tmp() -> PathBuf {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let mut p = std::env::temp_dir();
    p.push(format!("cnd_store_prop_{}_{case}.cnds", std::process::id()));
    p
}

fn feature_strategy() -> impl Strategy<Value = f64> {
    // Mix a continuous range with adversarial specials (signed zero,
    // subnormal-adjacent, extreme magnitudes) via an index selector.
    (0usize..8, -1e9..1e9f64).prop_map(|(pick, v)| match pick {
        0 => 0.0,
        1 => -0.0,
        2 => f64::MIN_POSITIVE,
        3 => 1e-300,
        4 => f64::MAX,
        5 => -f64::MAX,
        _ => v,
    })
}

fn rows_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1usize..6).prop_flat_map(|dim| {
        prop::collection::vec(prop::collection::vec(feature_strategy(), dim), 1..40)
    })
}

fn write(path: &PathBuf, rows: &[Vec<f64>], dtype: DType, labelled: bool) {
    let mut w = StoreWriter::create(path, rows[0].len(), dtype, labelled).unwrap();
    for (i, r) in rows.iter().enumerate() {
        w.push_row(r, labelled.then_some((i % 7) as u16)).unwrap();
    }
    w.finalize().unwrap();
}

/// A 24-byte header with the v1 magic and the given fields.
fn header(dtype: u8, label_width: u8, dim: u32, count: u64) -> Vec<u8> {
    let mut h = b"CNDSTOR1".to_vec();
    h.extend_from_slice(&[dtype, label_width, 0, 0]);
    h.extend_from_slice(&dim.to_le_bytes());
    h.extend_from_slice(&count.to_le_bytes());
    h
}

/// A footer that agrees with a header's `count` (its CRC is arbitrary).
fn footer(count: u64) -> Vec<u8> {
    let mut f = 0xDEAD_BEEFu32.to_le_bytes().to_vec();
    f.extend_from_slice(&count.to_le_bytes());
    f.extend_from_slice(b"CND_END1");
    f
}

/// Opens `bytes` as a store. It must fail with a `StoreError` (the type
/// guarantees that much), or open to a store whose shape is the
/// header's and whose every read returns exactly the rows it promises.
fn open_hostile(bytes: &[u8]) {
    let path = tmp();
    std::fs::write(&path, bytes).unwrap();
    if let Ok(store) = FlowStore::open(&path) {
        let h = &bytes[..HEADER_LEN as usize];
        let dim = u32::from_le_bytes(h[12..16].try_into().unwrap()) as usize;
        let count = u64::from_le_bytes(h[16..24].try_into().unwrap());
        let meta = *store.meta();
        assert_eq!((meta.dim, meta.count), (dim, count));
        assert_eq!(meta.dtype == DType::F32, h[8] == 1);
        assert_eq!(meta.labelled, h[9] == 2);
        let payload = count * meta.stride() as u64;
        assert_eq!(bytes.len() as u64, HEADER_LEN + payload + FOOTER_LEN);
        let all = store.read_rows(0, count as usize).unwrap();
        assert_eq!((all.rows.rows(), all.rows.cols()), (count as usize, dim));
        assert_eq!(
            all.labels.len(),
            if meta.labelled { count as usize } else { 0 }
        );
        assert!(store.read_rows(count as usize, 1).is_err());
        let mut seen = 0;
        for chunk in ChunkIter::open(&path, 3).unwrap() {
            match chunk {
                Ok(c) => seen += c.len(),
                // Only the closing digest check may fail (the footer
                // CRC here is arbitrary).
                Err(e) => assert!(matches!(e, StoreError::Corrupt { .. }), "{e}"),
            }
        }
        assert_eq!(seen as u64, count);
    }
    std::fs::remove_file(&path).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn f64_round_trip_is_bitwise(rows in rows_strategy(), labelled_bit in 0u8..2, chunk in 1usize..50) {
        let labelled = labelled_bit == 1;
        let path = tmp();
        write(&path, &rows, DType::F64, labelled);
        let mut seen = 0usize;
        for chunk_result in ChunkIter::open(&path, chunk).unwrap() {
            let c = chunk_result.unwrap();
            for (i, got) in c.rows.iter_rows().enumerate() {
                let want = &rows[seen + i];
                for (g, w) in got.iter().zip(want) {
                    prop_assert_eq!(g.to_bits(), w.to_bits());
                }
                if labelled {
                    prop_assert_eq!(c.labels[i], ((seen + i) % 7) as u16);
                } else {
                    prop_assert!(c.labels.is_empty());
                }
            }
            seen += c.rows.rows();
        }
        prop_assert_eq!(seen, rows.len());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn f32_round_trip_preserves_narrowed_bits(rows in rows_strategy(), chunk in 1usize..50) {
        let path = tmp();
        write(&path, &rows, DType::F32, false);
        let store = FlowStore::open(&path).unwrap();
        let mut seen = 0usize;
        for chunk_result in store.chunks(chunk).unwrap() {
            let c = chunk_result.unwrap();
            for (i, got) in c.rows.iter_rows().enumerate() {
                for (g, &w) in got.iter().zip(&rows[seen + i]) {
                    // The store narrowed with `as f32`; reading must widen
                    // that narrowed value exactly.
                    prop_assert_eq!(g.to_bits(), f64::from(w as f32).to_bits());
                }
            }
            seen += c.rows.rows();
        }
        prop_assert_eq!(seen, rows.len());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_files_never_open_clean(rows in rows_strategy(), cut in 1usize..64) {
        let path = tmp();
        write(&path, &rows, DType::F64, false);
        let bytes = std::fs::read(&path).unwrap();
        let keep = bytes.len().saturating_sub(cut);
        std::fs::write(&path, &bytes[..keep]).unwrap();
        // Any truncation breaks the size/footer structure at open time.
        prop_assert!(FlowStore::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn payload_bit_flips_are_caught(rows in rows_strategy(), byte_seed in 0u64..1_000_000_000, bit in 0u8..8) {
        let path = tmp();
        write(&path, &rows, DType::F64, false);
        let mut bytes = std::fs::read(&path).unwrap();
        let payload_len = bytes.len() - HEADER_LEN as usize - FOOTER_LEN as usize;
        let target = HEADER_LEN as usize + (byte_seed as usize % payload_len);
        bytes[target] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();
        // Structure still validates, so the flip must surface as a CRC
        // failure on a sequential pass.
        let store = FlowStore::open(&path).unwrap();
        let verdict = store.verify_crc();
        prop_assert!(
            matches!(verdict, Err(StoreError::Corrupt { .. })),
            "flipped payload bit escaped the digest: {verdict:?}"
        );
        std::fs::remove_file(&path).unwrap();
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_headers_never_panic(
        mut head in prop::collection::vec(0u8..=255, HEADER_LEN as usize),
        keep_magic in 0u8..2,
        payload_len in 0usize..96,
        with_footer in 0u8..2,
    ) {
        if keep_magic == 1 {
            head[..8].copy_from_slice(b"CNDSTOR1");
        }
        let mut bytes = head.clone();
        bytes.extend((0..payload_len).map(|i| (i * 37) as u8));
        if with_footer == 1 {
            bytes.extend(footer(u64::from_le_bytes(head[16..24].try_into().unwrap())));
        }
        open_hostile(&bytes);
    }

    #[test]
    fn hostile_header_fields_never_panic(
        // Valid values are listed more than once, so a good share of
        // cases is one hostile field away from a well-formed file.
        dtype in prop::sample::select(vec![0u8, 1, 0, 1, 2, 255]),
        label_width in prop::sample::select(vec![0u8, 2, 0, 2, 1, 255]),
        dim in prop::sample::select(vec![1u32, 3, 7, 1, 3, 0, MAX_DIM as u32, MAX_DIM as u32 + 1, u32::MAX]),
        count in prop::sample::select(vec![0u64, 1, 2, 5, 0, 1, 2, 5, 1 << 32, 1 << 61, u64::MAX / 3, u64::MAX]),
        payload in 0u8..3,
        with_footer in prop::sample::select(vec![1u8, 1, 0]),
    ) {
        // Payload absent, short by one row, or exactly what the header
        // promises (when that is small enough to write).
        let fsize = if dtype == 1 { 4 } else { 8 };
        let stride = u64::from(dim) * fsize + if label_width == 2 { 2 } else { 0 };
        let promised = count.checked_mul(stride).filter(|&b| b <= 1 << 16);
        let payload_len = match (payload, promised) {
            (0, _) | (_, None) => 0,
            (1, Some(b)) => b.saturating_sub(stride),
            (_, Some(b)) => b,
        };
        let mut bytes = header(dtype, label_width, dim, count);
        bytes.extend((0..payload_len).map(|i| (i * 37) as u8));
        if with_footer == 1 {
            bytes.extend(footer(count));
        }
        open_hostile(&bytes);
    }
}
