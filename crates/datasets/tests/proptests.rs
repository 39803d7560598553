//! Property-based tests for dataset generation, continual splitting,
//! and the CSV readers' handling of hostile bytes.

use std::io::Cursor;
use std::sync::atomic::{AtomicU64, Ordering};

use cnd_datasets::ingest::IngestOptions;
use cnd_datasets::{
    continual, ingest_csv_from, loader, DatasetError, DatasetProfile, GeneratorConfig,
};
use proptest::prelude::*;

fn profile_strategy() -> impl Strategy<Value = DatasetProfile> {
    prop::sample::select(DatasetProfile::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn generation_is_finite_and_complete(profile in profile_strategy(), seed in 0u64..1000) {
        let data = profile.generate(&GeneratorConfig::small(seed)).unwrap();
        prop_assert!(data.x.is_finite());
        prop_assert_eq!(data.n_features(), profile.n_features());
        prop_assert_eq!(data.n_attack_classes(), profile.n_attack_classes());
        prop_assert_eq!(data.class.len(), data.len());
        // Every class id is valid.
        prop_assert!(data.class.iter().all(|&c| c <= profile.n_attack_classes()));
    }

    #[test]
    fn imbalance_tracks_profile(profile in profile_strategy(), seed in 0u64..100) {
        let data = profile.generate(&GeneratorConfig::small(seed)).unwrap();
        let frac = data.attack_count() as f64 / data.len() as f64;
        prop_assert!((frac - profile.attack_fraction()).abs() < 0.08,
            "{profile}: attack fraction {frac} vs table {}", profile.attack_fraction());
    }

    #[test]
    fn split_partitions_attack_classes(seed in 0u64..50) {
        let profile = DatasetProfile::UnswNb15;
        let data = profile.generate(&GeneratorConfig::small(seed)).unwrap();
        let split = continual::prepare(&data, 5, 0.7, seed).unwrap();
        let mut seen = std::collections::HashSet::new();
        for e in &split.experiences {
            for &c in &e.attack_classes {
                prop_assert!(seen.insert(c), "class {c} in two experiences");
            }
        }
        prop_assert_eq!(seen.len(), 10);
    }

    #[test]
    fn split_train_sets_have_no_label_leakage(seed in 0u64..50) {
        // Train classes exist only as withheld ground truth; every test
        // label is consistent with its class id.
        let profile = DatasetProfile::WustlIiot;
        let data = profile.generate(&GeneratorConfig::small(seed)).unwrap();
        let split = continual::prepare(&data, 4, 0.7, seed).unwrap();
        for e in &split.experiences {
            prop_assert_eq!(e.train_x.rows(), e.train_class.len());
            for (y, c) in e.test_y.iter().zip(&e.test_class) {
                prop_assert_eq!(*y != 0, *c != 0);
            }
        }
    }

    #[test]
    fn split_sample_conservation(seed in 0u64..50) {
        // N_c plus all experience train/test parts account for every
        // sample exactly once.
        let profile = DatasetProfile::UnswNb15;
        let data = profile.generate(&GeneratorConfig::small(seed)).unwrap();
        let split = continual::prepare(&data, 5, 0.7, seed).unwrap();
        let total: usize = split.clean_normal.rows()
            + split
                .experiences
                .iter()
                .map(|e| e.train_x.rows() + e.test_x.rows())
                .sum::<usize>();
        prop_assert_eq!(total, data.len());
    }

    #[test]
    fn duplicates_present_at_configured_rate(seed in 0u64..20) {
        let cfg = GeneratorConfig {
            duplicate_probability: 0.3,
            ..GeneratorConfig::small(seed)
        };
        let data = DatasetProfile::WustlIiot.generate(&cfg).unwrap();
        // Count exact consecutive-window duplicates among normals.
        let normals: Vec<usize> = data.normal_indices().collect();
        let mut dups = 0;
        for w in normals.windows(51) {
            let last = w[w.len() - 1];
            if w[..w.len() - 1]
                .iter()
                .any(|&i| data.x.row(i) == data.x.row(last))
            {
                dups += 1;
            }
        }
        let rate = dups as f64 / normals.len() as f64;
        prop_assert!(rate > 0.15, "duplicate rate {rate} too low");
    }

    #[test]
    fn zero_duplicate_probability_gives_unique_rows(seed in 0u64..10) {
        let cfg = GeneratorConfig {
            duplicate_probability: 0.0,
            ..GeneratorConfig::small(seed)
        };
        let data = DatasetProfile::UnswNb15.generate(&cfg).unwrap();
        let normals: Vec<usize> = data.normal_indices().collect();
        for w in normals.windows(2) {
            prop_assert_ne!(data.x.row(w[0]), data.x.row(w[1]));
        }
    }
}

/// Bytes that carry meaning to the CSV readers: delimiters, line ends,
/// BOM and invalid-UTF-8 lead bytes, number syntax, and label letters.
const CSV_ALPHABET: &[u8] = b",,,\n\n\r 0123456789.-+eEinfaNIF\"xyz\xef\xbb\xbf\xff\xc3";

/// Random byte strings, mostly drawn from [`CSV_ALPHABET`] so they
/// reach past UTF-8 decoding into field splitting and number parsing.
fn hostile_bytes() -> impl Strategy<Value = Vec<u8>> {
    let byte = (
        0u8..=255,
        prop::sample::select(CSV_ALPHABET.to_vec()),
        0u8..4,
    )
        .prop_map(|(raw, csv, pick)| if pick == 0 { raw } else { csv });
    prop::collection::vec(byte, 0..400)
}

/// A well-formed CSV: 1–12 rows of 1–4 numeric features and a label,
/// optionally under a header line.
fn valid_csv() -> impl Strategy<Value = (bool, Vec<u8>)> {
    let label = prop::sample::select(vec!["normal", "benign", "0", "dos", "scan", "exfil"]);
    let row = (prop::collection::vec(-1e3..1e3f64, 4), label);
    (
        prop::sample::select(vec![false, true]),
        1usize..5,
        prop::collection::vec(row, 1..12),
    )
        .prop_map(|(header, width, rows)| {
            let mut csv = String::new();
            if header {
                csv.push_str("f1,f2,f3,f4,label\n");
            }
            for (features, label) in rows {
                for v in &features[..width] {
                    csv.push_str(&format!("{v},"));
                }
                csv.push_str(label);
                csv.push('\n');
            }
            (header, csv.into_bytes())
        })
}

/// Byte-level edits applied to a valid CSV: flip (xor), drop, or
/// splice in a fragment that is hostile to one reader stage or another.
fn edits() -> impl Strategy<Value = Vec<(u8, usize, u8, &'static [u8])>> {
    let fragment = prop::sample::select(vec![
        &b","[..],
        b"\n",
        b"\r\n",
        b",,",
        b"nan",
        b"-inf",
        b"1e309",
        b"\xef\xbb\xbf",
        b"\xff",
        b"\"",
        b"",
        b"99999999999999999999999999",
    ]);
    prop::collection::vec((0u8..3, 0usize..4096, 1u8..=255, fragment), 0..8)
}

fn mangle(mut bytes: Vec<u8>, edits: &[(u8, usize, u8, &[u8])]) -> Vec<u8> {
    for &(op, pos, mask, fragment) in edits {
        match op {
            0 if !bytes.is_empty() => {
                let i = pos % bytes.len();
                bytes[i] ^= mask;
            }
            1 if !bytes.is_empty() => {
                bytes.remove(pos % bytes.len());
            }
            _ => {
                let i = pos % (bytes.len() + 1);
                bytes.splice(i..i, fragment.iter().copied());
            }
        }
    }
    bytes
}

/// Errors a CSV reader may return for bad bytes: a located parse
/// error, or the line reader's refusal of invalid UTF-8.
fn is_bad_input_error(e: &DatasetError, bytes: &[u8]) -> bool {
    let lines = bytes.iter().filter(|&&b| b == b'\n').count() + 1;
    match e {
        DatasetError::Parse { line, .. } => *line <= lines,
        DatasetError::Io(io) => io.kind() == std::io::ErrorKind::InvalidData,
        _ => false,
    }
}

static STORE_CASE: AtomicU64 = AtomicU64::new(0);

/// Feeds `bytes` to both CSV readers and checks that each returns `Ok`
/// or a typed bad-input error, and that a file the in-memory loader
/// accepts with all-finite features ingests to the same rows.
fn check_csv_readers(has_header: bool, bytes: &[u8]) {
    let loaded = loader::read_csv_from(Cursor::new(bytes), has_header, "hostile".into());
    match &loaded {
        Ok(d) => {
            assert_eq!(d.x.rows(), d.class.len());
            assert!(d.class.iter().all(|&c| c < d.class_names.len()));
        }
        Err(e) => assert!(is_bad_input_error(e, bytes), "loader: {e}"),
    }

    let store = std::env::temp_dir().join(format!(
        "cnd_csv_hostile_{}_{}.cnds",
        std::process::id(),
        STORE_CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let options = IngestOptions {
        has_header,
        ..IngestOptions::default()
    };
    let ingested = ingest_csv_from(Cursor::new(bytes), &store, &options);
    let _ = std::fs::remove_file(&store);
    let _ = std::fs::remove_file(store.with_extension("cnds.quarantine"));
    match &ingested {
        Ok(r) => assert_eq!(r.meta.count, r.rows_written),
        Err(e) => assert!(is_bad_input_error(e, bytes), "ingest: {e}"),
    }

    if let Ok(d) = &loaded {
        if d.x.is_finite() {
            let r = ingested.expect("ingest accepts what the loader accepts");
            assert_eq!(r.rows_written, d.x.rows() as u64);
            assert_eq!(r.rows_quarantined, 0);
            assert_eq!(r.class_names, d.class_names);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_bytes_never_panic_the_csv_readers(
        has_header in prop::sample::select(vec![false, true]),
        bytes in hostile_bytes(),
    ) {
        check_csv_readers(has_header, &bytes);
    }

    #[test]
    fn mangled_csv_never_panics_the_csv_readers((has_header, csv) in valid_csv(), edits in edits()) {
        check_csv_readers(has_header, &mangle(csv, &edits));
    }
}
