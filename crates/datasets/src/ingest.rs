//! Streaming CSV → `.cnds` ingestion with quarantine reporting.
//!
//! [`read_csv`](crate::loader::read_csv) materializes the whole file; a real
//! capture can be far larger than memory. [`ingest_csv_to_store`]
//! streams the CSV row by row into a [`StoreWriter`], so peak memory is
//! one line regardless of input size, and the output store can then
//! feed the chunked train/score paths.
//!
//! Ingestion is *quarantine-style*: a malformed row (ragged width,
//! non-numeric or non-finite feature, too few fields) does not abort
//! the run — it is skipped, counted, and reported with its 1-based line
//! number and reason. When any rows are quarantined a sidecar report
//! (`<store>.quarantine`) is written next to the store so the operator
//! can audit exactly what was dropped; the in-memory report keeps the
//! first few entries for error messages. A clean run removes any stale
//! sidecar from a previous attempt.
//!
//! Labels are interned exactly like the in-memory loader (index 0 =
//! `normal`/`benign`/`0`, attacks in order of first appearance) and
//! stored as `u16` class indices, so `class_names[label]` recovers the
//! original string.

use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};

use cnd_store::{DType, StoreMeta, StoreWriter};

use crate::loader::{parse_features, split_fields, LabelMap};
use crate::DatasetError;

/// How many quarantined rows the in-memory report retains in detail
/// (the sidecar file always records all of them).
pub const QUARANTINE_DETAIL_CAP: usize = 32;

/// Options for [`ingest_csv_to_store`].
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Skip the first line as a header.
    pub has_header: bool,
    /// Element type of the output store (`F64` preserves bits; `F32`
    /// halves the footprint and is widened exactly on read).
    pub dtype: DType,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions {
            has_header: true,
            dtype: DType::F64,
        }
    }
}

/// One row that was rejected during ingestion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedRow {
    /// 1-based physical line number in the source CSV.
    pub line: usize,
    /// Why the row was rejected.
    pub reason: String,
}

/// Outcome of an ingestion run.
#[derive(Debug)]
pub struct IngestReport {
    /// Metadata of the finalized store.
    pub meta: StoreMeta,
    /// Rows written to the store.
    pub rows_written: u64,
    /// Rows skipped as malformed.
    pub rows_quarantined: u64,
    /// Class names in intern order (index = stored `u16` label).
    pub class_names: Vec<String>,
    /// First [`QUARANTINE_DETAIL_CAP`] quarantined rows.
    pub quarantined: Vec<QuarantinedRow>,
    /// Path of the sidecar report, when any rows were quarantined.
    pub sidecar: Option<PathBuf>,
}

/// Streams a CSV file into a `.cnds` store at `store_path`.
///
/// # Errors
///
/// * [`DatasetError::Io`] on filesystem failures.
/// * [`DatasetError::Parse`] when no valid data row exists at all.
/// * [`DatasetError::Storage`] when the store cannot be written.
pub fn ingest_csv_to_store(
    csv_path: impl AsRef<Path>,
    store_path: impl AsRef<Path>,
    options: &IngestOptions,
) -> Result<IngestReport, DatasetError> {
    let file = std::fs::File::open(csv_path.as_ref())?;
    ingest_csv_from(std::io::BufReader::new(file), store_path, options)
}

/// Streams CSV rows from any [`BufRead`] source into a `.cnds` store.
///
/// See [`ingest_csv_to_store`].
pub fn ingest_csv_from<R: BufRead>(
    reader: R,
    store_path: impl AsRef<Path>,
    options: &IngestOptions,
) -> Result<IngestReport, DatasetError> {
    let store_path = store_path.as_ref();
    let _span = cnd_obs::span!("ingest.csv");
    let mut labels = LabelMap::new();
    let mut width: Option<usize> = None;
    let mut writer: Option<StoreWriter> = None;
    let mut rows_written = 0u64;
    let mut quarantined_all: Vec<QuarantinedRow> = Vec::new();

    for (line_no, line) in reader.lines().enumerate() {
        let line = line?;
        let human_line = line_no + 1;
        if line_no == 0 && options.has_header {
            continue;
        }
        let Some(fields) = split_fields(&line, line_no == 0) else {
            continue;
        };
        let quarantine = |reason: String, q: &mut Vec<QuarantinedRow>| {
            q.push(QuarantinedRow {
                line: human_line,
                reason,
            });
        };
        if fields.len() < 2 {
            quarantine(
                "need at least one feature and a label".into(),
                &mut quarantined_all,
            );
            continue;
        }
        let (feat_fields, label_field) = fields.split_at(fields.len() - 1);
        if let Some(w) = width {
            if feat_fields.len() != w {
                quarantine(
                    format!("expected {w} features, found {}", feat_fields.len()),
                    &mut quarantined_all,
                );
                continue;
            }
        }
        let row = match parse_features(feat_fields, human_line) {
            Ok(r) => r,
            Err(DatasetError::Parse { message, .. }) => {
                quarantine(message, &mut quarantined_all);
                continue;
            }
            Err(e) => return Err(e),
        };
        if let Some(bad) = row.iter().find(|v| !v.is_finite()) {
            quarantine(format!("non-finite feature {bad}"), &mut quarantined_all);
            continue;
        }
        let cls = labels.intern(label_field[0]);
        let Ok(label) = u16::try_from(cls) else {
            quarantine(
                format!("class index {cls} exceeds the u16 label width"),
                &mut quarantined_all,
            );
            continue;
        };
        // First valid row fixes the schema and opens the store.
        if width.is_none() {
            width = Some(row.len());
            writer = Some(StoreWriter::create(
                store_path,
                row.len(),
                options.dtype,
                true,
            )?);
        }
        writer
            .as_mut()
            .expect("writer opened with the first valid row")
            .push_row(&row, Some(label))?;
        rows_written += 1;
    }

    let Some(writer) = writer else {
        return Err(DatasetError::Parse {
            line: 0,
            message: "file contained no valid data rows".into(),
        });
    };
    let meta = writer.finalize()?;

    let rows_quarantined = quarantined_all.len() as u64;
    cnd_obs::counter_add("ingest.rows.count", rows_written);
    cnd_obs::counter_add("ingest.quarantined.count", rows_quarantined);

    let mut sidecar_path = store_path.as_os_str().to_owned();
    sidecar_path.push(".quarantine");
    let sidecar_path = PathBuf::from(sidecar_path);
    let sidecar = if quarantined_all.is_empty() {
        let _ = std::fs::remove_file(&sidecar_path);
        None
    } else {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&sidecar_path)?);
        for q in &quarantined_all {
            writeln!(out, "line {}: {}", q.line, q.reason)?;
        }
        out.flush()?;
        Some(sidecar_path)
    };

    quarantined_all.truncate(QUARANTINE_DETAIL_CAP);
    Ok(IngestReport {
        meta,
        rows_written,
        rows_quarantined,
        class_names: labels.into_names(),
        quarantined: quarantined_all,
        sidecar,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnd_store::FlowStore;
    use std::io::Cursor;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static CASE: AtomicU64 = AtomicU64::new(0);

    fn tmp_store_path() -> PathBuf {
        std::env::temp_dir().join(format!(
            "cnd_ingest_{}_{}.cnds",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn ingest(csv: &str, opts: &IngestOptions) -> (Result<IngestReport, DatasetError>, PathBuf) {
        let path = tmp_store_path();
        let r = ingest_csv_from(Cursor::new(csv.to_string()), &path, opts);
        (r, path)
    }

    #[test]
    fn clean_csv_round_trips_through_store() {
        let csv = "\u{feff}f1,f2,label\r\n1.5,2.5,benign\r\n3.0,4.0,dos\r\n5.0,6.0,dos,\r\n";
        let (r, path) = ingest(csv, &IngestOptions::default());
        let report = r.unwrap();
        assert_eq!(report.rows_written, 3);
        assert_eq!(report.rows_quarantined, 0);
        assert_eq!(report.class_names, vec!["normal", "dos"]);
        assert!(report.sidecar.is_none());

        let store = FlowStore::open(&path).unwrap();
        assert_eq!(store.len(), 3);
        let chunk = store.read_rows(0, 3).unwrap();
        assert_eq!(chunk.rows.row(0), &[1.5, 2.5]);
        assert_eq!(chunk.rows.row(2), &[5.0, 6.0]);
        assert_eq!(chunk.labels, vec![0, 1, 1]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ingested_labels_match_in_memory_loader() {
        let csv = "1,2,normal\n3,4,a_x\n5,6,b_y\n7,8,a_x\n";
        let (r, path) = ingest(
            csv,
            &IngestOptions {
                has_header: false,
                ..IngestOptions::default()
            },
        );
        let report = r.unwrap();
        let in_memory =
            crate::loader::read_csv_from(Cursor::new(csv.to_string()), false, "m".into()).unwrap();
        assert_eq!(report.class_names, in_memory.class_names);
        let chunk = FlowStore::open(&path).unwrap().read_rows(0, 4).unwrap();
        let stored: Vec<usize> = chunk.labels.iter().map(|&l| l as usize).collect();
        assert_eq!(stored, in_memory.class);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_rows_are_quarantined_with_line_numbers() {
        let csv = "f1,f2,label\n\
                   1.0,2.0,benign\n\
                   oops,2.0,dos\n\
                   3.0,4.0\n\
                   5.0,NaN,dos\n\
                   6.0,7.0,8.0,dos\n\
                   9.0,10.0,scan\n";
        let (r, path) = ingest(csv, &IngestOptions::default());
        let report = r.unwrap();
        assert_eq!(report.rows_written, 2);
        assert_eq!(report.rows_quarantined, 4);
        let lines: Vec<usize> = report.quarantined.iter().map(|q| q.line).collect();
        assert_eq!(lines, vec![3, 4, 5, 6]);
        assert!(report.quarantined[0].reason.contains("non-numeric"));
        assert!(report.quarantined[2].reason.contains("non-finite"));
        assert!(report.quarantined[3].reason.contains("expected 2 features"));

        let sidecar = report.sidecar.as_ref().expect("sidecar written");
        let text = std::fs::read_to_string(sidecar).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text.contains("line 3:"));

        assert_eq!(FlowStore::open(&path).unwrap().len(), 2);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(sidecar);
    }

    #[test]
    fn all_bad_rows_is_an_error_and_leaves_no_store() {
        let (r, path) = ingest("f1,f2,label\nx,y,z\n", &IngestOptions::default());
        assert!(matches!(r, Err(DatasetError::Parse { .. })));
        assert!(!path.exists(), "no store file for an all-bad input");
    }

    #[test]
    fn f32_ingest_narrows_features() {
        let (r, path) = ingest(
            "0.1,0.2,benign\n",
            &IngestOptions {
                has_header: false,
                dtype: DType::F32,
            },
        );
        r.unwrap();
        let chunk = FlowStore::open(&path).unwrap().read_rows(0, 1).unwrap();
        assert_eq!(chunk.rows.row(0), &[f64::from(0.1f32), f64::from(0.2f32)]);
        let _ = std::fs::remove_file(&path);
    }
}
