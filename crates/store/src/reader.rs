//! Random-access and sequential readers for `.cnds` stores.

use crate::format::{Crc32, FOOTER_LEN, HEADER_LEN};
use crate::{DType, StoreError, StoreMeta};
use cnd_linalg::{Matrix, MatrixRef};
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// One bounded slab of rows decoded from a store.
///
/// The chunk **owns** its rows (an iterator cannot lend borrowed
/// [`MatrixRef`]s across `next` calls); [`view`](RowChunk::view) exposes
/// the borrowed form the linalg kernels consume. `labels` is empty for
/// unlabelled stores, else one `u16` class id per row. Features read
/// from an f32 store are widened exactly to f64.
#[derive(Debug, Clone, PartialEq)]
pub struct RowChunk {
    /// Decoded feature rows.
    pub rows: Matrix,
    /// Per-row class ids (empty when the store is unlabelled).
    pub labels: Vec<u16>,
    /// Absolute index of the first row within the store.
    pub start: u64,
}

impl RowChunk {
    /// Borrowed view of the feature rows.
    pub fn view(&self) -> MatrixRef<'_> {
        MatrixRef::from_slice(self.rows.rows(), self.rows.cols(), self.rows.as_slice())
    }

    /// Number of rows in the slab.
    pub fn len(&self) -> usize {
        self.rows.rows()
    }

    /// True when the slab holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.rows() == 0
    }
}

/// Decodes `rows` rows of raw payload into a [`RowChunk`].
fn decode_rows(
    bytes: &[u8],
    meta: &StoreMeta,
    rows: usize,
    start: u64,
) -> Result<RowChunk, StoreError> {
    debug_assert_eq!(bytes.len(), rows * meta.stride());
    let fsize = meta.dtype.size();
    let stride = meta.stride();
    let mut data = Vec::with_capacity(rows * meta.dim);
    let mut labels = Vec::with_capacity(if meta.labelled { rows } else { 0 });
    for r in 0..rows {
        let row = &bytes[r * stride..(r + 1) * stride];
        match meta.dtype {
            DType::F64 => {
                for c in 0..meta.dim {
                    let b = row[c * 8..c * 8 + 8].try_into().expect("8 bytes");
                    data.push(f64::from_le_bytes(b));
                }
            }
            DType::F32 => {
                for c in 0..meta.dim {
                    let b = row[c * 4..c * 4 + 4].try_into().expect("4 bytes");
                    data.push(f64::from(f32::from_le_bytes(b)));
                }
            }
        }
        if meta.labelled {
            let b = row[meta.dim * fsize..meta.dim * fsize + 2]
                .try_into()
                .expect("2 bytes");
            labels.push(u16::from_le_bytes(b));
        }
    }
    let rows = Matrix::from_vec(rows, meta.dim, data)
        .map_err(|e| StoreError::Format(format!("row decode: {e}")))?;
    Ok(RowChunk {
        rows,
        labels,
        start,
    })
}

/// Reads and validates the header + structural facts of a store file,
/// returning its metadata. Shared by [`FlowStore::open`] and
/// [`ChunkIter::open`].
fn open_validated(path: &Path) -> Result<(File, StoreMeta), StoreError> {
    let mut file = File::open(path)?;
    let file_len = file.metadata()?.len();
    if file_len < HEADER_LEN + FOOTER_LEN {
        return Err(StoreError::Format(format!(
            "file is {file_len} bytes, smaller than header + footer"
        )));
    }
    let mut h = [0u8; HEADER_LEN as usize];
    file.read_exact(&mut h)?;
    let meta = StoreMeta::decode_header(&h)?;
    let stride = meta.stride() as u64;
    let expected = meta
        .count
        .checked_mul(stride)
        .and_then(|payload| payload.checked_add(HEADER_LEN + FOOTER_LEN))
        .ok_or_else(|| {
            StoreError::Format(format!(
                "header promises {} rows of {stride} bytes, more than a file can hold",
                meta.count
            ))
        })?;
    if file_len != expected {
        return Err(StoreError::Format(format!(
            "file is {file_len} bytes, header promises {expected} ({} rows of {stride} bytes)",
            meta.count
        )));
    }
    // Footer structure (end marker + count agreement) is part of opening;
    // the payload CRC is only verified by a full sequential pass.
    file.seek(SeekFrom::Start(HEADER_LEN + meta.count * stride))?;
    let mut f = [0u8; FOOTER_LEN as usize];
    file.read_exact(&mut f)?;
    meta.decode_footer(&f)?;
    Ok((file, meta))
}

/// Random-access reader over a finalized `.cnds` store.
///
/// Opening validates the header, the exact file size implied by the row
/// count, and the footer's end marker + count agreement — but **not**
/// the payload CRC, which would cost a full scan; use
/// [`verify_crc`](FlowStore::verify_crc) or a [`chunks`](FlowStore::chunks)
/// pass for that. Indexed reads ([`read_rows`](FlowStore::read_rows))
/// serve experience slicing without loading the rest of the file.
#[derive(Debug)]
pub struct FlowStore {
    file: Mutex<File>,
    path: PathBuf,
    meta: StoreMeta,
}

impl FlowStore {
    /// Opens and structurally validates a store file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let (file, meta) = open_validated(&path)?;
        cnd_obs::counter_add("store.open.count", 1);
        Ok(FlowStore {
            file: Mutex::new(file),
            path,
            meta,
        })
    }

    /// Shape and layout of the store.
    pub fn meta(&self) -> &StoreMeta {
        &self.meta
    }

    /// Number of rows.
    pub fn len(&self) -> u64 {
        self.meta.count
    }

    /// True when the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.meta.count == 0
    }

    /// Path the store was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads rows `start .. start + len` into one owned chunk.
    pub fn read_rows(&self, start: usize, len: usize) -> Result<RowChunk, StoreError> {
        let end = start
            .checked_add(len)
            .ok_or_else(|| StoreError::Usage("row range overflows".into()))?;
        if (end as u64) > self.meta.count {
            return Err(StoreError::Usage(format!(
                "rows {start}..{end} out of range for {} rows",
                self.meta.count
            )));
        }
        let stride = self.meta.stride();
        let mut bytes = vec![0u8; len * stride];
        {
            let mut file = self.file.lock().expect("store file lock");
            file.seek(SeekFrom::Start(HEADER_LEN + (start * stride) as u64))?;
            file.read_exact(&mut bytes)?;
        }
        cnd_obs::counter_add("store.rows.read.count", len as u64);
        decode_rows(&bytes, &self.meta, len, start as u64)
    }

    /// Sequential chunked pass over the whole store with an independent
    /// file cursor; the final chunk fails if the payload CRC disagrees
    /// with the footer.
    pub fn chunks(&self, chunk_rows: usize) -> Result<ChunkIter, StoreError> {
        ChunkIter::open(&self.path, chunk_rows)
    }

    /// Full sequential pass that discards rows and returns the payload
    /// digest check result.
    pub fn verify_crc(&self) -> Result<(), StoreError> {
        for chunk in self.chunks(crate::default_chunk_rows())? {
            chunk?;
        }
        Ok(())
    }
}

/// Buffered sequential reader yielding bounded [`RowChunk`] slabs.
///
/// Maintains a running CRC-32 over the payload; after the last row it
/// compares against the footer digest and yields a final
/// [`StoreError::Corrupt`] on mismatch, so a consumer that drains the
/// iterator cannot silently train on flipped bits. The iterator is
/// fused: after the end (or an error) it stays `None`.
#[derive(Debug)]
pub struct ChunkIter {
    reader: BufReader<File>,
    meta: StoreMeta,
    chunk_rows: usize,
    next_row: u64,
    crc: Crc32,
    done: bool,
    /// Raw payload of the chunk being decoded, kept across chunks so a
    /// pass allocates it once.
    raw: Vec<u8>,
}

impl ChunkIter {
    /// Opens a sequential pass over `path` in slabs of `chunk_rows`.
    pub fn open(path: impl AsRef<Path>, chunk_rows: usize) -> Result<Self, StoreError> {
        if chunk_rows == 0 {
            return Err(StoreError::Usage("chunk_rows must be positive".into()));
        }
        let (mut file, meta) = open_validated(path.as_ref())?;
        file.seek(SeekFrom::Start(HEADER_LEN))?;
        Ok(ChunkIter {
            reader: BufReader::new(file),
            meta,
            chunk_rows,
            next_row: 0,
            crc: Crc32::new(),
            done: false,
            raw: Vec::new(),
        })
    }

    /// Shape of the underlying store.
    pub fn meta(&self) -> &StoreMeta {
        &self.meta
    }

    fn read_next(&mut self) -> Result<Option<RowChunk>, StoreError> {
        if self.next_row == self.meta.count {
            // Payload exhausted: check the digest exactly once.
            let mut f = [0u8; FOOTER_LEN as usize];
            self.reader.read_exact(&mut f)?;
            let stored = self.meta.decode_footer(&f)?;
            let computed = self.crc.finish();
            if computed != stored {
                cnd_obs::counter_add("store.crc_failures.count", 1);
                return Err(StoreError::Corrupt { computed, stored });
            }
            return Ok(None);
        }
        let remaining = self.meta.count - self.next_row;
        let rows = (self.chunk_rows as u64).min(remaining) as usize;
        self.raw.resize(rows * self.meta.stride(), 0);
        self.reader.read_exact(&mut self.raw)?;
        self.crc.update(&self.raw);
        let chunk = decode_rows(&self.raw, &self.meta, rows, self.next_row)?;
        self.next_row += rows as u64;
        cnd_obs::counter_add("store.rows.read.count", rows as u64);
        Ok(Some(chunk))
    }
}

impl Iterator for ChunkIter {
    type Item = Result<RowChunk, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.read_next() {
            Ok(Some(chunk)) => Some(Ok(chunk)),
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}
