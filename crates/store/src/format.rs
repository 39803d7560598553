//! Binary layout of the `.cnds` flow-record format, version 1.
//!
//! ```text
//! header — 24 bytes
//!   0..8    magic           b"CNDSTOR1" (version baked into the magic)
//!   8       dtype           0 = f64, 1 = f32 (feature storage width)
//!   9       label width     0 = unlabelled, 2 = u16 class id per row
//!   10..12  reserved        must be zero
//!   12..16  dim             u32 LE, features per row (1 ..= MAX_DIM)
//!   16..24  count           u64 LE, rows (patched in place at finalize)
//! payload — count × stride bytes, stride = dim · dsize + label width
//!   each row: dim little-endian IEEE-754 features, then the label
//! footer — 20 bytes
//!   0..4    crc32           u32 LE, IEEE CRC-32 of the payload bytes
//!   4..12   count           u64 LE, must equal the header count
//!   12..20  end magic       b"CND_END1"
//! ```
//!
//! All multi-byte integers are little-endian; features are raw IEEE-754
//! bits, so f64 round trips are bitwise lossless. The row count appears
//! twice (header and footer) so a truncated-and-refilled file cannot
//! masquerade as complete, and the footer CRC covers every payload byte.

use crate::StoreError;

/// File magic; the trailing `1` is the format version.
pub(crate) const MAGIC: &[u8; 8] = b"CNDSTOR1";
/// Footer end marker.
pub(crate) const END_MAGIC: &[u8; 8] = b"CND_END1";
/// Fixed header length in bytes.
pub const HEADER_LEN: u64 = 24;
/// Fixed footer length in bytes.
pub const FOOTER_LEN: u64 = 20;
/// Byte offset of the row-count field inside the header.
pub(crate) const COUNT_OFFSET: u64 = 16;
/// Dimension cap for hostile inputs (matches the deploy-format caps: a
/// row wider than this is an attack or a bug, not traffic).
pub const MAX_DIM: usize = 1 << 16;

/// Feature storage width of a store file.
///
/// Compute in this workspace is f64 end to end; `F32` halves the disk
/// footprint for archival mirrors at the cost of a lossy narrow on
/// write. Readers always widen to f64.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DType {
    /// 8-byte features; write→read round trips are bitwise lossless.
    F64,
    /// 4-byte features; writes narrow with `as f32`, reads widen exactly.
    F32,
}

impl DType {
    /// Bytes per feature.
    pub fn size(self) -> usize {
        match self {
            DType::F64 => 8,
            DType::F32 => 4,
        }
    }

    pub(crate) fn code(self) -> u8 {
        match self {
            DType::F64 => 0,
            DType::F32 => 1,
        }
    }

    pub(crate) fn from_code(c: u8) -> Result<Self, StoreError> {
        match c {
            0 => Ok(DType::F64),
            1 => Ok(DType::F32),
            other => Err(StoreError::Format(format!("unknown dtype code {other}"))),
        }
    }
}

/// Shape and layout facts for one store file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreMeta {
    /// Features per row.
    pub dim: usize,
    /// Rows in the store.
    pub count: u64,
    /// Feature storage width.
    pub dtype: DType,
    /// Whether each row carries a u16 class label.
    pub labelled: bool,
}

impl StoreMeta {
    /// Bytes per row (features plus optional label).
    pub fn stride(&self) -> usize {
        self.dim * self.dtype.size() + if self.labelled { 2 } else { 0 }
    }

    /// Serializes the 24-byte header.
    pub(crate) fn encode_header(&self) -> [u8; HEADER_LEN as usize] {
        let mut h = [0u8; HEADER_LEN as usize];
        h[0..8].copy_from_slice(MAGIC);
        h[8] = self.dtype.code();
        h[9] = if self.labelled { 2 } else { 0 };
        h[12..16].copy_from_slice(&(self.dim as u32).to_le_bytes());
        h[16..24].copy_from_slice(&self.count.to_le_bytes());
        h
    }

    /// Parses and validates a 24-byte header.
    pub(crate) fn decode_header(h: &[u8; HEADER_LEN as usize]) -> Result<Self, StoreError> {
        if &h[0..8] != MAGIC {
            return Err(StoreError::Format(
                "bad magic (not a cnd-store v1 file)".into(),
            ));
        }
        let dtype = DType::from_code(h[8])?;
        let labelled = match h[9] {
            0 => false,
            2 => true,
            w => return Err(StoreError::Format(format!("unsupported label width {w}"))),
        };
        if h[10] != 0 || h[11] != 0 {
            return Err(StoreError::Format("reserved header bytes set".into()));
        }
        let dim = u32::from_le_bytes(h[12..16].try_into().expect("4 bytes")) as usize;
        if dim == 0 || dim > MAX_DIM {
            return Err(StoreError::Format(format!(
                "dimension {dim} outside 1..={MAX_DIM}"
            )));
        }
        let count = u64::from_le_bytes(h[16..24].try_into().expect("8 bytes"));
        Ok(StoreMeta {
            dim,
            count,
            dtype,
            labelled,
        })
    }

    /// Serializes the 20-byte footer for a payload digest.
    pub(crate) fn encode_footer(&self, crc: u32) -> [u8; FOOTER_LEN as usize] {
        let mut f = [0u8; FOOTER_LEN as usize];
        f[0..4].copy_from_slice(&crc.to_le_bytes());
        f[4..12].copy_from_slice(&self.count.to_le_bytes());
        f[12..20].copy_from_slice(END_MAGIC);
        f
    }

    /// Parses a footer, returning the stored payload CRC after checking
    /// the end marker and the header/footer count agreement.
    pub(crate) fn decode_footer(&self, f: &[u8; FOOTER_LEN as usize]) -> Result<u32, StoreError> {
        if &f[12..20] != END_MAGIC {
            return Err(StoreError::Format(
                "missing end marker (truncated or not finalized)".into(),
            ));
        }
        let count = u64::from_le_bytes(f[4..12].try_into().expect("8 bytes"));
        if count != self.count {
            return Err(StoreError::Format(format!(
                "footer row count {count} disagrees with header {}",
                self.count
            )));
        }
        Ok(u32::from_le_bytes(f[0..4].try_into().expect("4 bytes")))
    }
}

/// IEEE CRC-32 (reflected, polynomial `0xEDB88320`) lookup table, built
/// at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Incremental IEEE CRC-32 digest over the row payload.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Crc32 {
    state: u32,
}

impl Crc32 {
    pub(crate) fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        let mut c = self.state;
        for &b in bytes {
            c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    pub(crate) fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Reference digests from the ubiquitous IEEE CRC-32 ("crc32 of
        // '123456789' is 0xCBF43926" is the standard check value).
        let mut c = Crc32::new();
        c.update(b"123456789");
        assert_eq!(c.finish(), 0xCBF4_3926);

        let mut empty = Crc32::new();
        empty.update(b"");
        assert_eq!(empty.finish(), 0);

        // Incremental updates must equal one-shot digests.
        let mut split = Crc32::new();
        split.update(b"1234");
        split.update(b"56789");
        assert_eq!(split.finish(), 0xCBF4_3926);
    }

    #[test]
    fn header_round_trip() {
        for (dtype, labelled) in [(DType::F64, true), (DType::F64, false), (DType::F32, true)] {
            let meta = StoreMeta {
                dim: 42,
                count: 1_000_003,
                dtype,
                labelled,
            };
            let decoded = StoreMeta::decode_header(&meta.encode_header()).unwrap();
            assert_eq!(decoded, meta);
            let crc = meta
                .decode_footer(&meta.encode_footer(0xDEAD_BEEF))
                .unwrap();
            assert_eq!(crc, 0xDEAD_BEEF);
        }
    }

    #[test]
    fn header_rejects_zero_dim_and_bad_magic() {
        let meta = StoreMeta {
            dim: 3,
            count: 0,
            dtype: DType::F64,
            labelled: false,
        };
        let mut h = meta.encode_header();
        h[12..16].copy_from_slice(&0u32.to_le_bytes());
        assert!(StoreMeta::decode_header(&h).is_err());
        let mut h2 = meta.encode_header();
        h2[0] = b'X';
        assert!(StoreMeta::decode_header(&h2).is_err());
        let mut h3 = meta.encode_header();
        h3[10] = 1;
        assert!(StoreMeta::decode_header(&h3).is_err());
    }
}
