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

/// IEEE CRC-32 (reflected, polynomial `0xEDB88320`) slicing tables, built
/// at compile time. `CRC_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC_TABLES[k][i]` is the CRC of byte `i` followed by `k` zero bytes,
/// from the recurrence `t[k][i] = (t[k-1][i] >> 8) ^ t[0][t[k-1][i] & 0xFF]`.
static CRC_TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
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
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// Incremental IEEE CRC-32 digest over the row payload.
///
/// Slicing-by-16: each step folds 16 bytes through sixteen independent
/// table lookups, so the loop is bound by load throughput rather than by
/// one lookup's latency per byte; bytes past the last full 16-byte block
/// take the byte-at-a-time path. The step is 16 bytes because that
/// measured fastest: over a 93.2 MB store, 48 ms against 63 ms for
/// slicing-by-8 and 250 ms byte at a time (2-vCPU Xeon).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Crc32 {
    state: u32,
}

impl Crc32 {
    pub(crate) fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut c = self.state;
        let mut blocks = bytes.chunks_exact(16);
        for b in &mut blocks {
            let w = |j: usize| u32::from_le_bytes([b[j], b[j + 1], b[j + 2], b[j + 3]]);
            let (w0, w1, w2, w3) = (w(0) ^ c, w(4), w(8), w(12));
            c = t[15][(w0 & 0xFF) as usize]
                ^ t[14][((w0 >> 8) & 0xFF) as usize]
                ^ t[13][((w0 >> 16) & 0xFF) as usize]
                ^ t[12][(w0 >> 24) as usize]
                ^ t[11][(w1 & 0xFF) as usize]
                ^ t[10][((w1 >> 8) & 0xFF) as usize]
                ^ t[9][((w1 >> 16) & 0xFF) as usize]
                ^ t[8][(w1 >> 24) as usize]
                ^ t[7][(w2 & 0xFF) as usize]
                ^ t[6][((w2 >> 8) & 0xFF) as usize]
                ^ t[5][((w2 >> 16) & 0xFF) as usize]
                ^ t[4][(w2 >> 24) as usize]
                ^ t[3][(w3 & 0xFF) as usize]
                ^ t[2][((w3 >> 8) & 0xFF) as usize]
                ^ t[1][((w3 >> 16) & 0xFF) as usize]
                ^ t[0][(w3 >> 24) as usize];
        }
        for &b in blocks.remainder() {
            c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
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
    use proptest::prelude::*;

    /// Table-free reference: one polynomial step per bit.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 == 1 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_pinned_digest_through_the_16_byte_path() {
        // 65,537 bytes: 4,096 full 16-byte blocks and a 1-byte tail. The
        // digest was taken from the byte-at-a-time loop and from zlib.
        let payload: Vec<u8> = (0..65_537u32).map(|i| (i % 251) as u8).collect();
        let mut c = Crc32::new();
        c.update(&payload);
        assert_eq!(c.finish(), 0xA9CC_6E73);
        assert_eq!(crc32_bitwise(&payload), 0xA9CC_6E73);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any length (every remainder mod 16) split across one to five
        /// `update` calls digests like the bit-at-a-time reference.
        #[test]
        fn crc32_matches_bitwise_reference(
            bytes in prop::collection::vec(0u8..=255, 0..=4111),
            cuts in prop::collection::vec(0usize..=4111, 0..=4),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|&i| i % (bytes.len() + 1)).collect();
            cuts.sort_unstable();
            cuts.push(bytes.len());
            let mut c = Crc32::new();
            let mut start = 0;
            for cut in cuts {
                c.update(&bytes[start..cut]);
                start = cut;
            }
            prop_assert_eq!(c.finish(), crc32_bitwise(&bytes));
        }
    }

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
