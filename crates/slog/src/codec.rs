//! A small, explicit binary codec.
//!
//! A log must own its on-media format, so records are encoded with this
//! hand-written, length-prefixed, little-endian codec rather than a
//! general-purpose serializer. Decoding is fully bounds-checked: corrupt
//! bytes produce [`CodecError`], never a panic.

use std::fmt;

/// Errors produced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes remained than the read required.
    Truncated { needed: usize, remaining: usize },
    /// A tag byte had no defined meaning at this position.
    BadTag { tag: u8, context: &'static str },
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, remaining } => {
                write!(f, "truncated input: needed {needed} bytes, had {remaining}")
            }
            CodecError::BadTag { tag, context } => write!(f, "bad tag {tag:#04x} in {context}"),
            CodecError::BadUtf8 => write!(f, "invalid utf-8 in string"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Result alias for decoding.
pub type CodecResult<T> = Result<T, CodecError>;

/// Appends primitive values to a growing byte buffer.
///
/// # Examples
///
/// ```
/// use argus_slog::{Decoder, Encoder};
///
/// let mut enc = Encoder::new();
/// enc.put_u64(7);
/// enc.put_str("argus");
/// let bytes = enc.finish();
///
/// let mut dec = Decoder::new(&bytes);
/// assert_eq!(dec.take_u64().unwrap(), 7);
/// assert_eq!(dec.take_str().unwrap(), "argus");
/// assert!(dec.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an encoder with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Wraps an existing buffer, appending after its current contents —
    /// the reusable-arena constructor ([`crate::StableLog::write_with`]
    /// encodes records straight into the log's pending buffer with it,
    /// avoiding a per-record allocation).
    pub fn from_vec(buf: Vec<u8>) -> Self {
        Self { buf }
    }

    /// Consumes the encoder, returning the underlying buffer (pair of
    /// [`Encoder::from_vec`]).
    pub fn into_inner(self) -> Vec<u8> {
        self.buf
    }

    /// Mutable view of the encoded bytes (for backfilling placeholders).
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.buf
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a boolean as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends raw bytes with a `u32` length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a string with a `u32` length prefix.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Appends raw bytes with no prefix (caller knows the length).
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder, returning the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Reads primitive values from a byte slice, bounds-checked.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        let remaining = self.buf.len() - self.pos;
        if n > remaining {
            return Err(CodecError::Truncated {
                needed: n,
                remaining,
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> CodecResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn take_u16(&mut self) -> CodecResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> CodecResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> CodecResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn take_i64(&mut self) -> CodecResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a boolean byte (`0` or `1`).
    pub fn take_bool(&mut self) -> CodecResult<bool> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag {
                tag,
                context: "bool",
            }),
        }
    }

    /// Reads `u32`-length-prefixed bytes.
    pub fn take_bytes(&mut self) -> CodecResult<&'a [u8]> {
        let len = self.take_u32()? as usize;
        self.take(len)
    }

    /// Reads `n` raw bytes with no prefix (pair of [`Encoder::put_raw`];
    /// the zero-copy record views slice fixed-stride arrays out with it).
    pub fn take_raw(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        self.take(n)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> CodecResult<&'a str> {
        std::str::from_utf8(self.take_bytes()?).map_err(|_| CodecError::BadUtf8)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }
}

/// Slice-by-8 tables: `CRC_TABLES[0]` is the classic byte-at-a-time table,
/// `CRC_TABLES[k][b]` the checksum of byte `b` followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3 polynomial), table-driven, eight bytes per step.
///
/// Guards every log record against torn or decayed bytes that slip past the
/// page layer, and the superblock against a half-written root.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_extend(0, data)
}

/// The CRC-32 of `head ‖ data`, given `crc = crc32(head)`: a log frame's
/// checksum covers its payload and then its header words, and the header
/// changes (the end-of-force mark) after the payload has been summed.
pub(crate) fn crc32_extend(crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = crc ^ 0xFFFF_FFFF;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut e = Encoder::new();
        e.put_u8(1);
        e.put_u16(500);
        e.put_u32(70_000);
        e.put_u64(1 << 40);
        e.put_i64(-42);
        e.put_bool(true);
        e.put_bytes(b"bytes");
        e.put_str("string");
        let bytes = e.finish();

        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_u8().unwrap(), 1);
        assert_eq!(d.take_u16().unwrap(), 500);
        assert_eq!(d.take_u32().unwrap(), 70_000);
        assert_eq!(d.take_u64().unwrap(), 1 << 40);
        assert_eq!(d.take_i64().unwrap(), -42);
        assert!(d.take_bool().unwrap());
        assert_eq!(d.take_bytes().unwrap(), b"bytes");
        assert_eq!(d.take_str().unwrap(), "string");
        assert!(d.is_empty());
    }

    #[test]
    fn truncated_reads_error() {
        let mut d = Decoder::new(&[1, 2]);
        assert!(matches!(d.take_u32(), Err(CodecError::Truncated { .. })));
        // Position does not advance past the end on failure.
        assert_eq!(d.take_u16().unwrap(), 0x0201);
    }

    #[test]
    fn bool_rejects_junk() {
        let mut d = Decoder::new(&[7]);
        assert!(matches!(
            d.take_bool(),
            Err(CodecError::BadTag { tag: 7, .. })
        ));
    }

    #[test]
    fn length_prefix_cannot_overread() {
        let mut e = Encoder::new();
        e.put_u32(1000); // claims 1000 bytes
        e.put_raw(b"short");
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(d.take_bytes(), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn bad_utf8_is_an_error() {
        let mut e = Encoder::new();
        e.put_bytes(&[0xFF, 0xFE]);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_str(), Err(CodecError::BadUtf8));
    }

    /// The byte-at-a-time algorithm `crc32` replaced, kept as the oracle.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_known_vector() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_the_bytewise_reference_at_every_length_and_alignment() {
        let mut rng = argus_sim::DetRng::new(0xC4C32);
        let buf: Vec<u8> = (0..1_108).map(|_| rng.gen_range(256) as u8).collect();
        for start in 0..8 {
            for len in 0..=1_100 {
                let data = &buf[start..start + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "start {start}, length {len}"
                );
            }
        }
    }

    #[test]
    fn crc32_extend_continues_a_checksum() {
        let data = b"payload bytes, then the header words";
        for split in [0, 1, 7, 8, 9, data.len()] {
            let (head, tail) = data.split_at(split);
            assert_eq!(crc32_extend(crc32(head), tail), crc32(data), "{split}");
        }
    }

    #[test]
    fn crc32_detects_bit_flips() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worle");
        assert_ne!(a, b);
    }
}
