//! Little-endian wire primitives shared by every KTAU binary format.
//!
//! The `/proc/ktau` profile codec (`KTAU`), the KTAUD delta codec (`KTAD`)
//! and the engine snapshot image (`KTAS`, in `ktau-oskern`) all follow the
//! same discipline: a 4-byte magic, a `u16` version, little-endian scalar
//! fields, length-prefixed strings, and an explicit end-of-input check so a
//! session-less reader never silently accepts trailing garbage.  This module
//! holds the byte-level [`Writer`]/[`Reader`] pair those codecs share, plus
//! the common [`CodecError`] type.

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Missing/incorrect magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Input ended prematurely or contained malformed data.
    Truncated,
    /// A string field was not valid UTF-8 / a field failed to parse.
    BadField(&'static str),
    /// The input decoded completely but unread bytes remained — corrupt or
    /// concatenated data that a session-less reader must not silently accept.
    TrailingBytes,
    /// A delta was applied against the wrong baseline: identity fields
    /// disagree or the reconstruction failed the delta's check digest.
    DeltaMismatch,
    /// A structurally impossible value — e.g. an element count larger than
    /// the bytes left to hold it, or an out-of-range index — in an otherwise
    /// well-framed image.  Distinct from [`CodecError::Truncated`]: the input
    /// is long enough, its *contents* are hostile or corrupt, and the decoder
    /// rejects them before reserving any memory for them.
    Corrupt(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "bad KTAU magic"),
            CodecError::BadVersion(v) => write!(f, "unsupported KTAU binary version {v}"),
            CodecError::Truncated => write!(f, "truncated KTAU data"),
            CodecError::BadField(s) => write!(f, "malformed field: {s}"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after KTAU data"),
            CodecError::DeltaMismatch => write!(f, "delta does not match its baseline"),
            CodecError::Corrupt(s) => write!(f, "corrupt KTAU data: {s}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends little-endian fields to a growable byte buffer.
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::with_capacity(256)
    }
    /// An empty writer with room for `n` bytes before it reallocates.
    pub fn with_capacity(n: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(n),
        }
    }
    /// Appends raw bytes verbatim (magic prefixes, pre-encoded blobs).
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// Appends a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    /// Appends a `u32` length prefix followed by the string's UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    /// Overwrites the `u32` written earlier at byte offset `at` — a count
    /// placeholder, patched once the elements after it are known.
    pub fn set_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }
    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }
    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
    /// The bytes written so far, without consuming the writer.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
    /// Empties the writer, keeping its allocation — scratch-buffer reuse
    /// for encode-heavy loops (e.g. the KTAUD sweep path).
    pub fn clear(&mut self) {
        self.buf.clear();
    }
    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

impl Default for Writer {
    fn default() -> Self {
        Self::new()
    }
}

/// Reads little-endian fields back out of a byte slice, tracking position.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    /// Takes the next `n` raw bytes, failing with [`CodecError::Truncated`]
    /// when fewer remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.pos + n > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }
    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// Reads a bool byte, rejecting anything other than 0 or 1.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::BadField("bool")),
        }
    }
    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        self.str_ref().map(str::to_owned)
    }
    /// [`Reader::str`] borrowing from the input instead of allocating.
    pub fn str_ref(&mut self) -> Result<&'a str, CodecError> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?).map_err(|_| CodecError::BadField("utf8"))
    }
    /// Skips a length-prefixed string, failing exactly as [`Reader::str`]
    /// would.  Short ASCII names — nearly every name — pass a plain ASCII
    /// scan, far cheaper than the general UTF-8 validator's per-call setup.
    pub fn skip_str(&mut self) -> Result<(), CodecError> {
        let n = self.u32()? as usize;
        let b = self.take(n)?;
        if b.is_ascii() || std::str::from_utf8(b).is_ok() {
            Ok(())
        } else {
            Err(CodecError::BadField("utf8"))
        }
    }
    /// Reads a `u32` element count and validates it against the bytes
    /// actually left in the input: each element occupies at least
    /// `min_bytes`, so any count exceeding `remaining / min_bytes` is
    /// structurally impossible and fails with [`CodecError::Corrupt`]
    /// *before* the caller reserves memory for it.
    pub fn counted(&mut self, min_bytes: usize, what: &'static str) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        debug_assert!(min_bytes > 0, "counted() needs a nonzero element size");
        if n > self.remaining() / min_bytes.max(1) {
            return Err(CodecError::Corrupt(what));
        }
        Ok(n)
    }
    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    /// Bytes consumed so far: the offset of the next field.
    pub fn position(&self) -> usize {
        self.pos
    }
    /// Fails with [`CodecError::TrailingBytes`] unless every input byte has
    /// been consumed.  Call this after decoding a complete image.
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.pos != self.buf.len() {
            return Err(CodecError::TrailingBytes);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = Writer::new();
        w.bytes(b"KTAS");
        w.u8(7);
        w.u16(0x1234);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.bool(true);
        w.str("sched/schedule");
        let bytes = w.into_vec();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.take(4).unwrap(), b"KTAS");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "sched/schedule");
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn truncation_and_trailing_are_detected() {
        let mut w = Writer::new();
        w.u64(42);
        let bytes = w.into_vec();

        let mut short = Reader::new(&bytes[..7]);
        assert_eq!(short.u64(), Err(CodecError::Truncated));

        let mut r = Reader::new(&bytes);
        assert_eq!(r.u32().unwrap(), 42);
        assert_eq!(r.expect_end(), Err(CodecError::TrailingBytes));
        assert_eq!(r.remaining(), 4);
    }

    #[test]
    fn bad_bool_rejected() {
        let mut r = Reader::new(&[2]);
        assert_eq!(r.bool(), Err(CodecError::BadField("bool")));
    }
}
