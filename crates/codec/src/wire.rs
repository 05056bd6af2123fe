//! Primitive binary encoding: little-endian fixed-width fields behind a
//! [`Writer`]/[`Reader`] pair.
//!
//! The discipline every decoder in the workspace follows lives here:
//!
//! * **never panic** — a [`Reader`] hands back [`DecodeError`] for any
//!   shortfall instead of indexing out of bounds;
//! * **never allocate on faith** — counts and lengths read from the wire
//!   are checked against [`Reader::remaining`] *before* any allocation
//!   (each encoded element occupies at least one byte, so a count larger
//!   than the bytes left is provably garbage). A hostile length prefix
//!   is an error, not an allocation request.

use std::error::Error;
use std::fmt;

/// A decode failure: the input did not hold a valid encoding.
///
/// All variants are ordinary values — decoding arbitrary bytes returns
/// one of these, it never panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// The input ended before the encoding did.
    Truncated,
    /// A length or count field exceeds the bytes actually present (or a
    /// hard cap), so honoring it would allocate unbounded memory.
    Oversized {
        /// The claimed length or element count.
        claimed: u64,
    },
    /// A field held a value outside its domain (unknown tag, bad UTF-8,
    /// out-of-range integer …).
    Invalid {
        /// Which field was malformed.
        what: &'static str,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "input truncated mid-encoding"),
            DecodeError::Oversized { claimed } => {
                write!(f, "claimed length {claimed} exceeds the available bytes")
            }
            DecodeError::Invalid { what } => write!(f, "invalid field: {what}"),
        }
    }
}

impl Error for DecodeError {}

/// Appends fixed-width little-endian fields to a byte buffer.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// A writer that appends to `buf`, keeping what it holds — how a
    /// caller reuses one buffer's capacity across many encodings.
    pub fn appending_to(buf: Vec<u8>) -> Self {
        Writer { buf }
    }

    /// The bytes written so far.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// How many bytes have been written.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (widths differ across platforms; the
    /// wire form does not).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends raw bytes with no framing (the caller has written the
    /// length, or the field is fixed-width).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed (`u32`) byte string.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.u32(bytes.len() as u32);
        self.raw(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

/// Reads fixed-width little-endian fields off a byte slice, without ever
/// panicking or over-allocating.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// How many bytes remain unread.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes the next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] at end of input.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] when fewer than four bytes remain.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("four bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] when fewer than eight bytes remain.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("eight bytes"),
        ))
    }

    /// Reads a `u64` written by [`Writer::usize`] back into a `usize`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] on short input;
    /// [`DecodeError::Invalid`] when the value does not fit this
    /// platform's `usize`.
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        self.u64()?.try_into().map_err(|_| DecodeError::Invalid {
            what: "usize field",
        })
    }

    /// Reads an element count and vets it against the remaining input:
    /// each element of the collection about to be decoded occupies at
    /// least `min_element_size` bytes, so any count claiming more is
    /// rejected *before* the caller allocates.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] on short input;
    /// [`DecodeError::Oversized`] when the count is provably garbage.
    pub fn count(&mut self, min_element_size: usize) -> Result<usize, DecodeError> {
        let claimed = self.u64()?;
        let fits = usize::try_from(claimed)
            .ok()
            .and_then(|c| c.checked_mul(min_element_size.max(1)))
            .is_some_and(|need| need <= self.remaining());
        if !fits {
            return Err(DecodeError::Oversized { claimed });
        }
        Ok(claimed as usize)
    }

    /// Reads a length-prefixed byte string written by [`Writer::bytes`].
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] on short input;
    /// [`DecodeError::Oversized`] when the prefix claims more bytes than
    /// remain.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(DecodeError::Oversized {
                claimed: len as u64,
            });
        }
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string written by [`Writer::str`].
    ///
    /// # Errors
    ///
    /// As [`Reader::bytes`], plus [`DecodeError::Invalid`] for non-UTF-8
    /// contents.
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| DecodeError::Invalid {
            what: "utf-8 string",
        })
    }

    /// Demands that every byte was consumed — trailing garbage after a
    /// complete encoding is a malformed input, not a success.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Invalid`] when bytes remain.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::Invalid {
                what: "trailing bytes",
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.usize(42);
        w.str("héllo");
        w.bytes(b"");
        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.usize().unwrap(), 42);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), b"");
        assert!(r.finish().is_ok());
    }

    #[test]
    fn truncation_is_an_error_at_every_cut() {
        let mut w = Writer::new();
        w.u64(9);
        w.str("abc");
        let buf = w.into_vec();
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            let decoded = r.u64().and_then(|v| r.str().map(|s| (v, s.to_owned())));
            assert!(decoded.is_err(), "cut at {cut} must not decode");
        }
    }

    #[test]
    fn hostile_counts_and_lengths_do_not_allocate() {
        // A count claiming u64::MAX elements over a 16-byte input.
        let mut w = Writer::new();
        w.u64(u64::MAX);
        w.u64(0);
        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        assert_eq!(
            r.count(1),
            Err(DecodeError::Oversized { claimed: u64::MAX })
        );
        // A string length prefix pointing past the end.
        let mut w = Writer::new();
        w.u32(1000);
        w.raw(b"short");
        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        assert_eq!(r.bytes(), Err(DecodeError::Oversized { claimed: 1000 }));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(
            r.finish(),
            Err(DecodeError::Invalid {
                what: "trailing bytes"
            })
        );
    }
}
