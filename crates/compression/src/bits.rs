//! MSB-first bit-granular writer/reader used by the bit-packed codecs
//! (BPC, CPack) and by the Deflate implementation downstream.
//!
//! Both sides run on a 64-bit accumulator with byte-granular flush/refill
//! instead of per-bit loops, so every `put`/`try_get` is O(1) in the number
//! of *calls*, not bits. Reads are fallible: running past the end of the
//! stream is a [`CodecError::UnexpectedEnd`], never a panic. The stream
//! format is unchanged: the first bit written is the most significant bit
//! of the first byte, and the final partial byte is zero-padded in its
//! low bits.
//!
//! Invariants (relied on by the Huffman decode tables in `tmcc-deflate`):
//!
//! * `BitWriter` keeps fewer than 8 pending bits in its accumulator — all
//!   whole bytes are flushed eagerly, and the pending bits are the *low*
//!   bits of the accumulator with all higher bits zero.
//! * `BitReader::peek` returns the next `n` bits zero-padded past the end
//!   of the stream without advancing, so a table lookup may safely read
//!   more bits than the code it resolves actually consumes.

use crate::error::CodecError;

/// Bit mask with the low `n` bits set (`n <= 64`).
#[inline]
fn mask(n: u32) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Writes an MSB-first bit stream into a growing byte vector.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Pending bits, right-aligned; always fewer than 8, higher bits zero.
    acc: u64,
    /// Number of valid bits in `acc` (0..=7).
    acc_bits: u32,
    /// Number of valid bits in the stream.
    len_bits: usize,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer whose byte buffer has room for `bytes`
    /// bytes before reallocating.
    pub fn with_capacity(bytes: usize) -> Self {
        Self { bytes: Vec::with_capacity(bytes), acc: 0, acc_bits: 0, len_bits: 0 }
    }

    /// Resets the writer to empty, keeping the allocated buffer.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.acc = 0;
        self.acc_bits = 0;
        self.len_bits = 0;
    }

    /// Number of bits written so far.
    pub fn len_bits(&self) -> usize {
        self.len_bits
    }

    /// Appends the low `n` bits of `value`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    #[inline]
    pub fn put(&mut self, value: u64, n: u32) {
        assert!(n <= 64, "cannot write more than 64 bits at once");
        if n == 0 {
            return;
        }
        // The accumulator holds at most 7 pending bits, so up to 56 more
        // fit without overflow; split wider writes once.
        if n > 56 {
            self.put(value >> 32, n - 32);
            self.put(value & mask(32), 32);
            return;
        }
        self.acc = (self.acc << n) | (value & mask(n));
        self.acc_bits += n;
        self.len_bits += n as usize;
        while self.acc_bits >= 8 {
            self.acc_bits -= 8;
            self.bytes.push((self.acc >> self.acc_bits) as u8);
        }
        self.acc &= mask(self.acc_bits);
    }

    /// Finishes the stream, returning the padded bytes.
    pub fn into_bytes(mut self) -> Vec<u8> {
        if self.acc_bits > 0 {
            self.bytes.push((self.acc << (8 - self.acc_bits)) as u8);
        }
        self.bytes
    }

    /// The stream length rounded up to whole bytes.
    pub fn len_bytes(&self) -> usize {
        self.len_bits.div_ceil(8)
    }
}

/// Reads an MSB-first bit stream produced by [`BitWriter`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next byte to pull into the accumulator.
    byte_pos: usize,
    /// Refilled bits, right-aligned: the next stream bit is bit
    /// `acc_bits - 1` of `acc`.
    acc: u64,
    /// Number of valid bits in `acc`.
    acc_bits: u32,
}

impl<'a> BitReader<'a> {
    /// Wraps a byte slice for reading.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, byte_pos: 0, acc: 0, acc_bits: 0 }
    }

    /// Pulls whole bytes into the accumulator while at least 8 bits of
    /// room remain.
    #[inline]
    fn refill(&mut self) {
        while self.acc_bits <= 56 && self.byte_pos < self.bytes.len() {
            self.acc = (self.acc << 8) | self.bytes[self.byte_pos] as u64;
            self.byte_pos += 1;
            self.acc_bits += 8;
        }
    }

    /// Reads `n` bits, most significant first, or returns
    /// [`CodecError::UnexpectedEnd`] when fewer than `n` bits remain.
    /// `context` names the decoder stage for the error.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64` (a caller bug, not a data property).
    #[inline]
    pub fn try_get(&mut self, n: u32, context: &'static str) -> Result<u64, CodecError> {
        assert!(n <= 64, "cannot read more than 64 bits at once");
        if n == 0 {
            return Ok(0);
        }
        if n > 56 {
            let hi = self.try_get(n - 32, context)?;
            return Ok((hi << 32) | self.try_get(32, context)?);
        }
        if self.acc_bits < n {
            self.refill();
            if self.acc_bits < n {
                return Err(CodecError::UnexpectedEnd { context });
            }
        }
        self.acc_bits -= n;
        Ok((self.acc >> self.acc_bits) & mask(n))
    }

    /// Reads one bit, or returns [`CodecError::UnexpectedEnd`] at the end
    /// of the stream.
    #[inline]
    pub fn try_get_bit(&mut self, context: &'static str) -> Result<bool, CodecError> {
        Ok(self.try_get(1, context)? != 0)
    }

    /// Returns the next `n <= 56` bits without advancing, zero-padded if
    /// fewer remain — the lookup key for table-driven Huffman decoding.
    ///
    /// # Panics
    ///
    /// Panics if `n > 56`.
    #[inline]
    pub fn peek(&mut self, n: u32) -> u64 {
        assert!(n <= 56, "cannot peek more than 56 bits");
        if self.acc_bits < n {
            self.refill();
        }
        if self.acc_bits >= n {
            (self.acc >> (self.acc_bits - n)) & mask(n)
        } else {
            (self.acc << (n - self.acc_bits)) & mask(n)
        }
    }

    /// Advances past `n` bits previously observed via [`peek`](Self::peek).
    /// A corrupt stream can resolve a symbol off `peek`'s zero padding
    /// whose code is longer than the bits actually left; that surfaces
    /// here as [`CodecError::UnexpectedEnd`].
    #[inline]
    pub fn try_consume(&mut self, n: u32, context: &'static str) -> Result<(), CodecError> {
        if self.acc_bits < n {
            self.refill();
            if self.acc_bits < n {
                return Err(CodecError::UnexpectedEnd { context });
            }
        }
        self.acc_bits -= n;
        self.acc &= mask(self.acc_bits);
        Ok(())
    }

    /// Bits remaining (counting byte padding).
    pub fn remaining_bits(&self) -> usize {
        (self.bytes.len() - self.byte_pos) * 8 + self.acc_bits as usize
    }

    /// Current read position in bits.
    pub fn pos_bits(&self) -> usize {
        self.byte_pos * 8 - self.acc_bits as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CTX: &str = "test";

    #[test]
    fn round_trip_mixed_widths() {
        let mut w = BitWriter::new();
        w.put(0b101, 3);
        w.put(0xdead, 16);
        w.put(1, 1);
        w.put(0x1234_5678_9abc_def0, 64);
        let bits = w.len_bits();
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.try_get(3, CTX), Ok(0b101));
        assert_eq!(r.try_get(16, CTX), Ok(0xdead));
        assert_eq!(r.try_get_bit(CTX), Ok(true));
        assert_eq!(r.try_get(64, CTX), Ok(0x1234_5678_9abc_def0));
        assert_eq!(r.pos_bits(), bits);
    }

    #[test]
    fn reads_past_the_end_are_typed_errors() {
        let mut r = BitReader::new(&[0xff]);
        assert_eq!(r.try_get(9, CTX), Err(CodecError::UnexpectedEnd { context: CTX }));
        assert_eq!(r.try_get(8, CTX), Ok(0xff));
        assert_eq!(r.try_get_bit(CTX), Err(CodecError::UnexpectedEnd { context: CTX }));
        assert_eq!(r.try_consume(1, CTX), Err(CodecError::UnexpectedEnd { context: CTX }));
    }

    #[test]
    fn zero_width_write_is_noop() {
        let mut w = BitWriter::new();
        w.put(0xffff, 0);
        assert_eq!(w.len_bits(), 0);
        assert!(w.into_bytes().is_empty());
    }

    #[test]
    fn len_bytes_rounds_up() {
        let mut w = BitWriter::new();
        w.put(0b1, 1);
        assert_eq!(w.len_bytes(), 1);
        w.put(0xff, 8);
        assert_eq!(w.len_bytes(), 2);
    }

    #[test]
    fn high_bits_above_width_are_ignored() {
        let mut w = BitWriter::new();
        w.put(u64::MAX, 3);
        w.put(u64::MAX, 60);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.try_get(3, CTX), Ok(0b111));
        assert_eq!(r.try_get(60, CTX), Ok(mask(60)));
    }

    #[test]
    fn peek_does_not_advance_and_pads_past_end() {
        let mut r = BitReader::new(&[0b1010_1100, 0b1111_0000]);
        assert_eq!(r.peek(4), 0b1010);
        assert_eq!(r.peek(12), 0b1010_1100_1111);
        assert_eq!(r.try_get(4, CTX), Ok(0b1010));
        // 12 bits remain; peeking 20 pads with zeros.
        assert_eq!(r.peek(20), 0b1100_1111_0000 << 8);
        r.try_consume(12, CTX).unwrap();
        assert_eq!(r.remaining_bits(), 0);
        assert_eq!(r.peek(8), 0);
    }

    #[test]
    fn clear_resets_pending_bits() {
        let mut w = BitWriter::new();
        w.put(0b11, 2);
        w.clear();
        w.put(0, 1);
        w.put(0b1, 1);
        assert_eq!(w.into_bytes(), vec![0b0100_0000]);
    }
}
