//! Property tests for the word-at-a-time bit I/O against a naive
//! bit-at-a-time reference: any sequence of variable-width writes must
//! produce the reference byte stream, and reads (in any
//! try_get/peek/try_consume interleaving) must observe the reference bit
//! sequence.

use proptest::prelude::*;
use tmcc_compression::{BitReader, BitWriter};

/// Reference writer: collects individual bits, packs MSB-first with
/// low-bit zero padding — the stream format definition, executed one bit
/// at a time.
#[derive(Default)]
struct NaiveWriter {
    bits: Vec<bool>,
}

impl NaiveWriter {
    fn put(&mut self, value: u64, n: u32) {
        for i in (0..n).rev() {
            self.bits.push((value >> i) & 1 != 0);
        }
    }

    fn into_bytes(self) -> Vec<u8> {
        let mut out = vec![0u8; self.bits.len().div_ceil(8)];
        for (i, &bit) in self.bits.iter().enumerate() {
            if bit {
                out[i / 8] |= 1 << (7 - i % 8);
            }
        }
        out
    }
}

/// A write plan: (value, width) pairs with widths over the full 0..=64
/// range, biased toward the small widths codecs actually use (the raw
/// 0..=20 range maps its tail onto the wide widths, including the >56
/// accumulator-split path).
fn arb_writes() -> impl Strategy<Value = Vec<(u64, u32)>> {
    let width = (0u32..=20).prop_map(|w| match w {
        0..=16 => w,
        17 => 24,
        18 => 47,
        19 => 57,
        _ => 64,
    });
    prop::collection::vec((any::<u64>(), width), 0..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn writer_matches_naive_reference(writes in arb_writes()) {
        let mut w = BitWriter::new();
        let mut naive = NaiveWriter::default();
        for &(value, n) in &writes {
            w.put(value, n);
            let masked = if n == 64 { value } else { value & ((1u64 << n) - 1) };
            naive.put(masked, n);
        }
        let total: usize = writes.iter().map(|&(_, n)| n as usize).sum();
        prop_assert_eq!(w.len_bits(), total);
        prop_assert_eq!(w.into_bytes(), naive.into_bytes());
    }

    #[test]
    fn reader_round_trips_written_fields(writes in arb_writes()) {
        let mut w = BitWriter::new();
        for &(value, n) in &writes {
            w.put(value, n);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &(value, n) in &writes {
            let masked = if n == 64 { value } else { value & ((1u64 << n) - 1) };
            prop_assert_eq!(r.try_get(n, "field"), Ok(masked), "width {}", n);
        }
    }

    #[test]
    fn peek_consume_agrees_with_get(bytes in prop::collection::vec(any::<u8>(), 0..64),
                                    widths in prop::collection::vec(1u32..=24, 1..40)) {
        // Drive two readers over the same bytes: one with try_get(), one
        // with peek()+try_consume(); both must see identical fields, peek
        // must zero-pad past the end instead of panicking, and a read past
        // the end is an error on both.
        let mut getter = BitReader::new(&bytes);
        let mut peeker = BitReader::new(&bytes);
        let mut remaining = bytes.len() * 8;
        for &n in &widths {
            let seen = peeker.peek(n);
            if (n as usize) > remaining {
                let tail = peeker.peek(remaining as u32);
                prop_assert_eq!(seen, tail << (n - remaining as u32));
                prop_assert!(getter.try_get(n, "field").is_err());
                prop_assert!(peeker.try_consume(n, "field").is_err());
                break;
            }
            prop_assert_eq!(getter.try_get(n, "field"), Ok(seen), "width {}", n);
            prop_assert_eq!(peeker.try_consume(n, "field"), Ok(()));
            prop_assert_eq!(getter.pos_bits(), peeker.pos_bits());
            remaining -= n as usize;
        }
    }
}
