//! Property tests: every block codec must restore any 64-byte block it
//! claims to compress, and size it at exactly the length it encodes it to,
//! across structured and adversarial inputs.

use proptest::prelude::*;
use tmcc_compression::{
    BdiCodec, BestOfCodec, BlockCodec, BpcCodec, CpackCodec, ZeroBlockCodec, BLOCK_SIZE,
};

fn arb_block() -> impl Strategy<Value = [u8; BLOCK_SIZE]> {
    prop::array::uniform32(any::<u8>()).prop_flat_map(|half| {
        prop::array::uniform32(any::<u8>()).prop_map(move |other| {
            let mut out = [0u8; BLOCK_SIZE];
            out[..32].copy_from_slice(&half);
            out[32..].copy_from_slice(&other);
            out
        })
    })
}

/// Blocks of narrow integers with a random stride — the structured case the
/// codecs are built for.
fn arb_strided_block() -> impl Strategy<Value = [u8; BLOCK_SIZE]> {
    (any::<u32>(), 0u32..1024, prop::bool::ANY).prop_map(|(base, stride, wide)| {
        let mut out = [0u8; BLOCK_SIZE];
        if wide {
            for i in 0..8u64 {
                let v = base as u64 + i * stride as u64;
                out[i as usize * 8..][..8].copy_from_slice(&v.to_le_bytes());
            }
        } else {
            for i in 0..16u32 {
                let v = base.wrapping_add(i * stride);
                out[i as usize * 4..][..4].copy_from_slice(&v.to_le_bytes());
            }
        }
        out
    })
}

fn check_round_trip(codec: &dyn BlockCodec, block: &[u8; BLOCK_SIZE]) {
    let out = codec.compress(block);
    let size = out.as_ref().map_or(BLOCK_SIZE, Vec::len);
    assert_eq!(codec.compressed_size(block), size, "{}: size is the encoded length", codec.name());
    if let Some(c) = out {
        assert!(c.len() < BLOCK_SIZE, "{}: compressed output not smaller", codec.name());
        assert_eq!(codec.try_decompress(&c).as_ref(), Ok(block), "{}: round trip", codec.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn bdi_round_trips_random(block in arb_block()) {
        check_round_trip(&BdiCodec::new(), &block);
    }

    #[test]
    fn bpc_round_trips_random(block in arb_block()) {
        check_round_trip(&BpcCodec::new(), &block);
    }

    #[test]
    fn cpack_round_trips_random(block in arb_block()) {
        check_round_trip(&CpackCodec::new(), &block);
    }

    #[test]
    fn zero_round_trips_random(block in arb_block()) {
        check_round_trip(&ZeroBlockCodec::new(), &block);
    }

    #[test]
    fn best_of_round_trips_random(block in arb_block()) {
        check_round_trip(&BestOfCodec::new(), &block);
    }

    #[test]
    fn bdi_round_trips_strided(block in arb_strided_block()) {
        check_round_trip(&BdiCodec::new(), &block);
    }

    #[test]
    fn bpc_round_trips_strided(block in arb_strided_block()) {
        check_round_trip(&BpcCodec::new(), &block);
    }

    #[test]
    fn cpack_round_trips_strided(block in arb_strided_block()) {
        check_round_trip(&CpackCodec::new(), &block);
    }

    #[test]
    fn best_of_compresses_strided(block in arb_strided_block()) {
        // Structured data must actually compress under the composite.
        let codec = BestOfCodec::new();
        let size = codec.compressed_size(&block);
        prop_assert!(size < BLOCK_SIZE, "strided block failed to compress: {size}");
        check_round_trip(&codec, &block);
    }
}
