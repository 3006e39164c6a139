//! Quickstart: compress and decompress a 4 KiB memory page with the
//! memory-specialized ASIC Deflate, and look at the modelled hardware
//! latencies.
//!
//! Run with: `cargo run --release --example quickstart`

use tmcc_deflate::{CodecError, IbmDeflateModel, MemDeflate};

fn main() -> Result<(), CodecError> {
    // A page that looks like real memory: repeated records, some zero
    // padding, a few random fields.
    let mut page = vec![0u8; 4096];
    for (i, b) in page.iter_mut().enumerate() {
        *b = match i % 24 {
            0..=7 => b"nodeid= "[i % 8],
            8..=11 => ((i / 24) as u32).to_le_bytes()[i % 4],
            _ => 0,
        };
    }

    let codec = MemDeflate::default();
    let compressed = codec.compress_page(&page);
    println!("original:        {} bytes", page.len());
    println!("compressed:      {} bytes ({:.2}x)", compressed.stored_len(), compressed.ratio());
    println!("mode:            {:?}", compressed.mode());

    // Functional round trip — the same check the paper runs over 50M
    // pages of RTL simulation.
    let mut restored = Vec::new();
    codec.try_decompress_page_into(&compressed, &mut restored)?;
    assert_eq!(restored, page);
    println!("round trip:      OK");

    // Modelled ASIC timing (Table II).
    let comp = codec.compress_latency(&compressed);
    let dec = codec.decompress_latency(&compressed);
    let half = codec.needed_block_latency(&compressed);
    println!("\n--- modelled ASIC latency (2.5 GHz cycle model) ---");
    println!("compress:        {:.0} ns", comp.ns);
    println!("decompress:      {:.0} ns", dec.ns);
    println!("needed block:    {:.0} ns", half.ns);

    let ibm = IbmDeflateModel::default();
    println!("\n--- IBM general-purpose ASIC (analytic model) ---");
    println!("decompress:      {:.0} ns", ibm.decompress_latency_ns(4096));
    println!(
        "speedup:         {:.1}x full page, {:.1}x needed block",
        ibm.decompress_latency_ns(4096) / dec.ns,
        ibm.half_page_decompress_ns(4096) / half.ns
    );
    Ok(())
}
