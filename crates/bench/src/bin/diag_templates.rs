//! Diagnostics: measured per-template compressed sizes under the real
//! codecs — the raw data for calibrating ContentProfile mixtures.

use tmcc_compression::{BestOfCodec, BlockCodec};
use tmcc_deflate::{MemDeflate, PAGE_SIZE};
use tmcc_workloads::{ContentProfile, PageContent, PageTemplate};

fn main() {
    let deflate = MemDeflate::default();
    let block = BestOfCodec::new();
    let mut page = vec![0u8; PAGE_SIZE];
    let templates = [
        ("sparse.05", PageTemplate::Sparse { density: 0.05 }),
        ("sparse.08", PageTemplate::Sparse { density: 0.08 }),
        ("record8x48", PageTemplate::RecordPack { vocab: 8, record_len: 48 }),
        ("record8x36", PageTemplate::RecordPack { vocab: 8, record_len: 36 }),
        ("record10x40", PageTemplate::RecordPack { vocab: 10, record_len: 40 }),
        ("record24x48", PageTemplate::RecordPack { vocab: 24, record_len: 48 }),
        ("pointers", PageTemplate::Pointers),
        ("ints8", PageTemplate::SmallInts { span: 8 }),
        ("ints16", PageTemplate::SmallInts { span: 16 }),
        ("ints200", PageTemplate::SmallInts { span: 200 }),
        ("ints4000", PageTemplate::SmallInts { span: 4000 }),
        ("float", PageTemplate::FloatLike),
        ("text", PageTemplate::TextLike),
        ("random", PageTemplate::Random),
    ];
    println!(
        "{:<12} {:>9} {:>10} {:>9} {:>10}",
        "template", "deflate B", "(ratio)", "block B", "(ratio)"
    );
    for (name, t) in templates {
        let content = PageContent::new(ContentProfile::new(vec![(t, 1.0)]), 77);
        let mut d = 0usize;
        let mut b = 0usize;
        const N: u64 = 16;
        for i in 0..N {
            content.fill_page(i, &mut page);
            d += deflate.compressed_size(&page);
            b += page
                .chunks_exact(64)
                .map(|c| {
                    let arr: &[u8; 64] = c.try_into().unwrap();
                    block.compressed_size(arr)
                })
                .sum::<usize>();
        }
        let (d, b) = (d as f64 / N as f64, b as f64 / N as f64);
        println!("{:<12} {:>9.0} {:>9.2}x {:>9.0} {:>9.2}x", name, d, 4096.0 / d, b, 4096.0 / b);
    }
}
