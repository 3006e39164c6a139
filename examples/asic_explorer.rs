//! Design-space exploration of the memory-specialized Deflate ASIC —
//! the §V-B methodology: sweep CAM size and tree-depth threshold, measure
//! real compression ratio on a memory-page corpus, and model area.
//!
//! The paper's conclusions this reproduces:
//! * a 1 KiB CAM loses only ~1.6 % ratio vs 4 KiB at a quarter of the LZ
//!   area; 256–512 B CAMs degrade much more (§V-B2);
//! * dynamic Huffman skipping buys ~5 % geomean ratio (§V-B1).
//!
//! Run with: `cargo run --release --example asic_explorer`

use tmcc_deflate::{AreaModel, DeflateParams, MemDeflate, PAGE_SIZE};
use tmcc_workloads::WorkloadProfile;

const PAGES: u64 = 160;

/// The corpus as one contiguous image of whole pages.
fn corpus() -> Vec<u8> {
    let mut image = Vec::new();
    for w in WorkloadProfile::large_suite() {
        let content = w.page_content(0xD5E);
        for i in 0..PAGES / 12 {
            let at = image.len();
            image.resize(at + PAGE_SIZE, 0);
            content.fill_page(i, &mut image[at..]);
        }
    }
    image
}

fn ratio(codec: &MemDeflate, corpus: &[u8]) -> f64 {
    let comp: usize = corpus.chunks_exact(PAGE_SIZE).map(|p| codec.compressed_size(p)).sum();
    corpus.len() as f64 / comp as f64
}

fn main() {
    let corpus = corpus();

    println!("--- CAM size sweep (depth 15, dynamic skip on) ---");
    println!("{:>8} {:>8} {:>12} {:>14}", "CAM", "ratio", "LZ area mm2", "vs 4KiB ratio");
    let reference = ratio(&MemDeflate::new(DeflateParams::new().cam_bytes(4096)), &corpus);
    for cam in [256usize, 512, 1024, 2048, 4096] {
        let codec = MemDeflate::new(DeflateParams::new().cam_bytes(cam));
        let r = ratio(&codec, &corpus);
        let area = AreaModel::with_params(cam, 16);
        println!(
            "{:>8} {:>8.2} {:>12.3} {:>13.1}%",
            cam,
            r,
            area.lz_compressor().area_mm2 + area.lz_decompressor().area_mm2,
            (r / reference - 1.0) * 100.0
        );
    }

    println!("\n--- tree-depth threshold sweep (1 KiB CAM) ---");
    println!("{:>8} {:>8}", "depth", "ratio");
    for depth in [6u32, 8, 10, 12, 15] {
        let codec = MemDeflate::new(DeflateParams::new().max_tree_depth(depth));
        println!("{:>8} {:>8.2}", depth, ratio(&codec, &corpus));
    }

    println!("\n--- feature ablations (1 KiB CAM, depth 15) ---");
    let base = MemDeflate::new(DeflateParams::new().dynamic_skip(false));
    let skip = MemDeflate::new(DeflateParams::new().dynamic_skip(true));
    let one_pass = MemDeflate::new(DeflateParams::new().one_one_pass(true, 512));
    println!("no dynamic skip:   {:.3}", ratio(&base, &corpus));
    println!("dynamic skip:      {:.3}", ratio(&skip, &corpus));
    println!(
        "1.1-Pass sampling: {:.3}  (paper: hurts 4 KiB pages; off by default)",
        ratio(&one_pass, &corpus)
    );

    let unit = AreaModel::paper_default().complete_unit();
    println!(
        "\nchosen design point: 1 KiB CAM, 16-leaf tree → {:.2} mm2, {:.0} mW (Table I)",
        unit.area_mm2, unit.power_mw
    );
}
