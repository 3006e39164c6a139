//! Design-space regression tests: the §V-B trade-offs the paper reports
//! must hold for this implementation of the codec.

use tmcc_deflate::{DeflateParams, MemDeflate, PAGE_SIZE};
use tmcc_workloads::WorkloadProfile;

/// 48 pageRank pages as one contiguous image.
fn corpus() -> Vec<u8> {
    let w = WorkloadProfile::by_name("pageRank").expect("known workload");
    let content = w.page_content(0xD5E2);
    let mut image = vec![0u8; 48 * PAGE_SIZE];
    for (i, page) in image.chunks_exact_mut(PAGE_SIZE).enumerate() {
        content.fill_page(i as u64, page);
    }
    image
}

fn ratio(codec: &MemDeflate, corpus: &[u8]) -> f64 {
    let comp: usize = corpus.chunks_exact(PAGE_SIZE).map(|p| codec.compressed_size(p)).sum();
    corpus.len() as f64 / comp as f64
}

/// §V-B2: shrinking the CAM from 4 KiB to 1 KiB costs only a little
/// compression ratio, but 256 B costs much more.
#[test]
fn cam_size_trade_off_matches_paper() {
    let corpus = corpus();
    let r4096 = ratio(&MemDeflate::new(DeflateParams::new().cam_bytes(4096)), &corpus);
    let r1024 = ratio(&MemDeflate::new(DeflateParams::new().cam_bytes(1024)), &corpus);
    let r256 = ratio(&MemDeflate::new(DeflateParams::new().cam_bytes(256)), &corpus);
    let loss_1k = 1.0 - r1024 / r4096;
    let loss_256 = 1.0 - r256 / r4096;
    assert!(loss_1k < 0.08, "1 KiB CAM should lose little ratio: {loss_1k:.3}");
    assert!(loss_256 > loss_1k, "256 B CAM must degrade more: {loss_256:.3} vs {loss_1k:.3}");
}

/// §V-B1: dynamic Huffman skipping never hurts and helps on
/// Huffman-hostile pages.
#[test]
fn dynamic_skip_never_hurts() {
    let corpus = corpus();
    let with = ratio(&MemDeflate::new(DeflateParams::new().dynamic_skip(true)), &corpus);
    let without = ratio(&MemDeflate::new(DeflateParams::new().dynamic_skip(false)), &corpus);
    assert!(with >= without * 0.999, "skip {with:.3} vs no-skip {without:.3}");
}

/// §V-B3: 1.1-Pass sampling reduces compression ratio on 4 KiB pages —
/// the reason the paper disables it by default.
#[test]
fn one_one_pass_costs_ratio_on_pages() {
    let corpus = corpus();
    let full = ratio(&MemDeflate::new(DeflateParams::new()), &corpus);
    let sampled = ratio(&MemDeflate::new(DeflateParams::new().one_one_pass(true, 256)), &corpus);
    assert!(
        sampled <= full + 1e-9,
        "sampling frequencies can't beat exact counting: {sampled:.3} vs {full:.3}"
    );
}

/// Deeper trees never compress worse than shallow ones on this corpus.
#[test]
fn depth_threshold_monotone() {
    let corpus = corpus();
    let d6 = ratio(&MemDeflate::new(DeflateParams::new().max_tree_depth(6)), &corpus);
    let d15 = ratio(&MemDeflate::new(DeflateParams::new().max_tree_depth(15)), &corpus);
    assert!(d15 >= d6 * 0.995, "depth 15 {d15:.3} vs depth 6 {d6:.3}");
}
