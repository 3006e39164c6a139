//! Criterion wall-clock benchmarks of the functional codecs.
//!
//! These measure this *reproduction's software implementation* — useful
//! for keeping the simulator fast — and are distinct from the modelled
//! ASIC latencies of Table II (`tmcc-bench run table2_deflate_perf`).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use tmcc_compression::{
    BdiCodec, BestOfCodec, BitReader, BitWriter, BlockCodec, BpcCodec, CpackCodec,
};
use tmcc_deflate::{FullHuffman, MemDeflate, ReducedHuffman, SoftwareDeflate};
use tmcc_workloads::WorkloadProfile;

fn corpus_page(i: u64) -> Vec<u8> {
    let w = WorkloadProfile::by_name("pageRank").expect("known workload");
    let mut page = vec![0u8; tmcc_deflate::PAGE_SIZE];
    w.page_content(42).fill_page(i, &mut page);
    page
}

fn bench_block_codecs(c: &mut Criterion) {
    let page = corpus_page(0);
    let mut blocks: Vec<[u8; 64]> = Vec::new();
    for ch in page.chunks_exact(64) {
        blocks.push(ch.try_into().expect("64B"));
    }
    let mut g = c.benchmark_group("block-codecs");
    g.throughput(Throughput::Bytes(4096));
    g.bench_function("bdi/compress-page", |b| {
        let codec = BdiCodec::new();
        b.iter(|| {
            for blk in &blocks {
                black_box(codec.compressed_size(blk));
            }
        })
    });
    g.bench_function("bpc/compress-page", |b| {
        let codec = BpcCodec::new();
        b.iter(|| {
            for blk in &blocks {
                black_box(codec.compressed_size(blk));
            }
        })
    });
    g.bench_function("cpack/compress-page", |b| {
        let codec = CpackCodec::new();
        b.iter(|| {
            for blk in &blocks {
                black_box(codec.compressed_size(blk));
            }
        })
    });
    g.bench_function("best-of/compress-page", |b| {
        let codec = BestOfCodec::new();
        b.iter(|| {
            for blk in &blocks {
                black_box(codec.compressed_size(blk));
            }
        })
    });
    g.finish();
}

fn bench_deflate(c: &mut Criterion) {
    let page = corpus_page(1);
    let codec = MemDeflate::default();
    let compressed = codec.compress_page(&page);
    let mut g = c.benchmark_group("mem-deflate");
    g.throughput(Throughput::Bytes(4096));
    g.bench_function("compress-4k", |b| {
        b.iter(|| black_box(codec.compress_page(black_box(&page))))
    });
    g.bench_function("decompress-4k", |b| {
        let mut out = Vec::with_capacity(page.len());
        b.iter(|| codec.try_decompress_page_into(black_box(&compressed), &mut out).expect("clean"))
    });
    g.bench_function("compressed-size-4k", |b| {
        // The analytic sizing path ratio sweeps run per page.
        b.iter(|| black_box(codec.compressed_size(black_box(&page))))
    });
    g.finish();

    let sw = SoftwareDeflate::new();
    let mut dump = Vec::new();
    for i in 0..8 {
        dump.extend_from_slice(&corpus_page(i));
    }
    let mut g = c.benchmark_group("software-deflate");
    g.throughput(Throughput::Bytes(dump.len() as u64));
    g.sample_size(20);
    g.bench_function("compress-32k", |b| b.iter(|| black_box(sw.compress(black_box(&dump)))));
    g.finish();
}

/// The table-driven Huffman decode hot paths in isolation: the reduced
/// 16-leaf tree over a page-sized payload and the full 256-symbol tree
/// over a multi-page LZ stream.
fn bench_huffman_decode(c: &mut Criterion) {
    let page = corpus_page(2);
    let reduced = ReducedHuffman::build(&page, 15);
    let reduced_stream = reduced.encode(&page);
    let (reduced_tree, reduced_payload) =
        ReducedHuffman::try_read_tree(&reduced_stream).expect("clean header");

    let mut dump = Vec::new();
    for i in 8..12 {
        dump.extend_from_slice(&corpus_page(i));
    }
    let full = FullHuffman::build(&dump);
    let full_stream = full.encode(&dump);

    let mut g = c.benchmark_group("huffman-decode");
    g.throughput(Throughput::Bytes(page.len() as u64));
    g.bench_function("reduced-lut-4k", |b| {
        let mut out = Vec::with_capacity(page.len());
        b.iter(|| {
            out.clear();
            let mut r = BitReader::new(black_box(reduced_payload));
            reduced_tree.try_decode_from_into(&mut r, page.len(), &mut out).expect("clean")
        })
    });
    g.bench_function("reduced-encode-4k", |b| {
        b.iter(|| black_box(reduced.encode(black_box(&page))))
    });
    g.finish();

    let mut g = c.benchmark_group("huffman-decode-full");
    g.throughput(Throughput::Bytes(dump.len() as u64));
    g.bench_function("full-lut-16k", |b| {
        b.iter(|| black_box(FullHuffman::try_decode(black_box(&full_stream), dump.len())))
    });
    g.finish();
}

/// Raw bit I/O throughput: the word-at-a-time accumulator feeding every
/// bit-packed codec, through the fallible reads the decoders run. Mixed
/// 5/11/13-bit fields model Huffman code widths.
fn bench_bit_io(c: &mut Criterion) {
    const FIELDS: usize = 8192;
    let widths = [5u32, 11, 13, 7, 3, 12];
    let mut w = BitWriter::new();
    for i in 0..FIELDS {
        let n = widths[i % widths.len()];
        w.put(i as u64, n);
    }
    let total_bits: usize = w.len_bits();
    let bytes = w.into_bytes();

    let mut g = c.benchmark_group("bit-io");
    g.throughput(Throughput::Bytes((total_bits / 8) as u64));
    g.bench_function("writer-mixed-fields", |b| {
        let mut writer = BitWriter::with_capacity(bytes.len());
        b.iter(|| {
            writer.clear();
            for i in 0..FIELDS {
                let n = widths[i % widths.len()];
                writer.put(i as u64, n);
            }
            black_box(writer.len_bits())
        })
    });
    g.bench_function("reader-try-get-mixed-fields", |b| {
        b.iter(|| {
            let mut r = BitReader::new(&bytes);
            let mut acc = 0u64;
            for i in 0..FIELDS {
                let n = widths[i % widths.len()];
                acc = acc.wrapping_add(r.try_get(n, "bench").expect("in stream"));
            }
            black_box(acc)
        })
    });
    g.bench_function("reader-peek-try-consume", |b| {
        // The LUT decoder's access pattern: wide peek, narrow consume.
        b.iter(|| {
            let mut r = BitReader::new(&bytes);
            let mut acc = 0u64;
            for i in 0..FIELDS {
                let n = widths[i % widths.len()];
                acc = acc.wrapping_add(r.peek(16) >> (16 - n));
                r.try_consume(n, "bench").expect("in stream");
            }
            black_box(acc)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_block_codecs, bench_deflate, bench_huffman_decode, bench_bit_io);
criterion_main!(benches);
