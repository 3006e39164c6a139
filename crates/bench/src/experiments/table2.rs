//! Table II: Deflate performance for 4 KiB memory pages — the
//! memory-specialized ASIC vs IBM's general-purpose ASIC.
//!
//! Paper: our decompressor 277 ns (140 ns half-page, 14.8 GB/s), our
//! compressor 662 ns (17.2 GB/s); IBM 1100/878 ns, 3.7 GB/s and 1050 ns,
//! 3.9 GB/s. The half-page decompression — the latency an LLC miss into
//! ML2 actually waits — is 6× faster.
//!
//! The latency numbers come from the cycle model (per-stage rates of
//! §V-B4 at 2.5 GHz); the compressed sizes feeding the model come from the
//! *real codec* run over the workload corpus.

use crate::sweep::SweepCtx;
use crate::{mean, print_table};
use serde::Serialize;
use tmcc_deflate::{IbmDeflateModel, MemDeflate, PAGE_SIZE};
use tmcc_workloads::WorkloadProfile;

/// Seed for the page corpus feeding the cycle model.
const SEED: u64 = 0x7AB1E2;

#[derive(Serialize)]
struct Out {
    ours_decompress_ns: f64,
    ours_half_page_ns: f64,
    ours_decompress_gbps: f64,
    ours_compress_ns: f64,
    ours_compress_gbps: f64,
    ibm_decompress_ns: f64,
    ibm_half_page_ns: f64,
    ibm_decompress_gbps: f64,
    ibm_compress_ns: f64,
    ibm_compress_gbps: f64,
}

/// Per-workload samples, concatenated in suite order before averaging.
struct Samples {
    dec: Vec<f64>,
    half: Vec<f64>,
    comp: Vec<f64>,
    dec_tp: Vec<f64>,
    comp_tp: Vec<f64>,
}

pub fn run(ctx: &SweepCtx) {
    let pages = ctx.scale().corpus_pages();
    let ibm = IbmDeflateModel::default();

    // Feed the cycle model with real compressed pages from the corpus.
    let per_workload: Vec<Samples> = ctx.par_map(WorkloadProfile::large_suite(), |w| {
        let codec = MemDeflate::default();
        let content = w.page_content(SEED);
        let mut page = vec![0u8; PAGE_SIZE];
        let mut s = Samples {
            dec: Vec::new(),
            half: Vec::new(),
            comp: Vec::new(),
            dec_tp: Vec::new(),
            comp_tp: Vec::new(),
        };
        for i in 0..pages {
            content.fill_page(i, &mut page);
            let c = codec.compress_page(&page);
            s.dec.push(codec.decompress_latency(&c).ns);
            s.half.push(codec.needed_block_latency(&c).ns);
            s.comp.push(codec.compress_latency(&c).ns);
            s.dec_tp.push(codec.timing().decompress_throughput_gbps(c.payload_bits(), page.len()));
            s.comp_tp.push(codec.timing().compress_throughput_gbps(
                page.len(),
                c.lz_stats(),
                c.lz_len(),
                c.payload_bits(),
            ));
        }
        s
    });
    let mut dec = Vec::new();
    let mut half = Vec::new();
    let mut comp = Vec::new();
    let mut dec_tp = Vec::new();
    let mut comp_tp = Vec::new();
    for s in per_workload {
        dec.extend(s.dec);
        half.extend(s.half);
        comp.extend(s.comp);
        dec_tp.extend(s.dec_tp);
        comp_tp.extend(s.comp_tp);
    }
    let out = Out {
        ours_decompress_ns: mean(&dec),
        ours_half_page_ns: mean(&half),
        ours_decompress_gbps: mean(&dec_tp),
        ours_compress_ns: mean(&comp),
        ours_compress_gbps: mean(&comp_tp),
        ibm_decompress_ns: ibm.decompress_latency_ns(4096),
        ibm_half_page_ns: ibm.half_page_decompress_ns(4096),
        ibm_decompress_gbps: ibm.decompress_throughput_gbps(4096),
        ibm_compress_ns: ibm.compress_latency_ns(4096),
        ibm_compress_gbps: ibm.compress_throughput_gbps(4096),
    };
    let rows = vec![
        vec![
            "Our Decompressor".into(),
            format!("{:.0} ns", out.ours_decompress_ns),
            format!("{:.0} ns", out.ours_half_page_ns),
            format!("{:.1} GB/s", out.ours_decompress_gbps),
        ],
        vec![
            "Our Compressor".into(),
            format!("{:.0} ns", out.ours_compress_ns),
            "N/A".into(),
            format!("{:.1} GB/s", out.ours_compress_gbps),
        ],
        vec![
            "IBM Decompressor".into(),
            format!("{:.0} ns", out.ibm_decompress_ns),
            format!("{:.0} ns", out.ibm_half_page_ns),
            format!("{:.1} GB/s", out.ibm_decompress_gbps),
        ],
        vec![
            "IBM Compressor".into(),
            format!("{:.0} ns", out.ibm_compress_ns),
            "N/A".into(),
            format!("{:.1} GB/s", out.ibm_compress_gbps),
        ],
    ];
    print_table(
        "Table II — Deflate performance for 4 KiB memory pages",
        &["module", "latency", "1/2-page latency", "throughput"],
        &rows,
    );
    println!(
        "\nPaper: ours 277/140 ns 14.8 GB/s (dec), 662 ns 17.2 GB/s (comp);\n\
         IBM 1100/878 ns 3.7 GB/s, 1050 ns 3.9 GB/s.\n\
         Speedups: full-page decompress {:.1}x, needed-block {:.1}x, compress {:.1}x.\n\
         Combined unit throughput: {:.1} GB/s (paper: 32.0 GB/s; exceeds the\n\
         25.6 GB/s DDR4-3200 channel).",
        out.ibm_decompress_ns / out.ours_decompress_ns,
        out.ibm_half_page_ns / out.ours_half_page_ns,
        out.ibm_compress_ns / out.ours_compress_ns,
        out.ours_decompress_gbps + out.ours_compress_gbps,
    );
    ctx.emit("table2_deflate_perf", &out);
}
