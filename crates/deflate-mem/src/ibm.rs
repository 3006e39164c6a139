//! Analytic model of IBM's general-purpose ASIC Deflate (Power9 / z15,
//! paper reference \[11\]).
//!
//! The paper compares against IBM's accelerator using the published
//! formula: each independent input pays a setup time `T0` of 650–780 ns
//! (dominated by canonical-Huffman tree construction/reconstruction) before
//! streaming at up to 15 GB/s. For 4 KiB pages this yields the Table II
//! row: 1100 ns decompression, 1050 ns compression, ~3.7 / 3.9 GB/s.
//!
//! `T0` here is calibrated from Table II's 4 KiB latencies (827 ns for the
//! decompressor, 777 ns for the compressor — the upper end of the published
//! 650–780 ns range plus pipeline drain), so `latency(4096)` reproduces the
//! table exactly and other sizes follow the published formula.

/// Peak streaming rate of the IBM accelerator, bytes/ns (15 GB/s).
pub const IBM_STREAM_GBPS: f64 = 15.0;

/// The analytic IBM ASIC Deflate model.
///
/// # Examples
///
/// ```
/// use tmcc_deflate::IbmDeflateModel;
///
/// let ibm = IbmDeflateModel::default();
/// assert!((ibm.decompress_latency_ns(4096) - 1100.0).abs() < 1.0);
/// assert!((ibm.compress_latency_ns(4096) - 1050.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IbmDeflateModel {
    /// Decompression setup time, ns.
    pub t0_decompress_ns: f64,
    /// Compression setup time, ns.
    pub t0_compress_ns: f64,
    /// Streaming rate, GB/s.
    pub stream_gbps: f64,
}

impl Default for IbmDeflateModel {
    fn default() -> Self {
        Self { t0_decompress_ns: 827.0, t0_compress_ns: 777.0, stream_gbps: IBM_STREAM_GBPS }
    }
}

impl IbmDeflateModel {
    /// Latency to decompress an independent `bytes`-long input, ns.
    pub fn decompress_latency_ns(&self, bytes: usize) -> f64 {
        self.t0_decompress_ns + bytes as f64 / self.stream_gbps
    }

    /// Latency to compress an independent `bytes`-long input, ns.
    pub fn compress_latency_ns(&self, bytes: usize) -> f64 {
        self.t0_compress_ns + bytes as f64 / self.stream_gbps
    }

    /// Average latency until a needed block becomes available: setup plus
    /// streaming to the middle of the page. (The paper's Table II reports
    /// 878 ns; this formula gives 964 ns — the difference is their more
    /// detailed internal model, noted in EXPERIMENTS.md.)
    pub fn half_page_decompress_ns(&self, bytes: usize) -> f64 {
        self.t0_decompress_ns + bytes as f64 / 2.0 / self.stream_gbps
    }

    /// Sustained throughput on back-to-back independent `bytes` inputs,
    /// GB/s: the setup time is paid per input.
    pub fn decompress_throughput_gbps(&self, bytes: usize) -> f64 {
        bytes as f64 / self.decompress_latency_ns(bytes)
    }

    /// Sustained compression throughput on independent inputs, GB/s.
    pub fn compress_throughput_gbps(&self, bytes: usize) -> f64 {
        bytes as f64 / self.compress_latency_ns(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_latencies() {
        let ibm = IbmDeflateModel::default();
        assert!((ibm.decompress_latency_ns(4096) - 1100.1).abs() < 1.0);
        assert!((ibm.compress_latency_ns(4096) - 1050.1).abs() < 1.0);
    }

    #[test]
    fn table2_throughputs() {
        let ibm = IbmDeflateModel::default();
        assert!((ibm.decompress_throughput_gbps(4096) - 3.7).abs() < 0.1);
        assert!((ibm.compress_throughput_gbps(4096) - 3.9).abs() < 0.1);
    }

    #[test]
    fn large_streams_approach_peak_rate() {
        let ibm = IbmDeflateModel::default();
        let tp = ibm.decompress_throughput_gbps(256 * 1024);
        assert!(tp > 14.0, "large inputs amortize T0, got {tp}");
    }

    #[test]
    fn setup_dominates_small_inputs() {
        let ibm = IbmDeflateModel::default();
        // A 4 KiB page spends most of its time in setup — the paper's
        // motivation for specializing (§IV-C).
        let total = ibm.decompress_latency_ns(4096);
        assert!(ibm.t0_decompress_ns / total > 0.7);
    }
}
