//! Access-stream generation.
//!
//! One parameterized generator covers the whole suite: each access either
//! (a) continues a sequential burst (streaming phases, edge-list scans),
//! (b) touches the *hot set* (frontier vertices, metadata), or (c) jumps to
//! a uniformly random cold page (pointer chasing, irregular graph visits).
//! The (hot, cold, sequential) mix plus footprint reproduces each
//! workload's TLB/CTE behaviour; memory intensity (work per access) sets
//! its bandwidth demand (Fig. 16).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tmcc_types::addr::{VirtAddr, PAGE_SIZE};

/// One memory access issued by the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessEvent {
    /// The virtual address touched.
    pub vaddr: VirtAddr,
    /// Whether it is a store.
    pub write: bool,
    /// Core work (in cycles) between the previous access and this one —
    /// the compute the CPU overlaps with memory.
    pub work_cycles: u32,
}

/// Locality/irregularity parameters of a stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessPattern {
    /// Probability an access is part of a sequential run.
    pub p_seq: f64,
    /// Probability an access targets the hot set (rest go to cold pages).
    pub p_hot: f64,
    /// Fraction of the footprint forming the hot set.
    pub hot_fraction: f64,
    /// Mean sequential-run length in blocks once a run starts.
    pub seq_run_blocks: u32,
    /// Fraction of accesses that are stores.
    pub write_fraction: f64,
    /// Fraction of the footprint forming the *warm* region that cold
    /// draws normally land in (uniformly). Sized well beyond every
    /// TLB/CTE-cache reach, it sets the translation miss rates.
    pub warm_fraction: f64,
    /// Fraction of cold draws that instead touch a uniformly random page
    /// of the whole footprint — the rare revisits of frozen data that ML2
    /// absorbs. This directly controls the ML2 access rate (Fig. 21).
    pub tail_fraction: f64,
    /// Mean core cycles of work between accesses (memory intensity knob;
    /// smaller = more bandwidth-hungry).
    pub mean_work_cycles: u32,
    /// Zipf skew θ for ordinary cold draws within the warm region. 0
    /// keeps the historical uniform draw (bit-identical streams); θ > 0
    /// (clamped below 1) skews draws towards low page ranks with
    /// P(rank) ∝ rank^-θ — the key-popularity shape of key-value serving
    /// traffic ("millions of users" behind a cache tier).
    pub zipf_theta: f64,
}

impl AccessPattern {
    /// An irregular, memory-hungry graph-analytics-like pattern.
    pub fn irregular() -> Self {
        Self {
            p_seq: 0.18,
            p_hot: 0.30,
            hot_fraction: 0.02,
            seq_run_blocks: 8,
            write_fraction: 0.25,
            warm_fraction: 0.18,
            tail_fraction: 0.02,
            mean_work_cycles: 6,
            zipf_theta: 0.0,
        }
    }

    /// A cache-friendly streaming pattern.
    pub fn streaming() -> Self {
        Self {
            p_seq: 0.90,
            p_hot: 0.06,
            hot_fraction: 0.01,
            seq_run_blocks: 48,
            write_fraction: 0.3,
            warm_fraction: 0.5,
            tail_fraction: 0.01,
            mean_work_cycles: 12,
            zipf_theta: 0.0,
        }
    }

    /// A key-value-store request mix: point lookups with Zipf-skewed key
    /// popularity (θ), a modest hot tier, and occasional range scans.
    pub fn zipfian_kv(theta: f64) -> Self {
        Self {
            p_seq: 0.10,
            p_hot: 0.25,
            hot_fraction: 0.02,
            seq_run_blocks: 16,
            write_fraction: 0.30,
            warm_fraction: 0.35,
            tail_fraction: 0.02,
            mean_work_cycles: 6,
            zipf_theta: theta,
        }
    }
}

/// A deterministic, seeded access stream over `footprint_pages` pages.
///
/// # Examples
///
/// ```
/// use tmcc_workloads::{AccessPattern, AccessStream};
///
/// let mut s = AccessStream::new(AccessPattern::irregular(), 10_000, 42);
/// let a = s.next_access();
/// assert!(a.vaddr.vpn().raw() < 10_000);
/// ```
#[derive(Debug, Clone)]
pub struct AccessStream {
    pattern: AccessPattern,
    footprint_pages: u64,
    hot_pages: u64,
    rng: SmallRng,
    /// Persistent sequential cursor (block index within the warm region).
    seq_block: u64,
}

impl AccessStream {
    /// Creates a stream over `footprint_pages` pages of virtual address
    /// space starting at VPN 0.
    ///
    /// # Panics
    ///
    /// Panics if `footprint_pages` is zero.
    pub fn new(pattern: AccessPattern, footprint_pages: u64, seed: u64) -> Self {
        assert!(footprint_pages > 0, "footprint must be nonzero");
        let hot_pages = ((footprint_pages as f64 * pattern.hot_fraction) as u64).max(1);
        Self {
            pattern,
            footprint_pages,
            hot_pages,
            rng: SmallRng::seed_from_u64(seed ^ 0x5DEE_CE66),
            seq_block: 0,
        }
    }

    /// Number of pages the stream can touch.
    pub fn footprint_pages(&self) -> u64 {
        self.footprint_pages
    }

    /// The pattern parameters.
    pub fn pattern(&self) -> AccessPattern {
        self.pattern
    }

    /// Produces the next access.
    pub fn next_access(&mut self) -> AccessEvent {
        let warm_pages = ((self.footprint_pages as f64 * self.pattern.warm_fraction) as u64)
            .clamp(1, self.footprint_pages);
        let warm_blocks = warm_pages * (PAGE_SIZE as u64 / 64);
        let block = {
            let r: f64 = self.rng.gen();
            if r < self.pattern.p_seq {
                // Sequential scan through the warm data. The cursor
                // persists across other access types; occasionally it
                // repositions (a new scan starts elsewhere).
                let reposition = 1.0 / (self.pattern.seq_run_blocks.max(1) as f64 * 2.0);
                if self.rng.gen::<f64>() < reposition {
                    self.seq_block = self.rng.gen_range(0..warm_blocks);
                }
                self.seq_block = (self.seq_block + 1) % warm_blocks;
                self.seq_block
            } else if r < self.pattern.p_seq + self.pattern.p_hot {
                // Hot set access.
                let page = self.rng.gen_range(0..self.hot_pages);
                page * 64 + self.rng.gen_range(0..64u64)
            } else if self.rng.gen::<f64>() < self.pattern.tail_fraction {
                // Rare revisit of frozen data anywhere in the footprint —
                // the accesses ML2 exists to absorb.
                let page = self.rng.gen_range(0..self.footprint_pages);
                page * 64 + self.rng.gen_range(0..64u64)
            } else {
                // Ordinary cold access within the warm region.
                let warm = ((self.footprint_pages as f64 * self.pattern.warm_fraction) as u64)
                    .clamp(1, self.footprint_pages);
                let page = if self.pattern.zipf_theta > 0.0 {
                    // Zipf-skewed rank via the bounded-Pareto inverse
                    // CDF: P(rank) ∝ rank^-θ over [0, warm). Only taken
                    // when θ > 0, so θ = 0 streams keep their historical
                    // RNG consumption bit-for-bit.
                    let theta = self.pattern.zipf_theta.min(0.99);
                    let u: f64 = self.rng.gen();
                    ((warm as f64 * u.powf(1.0 / (1.0 - theta))) as u64).min(warm - 1)
                } else {
                    self.rng.gen_range(0..warm)
                };
                page * 64 + self.rng.gen_range(0..64u64)
            }
        };
        let write = self.rng.gen::<f64>() < self.pattern.write_fraction;
        let jitter = self.pattern.mean_work_cycles.max(1);
        let work_cycles = self.rng.gen_range(0..=jitter * 2);
        AccessEvent { vaddr: VirtAddr::new(block * 64), write, work_cycles }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The next `n` accesses of `s`.
    fn take(s: &mut AccessStream, n: usize) -> Vec<AccessEvent> {
        (0..n).map(|_| s.next_access()).collect()
    }

    #[test]
    fn stays_within_footprint() {
        let mut s = AccessStream::new(AccessPattern::irregular(), 100, 1);
        for _ in 0..10_000 {
            let a = s.next_access();
            assert!(a.vaddr.vpn().raw() < 100);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = AccessStream::new(AccessPattern::irregular(), 1000, 7);
        let mut b = AccessStream::new(AccessPattern::irregular(), 1000, 7);
        assert_eq!(take(&mut a, 1000), take(&mut b, 1000));
    }

    #[test]
    fn seeds_differ() {
        let mut a = AccessStream::new(AccessPattern::irregular(), 1000, 7);
        let mut b = AccessStream::new(AccessPattern::irregular(), 1000, 8);
        assert_ne!(take(&mut a, 100), take(&mut b, 100));
    }

    #[test]
    fn irregular_touches_many_pages() {
        let mut s = AccessStream::new(AccessPattern::irregular(), 50_000, 3);
        let pages: HashSet<u64> =
            take(&mut s, 20_000).iter().map(|a| a.vaddr.vpn().raw()).collect();
        assert!(pages.len() > 5_000, "only {} pages touched", pages.len());
    }

    #[test]
    fn streaming_is_more_local_than_irregular() {
        let count_pages = |pattern| {
            let mut s = AccessStream::new(pattern, 50_000, 3);
            take(&mut s, 20_000).iter().map(|a| a.vaddr.vpn().raw()).collect::<HashSet<_>>().len()
        };
        assert!(count_pages(AccessPattern::streaming()) < count_pages(AccessPattern::irregular()));
    }

    #[test]
    fn cold_tail_is_rarely_touched() {
        let mut s = AccessStream::new(AccessPattern::irregular(), 100_000, 5);
        let accesses = take(&mut s, 200_000);
        // Pages beyond the warm region are reached only by tail draws and
        // the occasional sequential wrap.
        let tail = accesses.iter().filter(|a| a.vaddr.vpn().raw() >= 50_000).count();
        let frac = tail as f64 / accesses.len() as f64;
        assert!(frac < 0.05, "cold-tail fraction {frac}");
        assert!(frac > 0.0005, "tail must still be touched sometimes: {frac}");
    }

    #[test]
    fn zipf_skews_towards_low_ranks() {
        let uniform = AccessPattern { p_seq: 0.0, p_hot: 0.0, ..AccessPattern::zipfian_kv(0.0) };
        let skewed = AccessPattern { zipf_theta: 0.9, ..uniform };
        let head_share = |pattern| {
            let mut s = AccessStream::new(pattern, 10_000, 3);
            let warm_head = 10_000 / 10; // top decile of the footprint
            let hits =
                take(&mut s, 20_000).iter().filter(|a| a.vaddr.vpn().raw() < warm_head).count();
            hits as f64 / 20_000.0
        };
        let u = head_share(uniform);
        let z = head_share(skewed);
        assert!(z > 2.0 * u, "zipf head share {z} vs uniform {u}");
    }

    #[test]
    fn zipf_zero_is_bit_identical_to_legacy_uniform() {
        let p = AccessPattern::irregular();
        assert_eq!(p.zipf_theta, 0.0);
        let mut a = AccessStream::new(p, 5000, 9);
        let mut b = AccessStream::new(AccessPattern { zipf_theta: 0.0, ..p }, 5000, 9);
        assert_eq!(take(&mut a, 2000), take(&mut b, 2000));
    }

    #[test]
    fn write_fraction_respected() {
        let mut p = AccessPattern::irregular();
        p.write_fraction = 0.5;
        let mut s = AccessStream::new(p, 1000, 11);
        let writes = take(&mut s, 20_000).iter().filter(|a| a.write).count();
        let frac = writes as f64 / 20_000.0;
        assert!((frac - 0.5).abs() < 0.03, "write fraction {frac}");
    }
}
