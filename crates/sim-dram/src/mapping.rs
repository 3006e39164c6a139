//! DRAM address mapping and interleaving policies (paper §VIII, Fig. 22).
//!
//! CPUs interleave adjacent physical ranges across channels and memory
//! controllers to balance bandwidth. Because TMCC compresses at page
//! granularity inside one MC, it "requires address mapping to only
//! interleave memory across memory controllers at ≥ 4 KiB granularity"
//! (§VIII). The three policies evaluated in Fig. 22:
//!
//! * **baseline** — 512 B interleaving across MCs, 256 B across the
//!   channels within each MC (TMCC-*incompatible*; the comparison
//!   yardstick);
//! * **coarse-MC** — 4 KiB across MCs, 256 B across channels
//!   (TMCC-compatible);
//! * **page-channel** — 4 KiB across MCs *and* channels (no sub-page
//!   interleaving at all; TMCC-compatible, worst bandwidth balance).
//!
//! Bank/row decoding applies an XOR-based hash "like Intel Skylake"
//! (Table III) so that strided streams spread across banks.

use crate::DramConfig;
use tmcc_types::addr::DramAddr;

/// Interleaving granularities for MCs and channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterleavePolicy {
    /// Bytes of consecutive address space per MC before switching.
    pub mc_granularity: u64,
    /// Bytes per channel within an MC before switching.
    pub channel_granularity: u64,
}

impl InterleavePolicy {
    /// The Fig. 22 baseline: 512 B across MCs, 256 B across channels.
    pub fn baseline() -> Self {
        Self { mc_granularity: 512, channel_granularity: 256 }
    }

    /// TMCC-compatible: 4 KiB across MCs, 256 B across channels.
    pub fn coarse_mc() -> Self {
        Self { mc_granularity: 4096, channel_granularity: 256 }
    }

    /// TMCC-compatible, fully page-granular: 4 KiB across MCs and channels.
    pub fn page_channel() -> Self {
        Self { mc_granularity: 4096, channel_granularity: 4096 }
    }

    /// Whether TMCC's page-level compression can operate under this policy
    /// (§VIII: MC interleaving must be at least page-granular).
    pub fn tmcc_compatible(&self) -> bool {
        self.mc_granularity >= 4096
    }
}

/// A fully decoded DRAM location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Location {
    /// Memory-controller index.
    pub mc: usize,
    /// Channel within the MC.
    pub channel: usize,
    /// Rank within the channel.
    pub rank: usize,
    /// Bank within the rank.
    pub bank: usize,
    /// Row within the bank.
    pub row: u64,
    /// Column byte offset within the row.
    pub column: u64,
}

impl Location {
    /// Flattened channel index across all MCs.
    pub fn global_channel(&self, cfg: &DramConfig) -> usize {
        self.mc * cfg.channels_per_mc + self.channel
    }
}

/// Decodes DRAM byte addresses into device coordinates. Every count and
/// granularity is a power of two, so a decode is shifts and masks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapping {
    /// `log2` of the MC interleave granularity.
    mc_shift: u32,
    /// `log2` of the MC count.
    mc_bits: u32,
    /// `log2` of the channel interleave granularity.
    channel_shift: u32,
    /// `log2` of the channels per MC.
    channel_bits: u32,
    /// `log2` of the row-buffer size.
    row_shift: u32,
    /// `log2` of the banks per rank.
    bank_bits: u32,
    /// `log2` of the ranks per channel.
    rank_bits: u32,
    policy: InterleavePolicy,
}

/// `log2(n)` for a power-of-two `n`.
///
/// # Panics
///
/// Panics, naming `what`, if `n` is not a power of two.
fn log2(n: u64, what: &str) -> u32 {
    assert!(n.is_power_of_two(), "{what} must be a power of two (got {n})");
    n.trailing_zeros()
}

impl AddressMapping {
    /// Builds the mapping for a configuration and policy.
    ///
    /// # Panics
    ///
    /// Panics unless `banks`, `ranks`, `mcs`, `channels_per_mc`,
    /// `row_bytes` and both interleave granularities are powers of two.
    /// The XOR bank hash folds row bits into the bank selector bitwise;
    /// with a non-power-of-two device count the fold both skews the bank
    /// distribution and breaks decode injectivity (two columns of one row
    /// can alias onto the same bank), so such geometries are rejected
    /// outright — no real DDR4/DDR5 part ships them either. The other
    /// counts and sizes are address bit fields on real parts too, and
    /// every configuration here uses powers of two, so the decode is
    /// shifts and masks.
    pub fn new(cfg: DramConfig, policy: InterleavePolicy) -> Self {
        Self {
            bank_bits: log2(cfg.banks as u64, "banks per rank"),
            rank_bits: log2(cfg.ranks as u64, "ranks per channel"),
            mc_bits: log2(cfg.mcs as u64, "memory controllers"),
            channel_bits: log2(cfg.channels_per_mc as u64, "channels per MC"),
            row_shift: log2(cfg.row_bytes, "row bytes"),
            mc_shift: log2(policy.mc_granularity, "MC interleave granularity"),
            channel_shift: log2(policy.channel_granularity, "channel interleave granularity"),
            policy,
        }
    }

    /// The interleaving policy.
    pub fn policy(&self) -> InterleavePolicy {
        self.policy
    }

    /// Decodes `addr`.
    pub fn locate(&self, addr: DramAddr) -> Location {
        let a = addr.raw();
        let mc = field(a, self.mc_shift, self.mc_bits) as usize;
        // Strip the MC selector, keeping addresses within an MC dense.
        let within_mc = collapse(a, self.mc_shift, self.mc_bits);
        let channel = field(within_mc, self.channel_shift, self.channel_bits) as usize;
        let within_ch = collapse(within_mc, self.channel_shift, self.channel_bits);
        // Within a channel: column bits, then bank/rank with XOR hash.
        let column = field(within_ch, 0, self.row_shift);
        let row_seq = within_ch >> self.row_shift;
        // XOR-based bank hash (Skylake-like): bank bits XOR row low bits.
        // Both counts are powers of two (checked at construction), so the
        // fold is an exact bitwise XOR of the row index into the bank
        // selector — unbiased and invertible for fixed (rank, row).
        let row = row_seq >> (self.bank_bits + self.rank_bits);
        let bank = field(row_seq ^ row, 0, self.bank_bits) as usize;
        let rank = field(row_seq, self.bank_bits, self.rank_bits) as usize;
        Location { mc, channel, rank, bank, row, column }
    }
}

/// The `bits`-bit field of `a` starting at bit `shift`.
fn field(a: u64, shift: u32, bits: u32) -> u64 {
    (a >> shift) & ((1 << bits) - 1)
}

/// Removes the `bits`-bit interleave selector above a `2^shift`-byte
/// granule from `a`, producing a dense address within the selected unit.
fn collapse(a: u64, shift: u32, bits: u32) -> u64 {
    (a >> (shift + bits)) << shift | field(a, 0, shift)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapping(policy: InterleavePolicy) -> AddressMapping {
        AddressMapping::new(DramConfig::two_mc_two_channel(), policy)
    }

    #[test]
    fn baseline_interleaves_sub_page() {
        let m = mapping(InterleavePolicy::baseline());
        let a = m.locate(DramAddr::new(0));
        let b = m.locate(DramAddr::new(512));
        assert_ne!(a.mc, b.mc, "512 B apart lands on different MCs");
        let c = m.locate(DramAddr::new(256));
        assert_ne!(a.channel, c.channel, "256 B apart switches channel");
    }

    #[test]
    fn coarse_mc_keeps_pages_on_one_mc() {
        let m = mapping(InterleavePolicy::coarse_mc());
        let base = 12345 * 4096u64;
        let mc0 = m.locate(DramAddr::new(base)).mc;
        for off in (0..4096).step_by(64) {
            assert_eq!(m.locate(DramAddr::new(base + off)).mc, mc0);
        }
        assert_ne!(m.locate(DramAddr::new(base + 4096)).mc, mc0);
    }

    #[test]
    fn page_channel_keeps_pages_on_one_channel() {
        let m = mapping(InterleavePolicy::page_channel());
        let base = 777 * 4096u64;
        let first = m.locate(DramAddr::new(base));
        for off in (0..4096).step_by(64) {
            let l = m.locate(DramAddr::new(base + off));
            assert_eq!((l.mc, l.channel), (first.mc, first.channel));
        }
    }

    #[test]
    fn compatibility_flags() {
        assert!(!InterleavePolicy::baseline().tmcc_compatible());
        assert!(InterleavePolicy::coarse_mc().tmcc_compatible());
        assert!(InterleavePolicy::page_channel().tmcc_compatible());
    }

    #[test]
    fn mapping_is_injective_over_a_region() {
        use std::collections::HashSet;
        let m = mapping(InterleavePolicy::baseline());
        let mut seen = HashSet::new();
        for i in 0..20000u64 {
            let l = m.locate(DramAddr::new(i * 64));
            assert!(
                seen.insert((l.mc, l.channel, l.rank, l.bank, l.row, l.column)),
                "collision at block {i}"
            );
        }
    }

    #[test]
    fn bank_hash_uniform_over_sequential_rows() {
        // Chi-square-style check: a row-sequential sweep (the worst case
        // the XOR hash exists to spread) must hit every (rank, bank) pair
        // uniformly. The old `(row_seq ^ (row_seq / (banks*ranks))) %
        // banks` formula happened to be unbiased only because banks*ranks
        // was a power of two; this pins the property down explicitly.
        for (banks, ranks) in [(16usize, 8usize), (8, 2), (4, 1), (32, 4)] {
            let cfg = DramConfig { banks, ranks, ..DramConfig::default() };
            let m = AddressMapping::new(cfg, InterleavePolicy::coarse_mc());
            let sweeps = 16u64; // full periods of the bank/rank pattern
            let rows = sweeps * (banks * ranks) as u64;
            let mut counts = vec![0u64; banks * ranks];
            for r in 0..rows {
                let l = m.locate(DramAddr::new(r * cfg.row_bytes));
                counts[l.rank * banks + l.bank] += 1;
            }
            let expect = sweeps as f64;
            let chi2: f64 = counts.iter().map(|&c| (c as f64 - expect).powi(2) / expect).sum();
            // The XOR hash permutes banks within each period, so a
            // sequential sweep is *exactly* uniform; any skew at all is a
            // regression (threshold far below the p=0.001 critical value
            // for banks*ranks-1 degrees of freedom).
            assert!(
                chi2 < 1e-9,
                "bank distribution skewed: chi2={chi2} for {banks}x{ranks}, counts={counts:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "banks per rank must be a power of two")]
    fn rejects_non_pow2_banks() {
        let cfg = DramConfig { banks: 12, ..DramConfig::default() };
        let _ = AddressMapping::new(cfg, InterleavePolicy::baseline());
    }

    #[test]
    #[should_panic(expected = "ranks per channel must be a power of two")]
    fn rejects_non_pow2_ranks() {
        let cfg = DramConfig { ranks: 3, ..DramConfig::default() };
        let _ = AddressMapping::new(cfg, InterleavePolicy::baseline());
    }

    #[test]
    #[should_panic(expected = "memory controllers must be a power of two")]
    fn rejects_non_pow2_mcs() {
        let cfg = DramConfig { mcs: 3, ..DramConfig::default() };
        let _ = AddressMapping::new(cfg, InterleavePolicy::baseline());
    }

    #[test]
    #[should_panic(expected = "channels per MC must be a power of two")]
    fn rejects_non_pow2_channels() {
        let cfg = DramConfig { channels_per_mc: 6, ..DramConfig::default() };
        let _ = AddressMapping::new(cfg, InterleavePolicy::baseline());
    }

    #[test]
    #[should_panic(expected = "row bytes must be a power of two")]
    fn rejects_non_pow2_row_bytes() {
        let cfg = DramConfig { row_bytes: 6144, ..DramConfig::default() };
        let _ = AddressMapping::new(cfg, InterleavePolicy::baseline());
    }

    #[test]
    #[should_panic(expected = "MC interleave granularity must be a power of two")]
    fn rejects_non_pow2_mc_granularity() {
        let policy = InterleavePolicy { mc_granularity: 3072, ..InterleavePolicy::coarse_mc() };
        let _ = AddressMapping::new(DramConfig::default(), policy);
    }

    #[test]
    #[should_panic(expected = "channel interleave granularity must be a power of two")]
    fn rejects_non_pow2_channel_granularity() {
        let policy = InterleavePolicy { channel_granularity: 384, ..InterleavePolicy::baseline() };
        let _ = AddressMapping::new(DramConfig::default(), policy);
    }

    /// The decode as divisions and remainders, the formula the shifts and
    /// masks replace.
    fn locate_by_division(cfg: &DramConfig, policy: InterleavePolicy, a: u64) -> Location {
        fn collapse(a: u64, granularity: u64, units: u64) -> u64 {
            (a / granularity / units) * granularity + a % granularity
        }
        let (mcs, channels) = (cfg.mcs as u64, cfg.channels_per_mc as u64);
        let (banks, ranks) = (cfg.banks as u64, cfg.ranks as u64);
        let mc = ((a / policy.mc_granularity) % mcs) as usize;
        let within_mc = collapse(a, policy.mc_granularity, mcs);
        let channel = ((within_mc / policy.channel_granularity) % channels) as usize;
        let within_ch = collapse(within_mc, policy.channel_granularity, channels);
        let column = within_ch % cfg.row_bytes;
        let row_seq = within_ch / cfg.row_bytes;
        let row = row_seq / (banks * ranks);
        let bank = ((row_seq ^ row) % banks) as usize;
        let rank = ((row_seq / banks) % ranks) as usize;
        Location { mc, channel, rank, bank, row, column }
    }

    #[test]
    fn shift_decode_matches_division_decode() {
        let policies = [
            InterleavePolicy::baseline(),
            InterleavePolicy::coarse_mc(),
            InterleavePolicy::page_channel(),
        ];
        let geometries = [
            DramConfig::default(),
            DramConfig::two_mc_two_channel(),
            DramConfig { mcs: 4, channels_per_mc: 8, ranks: 2, banks: 32, ..DramConfig::default() },
            DramConfig {
                mcs: 8,
                channels_per_mc: 1,
                ranks: 1,
                banks: 4,
                row_bytes: 1024,
                ..DramConfig::default()
            },
            DramConfig {
                mcs: 2,
                channels_per_mc: 4,
                ranks: 16,
                banks: 8,
                row_bytes: 65536,
                ..DramConfig::default()
            },
        ];
        let mut state = 0x5EED_u64;
        for cfg in &geometries {
            for &policy in &policies {
                let m = AddressMapping::new(*cfg, policy);
                // Dense low addresses, then random ones over 48 bits.
                for i in 0..200_000u64 {
                    let a = if i < 100_000 {
                        i * 8
                    } else {
                        state = state.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
                        state >> 16
                    };
                    let want = locate_by_division(cfg, policy, a);
                    assert_eq!(m.locate(DramAddr::new(a)), want, "{cfg:?} {policy:?} {a:#x}");
                }
            }
        }
    }

    #[test]
    fn sequential_rows_spread_across_banks() {
        // Within one channel, consecutive row-sized regions must land in
        // different banks (bank bits sit above the column bits).
        let m = AddressMapping::new(DramConfig::default(), InterleavePolicy::baseline());
        let cfg = DramConfig::default();
        let mut banks = std::collections::HashSet::new();
        for r in 0..32u64 {
            let l = m.locate(DramAddr::new(r * cfg.row_bytes));
            banks.insert((l.rank, l.bank));
        }
        assert!(banks.len() > 8, "rows should spread across banks, got {}", banks.len());
    }
}
