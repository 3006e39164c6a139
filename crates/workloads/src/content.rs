//! Page-content generation.
//!
//! The capacity side of every experiment depends on how well resident
//! pages compress under (a) block-level compression (Compresso / ML1) and
//! (b) page-level Deflate (TMCC's ML2) — Fig. 15 and Table IV cols D/E.
//! This module synthesizes page bytes from a small set of **templates**
//! whose real compressibility under this repo's actual codecs spans the
//! regimes real memory dumps exhibit, and mixes them per workload
//! ([`ContentProfile`]).
//!
//! Pages are generated deterministically from `(workload seed, page
//! index)`, so the simulator can regenerate any page at any time without
//! storing multi-GiB images.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tmcc_types::addr::PAGE_SIZE;

/// A content regime with known compressibility characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PageTemplate {
    /// Mostly zero bytes with `density` scattered nonzero values —
    /// untouched heap tails, sparse matrices. Compresses under everything.
    Sparse {
        /// Fraction of nonzero bytes (0..1).
        density: f64,
    },
    /// Repetitions of `vocab` distinct `record_len`-byte records in random
    /// order — serialized objects, adjacency metadata. Deflate finds the
    /// repeats; 64 B block codecs mostly cannot.
    RecordPack {
        /// Number of distinct records.
        vocab: u16,
        /// Record length in bytes.
        record_len: u16,
    },
    /// 8-byte pointers sharing their high 5 bytes — pointer-dense nodes.
    /// Both BDI and Deflate do well.
    Pointers,
    /// 4-byte integers in a narrow range — counters, indices. BDI-friendly.
    SmallInts {
        /// Range of the integers.
        span: u32,
    },
    /// Doubles with a handful of exponents and random mantissas — numeric
    /// state. Deflate gets a little; block codecs almost nothing.
    FloatLike,
    /// Words from a tiny vocabulary — logs, symbol tables. Deflate-only.
    TextLike,
    /// Uniform random bytes — encrypted/compressed/hashed content.
    Random,
}

impl PageTemplate {
    fn fill(self, rng: &mut SmallRng, page: &mut [u8]) {
        match self {
            PageTemplate::Sparse { density } => {
                let n = (page.len() as f64 * density) as usize;
                for _ in 0..n {
                    let i = rng.gen_range(0..page.len());
                    page[i] = rng.gen_range(1..=255);
                }
            }
            PageTemplate::RecordPack { vocab, record_len } => {
                let rl = record_len.max(8) as usize;
                let v = vocab.max(1) as usize;
                let records: Vec<Vec<u8>> =
                    (0..v).map(|_| (0..rl).map(|_| rng.gen()).collect()).collect();
                let mut pos = 0;
                while pos < page.len() {
                    let r = &records[rng.gen_range(0..v)];
                    let n = r.len().min(page.len() - pos);
                    page[pos..pos + n].copy_from_slice(&r[..n]);
                    pos += n;
                }
            }
            PageTemplate::Pointers => {
                let base: u64 = 0x0000_7f00_0000_0000 | (rng.gen::<u64>() & 0xffff_f000);
                for chunk in page.chunks_exact_mut(8) {
                    let p = base + (rng.gen::<u64>() & 0xf_ffff) * 8;
                    chunk.copy_from_slice(&p.to_le_bytes());
                }
            }
            PageTemplate::SmallInts { span } => {
                let base: u32 = rng.gen_range(0..1 << 20);
                for chunk in page.chunks_exact_mut(4) {
                    let v = base + rng.gen_range(0..span.max(1));
                    chunk.copy_from_slice(&v.to_le_bytes());
                }
            }
            PageTemplate::FloatLike => {
                let exps: Vec<u16> = (0..4).map(|_| 0x3ff0 | rng.gen_range(0u16..16)).collect();
                for chunk in page.chunks_exact_mut(8) {
                    let mantissa: u64 = rng.gen::<u64>() & 0x000f_ffff_ffff_ffff;
                    let exp = exps[rng.gen_range(0..exps.len())] as u64;
                    let bits = (exp << 48) | mantissa;
                    chunk.copy_from_slice(&bits.to_le_bytes());
                }
            }
            PageTemplate::TextLike => {
                const WORDS: &[&[u8]] = &[
                    b"vertex ",
                    b"edge ",
                    b"weight=",
                    b"0.125 ",
                    b"node_",
                    b"visited ",
                    b"queue ",
                    b"status=ok ",
                    b"[info] ",
                    b"update ",
                ];
                let mut pos = 0;
                while pos < page.len() {
                    let w = WORDS[rng.gen_range(0..WORDS.len())];
                    let n = w.len().min(page.len() - pos);
                    page[pos..pos + n].copy_from_slice(&w[..n]);
                    pos += n;
                }
            }
            PageTemplate::Random => {
                rng.fill(page);
            }
        }
    }
}

/// A per-workload mixture of templates.
///
/// # Examples
///
/// ```
/// use tmcc_workloads::{ContentProfile, PageContent};
///
/// let profile = ContentProfile::graph_analytics();
/// let content = PageContent::new(profile, 99);
/// let (mut a, mut b) = ([0u8; 4096], [1u8; 4096]);
/// content.fill_page(7, &mut a);
/// content.fill_page(7, &mut b);
/// assert_eq!(a, b, "deterministic");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ContentProfile {
    templates: Vec<(PageTemplate, f64)>,
}

impl ContentProfile {
    /// Builds a profile from `(template, weight)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `templates` is empty or weights are not positive.
    pub fn new(templates: Vec<(PageTemplate, f64)>) -> Self {
        assert!(!templates.is_empty(), "profile needs at least one template");
        assert!(templates.iter().all(|&(_, w)| w > 0.0), "weights must be positive");
        Self { templates }
    }

    /// GraphBIG-like: adjacency records + sparse + pointers.
    /// Calibrated to Deflate ≈ 3×, block-level ≈ 1.3× (Table IV rows 1-9).
    pub fn graph_analytics() -> Self {
        Self::new(vec![
            (PageTemplate::RecordPack { vocab: 8, record_len: 48 }, 0.44),
            (PageTemplate::Sparse { density: 0.08 }, 0.26),
            (PageTemplate::Pointers, 0.12),
            (PageTemplate::TextLike, 0.08),
            (PageTemplate::Random, 0.10),
        ])
    }

    /// mcf-like: pointer-and-cost records, little block-level structure.
    /// Calibrated to Deflate ≈ 2.5×, block ≈ 1.1×.
    pub fn mcf() -> Self {
        Self::new(vec![
            (PageTemplate::RecordPack { vocab: 10, record_len: 40 }, 0.62),
            (PageTemplate::SmallInts { span: 4000 }, 0.12),
            (PageTemplate::Sparse { density: 0.05 }, 0.08),
            (PageTemplate::FloatLike, 0.04),
            (PageTemplate::Random, 0.14),
        ])
    }

    /// omnetpp-like: small integers and message text. BDI does unusually
    /// well (block ≈ 1.6×), Deflate ≈ 2.5×.
    pub fn omnetpp() -> Self {
        Self::new(vec![
            (PageTemplate::Sparse { density: 0.05 }, 0.50),
            (PageTemplate::RecordPack { vocab: 8, record_len: 36 }, 0.24),
            (PageTemplate::Random, 0.26),
        ])
    }

    /// canneal-like: netlist elements, mostly high-entropy. Deflate ≈ 1.5×,
    /// block ≈ 1.15×.
    pub fn canneal() -> Self {
        Self::new(vec![
            (PageTemplate::Random, 0.42),
            (PageTemplate::FloatLike, 0.18),
            (PageTemplate::RecordPack { vocab: 10, record_len: 32 }, 0.30),
            (PageTemplate::Sparse { density: 0.05 }, 0.10),
        ])
    }

    /// Highly compressible (blackscholes-like option records).
    pub fn highly_compressible() -> Self {
        Self::new(vec![
            (PageTemplate::RecordPack { vocab: 12, record_len: 40 }, 0.5),
            (PageTemplate::Sparse { density: 0.03 }, 0.3),
            (PageTemplate::SmallInts { span: 100 }, 0.2),
        ])
    }

    /// The `(template, weight)` pairs.
    pub fn templates(&self) -> &[(PageTemplate, f64)] {
        &self.templates
    }
}

/// Deterministic page-content source for one workload instance.
#[derive(Debug, Clone, PartialEq)]
pub struct PageContent {
    profile: ContentProfile,
    seed: u64,
    total_weight: f64,
}

impl PageContent {
    /// Binds a profile to a workload seed.
    pub fn new(profile: ContentProfile, seed: u64) -> Self {
        let total_weight = profile.templates.iter().map(|&(_, w)| w).sum();
        Self { profile, seed, total_weight }
    }

    /// The template used for page `index`.
    pub fn template_of(&self, index: u64) -> PageTemplate {
        let mut rng = SmallRng::seed_from_u64(self.seed ^ index.wrapping_mul(0x9E37_79B9));
        let mut pick = rng.gen::<f64>() * self.total_weight;
        for &(t, w) in &self.profile.templates {
            if pick < w {
                return t;
            }
            pick -= w;
        }
        self.profile.templates.last().expect("non-empty").0
    }

    /// Regenerates the 4 KiB content of page `index` into a caller-owned
    /// buffer, so a caller reading many pages (`PageStore`, the codec
    /// sweeps) reuses one buffer for all of them.
    ///
    /// # Panics
    ///
    /// Panics unless `page` is exactly one page long.
    pub fn fill_page(&self, index: u64, page: &mut [u8]) {
        assert_eq!(page.len(), PAGE_SIZE, "page buffer must be exactly {PAGE_SIZE} bytes");
        page.fill(0);
        let mut rng =
            SmallRng::seed_from_u64(self.seed ^ index.wrapping_mul(0x9E37_79B9).rotate_left(17));
        self.template_of(index).fill(&mut rng, page);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmcc_compression::{BestOfCodec, BlockCodec};
    use tmcc_deflate::MemDeflate;

    /// Page `index` of `content` in a fresh buffer.
    fn page(content: &PageContent, index: u64) -> Vec<u8> {
        let mut page = vec![0u8; PAGE_SIZE];
        content.fill_page(index, &mut page);
        page
    }

    fn ratios(profile: ContentProfile, pages: u64) -> (f64, f64) {
        let content = PageContent::new(profile, 42);
        let deflate = MemDeflate::default();
        let block = BestOfCodec::new();
        let mut raw = 0usize;
        let mut dz = 0usize;
        let mut bz = 0usize;
        for i in 0..pages {
            let p = page(&content, i);
            raw += p.len();
            dz += deflate.compressed_size(&p);
            bz += p
                .chunks_exact(64)
                .map(|b| {
                    let arr: &[u8; 64] = b.try_into().expect("64B");
                    block.compressed_size(arr)
                })
                .sum::<usize>();
        }
        (raw as f64 / dz as f64, raw as f64 / bz as f64)
    }

    #[test]
    fn pages_are_deterministic() {
        let c = PageContent::new(ContentProfile::graph_analytics(), 7);
        assert_eq!(page(&c, 123), page(&c, 123));
        let c2 = PageContent::new(ContentProfile::graph_analytics(), 8);
        assert_ne!(page(&c, 123), page(&c2, 123));
    }

    #[test]
    fn graph_profile_in_calibration_band() {
        let (deflate, block) = ratios(ContentProfile::graph_analytics(), 60);
        // Targets: Deflate ~3.0, block ~1.3 (Table IV). Generous bands.
        assert!((2.2..4.2).contains(&deflate), "deflate ratio {deflate}");
        assert!((1.1..1.9).contains(&block), "block ratio {block}");
    }

    #[test]
    fn canneal_profile_is_poorly_compressible() {
        let (deflate, block) = ratios(ContentProfile::canneal(), 60);
        assert!((1.1..2.1).contains(&deflate), "deflate ratio {deflate}");
        assert!(block < 1.5, "block ratio {block}");
    }

    #[test]
    fn omnetpp_block_beats_mcf_block() {
        let (_, omnet_block) = ratios(ContentProfile::omnetpp(), 60);
        let (_, mcf_block) = ratios(ContentProfile::mcf(), 60);
        assert!(
            omnet_block > mcf_block,
            "omnetpp {omnet_block} should beat mcf {mcf_block} at block level"
        );
    }

    #[test]
    fn deflate_beats_block_everywhere() {
        for profile in [
            ContentProfile::graph_analytics(),
            ContentProfile::mcf(),
            ContentProfile::omnetpp(),
            ContentProfile::canneal(),
            ContentProfile::highly_compressible(),
        ] {
            let (deflate, block) = ratios(profile, 40);
            assert!(deflate > block * 0.95, "deflate {deflate} vs block {block}");
        }
    }

    #[test]
    fn highly_compressible_is_high() {
        let (deflate, _) = ratios(ContentProfile::highly_compressible(), 40);
        assert!(deflate > 4.0, "got {deflate}");
    }
}
