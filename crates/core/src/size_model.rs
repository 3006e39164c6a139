//! Per-page compressed-size model.
//!
//! Full-system runs touch tens of thousands of pages and migrate them
//! repeatedly; running the real codecs on every page at simulation time
//! would dominate runtime without changing outcomes. Instead the model
//! **samples** a workload's real pages, compresses the samples with the
//! *actual* codecs (the memory-specialized Deflate of `tmcc-deflate` and
//! the best-of block composite of `tmcc-compression`), and assigns every
//! page a size drawn deterministically from the resulting empirical
//! distribution. Compression-ratio experiments (Fig. 15) bypass this model
//! and run the codecs directly.
//!
//! Writebacks perturb a page's compressibility over time; `dirty_epoch`
//! lets callers re-draw a page's size after heavy write activity, which is
//! how Compresso-style page-overflow events arise.

use std::sync::{Mutex, OnceLock};
use tmcc_compression::{BestOfCodec, BlockCodec};
use tmcc_deflate::MemDeflate;
use tmcc_types::cte::BlockMetadata;
use tmcc_types::fxhash::FxHashMap;
use tmcc_workloads::PageStore;

/// Process-wide memo of sampling results, keyed by the exact concatenated
/// bytes of the sampled pages.
///
/// Sweeps construct many systems over the *same* workload content — every
/// grid point of an experiment, every probe of an iso-performance budget
/// search — and each construction used to re-run the real codecs over the
/// identical sample pages. Keying by the full page bytes makes the memo
/// exactly behavior-preserving (two different contents can never share an
/// entry), while a hit skips straight to the stored empirical
/// distribution. Distinct workload images are few (tens), so the retained
/// keys stay small; generating the page bytes to build the key costs
/// microseconds against the milliseconds the codecs take.
fn sample_memo() -> &'static Mutex<FxHashMap<Vec<u8>, Vec<PageSizes>>> {
    static MEMO: OnceLock<Mutex<FxHashMap<Vec<u8>, Vec<PageSizes>>>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(FxHashMap::default()))
}

/// Compressed sizes of one page under the two compressor families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageSizes {
    /// Bytes under page-level memory-specialized Deflate (ML2 storage).
    pub deflate_bytes: usize,
    /// Bytes under 64 B block-level best-of compression, summed across the
    /// page (Compresso storage, before chunk rounding).
    pub block_bytes: usize,
}

impl PageSizes {
    /// Compresso chunks (512 B) this page occupies.
    pub fn compresso_chunks(&self) -> usize {
        self.block_bytes.div_ceil(BlockMetadata::CHUNK_SIZE).max(1)
    }

    /// Whether ML2 would refuse this page (incompressible: larger than the
    /// biggest sub-chunk class).
    pub fn ml2_incompressible(&self) -> bool {
        self.deflate_bytes > 4096
    }
}

/// The sampled empirical size model for one workload.
///
/// # Examples
///
/// ```
/// use tmcc::SizeModel;
/// use tmcc_workloads::{PageStore, WorkloadProfile};
///
/// let w = WorkloadProfile::by_name("canneal").expect("known");
/// let model = SizeModel::sample_via(&mut PageStore::new(w.page_content(42)), 16);
/// let s = model.sizes_of(1234, 0);
/// assert!(s.deflate_bytes <= 4096 + 3);
/// assert_eq!(s, model.sizes_of(1234, 0), "deterministic");
/// ```
#[derive(Debug, Clone)]
pub struct SizeModel {
    samples: Vec<PageSizes>,
}

impl SizeModel {
    /// Compresses `samples` representative pages with the real codecs,
    /// materializing them through `store` — the lazy generate-on-read
    /// path the system model uses, so sampling shares the store's scratch
    /// buffer and sees any pinned (divergent) pages.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero.
    pub fn sample_via(store: &mut PageStore, samples: usize) -> Self {
        assert!(samples > 0, "need at least one sample");
        // Spread sample indices to hit every template in the mix.
        let pages: Vec<Vec<u8>> =
            (0..samples as u64).map(|i| store.read(i.wrapping_mul(0x9E37) + i).to_vec()).collect();
        let key: Vec<u8> = pages.iter().flat_map(|p| p.iter().copied()).collect();
        if let Some(hit) = sample_memo().lock().expect("memo poisoned").get(&key) {
            return Self { samples: hit.clone() };
        }
        let deflate = MemDeflate::default();
        let block = BestOfCodec::new();
        let samples: Vec<PageSizes> = pages
            .iter()
            .map(|page| {
                let deflate_bytes = deflate.compressed_size(page);
                let block_bytes = page
                    .chunks_exact(64)
                    .map(|b| {
                        let arr: &[u8; 64] = b.try_into().expect("64B chunk");
                        block.compressed_size(arr)
                    })
                    .sum();
                PageSizes { deflate_bytes, block_bytes }
            })
            .collect();
        sample_memo().lock().expect("memo poisoned").insert(key, samples.clone());
        Self { samples }
    }

    /// Builds a model directly from known sizes (tests, ablations).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_samples(samples: Vec<PageSizes>) -> Self {
        assert!(!samples.is_empty(), "need at least one sample");
        Self { samples }
    }

    /// Sizes of page `index` at write-epoch `dirty_epoch` (bump the epoch
    /// after heavy writes to re-draw the page's compressibility).
    pub fn sizes_of(&self, index: u64, dirty_epoch: u32) -> PageSizes {
        self.samples[self.sample_of(index, dirty_epoch)]
    }

    /// Index into [`samples`](Self::samples) of the sizes page `index`
    /// draws at write-epoch `dirty_epoch`.
    #[inline]
    pub(crate) fn sample_of(&self, index: u64, dirty_epoch: u32) -> usize {
        let h = index
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(dirty_epoch % 63)
            .wrapping_add(dirty_epoch as u64);
        let n = self.samples.len() as u64;
        // A power-of-two count (the default 128) takes the same remainder
        // as a mask, without a division.
        (if n.is_power_of_two() { h & (n - 1) } else { h % n }) as usize
    }

    /// The sampled sizes pages draw from.
    pub(crate) fn samples(&self) -> &[PageSizes] {
        &self.samples
    }

    /// Heap bytes the model owns: its sampled sizes.
    pub fn heap_bytes(&self) -> usize {
        self.samples.capacity() * std::mem::size_of::<PageSizes>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmcc_workloads::{PageContent, WorkloadProfile};

    /// The model sampled from a fresh store over `content`.
    fn sampled(content: PageContent, samples: usize) -> SizeModel {
        SizeModel::sample_via(&mut PageStore::new(content), samples)
    }

    #[test]
    fn sizes_are_deterministic_and_bounded() {
        let w = WorkloadProfile::by_name("pageRank").expect("known");
        let m = sampled(w.page_content(7), 12);
        for i in 0..100u64 {
            let s = m.sizes_of(i, 0);
            assert_eq!(s, m.sizes_of(i, 0));
            assert!(s.deflate_bytes <= 4096 + 3);
            assert!(s.block_bytes <= 4096);
            assert!(s.compresso_chunks() <= 8);
        }
    }

    #[test]
    fn dirty_epoch_changes_draws() {
        let m = SizeModel::from_samples(vec![
            PageSizes { deflate_bytes: 100, block_bytes: 1000 },
            PageSizes { deflate_bytes: 2000, block_bytes: 3000 },
        ]);
        let changed = (0..64u64).any(|i| m.sizes_of(i, 0) != m.sizes_of(i, 1));
        assert!(changed, "epoch must be able to re-draw sizes");
    }

    #[test]
    fn graph_ratios_match_calibration() {
        let w = WorkloadProfile::by_name("bfs").expect("known");
        let m = sampled(w.page_content(3), 24);
        // Mean ratios over the samples; block sizes with Compresso's 512 B
        // chunk rounding.
        let ratio = |bytes: fn(&PageSizes) -> usize| {
            4096.0 * m.samples.len() as f64 / m.samples.iter().map(bytes).sum::<usize>() as f64
        };
        let d = ratio(|s| s.deflate_bytes);
        let b = ratio(|s| s.compresso_chunks() * BlockMetadata::CHUNK_SIZE);
        assert!(d > b, "deflate {d} must beat block {b}");
        assert!((2.0..4.5).contains(&d), "deflate ratio {d}");
    }

    #[test]
    fn memoized_resampling_is_identical() {
        let w = WorkloadProfile::by_name("canneal").expect("known");
        let c = w.page_content(11);
        let fresh = sampled(c.clone(), 8);
        let memoized = sampled(c, 8);
        assert_eq!(fresh.samples, memoized.samples);
        // A different seed draws different pages, so it must miss the memo.
        let other = sampled(w.page_content(12), 8);
        assert_ne!(fresh.samples, other.samples);
    }

    #[test]
    fn compresso_chunks_floor_at_one() {
        let s = PageSizes { deflate_bytes: 1, block_bytes: 0 };
        assert_eq!(s.compresso_chunks(), 1);
    }
}
