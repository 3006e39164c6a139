//! The one PPN → slot mapping every per-page store shares.
//!
//! The simulator places its pages once, at construction, as a few runs of
//! consecutive PPNs: `System::try_new` hands every scheme the data pages
//! from 0, then the page-table region `[table_region_base,
//! table_region_base + table_page_count)`. A [`PageIndex`] holds those
//! runs in ascending order, and a placed page's *slot* is its rank among
//! the placed PPNs. A per-page store therefore keeps flat arrays with
//! exactly one entry per page, written once at construction.
//! [`PageMetaStore`](crate::page_meta::PageMetaStore) and Compresso's
//! chunk words both index through it, so which PPNs are placed, and where
//! each one's entry sits, is decided in one place.
//!
//! A lookup scans the runs in order, since the first run that ends past a
//! PPN is the only one that can hold it: one or two comparisons for the
//! layouts the simulator builds, and one per run for a layout of many.

use std::ops::Range;

/// Pages `start..end`, whose first page has slot `base`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    start: u64,
    end: u64,
    base: u64,
}

/// The placed PPNs as ascending runs; a page's slot is its rank.
///
/// # Examples
///
/// ```
/// use tmcc::PageIndex;
///
/// let table_base = 1 << 26;
/// let mut index = PageIndex::default();
/// index.push(0..100); // data pages
/// index.push(table_base..table_base + 3); // page-table pages
/// assert_eq!(index.slot(99), Some(99));
/// assert_eq!(index.slot(table_base + 1), Some(101));
/// assert_eq!(index.slot(100), None);
/// assert_eq!(index.len(), 103);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageIndex {
    runs: Vec<Run>,
}

impl PageIndex {
    /// Places pages `ppns` after every page placed so far, so their slots
    /// continue the ranks. A range that starts where the last run ends
    /// extends it, and an empty one places nothing.
    ///
    /// # Panics
    ///
    /// Panics unless `ppns` starts past every placed page.
    pub fn push(&mut self, ppns: Range<u64>) {
        if ppns.is_empty() {
            return;
        }
        let base = self.len();
        match self.runs.last_mut() {
            Some(run) if ppns.start == run.end => run.end = ppns.end,
            Some(run) if ppns.start < run.end => {
                panic!("pages must ascend: {:#x} after {:#x}", ppns.start, run.end - 1)
            }
            _ => self.runs.push(Run { start: ppns.start, end: ppns.end, base }),
        }
    }

    /// The slot of page `ppn`, or `None` when it is not placed.
    #[inline]
    pub fn slot(&self, ppn: u64) -> Option<usize> {
        let run = self.runs.iter().find(|r| ppn < r.end)?;
        (ppn >= run.start).then(|| (run.base + (ppn - run.start)) as usize)
    }

    /// Number of placed pages.
    pub fn len(&self) -> u64 {
        self.runs.last().map_or(0, |r| r.base + (r.end - r.start))
    }

    /// Whether no page is placed.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The placed PPNs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.runs.iter().flat_map(|r| r.start..r.end)
    }

    /// Host heap bytes of the run table (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        self.runs.capacity() * std::mem::size_of::<Run>()
    }

    /// Number of runs, adjacent ranges counted as one.
    #[cfg(test)]
    pub(crate) fn run_count(&self) -> usize {
        self.runs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The layouts a store is built over, as `(start, len)` runs: none;
    /// one run; data pages from 0 (possibly none), then a table run after
    /// a gap; single pages with gaps between them.
    fn layout(
        kind: u8,
        start: u64,
        len: u64,
        gap: u64,
        table: u64,
        gaps: &[u64],
    ) -> Vec<(u64, u64)> {
        match kind {
            0 => Vec::new(),
            1 => vec![(start, len + 1)],
            2 => vec![(0, len), (len + gap, table)],
            _ => gaps
                .iter()
                .scan(0, |next, gap| {
                    *next += gap;
                    Some((*next - 1, 1))
                })
                .collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every placed PPN maps to its rank in a sorted list of the
        /// placed pages, and every other PPN (before, between and past
        /// the runs) to `None`; iteration lists the pages in slot order.
        #[test]
        fn slots_are_ranks_in_a_sorted_list(
            kind in 0u8..4,
            start in 0u64..1 << 40,
            len in 0u64..2000,
            gap in 1u64..5000,
            table in 1u64..40,
            gaps in prop::collection::vec(1u64..9, 1..300),
            probes in prop::collection::vec(any::<u64>(), 64),
        ) {
            let runs = layout(kind, start, len, gap, table, &gaps);
            let mut index = PageIndex::default();
            let mut sorted: Vec<u64> = Vec::new();
            for &(start, len) in &runs {
                index.push(start..start + len);
                sorted.extend(start..start + len);
            }
            prop_assert_eq!(index.len(), sorted.len() as u64);
            prop_assert_eq!(index.is_empty(), sorted.is_empty());
            prop_assert!(index.iter().eq(sorted.iter().copied()));
            let top = sorted.last().map_or(0, |&p| p + 1);
            let mut near: Vec<u64> = runs
                .iter()
                .flat_map(|&(start, len)| {
                    [start.wrapping_sub(1), start, (start + len).wrapping_sub(1), start + len]
                })
                .collect();
            near.extend([0, top, top + 1, u64::MAX]);
            near.extend(probes.iter().map(|p| p % (top + 2)));
            near.extend(probes);
            for ppn in near {
                prop_assert_eq!(index.slot(ppn), sorted.binary_search(&ppn).ok(), "ppn {:#x}", ppn);
            }
        }
    }

    #[test]
    fn adjacent_ranges_are_one_run() {
        let mut index = PageIndex::default();
        index.push(0..4);
        index.push(4..4);
        index.push(4..9);
        assert_eq!(index.run_count(), 1);
        assert_eq!(index.slot(8), Some(8));
    }

    #[test]
    #[should_panic(expected = "pages must ascend")]
    fn a_range_inside_the_last_run_is_refused() {
        let mut index = PageIndex::default();
        index.push(10..20);
        index.push(19..30);
    }
}
