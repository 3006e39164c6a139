//! Hardware free lists (paper §II, §IV-B, Fig. 3).
//!
//! Three flavours:
//!
//! * [`CompressoFreeList`] — the prior-work list of free 512 B chunks
//!   (Fig. 3a); pointers live "for free" inside free chunks, so the list
//!   costs no DRAM.
//! * [`Ml1FreeList`] — the same structure scaled to 4 KiB chunks for ML1
//!   (Fig. 3b).
//! * [`Ml2FreeLists`] — one list per sub-chunk size class (Fig. 3c). Free
//!   space for ML2 is created by carving *super-chunks* (groups of `M`
//!   interlinked 4 KiB chunks) into `N` equal sub-chunks, choosing `N, M`
//!   to minimize `(4KB · M) mod N` waste; when every sub-chunk of a
//!   super-chunk frees up, its chunks return to ML1 (the "ML2 gracefully
//!   shrinks" behaviour of §IV-A).
//!
//! # Representation
//!
//! Both list flavours are succinct so metadata stays kilobytes at
//! datacenter-scale footprints while popping/pushing in *exactly* the
//! order the original `Vec`/`VecDeque` representations did (frame order
//! determines DRAM addresses and therefore bank timing, so the pop
//! sequence is part of the determinism contract):
//!
//! * [`ChunkFreeList`] splits its free set into a *fresh watermark* — the
//!   never-yet-popped run `[fresh_next, fresh_end)`, which costs zero
//!   bytes — and a LIFO *spill* of explicitly returned chunks. Debug
//!   builds shadow the spill with a `BitVec` free-map that makes the
//!   double-free assertion O(1) instead of an O(n) scan; release builds,
//!   which do not assert, keep no map.
//! * Each [`Ml2FreeLists`] super-chunk is one packed `u32` word (size
//!   class and first frame) for as long as its chunks are one ascending
//!   run and it has never lost a slot: its allocated slots are then a
//!   prefix, all of them unless it is its class's one *open* super-chunk,
//!   whose fill is kept per class. Initial placement carves every
//!   super-chunk from the fresh frame run, so a whole constructed ML2
//!   costs four bytes per super-chunk and no allocation. A super-chunk
//!   gets a slot table — a fresh watermark plus a LIFO of freed slots,
//!   the [`ChunkFreeList`] idiom, and a `u128` occupancy mask for O(1)
//!   double-free detection — when it first loses a slot, or when it is
//!   carved from chunks that are not one ascending run. Freed slots pop
//!   before the fresh ones, most recent first: the order of the old
//!   `VecDeque` `push_front`/`pop_front` byte for byte.
//!
//! All three enforce the conservation invariant — a chunk is never in two
//! places at once — which the property tests exercise.

use crate::error::TmccError;
use std::ops::Range;
#[cfg(debug_assertions)]
use tmcc_types::bitvec::BitVec;

/// A simple LIFO free list of uniform chunks, used for Compresso's 512 B
/// chunks and ML1's 4 KiB chunks.
///
/// Chunks are identified by index (chunk number within the managed
/// region). Push/pop at the top mirrors the paper's "push to / pop from
/// the top of the Free List".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChunkFreeList {
    /// First never-popped chunk of the fresh run.
    fresh_next: u32,
    /// One past the last chunk of the fresh run.
    fresh_end: u32,
    /// Explicitly returned chunks, popped LIFO before the fresh run.
    spill: Vec<u32>,
    /// Free-map over the spill (bit set = chunk is in `spill`) for the
    /// double-free assertion, so only where assertions are compiled.
    #[cfg(debug_assertions)]
    spill_map: BitVec,
}

impl ChunkFreeList {
    /// Creates a list owning chunks `0..chunks`.
    pub fn with_chunks(chunks: u32) -> Self {
        Self { fresh_end: chunks, ..Self::default() }
    }

    /// Creates an empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a free chunk from the top, if any: the most recently pushed
    /// chunk first, then the fresh run in ascending order.
    pub fn pop(&mut self) -> Option<u32> {
        if let Some(c) = self.spill.pop() {
            #[cfg(debug_assertions)]
            self.spill_map.clear(c as usize);
            Some(c)
        } else if self.fresh_next < self.fresh_end {
            let c = self.fresh_next;
            self.fresh_next += 1;
            Some(c)
        } else {
            None
        }
    }

    /// Takes the next `n` chunks of the fresh run at once: the chunks `n`
    /// pops would return while nothing has been pushed. `None`, taking
    /// nothing, when fewer than `n` are fresh.
    ///
    /// # Panics
    ///
    /// Panics if a pushed chunk is waiting, since pops would return it
    /// first.
    pub(crate) fn take_fresh(&mut self, n: u32) -> Option<Range<u32>> {
        assert!(self.spill.is_empty(), "take_fresh with pushed chunks waiting");
        let start = self.fresh_next;
        let end = start.checked_add(n).filter(|&end| end <= self.fresh_end)?;
        self.fresh_next = end;
        Some(start..end)
    }

    /// Returns a chunk to the top.
    pub fn push(&mut self, chunk: u32) {
        #[cfg(debug_assertions)]
        {
            assert!(!self.is_free(chunk), "chunk {chunk} double-freed");
            self.spill_map.grow(chunk as usize + 1);
            self.spill_map.set(chunk as usize);
        }
        self.spill.push(chunk);
    }

    /// Whether `chunk` is currently free (in the fresh run or the spill).
    #[cfg(debug_assertions)]
    fn is_free(&self, chunk: u32) -> bool {
        (self.fresh_next..self.fresh_end).contains(&chunk)
            || ((chunk as usize) < self.spill_map.len() && self.spill_map.get(chunk as usize))
    }

    /// Number of free chunks.
    pub fn len(&self) -> usize {
        (self.fresh_end - self.fresh_next) as usize + self.spill.len()
    }

    /// Every free chunk: the pushed ones, then the fresh run.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.spill.iter().copied().chain(self.fresh_next..self.fresh_end)
    }

    /// Whether no chunks are free.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes owned by the list (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        #[cfg(debug_assertions)]
        let map = self.spill_map.heap_bytes();
        #[cfg(not(debug_assertions))]
        let map = 0;
        self.spill.capacity() * std::mem::size_of::<u32>() + map
    }

    /// Drops excess capacity left behind by a drain (pool-shrink hygiene:
    /// a drained list should not pin its peak-size allocation).
    pub fn shrink_to_fit(&mut self) {
        self.spill.shrink_to_fit();
        #[cfg(debug_assertions)]
        self.spill_map.shrink_to_fit();
    }
}

/// Compresso's 512 B-chunk free list (Fig. 3a).
pub type CompressoFreeList = ChunkFreeList;

/// ML1's 4 KiB-chunk free list (Fig. 3b).
pub type Ml1FreeList = ChunkFreeList;

/// Bits of a super-chunk word below its class field: the first frame of
/// a packed super-chunk, or the index of its slot table.
const LOW_BITS: u32 = 28;
const LOW_MASK: u32 = (1 << LOW_BITS) - 1;
/// Class field of a super-chunk word whose low bits index a slot table.
const TABLED: u32 = 0xF;
/// Class field of a dissolved super-chunk's word.
const DISSOLVED: u32 = 0xE;
/// Size classes a super-chunk word can name: the two highest class
/// fields are the tags above.
const MAX_CLASSES: usize = DISSOLVED as usize;

/// A super-chunk word, decoded.
enum Super {
    /// Chunks `first..first + M`, with a prefix of the slots allocated:
    /// all of them, or the open fill of its class
    /// ([`Ml2FreeLists::open`]).
    Packed { class: usize, first: u32 },
    /// Described by the slot table at this index.
    Tabled(usize),
    /// Dissolved; its id awaits reuse.
    Dissolved,
}

impl Super {
    fn decode(word: u32) -> Self {
        match word >> LOW_BITS {
            TABLED => Super::Tabled((word & LOW_MASK) as usize),
            DISSOLVED => Super::Dissolved,
            class => Super::Packed { class: class as usize, first: word & LOW_MASK },
        }
    }
}

/// The slot table of a super-chunk (Fig. 3c) that has lost a slot or
/// whose chunks are not one ascending run. `M ≤ 8` and the smallest class
/// is 256 B, so `N ≤ 128` and the occupancy mask is one `u128`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SlotTable {
    /// The 4 KiB chunk numbers backing this super-chunk (first `m` used).
    chunks: [u32; 8],
    /// Size class index.
    class: u8,
    /// Chunks backing this super-chunk.
    m: u8,
    /// Total sub-chunk slots.
    n: u8,
    /// First slot never handed out: slots `fresh..n` are free.
    fresh: u8,
    /// Freed slots, popped most recent first, before the fresh ones.
    freed: Vec<u8>,
    /// Bit set = slot currently allocated (O(1) double-free detection).
    allocated: u128,
}

impl SlotTable {
    /// Pops the most recently freed slot, else the next fresh one.
    fn pop_slot(&mut self) -> Option<u8> {
        let s = match self.freed.pop() {
            Some(s) => s,
            None if self.fresh < self.n => {
                self.fresh += 1;
                self.fresh - 1
            }
            None => return None,
        };
        self.allocated |= 1u128 << s;
        Some(s)
    }

    /// Returns a slot, to be reused before older free slots.
    fn push_slot(&mut self, s: u8) {
        self.freed.push(s);
        self.allocated &= !(1u128 << s);
    }

    /// Number of free slots.
    fn free_count(&self) -> usize {
        self.n as usize - self.allocated.count_ones() as usize
    }
}

/// Identifier of an allocated ML2 sub-chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubChunk {
    /// Size class index within [`Ml2FreeLists`].
    pub class: usize,
    /// Super-chunk id.
    pub super_id: u32,
    /// Slot within the super-chunk.
    pub slot: u8,
}

/// The set of ML2 free lists, one per sub-chunk size class.
///
/// # Examples
///
/// ```
/// use tmcc::free_list::{Ml1FreeList, Ml2FreeLists};
///
/// let mut ml1 = Ml1FreeList::with_chunks(1000);
/// let mut ml2 = Ml2FreeLists::paper_classes();
/// // Store a 1300-byte compressed page: needs the 1536-byte class.
/// let sc = ml2.allocate(1300, &mut ml1).expect("space available");
/// assert_eq!(ml2.class_size(sc.class), 1536);
/// ml2.free(sc, &mut ml1);
/// assert_eq!(ml1.len(), 1000, "all chunks returned");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ml2FreeLists {
    /// Sub-chunk sizes per class, ascending.
    class_sizes: Vec<usize>,
    /// Per class: `(M chunks, N sub-chunks)` chosen to minimize waste.
    geometry: Vec<(usize, usize)>,
    /// Per class: super-chunks with at least one free slot (ids).
    avail: Vec<Vec<u32>>,
    /// Every super-chunk's word, indexed directly by id (see [`Super`]).
    /// A slab instead of a hash map: every allocate/free/addr_of on the
    /// simulator's hot path resolves a super-chunk id, and an indexed
    /// `Vec` makes that a bounds-checked load instead of a hash lookup.
    supers: Vec<u32>,
    /// Slot tables, indexed by the low bits of a tabled word.
    tables: Vec<SlotTable>,
    /// Indices of `tables` whose super-chunk dissolved, awaiting reuse.
    free_tables: Vec<u32>,
    /// Per class: its one packed super-chunk with free slots, if any, and
    /// how many of its slots (a prefix) are allocated. Only a carve makes
    /// a packed super-chunk with free slots, and a carve happens only when
    /// its class has no free slot anywhere, so there is at most one.
    open: Vec<Option<(u32, u8)>>,
    /// Ids of dissolved super-chunks awaiting reuse, so churn does not
    /// grow `supers` without bound.
    free_super_ids: Vec<u32>,
    /// Bytes of live sub-chunk allocations (for usage accounting).
    allocated_bytes: usize,
    /// 4 KiB chunks currently owned by ML2.
    owned_chunks: usize,
}

impl Ml2FreeLists {
    /// The size classes used throughout the reproduction: enough classes
    /// that a compressed page wastes little (the paper: "many free lists,
    /// each tracking sub-physical pages of a different size").
    pub fn paper_classes() -> Self {
        Self::new(vec![256, 512, 768, 1024, 1280, 1536, 1792, 2048, 2560, 3072, 4096])
    }

    /// Creates lists for the given ascending size classes.
    ///
    /// # Panics
    ///
    /// Panics if `class_sizes` is empty, unsorted, longer than 14 classes
    /// (what a super-chunk word can name), or contains a class larger than
    /// 4 KiB or smaller than 256 B (the super-chunk slot table packs slot
    /// ids into 7 bits).
    pub fn new(class_sizes: Vec<usize>) -> Self {
        assert!(!class_sizes.is_empty(), "need at least one class");
        assert!(class_sizes.len() <= MAX_CLASSES, "at most {MAX_CLASSES} size classes");
        assert!(class_sizes.windows(2).all(|w| w[0] < w[1]), "classes must be ascending");
        assert!(
            *class_sizes.last().expect("non-empty") <= 4096,
            "sub-chunks cannot exceed a 4 KiB chunk"
        );
        assert!(
            *class_sizes.first().expect("non-empty") >= 256,
            "sub-chunks below 256 B would overflow the 128-slot super-chunk table"
        );
        let geometry = class_sizes.iter().map(|&s| Self::best_geometry(s)).collect();
        let len = class_sizes.len();
        Self {
            class_sizes,
            geometry,
            avail: vec![Vec::new(); len],
            supers: Vec::new(),
            tables: Vec::new(),
            free_tables: Vec::new(),
            open: vec![None; len],
            free_super_ids: Vec::new(),
            allocated_bytes: 0,
            owned_chunks: 0,
        }
    }

    /// Chooses `(M, N)` with `N·size ≤ M·4096`, `M ≤ 8`, minimizing waste
    /// `(M·4096) mod (N·size)` relative to the super-chunk (paper §IV-B:
    /// "N, M are chosen to minimize (4KB · M) mod N").
    fn best_geometry(size: usize) -> (usize, usize) {
        let mut best = (1usize, 4096 / size.max(1));
        let mut best_waste = 4096 % (best.1 * size).max(1);
        for m in 1..=8usize {
            let n = (m * 4096) / size;
            if n == 0 {
                continue;
            }
            let waste = (m * 4096) - n * size;
            // Prefer lower waste per chunk; tie-break on smaller M.
            if (waste as f64 / m as f64) < (best_waste as f64 / best.0 as f64) {
                best = (m, n);
                best_waste = waste;
            }
        }
        (best.0, best.1)
    }

    /// A class's super-chunk geometry: chunks `M` per super-chunk and the
    /// `N` sub-chunks it is carved into.
    #[cfg(test)]
    pub(crate) fn geometry(&self, class: usize) -> (usize, usize) {
        self.geometry[class]
    }

    /// Number of size classes.
    pub fn classes(&self) -> usize {
        self.class_sizes.len()
    }

    /// Sub-chunk size of a class.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn class_size(&self, class: usize) -> usize {
        self.class_sizes[class]
    }

    /// The smallest class that fits `bytes`, if any.
    pub fn class_for(&self, bytes: usize) -> Option<usize> {
        self.class_sizes.iter().position(|&s| s >= bytes)
    }

    /// Allocates a sub-chunk for a `bytes`-long compressed page, carving a
    /// new super-chunk from `ml1`'s free chunks when the class is empty.
    /// Returns `None` when `bytes` exceeds the largest class or ML1 has no
    /// chunks to donate (see [`try_allocate`](Self::try_allocate) for the
    /// typed distinction between the two).
    pub fn allocate(&mut self, bytes: usize, ml1: &mut Ml1FreeList) -> Option<SubChunk> {
        self.try_allocate(bytes, ml1).ok()
    }

    /// Allocates a sub-chunk for a `bytes`-long compressed page, reporting
    /// *why* an allocation cannot be satisfied:
    /// [`TmccError::OversizedAllocation`] when no class fits `bytes`, and
    /// [`TmccError::FreeListExhausted`] when ML1 cannot donate enough
    /// chunks to carve a fresh super-chunk.
    pub fn try_allocate(
        &mut self,
        bytes: usize,
        ml1: &mut Ml1FreeList,
    ) -> Result<SubChunk, TmccError> {
        let class = self.class_for(bytes).ok_or(TmccError::OversizedAllocation {
            requested_bytes: bytes,
            largest_class: *self.class_sizes.last().unwrap_or(&0),
        })?;
        if self.avail[class].is_empty() && self.carve_super(class, ml1).is_none() {
            return Err(TmccError::FreeListExhausted {
                requested_bytes: bytes,
                ml1_free_chunks: ml1.len(),
            });
        }
        // `avail[class]` is non-empty by construction above, and names a
        // super-chunk with a free slot; both are guarded rather than
        // asserted so a corrupted state surfaces as a typed error instead
        // of a panic.
        let super_id = *self.avail[class].last().ok_or(TmccError::FreeListExhausted {
            requested_bytes: bytes,
            ml1_free_chunks: ml1.len(),
        })?;
        let (slot, full) =
            self.take_slot(class, super_id).ok_or(TmccError::UnknownSubChunk { super_id })?;
        if full {
            self.avail[class].pop();
        }
        self.allocated_bytes += self.class_sizes[class];
        Ok(SubChunk { class, super_id, slot })
    }

    /// Allocates the next free slot of super-chunk `id` of `class`;
    /// returns it and whether the super-chunk is now full.
    fn take_slot(&mut self, class: usize, id: u32) -> Option<(u8, bool)> {
        match Super::decode(*self.supers.get(id as usize)?) {
            Super::Packed { .. } => {
                let (open, fill) = self.open[class].filter(|&(open, _)| open == id)?;
                let full = usize::from(fill) + 1 == self.geometry[class].1;
                self.open[class] = (!full).then_some((open, fill + 1));
                Some((fill, full))
            }
            Super::Tabled(t) => {
                let table = &mut self.tables[t];
                let slot = table.pop_slot()?;
                Some((slot, table.free_count() == 0))
            }
            Super::Dissolved => None,
        }
    }

    fn carve_super(&mut self, class: usize, ml1: &mut Ml1FreeList) -> Option<()> {
        let (m, n) = self.geometry[class];
        // Take M chunks from ML1 (§IV-A: "ML1 gives cold victim physical
        // pages to ML2" — here modelled from the free list).
        let mut chunks = [0u32; 8];
        for i in 0..m {
            match ml1.pop() {
                Some(c) => chunks[i] = c,
                None => {
                    for &c in &chunks[..i] {
                        ml1.push(c);
                    }
                    return None;
                }
            }
        }
        let id = self.free_super_ids.pop().unwrap_or(self.supers.len() as u32);
        let run = chunks[0] <= LOW_MASK
            && chunks[..m].iter().zip(chunks[0]..).all(|(&c, expected)| c == expected);
        let word = if run {
            self.open[class] = Some((id, 0));
            (class as u32) << LOW_BITS | chunks[0]
        } else {
            self.new_table(SlotTable {
                chunks,
                class: class as u8,
                m: m as u8,
                n: n as u8,
                fresh: 0,
                freed: Vec::new(),
                allocated: 0,
            })
        };
        match self.supers.get_mut(id as usize) {
            Some(slot) => *slot = word,
            None => self.supers.push(word),
        }
        self.avail[class].push(id);
        self.owned_chunks += m;
        Some(())
    }

    /// Places pages into new lists in one pass, each page of `pages` (its
    /// size class and a tag) into the next slot of its class, carving
    /// super-chunks one after another from `ml1`'s fresh run: what
    /// [`try_allocate`](Self::try_allocate) of each page builds, as every
    /// super-chunk so carved is packed and fills in slot order. Calls
    /// `place` with each page's tag, sub-chunk and the frame its first
    /// byte lies in — its CTE's frame. Returns `false` at the first page
    /// whose class needs a super-chunk the fresh run cannot hold.
    ///
    /// # Panics
    ///
    /// Panics if the lists have carved before, if a chunk was pushed back
    /// to `ml1`, or if a carve would start at a frame a super-chunk word
    /// cannot name (2^28 and up).
    pub(crate) fn place_fresh<T>(
        &mut self,
        ml1: &mut Ml1FreeList,
        pages: impl IntoIterator<Item = (usize, T)>,
        mut place: impl FnMut(T, SubChunk, u32),
    ) -> bool {
        assert!(self.supers.is_empty(), "place_fresh on lists that have carved");
        /// A class's newest super-chunk: id, first frame and slots used.
        #[derive(Clone, Copy)]
        struct Newest {
            id: u32,
            first: u32,
            fill: usize,
        }
        // `fill == N` until the class's first carve, so that page carves.
        let mut newest: Vec<Newest> =
            self.geometry.iter().map(|&(_, n)| Newest { id: 0, first: 0, fill: n }).collect();
        for (class, tag) in pages {
            let (m, n) = self.geometry[class];
            let size = self.class_sizes[class];
            let cur = &mut newest[class];
            if cur.fill == n {
                let Some(run) = ml1.take_fresh(m as u32) else {
                    return false;
                };
                assert!(run.start <= LOW_MASK, "frame {} past a super-chunk word", run.start);
                *cur = Newest { id: self.supers.len() as u32, first: run.start, fill: 0 };
                self.supers.push((class as u32) << LOW_BITS | run.start);
                self.owned_chunks += m;
            }
            let slot = cur.fill;
            cur.fill += 1;
            self.allocated_bytes += size;
            let frame = cur.first + (slot * size / 4096) as u32;
            place(tag, SubChunk { class, super_id: cur.id, slot: slot as u8 }, frame);
        }
        // A class's newest super-chunk with free slots is its open one.
        for (class, cur) in newest.into_iter().enumerate() {
            if (1..self.geometry[class].1).contains(&cur.fill) {
                self.open[class] = Some((cur.id, cur.fill as u8));
                self.avail[class].push(cur.id);
            }
        }
        true
    }

    /// Stores `table` and returns the tabled word that names it.
    fn new_table(&mut self, table: SlotTable) -> u32 {
        let idx = match self.free_tables.pop() {
            Some(idx) => {
                self.tables[idx as usize] = table;
                idx
            }
            None => {
                self.tables.push(table);
                (self.tables.len() - 1) as u32
            }
        };
        assert!(idx <= LOW_MASK, "slot table {idx} past a super-chunk word");
        TABLED << LOW_BITS | idx
    }

    /// Frees a sub-chunk. If its super-chunk becomes entirely free, the
    /// backing chunks return to ML1 (§IV-B).
    ///
    /// # Panics
    ///
    /// Panics on double-free or unknown sub-chunks. Library code should
    /// use [`try_free`](Self::try_free) instead.
    pub fn free(&mut self, sub: SubChunk, ml1: &mut Ml1FreeList) {
        if let Err(e) = self.try_free(sub, ml1) {
            panic!("{e}");
        }
    }

    /// Frees a sub-chunk, returning [`TmccError::DoubleFree`] /
    /// [`TmccError::UnknownSubChunk`] instead of panicking when the
    /// sub-chunk is not a live allocation. If its super-chunk becomes
    /// entirely free, the backing chunks return to ML1 (§IV-B).
    pub fn try_free(&mut self, sub: SubChunk, ml1: &mut Ml1FreeList) -> Result<(), TmccError> {
        let SubChunk { class, super_id: id, slot } = sub;
        let unknown = TmccError::UnknownSubChunk { super_id: id };
        let word = *self.supers.get(id as usize).ok_or(unknown.clone())?;
        let &(m, n) = self.geometry.get(class).ok_or(unknown.clone())?;
        if usize::from(slot) >= n {
            return Err(unknown);
        }
        let size = self.class_sizes[class];
        match Super::decode(word) {
            Super::Dissolved => Err(unknown),
            Super::Packed { class: own, .. } if own != class => Err(unknown),
            Super::Packed { first, .. } => {
                let open = self.open[class].filter(|&(open, _)| open == id);
                let allocated = open.map_or(n, |(_, fill)| usize::from(fill));
                if usize::from(slot) >= allocated {
                    return Err(TmccError::DoubleFree { super_id: id, slot });
                }
                self.allocated_bytes -= size;
                if open.is_some() {
                    self.open[class] = None;
                }
                if allocated == 1 {
                    // Its only allocated slot: fully free.
                    self.dissolve(id, class, first..first + m as u32, ml1);
                    return Ok(());
                }
                // The first lost slot: the free slots are no longer a
                // suffix, so the super-chunk takes a slot table.
                let mut chunks = [0u32; 8];
                for (c, frame) in chunks[..m].iter_mut().zip(first..) {
                    *c = frame;
                }
                let prefix = if allocated == 128 { u128::MAX } else { (1u128 << allocated) - 1 };
                let table = SlotTable {
                    chunks,
                    class: class as u8,
                    m: m as u8,
                    n: n as u8,
                    fresh: allocated as u8,
                    freed: vec![slot],
                    allocated: prefix & !(1u128 << slot),
                };
                let word = self.new_table(table);
                self.supers[id as usize] = word;
                if open.is_none() {
                    // It was full: its one free slot makes it available.
                    self.avail[class].push(id);
                }
                Ok(())
            }
            Super::Tabled(t) => {
                let table = &mut self.tables[t];
                if usize::from(table.class) != class {
                    return Err(unknown);
                }
                if table.allocated & (1u128 << slot) == 0 {
                    return Err(TmccError::DoubleFree { super_id: id, slot });
                }
                // Newly-freed sub-chunks go to the *top* of the list (§IV-B).
                table.push_slot(slot);
                self.allocated_bytes -= size;
                let free = table.free_count();
                if free == 1 {
                    self.avail[class].push(id);
                }
                if free == n {
                    // Fully free: dissolve and return chunks to ML1.
                    let chunks = table.chunks;
                    self.tables[t].freed = Vec::new();
                    self.free_tables.push(t as u32);
                    self.dissolve(id, class, chunks[..m].iter().copied(), ml1);
                }
                Ok(())
            }
        }
    }

    /// Dissolves super-chunk `id` of `class`, returning its chunks to
    /// `ml1` in order. Once no super-chunk is live every id is free, so
    /// the slabs are dropped and ids count from 0 again: a drained ML2
    /// pins nothing of its peak.
    fn dissolve(
        &mut self,
        id: u32,
        class: usize,
        chunks: impl ExactSizeIterator<Item = u32>,
        ml1: &mut Ml1FreeList,
    ) {
        self.owned_chunks -= chunks.len();
        for c in chunks {
            ml1.push(c);
        }
        self.avail[class].retain(|&a| a != id);
        if self.owned_chunks == 0 {
            self.supers = Vec::new();
            self.tables = Vec::new();
            self.free_tables = Vec::new();
            self.free_super_ids = Vec::new();
        } else {
            self.supers[id as usize] = DISSOLVED << LOW_BITS;
            self.free_super_ids.push(id);
        }
    }

    /// Bytes currently allocated to compressed pages.
    pub fn allocated_bytes(&self) -> usize {
        self.allocated_bytes
    }

    /// 4 KiB chunks ML2 currently owns (allocated + internal free space).
    pub fn owned_chunks(&self) -> usize {
        self.owned_chunks
    }

    /// DRAM bytes ML2 occupies (owned chunks × 4 KiB) — the capacity
    /// accounting the effective-ratio experiments use.
    pub fn footprint_bytes(&self) -> usize {
        self.owned_chunks * 4096
    }

    /// Heap bytes owned by the free lists (capacity, not length): the
    /// super-chunk slab, the slot tables with their freed-slot stacks,
    /// and the per-class availability and id stacks.
    pub fn heap_bytes(&self) -> usize {
        let u32s = self.supers.capacity()
            + self.free_tables.capacity()
            + self.free_super_ids.capacity()
            + self.avail.iter().map(Vec::capacity).sum::<usize>();
        u32s * std::mem::size_of::<u32>()
            + self.tables.capacity() * std::mem::size_of::<SlotTable>()
            + self.tables.iter().map(|t| t.freed.capacity()).sum::<usize>()
            + self.avail.capacity() * std::mem::size_of::<Vec<u32>>()
            + self.open.capacity() * std::mem::size_of::<Option<(u32, u8)>>()
            + self.class_sizes.capacity() * std::mem::size_of::<usize>()
            + self.geometry.capacity() * std::mem::size_of::<(usize, usize)>()
    }

    /// DRAM byte address where sub-chunk `sub` starts. Sub-chunks may span
    /// the boundary between the interlinked chunks of their super-chunk.
    ///
    /// # Panics
    ///
    /// Panics if `sub` does not name a live allocation. Library code
    /// should use [`try_addr_of`](Self::try_addr_of) instead.
    pub fn addr_of(&self, sub: SubChunk) -> u64 {
        match self.try_addr_of(sub) {
            Ok(a) => a,
            Err(e) => panic!("{e}"),
        }
    }

    /// DRAM byte address where sub-chunk `sub` starts, or
    /// [`TmccError::UnknownSubChunk`] when its super-chunk is not live.
    #[inline]
    pub fn try_addr_of(&self, sub: SubChunk) -> Result<u64, TmccError> {
        let unknown = || TmccError::UnknownSubChunk { super_id: sub.super_id };
        let word = *self.supers.get(sub.super_id as usize).ok_or_else(unknown)?;
        let offset =
            usize::from(sub.slot) * *self.class_sizes.get(sub.class).ok_or_else(unknown)?;
        let chunk = match Super::decode(word) {
            Super::Packed { class, first }
                if class == sub.class && usize::from(sub.slot) < self.geometry[class].1 =>
            {
                first + (offset / 4096) as u32
            }
            Super::Tabled(t) => {
                let table = &self.tables[t];
                *table.chunks[..usize::from(table.m)].get(offset / 4096).ok_or_else(unknown)?
            }
            _ => return Err(unknown()),
        };
        Ok(chunk as u64 * 4096 + (offset % 4096) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_list_lifo() {
        let mut l = ChunkFreeList::with_chunks(3);
        assert_eq!(l.pop(), Some(0));
        l.push(0);
        assert_eq!(l.pop(), Some(0));
        assert_eq!(l.pop(), Some(1));
        assert_eq!(l.pop(), Some(2));
        assert_eq!(l.pop(), None);
    }

    #[test]
    fn chunk_list_matches_naive_vec_order() {
        // The watermark + spill representation must replay the exact pop
        // order of the original `(0..n).rev().collect::<Vec<_>>()` list
        // under an arbitrary interleaving of pops and pushes.
        let mut naive: Vec<u32> = (0..40u32).rev().collect();
        let mut l = ChunkFreeList::with_chunks(40);
        let mut popped = Vec::new();
        let mut step = 0u64;
        for _ in 0..400 {
            step = step.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if !step.is_multiple_of(3) || popped.is_empty() {
                let a = naive.pop();
                let b = l.pop();
                assert_eq!(a, b);
                if let Some(c) = b {
                    popped.push(c);
                }
            } else {
                let c = popped.swap_remove((step % popped.len() as u64) as usize);
                naive.push(c);
                l.push(c);
            }
            assert_eq!(naive.len(), l.len());
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    fn chunk_list_free_map_tracks_membership() {
        let mut l = ChunkFreeList::with_chunks(10);
        assert!(l.is_free(0) && l.is_free(9));
        assert!(!l.is_free(10));
        let c = l.pop().expect("non-empty");
        assert!(!l.is_free(c));
        l.push(c);
        assert!(l.is_free(c));
        // Chunks minted beyond the original range (GrowBudget) work too.
        l.push(500);
        assert!(l.is_free(500));
        assert_eq!(l.pop(), Some(500));
        assert!(!l.is_free(500));
    }

    #[test]
    fn geometry_minimizes_waste() {
        // 1536-byte sub-chunks: M=3 chunks -> N=8 sub-chunks, zero waste.
        let (m, n) = Ml2FreeLists::best_geometry(1536);
        assert_eq!((m * 4096) % (n * 1536), (m * 4096) - n * 1536);
        assert_eq!((m * 4096) - n * 1536, 0, "1536B should pack perfectly (M={m}, N={n})");
        // 4096-byte sub-chunks pack 1:1.
        let (m4, n4) = Ml2FreeLists::best_geometry(4096);
        assert_eq!(m4, n4);
    }

    #[test]
    fn allocate_free_conserves_chunks() {
        let mut ml1 = Ml1FreeList::with_chunks(64);
        let mut ml2 = Ml2FreeLists::paper_classes();
        let mut subs = Vec::new();
        for i in 0..20usize {
            let bytes = 200 + i * 150;
            subs.push(ml2.allocate(bytes, &mut ml1).expect("fits"));
        }
        assert!(ml1.len() < 64);
        assert_eq!(ml2.owned_chunks() + ml1.len(), 64);
        for s in subs {
            ml2.free(s, &mut ml1);
        }
        assert_eq!(ml1.len(), 64, "every chunk must return to ML1");
        assert_eq!(ml2.allocated_bytes(), 0);
        assert_eq!(ml2.owned_chunks(), 0);
    }

    #[test]
    fn allocation_prefers_smallest_fitting_class() {
        let mut ml1 = Ml1FreeList::with_chunks(8);
        let mut ml2 = Ml2FreeLists::paper_classes();
        let s = ml2.allocate(513, &mut ml1).expect("fits");
        assert_eq!(ml2.class_size(s.class), 768);
    }

    #[test]
    fn addr_of_is_unique_and_within_owned_chunks() {
        let mut ml1 = Ml1FreeList::with_chunks(32);
        let mut ml2 = Ml2FreeLists::new(vec![1536]);
        let mut addrs = std::collections::HashSet::new();
        let mut subs = Vec::new();
        for _ in 0..16 {
            let s = ml2.allocate(1500, &mut ml1).expect("fits");
            let a = ml2.addr_of(s);
            assert!(addrs.insert(a), "duplicate sub-chunk address {a:#x}");
            subs.push(s);
        }
        // Adjacent slots in one super-chunk are exactly 1536 B apart in
        // the concatenated chunk space.
        let a0 = ml2.addr_of(subs[0]);
        let a1 = ml2.addr_of(subs[1]);
        if subs[0].super_id == subs[1].super_id {
            let off = |s: &super::SubChunk| s.slot as u64 * 1536;
            assert_eq!(off(&subs[1]) - off(&subs[0]), 1536);
            let _ = (a0, a1);
        }
    }

    #[test]
    fn super_chunk_slots_reuse_most_recent_free_first() {
        // One 4096-class super-chunk has n == m, so slot recycling within
        // a single super-chunk is observable: pop 0,1,2 ascending, then a
        // freed slot is handed out again before the next fresh one.
        let mut ml1 = Ml1FreeList::with_chunks(8);
        let mut ml2 = Ml2FreeLists::new(vec![256]);
        let a = ml2.allocate(100, &mut ml1).expect("fits");
        let b = ml2.allocate(100, &mut ml1).expect("fits");
        let c = ml2.allocate(100, &mut ml1).expect("fits");
        assert_eq!((a.slot, b.slot, c.slot), (0, 1, 2));
        ml2.free(b, &mut ml1);
        let d = ml2.allocate(100, &mut ml1).expect("fits");
        assert_eq!(d.slot, 1, "most recently freed slot is reused first");
        let e = ml2.allocate(100, &mut ml1).expect("fits");
        assert_eq!(e.slot, 3, "then the fresh run continues");
    }

    #[test]
    fn oversized_pages_rejected() {
        let mut ml1 = Ml1FreeList::with_chunks(8);
        let mut ml2 = Ml2FreeLists::paper_classes();
        assert!(ml2.allocate(5000, &mut ml1).is_none());
    }

    #[test]
    fn exhausted_ml1_fails_cleanly() {
        let mut ml1 = Ml1FreeList::with_chunks(0);
        let mut ml2 = Ml2FreeLists::paper_classes();
        assert!(ml2.allocate(100, &mut ml1).is_none());
        assert_eq!(ml1.len(), 0);
    }

    #[test]
    #[should_panic(expected = "double-freed")]
    fn double_free_detected() {
        let mut ml1 = Ml1FreeList::with_chunks(8);
        let mut ml2 = Ml2FreeLists::new(vec![2048]);
        let a = ml2.allocate(2000, &mut ml1).expect("fits");
        let _b = ml2.allocate(2000, &mut ml1).expect("fits");
        ml2.free(a, &mut ml1);
        ml2.free(a, &mut ml1);
    }

    #[test]
    fn out_of_range_slot_is_a_typed_error() {
        let mut ml1 = Ml1FreeList::with_chunks(8);
        let mut ml2 = Ml2FreeLists::new(vec![2048]);
        let a = ml2.allocate(2000, &mut ml1).expect("fits");
        let bogus = SubChunk { class: a.class, super_id: a.super_id, slot: 99 };
        assert!(matches!(ml2.try_free(bogus, &mut ml1), Err(TmccError::UnknownSubChunk { .. })));
    }

    #[test]
    fn many_allocations_within_budget() {
        let mut ml1 = Ml1FreeList::with_chunks(256);
        let mut ml2 = Ml2FreeLists::paper_classes();
        let mut live = Vec::new();
        let mut k = 0usize;
        // Allocate until ML1 runs dry, then free half and repeat.
        for round in 0..6 {
            while let Some(s) = ml2.allocate(300 + (k * 97) % 3500, &mut ml1) {
                live.push(s);
                k += 1;
            }
            let half = live.len() / 2;
            for s in live.drain(..half) {
                ml2.free(s, &mut ml1);
            }
            assert!(ml2.owned_chunks() + ml1.len() == 256, "round {round}");
        }
        for s in live.drain(..) {
            ml2.free(s, &mut ml1);
        }
        assert_eq!(ml1.len(), 256);
    }

    #[test]
    fn churn_cycles_do_not_retain_capacity() {
        // Regression for the pool-shrink leak: super-chunk slot tracking
        // (previously a `VecDeque<u8>` per super-chunk) must not pin its
        // peak capacity once allocations drain. Heap bytes after each
        // full drain must stay flat across fill/drain cycles, and a
        // drained ML2 must cost no more than the empty slab + id stacks.
        let mut ml1 = Ml1FreeList::with_chunks(512);
        let mut ml2 = Ml2FreeLists::paper_classes();
        let mut drained_heap = Vec::new();
        for _ in 0..4 {
            let mut live = Vec::new();
            let mut k = 0usize;
            while let Some(s) = ml2.allocate(260 + (k * 131) % 3000, &mut ml1) {
                live.push(s);
                k += 1;
            }
            let peak = ml2.heap_bytes();
            for s in live {
                ml2.free(s, &mut ml1);
            }
            assert_eq!(ml2.owned_chunks(), 0);
            let drained = ml2.heap_bytes();
            assert!(
                drained < peak,
                "drained heap {drained} should drop below peak {peak} \
                 (per-super slot tables must be released on dissolve)"
            );
            drained_heap.push(drained);
        }
        assert!(
            drained_heap.windows(2).all(|w| w[1] <= w[0]),
            "drained heap must not grow across cycles: {drained_heap:?}"
        );
        // ML1's spill also returns to watermark-only cost on demand.
        let before = ml1.heap_bytes();
        while ml1.pop().is_some() {}
        ml1.shrink_to_fit();
        assert!(ml1.heap_bytes() < before.max(1));
    }

    /// A reference super-chunk: its chunks, class, free slots front
    /// first, and allocated mask.
    type LinkedSuper = (Vec<u32>, usize, std::collections::VecDeque<u8>, u128);

    /// The super-chunk lists before packed words: every super-chunk holds
    /// its chunks and a slot list, a freed slot goes to the front, and a
    /// drained ML2 numbers super-chunks from 0 again. The reference the
    /// packed and tabled forms must reproduce operation for operation.
    #[derive(Default)]
    struct LinkedLists {
        avail: Vec<Vec<u32>>,
        supers: Vec<Option<LinkedSuper>>,
        free_ids: Vec<u32>,
        owned: usize,
    }

    impl LinkedLists {
        fn allocate(
            &mut self,
            lists: &Ml2FreeLists,
            bytes: usize,
            ml1: &mut Ml1FreeList,
        ) -> Option<SubChunk> {
            let class = lists.class_for(bytes)?;
            self.avail.resize(lists.classes(), Vec::new());
            if self.avail[class].is_empty() {
                let (m, n) = lists.geometry[class];
                let mut chunks = Vec::new();
                for _ in 0..m {
                    match ml1.pop() {
                        Some(c) => chunks.push(c),
                        None => {
                            chunks.iter().for_each(|&c| ml1.push(c));
                            return None;
                        }
                    }
                }
                let id = self.free_ids.pop().unwrap_or(self.supers.len() as u32);
                let sc = Some((chunks, class, (0..n as u8).collect(), 0));
                match self.supers.get_mut(id as usize) {
                    Some(slot) => *slot = sc,
                    None => self.supers.push(sc),
                }
                self.avail[class].push(id);
                self.owned += m;
            }
            let id = *self.avail[class].last()?;
            let (_, _, free, allocated) = self.supers[id as usize].as_mut()?;
            let slot = free.pop_front()?;
            *allocated |= 1 << slot;
            if free.is_empty() {
                self.avail[class].pop();
            }
            Some(SubChunk { class, super_id: id, slot })
        }

        fn free(&mut self, sub: SubChunk, ml1: &mut Ml1FreeList) -> Result<(), &'static str> {
            let Some(Some((chunks, class, free, allocated))) =
                self.supers.get_mut(sub.super_id as usize)
            else {
                return Err("unknown");
            };
            if *allocated & (1 << sub.slot) == 0 {
                return Err("double free");
            }
            free.push_front(sub.slot);
            *allocated &= !(1 << sub.slot);
            let class = *class;
            if free.len() == 1 {
                self.avail[class].push(sub.super_id);
            }
            if *allocated == 0 {
                self.owned -= chunks.len();
                chunks.iter().for_each(|&c| ml1.push(c));
                self.supers[sub.super_id as usize] = None;
                self.avail[class].retain(|&id| id != sub.super_id);
                self.free_ids.push(sub.super_id);
                if self.owned == 0 {
                    self.supers.clear();
                    self.free_ids.clear();
                }
            }
            Ok(())
        }

        fn addr_of(&self, sub: SubChunk, lists: &Ml2FreeLists) -> u64 {
            let (chunks, ..) = self.supers[sub.super_id as usize].as_ref().expect("live");
            let offset = sub.slot as usize * lists.class_size(sub.class);
            chunks[offset / 4096] as u64 * 4096 + (offset % 4096) as u64
        }
    }

    #[test]
    fn packed_and_tabled_super_chunks_match_linked_slot_lists() {
        // Random allocate/free traces, with frees returning chunks to ML1
        // out of order, so later carves are not ascending runs and take
        // slot tables while fresh-run carves stay packed.
        let mut tabled = 0;
        for seed in 0..48u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let chunks = 24 + (next() % 400) as u32;
            let (mut ml1, mut ref_ml1) =
                (Ml1FreeList::with_chunks(chunks), Ml1FreeList::with_chunks(chunks));
            let mut ml2 = Ml2FreeLists::paper_classes();
            let mut reference = LinkedLists::default();
            let mut live: Vec<SubChunk> = Vec::new();
            for step in 0..1500 {
                let draw = next();
                if draw % 5 < 3 || live.is_empty() {
                    let bytes = 1 + (draw >> 8) as usize % 4096;
                    let got = ml2.allocate(bytes, &mut ml1);
                    assert_eq!(
                        got,
                        reference.allocate(&ml2, bytes, &mut ref_ml1),
                        "seed {seed} step {step}"
                    );
                    if let Some(sub) = got {
                        assert_eq!(ml2.addr_of(sub), reference.addr_of(sub, &ml2), "seed {seed}");
                        live.push(sub);
                    }
                } else {
                    let sub = live.swap_remove((draw >> 8) as usize % live.len());
                    let got = ml2.try_free(sub, &mut ml1);
                    assert_eq!(
                        got.is_ok(),
                        reference.free(sub, &mut ref_ml1).is_ok(),
                        "seed {seed}"
                    );
                    assert!(matches!(
                        ml2.try_free(sub, &mut ml1),
                        Err(TmccError::DoubleFree { .. } | TmccError::UnknownSubChunk { .. })
                    ));
                }
                assert_eq!(ml1, ref_ml1, "seed {seed} step {step}");
                assert_eq!(ml2.owned_chunks(), reference.owned, "seed {seed} step {step}");
                for &sub in live.iter().rev().take(3) {
                    assert_eq!(ml2.addr_of(sub), reference.addr_of(sub, &ml2), "seed {seed}");
                }
                tabled += ml2.tables.len() - ml2.free_tables.len();
            }
        }
        assert!(tabled > 0, "the traces reach slot tables");
    }

    #[test]
    fn fresh_placement_matches_allocation_and_costs_one_word_per_super_chunk() {
        let classes = Ml2FreeLists::paper_classes();
        let sizes: Vec<usize> = (0..5000).map(|i| 1 + (i * 2_654_435_761usize) % 4096).collect();
        let mut ml1 = Ml1FreeList::with_chunks(100_000);
        let mut allocated = Ml2FreeLists::paper_classes();
        let subs: Vec<SubChunk> =
            sizes.iter().map(|&b| allocated.try_allocate(b, &mut ml1).expect("room")).collect();
        let mut fresh_ml1 = Ml1FreeList::with_chunks(100_000);
        let mut placed = Ml2FreeLists::paper_classes();
        let pages = sizes.iter().enumerate().map(|(i, &b)| (classes.class_for(b).unwrap(), i));
        let mut got = Vec::new();
        assert!(
            placed.place_fresh(&mut fresh_ml1, pages, |i, sub, frame| got.push((i, sub, frame)))
        );
        assert_eq!(placed, allocated);
        assert_eq!(fresh_ml1, ml1);
        for (i, sub, frame) in got {
            assert_eq!(sub, subs[i]);
            assert_eq!(frame as u64, placed.addr_of(sub) / 4096, "the CTE's frame");
        }
        assert!(placed.tables.is_empty(), "fresh carves are packed");
        let words = placed.supers.capacity() * 4;
        assert!(
            placed.heap_bytes() < words + 1024,
            "{} heap, {words} in words",
            placed.heap_bytes()
        );
        // A run the fresh chunks cannot hold stops placement.
        let mut short = Ml1FreeList::with_chunks(2);
        let mut lists = Ml2FreeLists::paper_classes();
        let big = [(lists.class_for(1700).unwrap(), ())];
        assert!(!lists.place_fresh(&mut short, big, |_, _, _| panic!("nothing placed")));
        assert_eq!(short.len(), 2, "nothing taken");
    }
}
