//! Virtual-to-physical translation with randomized frame allocation.

use std::collections::{HashMap, HashSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A per-process page table that allocates a random free 4 KiB physical
/// frame the first time each virtual page is touched.
///
/// This emulates the page placement of a long-running ("steady-state")
/// system, following the paper's methodology (§7, citing \[85\]): without
/// randomization, synthetic traces would enjoy unrealistically regular
/// bank/row mappings.
#[derive(Debug, Clone)]
pub struct PageTable {
    map: HashMap<u64, u64>,
    used: HashSet<u64>,
    rng: StdRng,
    frames: u64,
    /// The last translated virtual page and its frame. Most accesses
    /// reuse the last page, and the memo spares them the hash lookup; it
    /// only repeats a translation the table already made, so frames and
    /// first-touch order are unchanged. No virtual page is `u64::MAX`,
    /// so that marks an empty memo.
    last: (u64, u64),
}

/// 4 KiB pages.
pub const PAGE_SHIFT: u32 = 12;

impl PageTable {
    /// Creates a table over a physical space of `capacity_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if the capacity holds no complete frame.
    pub fn new(capacity_bytes: u64, seed: u64) -> Self {
        let frames = capacity_bytes >> PAGE_SHIFT;
        assert!(frames > 0, "capacity too small for a single frame");
        Self {
            map: HashMap::new(),
            used: HashSet::new(),
            rng: StdRng::seed_from_u64(seed),
            frames,
            last: (u64::MAX, 0),
        }
    }

    /// Translates a virtual address, allocating a frame on first touch.
    pub fn translate(&mut self, vaddr: u64) -> u64 {
        let vpage = vaddr >> PAGE_SHIFT;
        if self.last.0 != vpage {
            self.last = (vpage, self.frame(vpage));
        }
        (self.last.1 << PAGE_SHIFT) | (vaddr & ((1 << PAGE_SHIFT) - 1))
    }

    /// The frame of `vpage`, allocated on first touch.
    fn frame(&mut self, vpage: u64) -> u64 {
        match self.map.get(&vpage) {
            Some(&f) => f,
            None => {
                assert!(
                    (self.used.len() as u64) < self.frames,
                    "physical memory exhausted"
                );
                let f = loop {
                    let candidate = self.rng.gen_range(0..self.frames);
                    if self.used.insert(candidate) {
                        break candidate;
                    }
                };
                self.map.insert(vpage, f);
                f
            }
        }
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translation_is_stable_and_preserves_offsets() {
        let mut pt = PageTable::new(1 << 30, 1);
        let a = pt.translate(0x1234);
        let b = pt.translate(0x1234);
        assert_eq!(a, b);
        assert_eq!(a & 0xfff, 0x234);
        let c = pt.translate(0x1abc);
        assert_eq!(c >> PAGE_SHIFT, a >> PAGE_SHIFT, "same page, same frame");
        assert_eq!(pt.mapped_pages(), 1);
        pt.translate(0x5000);
        assert_eq!(pt.translate(0x1234), a, "stable after another page");
    }

    #[test]
    fn distinct_pages_get_distinct_frames() {
        let mut pt = PageTable::new(1 << 24, 2);
        let mut frames = HashSet::new();
        for p in 0..512u64 {
            let pa = pt.translate(p << PAGE_SHIFT);
            assert!(frames.insert(pa >> PAGE_SHIFT), "frame reused");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = PageTable::new(1 << 28, 7);
        let mut b = PageTable::new(1 << 28, 7);
        for p in 0..100u64 {
            assert_eq!(a.translate(p << PAGE_SHIFT), b.translate(p << PAGE_SHIFT));
        }
        let mut c = PageTable::new(1 << 28, 8);
        let diff = (0..100u64)
            .filter(|&p| a.map[&p] != c.translate(p << PAGE_SHIFT) >> PAGE_SHIFT)
            .count();
        assert!(diff > 50, "different seeds should differ ({diff})");
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_detected() {
        let mut pt = PageTable::new(4096 * 4, 3);
        for p in 0..5u64 {
            pt.translate(p << PAGE_SHIFT);
        }
    }
}
