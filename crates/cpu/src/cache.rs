//! The shared last-level cache.

/// How an access intends to use the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Demand or prefetch read.
    Read,
    /// Store (write-validate allocation: the line is installed dirty
    /// without fetching it from memory).
    Write,
}

/// Result of an LLC access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LlcResult {
    /// The line was present.
    Hit,
    /// The line was missing; it has been (for writes) or will be (for
    /// reads, on fill) installed. `writeback` carries the dirty victim
    /// line address, if one was evicted.
    Miss {
        /// Dirty victim to write back, if any.
        writeback: Option<u64>,
    },
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

/// A set-associative, writeback LLC with LRU replacement.
///
/// Reads allocate on fill ([`Llc::fill`]); writes allocate immediately
/// (write-validate — the whole line is considered overwritten, so no
/// fetch is required; this keeps the simple core model free of
/// read-for-ownership traffic).
#[derive(Debug, Clone)]
pub struct Llc {
    sets: Vec<[Line; 16]>,
    ways: usize,
    set_mask: u64,
    line_shift: u32,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Llc {
    /// Creates a cache of `capacity_bytes` with `ways` ways and 64 B
    /// lines.
    ///
    /// # Panics
    ///
    /// Panics unless capacity/ways yield a power-of-two set count and
    /// `ways <= 16`.
    pub fn new(capacity_bytes: u64, ways: usize) -> Self {
        assert!((1..=16).contains(&ways), "1..=16 ways supported");
        let line_bytes = 64u64;
        let sets = capacity_bytes / (ways as u64 * line_bytes);
        assert!(
            sets.is_power_of_two() && sets > 0,
            "set count must be a power of two, got {sets}"
        );
        Self {
            sets: vec![[Line::default(); 16]; sets as usize],
            ways,
            set_mask: sets - 1,
            line_shift: 6,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Demand hits observed.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Demand misses observed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate over demand accesses.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    fn index(&self, pa: u64) -> (usize, u64) {
        let line = pa >> self.line_shift;
        (
            (line & self.set_mask) as usize,
            line >> self.set_mask.count_ones(),
        )
    }

    /// Accesses the cache. Write misses install the line immediately;
    /// read misses do *not* install (call [`Llc::fill`] when the fill
    /// returns, mirroring the timing of a real hierarchy).
    pub fn access(&mut self, pa: u64, kind: AccessKind) -> LlcResult {
        let (set, tag) = self.index(pa);
        self.tick += 1;
        let tick = self.tick;
        let ways = self.ways;
        let lines = &mut self.sets[set];
        for l in lines.iter_mut().take(ways) {
            if l.valid && l.tag == tag {
                l.lru = tick;
                if kind == AccessKind::Write {
                    l.dirty = true;
                }
                self.hits += 1;
                return LlcResult::Hit;
            }
        }
        self.misses += 1;
        let writeback = if kind == AccessKind::Write {
            self.install(pa, true)
        } else {
            None
        };
        LlcResult::Miss { writeback }
    }

    /// Single-pass access-plus-install for functional warmup: a hit
    /// updates recency exactly like [`Llc::access`]; a miss installs the
    /// line in the same pass (dirty for writes, clean for reads) and
    /// reports the dirty victim. State evolution — tick counts, LRU
    /// stamps, hit/miss counters — is bit-identical to the
    /// `access` + `fill` pair the detailed path issues, but one way scan
    /// replaces the three that pair costs on a read miss.
    pub fn warm_access(&mut self, pa: u64, kind: AccessKind) -> (bool, Option<u64>) {
        let (set, tag) = self.index(pa);
        self.tick += 1;
        let ways = self.ways;
        let set_bits = self.set_mask.count_ones();
        let line_shift = self.line_shift;
        let lines = &mut self.sets[set];
        let mut victim = 0usize;
        let mut victim_key = (2u8, u64::MAX);
        for (w, l) in lines.iter_mut().enumerate().take(ways) {
            if l.valid && l.tag == tag {
                l.lru = self.tick;
                if kind == AccessKind::Write {
                    l.dirty = true;
                }
                self.hits += 1;
                return (false, None);
            }
            let key = if l.valid { (1, l.lru) } else { (0, 0) };
            if key < victim_key {
                victim_key = key;
                victim = w;
            }
        }
        self.misses += 1;
        // Second tick mirrors the separate install/fill the detailed
        // path performs, keeping warmed state bit-identical to it.
        self.tick += 1;
        let old = lines[victim];
        lines[victim] = Line {
            tag,
            valid: true,
            dirty: kind == AccessKind::Write,
            lru: self.tick,
        };
        if old.valid && old.dirty {
            let line = (old.tag << set_bits) | set as u64;
            (true, Some(line << line_shift))
        } else {
            (true, None)
        }
    }

    /// Probes without updating state (used by the prefetcher).
    pub fn probe(&self, pa: u64) -> bool {
        let (set, tag) = self.index(pa);
        self.sets[set]
            .iter()
            .take(self.ways)
            .any(|l| l.valid && l.tag == tag)
    }

    /// Installs a fetched line (read fill or prefetch fill); returns a
    /// dirty victim to write back, if one was evicted.
    pub fn fill(&mut self, pa: u64) -> Option<u64> {
        self.install(pa, false)
    }

    fn install(&mut self, pa: u64, dirty: bool) -> Option<u64> {
        let (set, tag) = self.index(pa);
        self.tick += 1;
        let tick = self.tick;
        let ways = self.ways;
        let set_bits = self.set_mask.count_ones();
        let line_shift = self.line_shift;
        let lines = &mut self.sets[set];
        // Already present (racing fill): refresh.
        if let Some(l) = lines
            .iter_mut()
            .take(ways)
            .find(|l| l.valid && l.tag == tag)
        {
            l.lru = tick;
            l.dirty |= dirty;
            return None;
        }
        // Choose an invalid way or the LRU victim.
        let victim = (0..ways)
            .min_by_key(|&w| {
                if lines[w].valid {
                    (1, lines[w].lru)
                } else {
                    (0, 0)
                }
            })
            .expect("ways >= 1");
        let old = lines[victim];
        lines[victim] = Line {
            tag,
            valid: true,
            dirty,
            lru: tick,
        };
        if old.valid && old.dirty {
            let line = (old.tag << set_bits) | set as u64;
            Some(line << line_shift)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn llc() -> Llc {
        Llc::new(64 * 1024, 4) // 256 sets
    }

    #[test]
    fn read_miss_then_fill_then_hit() {
        let mut c = llc();
        assert_eq!(
            c.access(0x1000, AccessKind::Read),
            LlcResult::Miss { writeback: None }
        );
        // Not installed until the fill arrives.
        assert!(!c.probe(0x1000));
        assert_eq!(c.fill(0x1000), None);
        assert_eq!(c.access(0x1000, AccessKind::Read), LlcResult::Hit);
        assert!((c.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn write_validate_installs_dirty_and_writes_back() {
        let mut c = Llc::new(64 * 64, 1); // 64 sets, direct-mapped
        assert!(matches!(
            c.access(0x0, AccessKind::Write),
            LlcResult::Miss { writeback: None }
        ));
        // Same set, different tag: evicts the dirty line.
        let conflicting = 64 * 64; // one full stride away
        match c.access(conflicting, AccessKind::Write) {
            LlcResult::Miss { writeback } => assert_eq!(writeback, Some(0)),
            r => panic!("{r:?}"),
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = Llc::new(64 * 2, 2); // 1 set, 2 ways
        c.fill(0);
        c.fill(64); // different tag, wait: same set needs stride of sets*64 = 64
                    // With one set, every line maps to set 0.
        assert!(c.probe(0) && c.probe(64));
        c.access(0, AccessKind::Read); // 0 becomes MRU
        c.fill(128); // evicts 64
        assert!(c.probe(0));
        assert!(!c.probe(64));
        assert!(c.probe(128));
    }

    #[test]
    fn line_offsets_share_a_line() {
        let mut c = llc();
        c.fill(0x1000);
        assert_eq!(c.access(0x103f, AccessKind::Read), LlcResult::Hit);
        assert!(matches!(
            c.access(0x1040, AccessKind::Read),
            LlcResult::Miss { .. }
        ));
    }

    #[test]
    fn clean_evictions_produce_no_writeback() {
        let mut c = Llc::new(64 * 2, 2);
        c.fill(0);
        c.fill(64);
        assert_eq!(c.fill(128), None, "clean victim");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        let _ = Llc::new(65 * 64, 1);
    }
}
