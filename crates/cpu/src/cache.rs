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

const LINE_BYTES: u64 = 64;

/// The set count of a cache of `capacity_bytes` with `ways` ways of 64 B
/// lines.
///
/// # Errors
///
/// Describes the violated constraint: `ways` outside 1..=16, or a set
/// count that is not a nonzero power of two.
pub fn llc_sets(capacity_bytes: u64, ways: usize) -> Result<u64, String> {
    if !(1..=16).contains(&ways) {
        return Err(format!("LLC ways must be in 1..=16, got {ways}"));
    }
    let sets = capacity_bytes / (ways as u64 * LINE_BYTES);
    if !sets.is_power_of_two() {
        return Err(format!("LLC set count must be a power of two, got {sets}"));
    }
    Ok(sets)
}

/// A set-associative, writeback LLC with LRU replacement.
///
/// Reads allocate on fill ([`Llc::fill`]); writes allocate immediately
/// (write-validate — the whole line is considered overwritten, so no
/// fetch is required; this keeps the simple core model free of
/// read-for-ownership traffic).
///
/// Way `w` of set `s` is entry `s * ways + w` of `tags` and `ranks`. A
/// tag is stored plus one, so 0 marks an invalid way and the zeroed
/// allocation is an empty cache whose untouched pages are never faulted
/// in. A way's rank is its position in the set's recency order (0 = most
/// recently touched). The valid ways of a set hold the ranks `0..n`, and
/// ways fill in order and never empty, so the invalid ways are the set's
/// tail and their ranks mean nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Llc {
    tags: Vec<u64>,
    ranks: Vec<u8>,
    /// Bit `w` of set `s`'s mask marks way `w` dirty.
    dirty: Vec<u16>,
    ways: usize,
    set_mask: u64,
    set_bits: u32,
    hits: u64,
    misses: u64,
}

impl Llc {
    /// Creates a cache of `capacity_bytes` with `ways` ways and 64 B
    /// lines.
    ///
    /// # Panics
    ///
    /// Panics if [`llc_sets`] rejects the geometry.
    pub fn new(capacity_bytes: u64, ways: usize) -> Self {
        let sets = llc_sets(capacity_bytes, ways).unwrap_or_else(|e| panic!("{e}"));
        Self {
            tags: vec![0; sets as usize * ways],
            ranks: vec![0; sets as usize * ways],
            dirty: vec![0; sets as usize],
            ways,
            set_mask: sets - 1,
            set_bits: sets.trailing_zeros(),
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

    /// `pa`'s set and its stored tag (the tag plus one).
    fn index(&self, pa: u64) -> (usize, u64) {
        let line = pa / LINE_BYTES;
        ((line & self.set_mask) as usize, (line >> self.set_bits) + 1)
    }

    /// Accesses the cache. Write misses install the line immediately;
    /// read misses do *not* install (call [`Llc::fill`] when the fill
    /// returns, mirroring the timing of a real hierarchy).
    pub fn access(&mut self, pa: u64, kind: AccessKind) -> LlcResult {
        let write = kind == AccessKind::Write;
        let r = self.lookup(pa, write, write);
        self.count(r)
    }

    /// A load's lookup: on a hit, touches the line exactly like
    /// [`Llc::access`] and returns `true`; on a miss, changes neither the
    /// cache nor its counters, so a load whose dispatch then stalls
    /// leaves no trace. A dispatched miss is counted by `access`.
    pub fn read_hit(&mut self, pa: u64) -> bool {
        let hit = self.lookup(pa, false, false) == LlcResult::Hit;
        self.hits += u64::from(hit);
        hit
    }

    /// Access-plus-install for functional warmup: [`Llc::access`]
    /// followed, on a read miss, by [`Llc::fill`], in one lookup. A miss
    /// reports the dirty victim its install evicted.
    pub fn warm_access(&mut self, pa: u64, kind: AccessKind) -> LlcResult {
        let r = self.lookup(pa, kind == AccessKind::Write, true);
        self.count(r)
    }

    /// Probes without updating state (used by the prefetcher).
    pub fn probe(&self, pa: u64) -> bool {
        let (set, tag) = self.index(pa);
        self.tags[set * self.ways..(set + 1) * self.ways].contains(&tag)
    }

    /// Installs a fetched line (read fill or prefetch fill); returns a
    /// dirty victim to write back, if one was evicted.
    pub fn fill(&mut self, pa: u64) -> Option<u64> {
        match self.lookup(pa, false, true) {
            LlcResult::Hit => None,
            LlcResult::Miss { writeback } => writeback,
        }
    }

    fn count(&mut self, r: LlcResult) -> LlcResult {
        if r == LlcResult::Hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        r
    }

    /// The one find/victim/replace path under every mutating operation.
    /// A hit makes the line the set's most recent (and dirty if `dirty`).
    /// A miss changes nothing unless `install` is set; then the line
    /// replaces the first invalid way, else the least recent one
    /// (rank `ways - 1`), and a dirty victim's address is returned.
    fn lookup(&mut self, pa: u64, dirty: bool, install: bool) -> LlcResult {
        let (set, tag) = self.index(pa);
        let set_bits = self.set_bits;
        let span = set * self.ways..(set + 1) * self.ways;
        let tags = &mut self.tags[span.clone()];
        let ranks = &mut self.ranks[span];
        let mask = &mut self.dirty[set];
        let (way, result) = match tags.iter().position(|&t| t == tag) {
            Some(w) => (w, LlcResult::Hit),
            None if !install => return LlcResult::Miss { writeback: None },
            None => {
                let lru = ranks.len() as u8 - 1;
                let w = tags.iter().position(|&t| t == 0).unwrap_or_else(|| {
                    ranks
                        .iter()
                        .position(|&r| r == lru)
                        .expect("the valid ways of a full set hold every rank")
                });
                let old = std::mem::replace(&mut tags[w], tag);
                let writeback = ((*mask >> w) & 1 == 1)
                    .then(|| (((old - 1) << set_bits) | set as u64) * LINE_BYTES);
                *mask &= !(1 << w);
                // Older than every way, so all of them age by one below.
                ranks[w] = lru + 1;
                (w, LlcResult::Miss { writeback })
            }
        };
        let r = ranks[way];
        // A hit on the most recent way reorders nothing.
        if r != 0 {
            for x in ranks.iter_mut() {
                *x += u8::from(*x < r);
            }
            ranks[way] = 0;
        }
        *mask |= u16::from(dirty) << way;
        result
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
