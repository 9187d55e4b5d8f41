//! Seeded randomized test: the LLC agrees with a straightforward
//! reference model of a set-associative LRU cache under arbitrary
//! streams of every operation — same hit/miss outcomes, same dirty-victim
//! writebacks, same hit and miss counters — at 1, 4, 8 (the paper's) and
//! 16 ways.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crow_cpu::cache::LlcResult;
use crow_cpu::{AccessKind, Llc};

/// Reference model: per-set MRU-ordered deque of (tag, dirty).
struct RefCache {
    sets: Vec<VecDeque<(u64, bool)>>,
    ways: usize,
}

impl RefCache {
    fn new(sets: usize, ways: usize) -> Self {
        Self {
            sets: (0..sets).map(|_| VecDeque::new()).collect(),
            ways,
        }
    }

    fn index(&self, pa: u64) -> (usize, u64) {
        let line = pa >> 6;
        (
            (line as usize) % self.sets.len(),
            line / self.sets.len() as u64,
        )
    }

    fn probe(&self, pa: u64) -> bool {
        let (s, tag) = self.index(pa);
        self.sets[s].iter().any(|&(t, _)| t == tag)
    }

    /// Returns (hit, writeback).
    fn access(&mut self, pa: u64, write: bool) -> (bool, Option<u64>) {
        let (s, tag) = self.index(pa);
        let set = &mut self.sets[s];
        if let Some(pos) = set.iter().position(|&(t, _)| t == tag) {
            let (t, d) = set.remove(pos).expect("present");
            set.push_front((t, d || write));
            return (true, None);
        }
        if write {
            (false, self.install(pa, true))
        } else {
            (false, None)
        }
    }

    fn install(&mut self, pa: u64, dirty: bool) -> Option<u64> {
        let (s, tag) = self.index(pa);
        let sets_count = self.sets.len() as u64;
        let set = &mut self.sets[s];
        if let Some(pos) = set.iter().position(|&(t, _)| t == tag) {
            let (t, d) = set.remove(pos).expect("present");
            set.push_front((t, d || dirty));
            return None;
        }
        set.push_front((tag, dirty));
        if set.len() > self.ways {
            let (vt, vd) = set.pop_back().expect("overfull");
            if vd {
                return Some((vt * sets_count + s as u64) << 6);
            }
        }
        None
    }
}

/// The reference model plus the demand counters the LLC should keep.
struct Model {
    cache: RefCache,
    hits: u64,
    misses: u64,
}

impl Model {
    /// A demand access, counted; returns (hit, writeback).
    fn access(&mut self, pa: u64, write: bool) -> (bool, Option<u64>) {
        let r = self.cache.access(pa, write);
        if r.0 {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        r
    }
}

fn result(hit: bool, writeback: Option<u64>) -> LlcResult {
    if hit {
        LlcResult::Hit
    } else {
        LlcResult::Miss { writeback }
    }
}

#[test]
fn llc_matches_reference_model() {
    for ways in [1usize, 4, 8, 16] {
        for case in 0..64u64 {
            check_case(ways, case);
        }
    }
}

fn check_case(ways: usize, case: u64) {
    let mut rng =
        StdRng::seed_from_u64(0x11C ^ case.wrapping_mul(0x2545_f491) ^ ((ways as u64) << 40));
    // 64 sets over 64 B lines; the address range is 32 lines per set.
    let mut llc = Llc::new(64 * ways as u64 * 64, ways);
    let mut model = Model {
        cache: RefCache::new(64, ways),
        hits: 0,
        misses: 0,
    };
    let n_ops = rng.gen_range(1usize..500);
    for _ in 0..n_ops {
        let pa = rng.gen_range(0u64..2048) * 64;
        let write = rng.gen_bool(0.5);
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        match rng.gen_range(0u8..5) {
            // Demand read: on miss, the fill arrives immediately.
            0 => {
                let (hit, _) = model.access(pa, false);
                let got = llc.access(pa, AccessKind::Read);
                assert_eq!(got, result(hit, None), "read misses defer install");
                if !hit {
                    assert_eq!(llc.fill(pa), model.cache.install(pa, false));
                }
            }
            // Store (write-validate).
            1 => {
                let (hit, wb) = model.access(pa, true);
                assert_eq!(llc.access(pa, AccessKind::Write), result(hit, wb));
            }
            // Prefetch fill: installs, counts nothing.
            2 => assert_eq!(llc.fill(pa), model.cache.install(pa, false)),
            // Functional warmup: the access plus, on a read miss, the
            // install, with the install's dirty victim.
            3 => {
                let (hit, mut wb) = model.access(pa, write);
                if !hit && !write {
                    wb = model.cache.install(pa, false);
                }
                assert_eq!(llc.warm_access(pa, kind), result(hit, wb));
            }
            // A load's hit-only lookup: a miss changes nothing.
            _ => {
                let before = llc.clone();
                let hit = model.cache.probe(pa);
                if hit {
                    model.access(pa, false);
                }
                assert_eq!(llc.read_hit(pa), hit);
                if !hit {
                    assert_eq!(llc, before, "a missing read_hit changed the cache");
                }
            }
        }
        assert_eq!(llc.probe(pa), model.cache.probe(pa));
        assert_eq!(
            (llc.hits(), llc.misses()),
            (model.hits, model.misses),
            "{ways} ways, case {case}"
        );
    }
}
