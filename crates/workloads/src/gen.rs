//! The synthetic trace generator.

use crow_cpu::trace::{MemAccess, TraceEntry, TraceSource};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cold-region access pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// March sequentially through the footprint line by line (STREAM-like:
    /// maximal row locality, no LLC reuse).
    Sequential,
    /// Cycle through a working set of `pages` 4 KiB pages, walking each
    /// page's lines in order and switching pages with `switch_prob`
    /// (models the recently-accessed-row reuse that CROW-cache exploits).
    PageReuse {
        /// Active pages in the working set.
        pages: u32,
        /// Probability of moving to another active page per access.
        switch_prob: f64,
        /// Probability of replacing an active page with a fresh one.
        refresh_prob: f64,
    },
    /// Uniformly random lines over the footprint (the `random`
    /// microbenchmark \[75\]).
    UniformRandom,
}

/// Generator parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenParams {
    /// Non-memory instructions between accesses (mean; jittered ±50%).
    pub bubbles: u32,
    /// Fraction of accesses that go to the cold region (the rest hit a
    /// small LLC-resident hot set).
    pub cold_frac: f64,
    /// Fraction of accesses that are stores.
    pub write_frac: f64,
    /// Cold-region size in bytes.
    pub footprint: u64,
    /// Hot-set size in bytes (must fit comfortably in the LLC).
    pub hot_bytes: u64,
    /// Cold-region pattern.
    pub pattern: Pattern,
}

impl GenParams {
    /// Validates ranges.
    ///
    /// # Errors
    ///
    /// Describes the violated range.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.cold_frac) || !(0.0..=1.0).contains(&self.write_frac) {
            return Err("fractions must be in [0, 1]".into());
        }
        if self.footprint < 1 << 20 {
            return Err("footprint must be at least 1 MiB".into());
        }
        if self.hot_bytes < 4096 {
            return Err("hot set must hold at least one page".into());
        }
        if let Pattern::PageReuse {
            pages,
            switch_prob,
            refresh_prob,
        } = self.pattern
        {
            if pages == 0 {
                return Err("page working set must be nonempty".into());
            }
            if !(0.0..=1.0).contains(&switch_prob) || !(0.0..=1.0).contains(&refresh_prob) {
                return Err("probabilities must be in [0, 1]".into());
            }
        }
        Ok(())
    }
}

const LINE: u64 = 64;
const PAGE: u64 = 4096;
const LINES_PER_PAGE: u64 = PAGE / LINE;

/// Virtual address-space layout: hot set at the bottom, cold region above.
const COLD_BASE: u64 = 1 << 32;

/// An endless, deterministic trace over the synthetic address space.
#[derive(Debug, Clone)]
pub struct SyntheticTrace {
    p: GenParams,
    rng: StdRng,
    /// Sequential cursor (lines).
    seq: u64,
    /// Active pages (page numbers within the cold region).
    active_pages: Vec<u64>,
    /// Current page index into `active_pages` and line cursor within it.
    cur_page: usize,
    cur_line: u64,
}

impl SyntheticTrace {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid.
    pub fn new(p: GenParams, seed: u64) -> Self {
        if let Err(e) = p.validate() {
            panic!("invalid GenParams: {e}");
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let cold_pages = p.footprint / PAGE;
        let active_pages = match p.pattern {
            Pattern::PageReuse { pages, .. } => {
                (0..pages).map(|_| rng.gen_range(0..cold_pages)).collect()
            }
            _ => Vec::new(),
        };
        Self {
            p,
            rng,
            seq: 0,
            active_pages,
            cur_page: 0,
            cur_line: 0,
        }
    }

    fn cold_addr(&mut self) -> u64 {
        let cold_pages = self.p.footprint / PAGE;
        match self.p.pattern {
            Pattern::Sequential => {
                let lines = self.p.footprint / LINE;
                let a = COLD_BASE + (self.seq % lines) * LINE;
                self.seq += 1;
                a
            }
            Pattern::UniformRandom => {
                let lines = self.p.footprint / LINE;
                COLD_BASE + self.rng.gen_range(0..lines) * LINE
            }
            Pattern::PageReuse {
                switch_prob,
                refresh_prob,
                ..
            } => {
                if self.rng.gen_bool(refresh_prob) {
                    let idx = self.rng.gen_range(0..self.active_pages.len());
                    self.active_pages[idx] = self.rng.gen_range(0..cold_pages);
                }
                if self.rng.gen_bool(switch_prob) {
                    self.cur_page = self.rng.gen_range(0..self.active_pages.len());
                }
                let page = self.active_pages[self.cur_page];
                let a = COLD_BASE + page * PAGE + (self.cur_line % LINES_PER_PAGE) * LINE;
                self.cur_line += 1;
                a
            }
        }
    }
}

impl TraceSource for SyntheticTrace {
    fn next_entry(&mut self) -> TraceEntry {
        let jitter = if self.p.bubbles > 1 {
            self.rng.gen_range(0..=self.p.bubbles)
        } else {
            self.p.bubbles
        };
        let bubbles = (self.p.bubbles / 2) + jitter;
        let vaddr = if self.rng.gen_bool(self.p.cold_frac) {
            self.cold_addr()
        } else {
            let hot_lines = self.p.hot_bytes / LINE;
            self.rng.gen_range(0..hot_lines) * LINE
        };
        let is_write = self.rng.gen_bool(self.p.write_frac);
        TraceEntry {
            bubbles,
            access: Some(MemAccess { vaddr, is_write }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(pattern: Pattern) -> GenParams {
        GenParams {
            bubbles: 10,
            cold_frac: 0.5,
            write_frac: 0.25,
            footprint: 64 << 20,
            hot_bytes: 1 << 20,
            pattern,
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = SyntheticTrace::new(params(Pattern::UniformRandom), 5);
        let mut b = SyntheticTrace::new(params(Pattern::UniformRandom), 5);
        for _ in 0..1000 {
            assert_eq!(a.next_entry(), b.next_entry());
        }
        let mut c = SyntheticTrace::new(params(Pattern::UniformRandom), 6);
        let same = (0..1000)
            .filter(|_| a.next_entry() == c.next_entry())
            .count();
        assert!(same < 100);
    }

    #[test]
    fn addresses_stay_in_bounds() {
        let p = params(Pattern::UniformRandom);
        let mut t = SyntheticTrace::new(p, 1);
        for _ in 0..10_000 {
            let e = t.next_entry();
            let a = e.access.unwrap().vaddr;
            if a >= COLD_BASE {
                assert!(a < COLD_BASE + p.footprint);
            } else {
                assert!(a < p.hot_bytes);
            }
        }
    }

    #[test]
    fn sequential_pattern_strides_lines() {
        let mut p = params(Pattern::Sequential);
        p.cold_frac = 1.0;
        let mut t = SyntheticTrace::new(p, 1);
        let a0 = t.next_entry().access.unwrap().vaddr;
        let a1 = t.next_entry().access.unwrap().vaddr;
        let a2 = t.next_entry().access.unwrap().vaddr;
        assert_eq!(a1 - a0, 64);
        assert_eq!(a2 - a1, 64);
    }

    #[test]
    fn page_reuse_concentrates_on_working_set() {
        let mut p = params(Pattern::PageReuse {
            pages: 8,
            switch_prob: 0.3,
            refresh_prob: 0.0,
        });
        p.cold_frac = 1.0;
        let mut t = SyntheticTrace::new(p, 2);
        let mut pages = std::collections::HashSet::new();
        for _ in 0..10_000 {
            pages.insert(t.next_entry().access.unwrap().vaddr / PAGE);
        }
        assert!(pages.len() <= 8, "pages {}", pages.len());
    }

    #[test]
    fn refresh_prob_rotates_working_set() {
        let mut p = params(Pattern::PageReuse {
            pages: 4,
            switch_prob: 0.5,
            refresh_prob: 0.05,
        });
        p.cold_frac = 1.0;
        let mut t = SyntheticTrace::new(p, 3);
        let mut pages = std::collections::HashSet::new();
        for _ in 0..10_000 {
            pages.insert(t.next_entry().access.unwrap().vaddr / PAGE);
        }
        assert!(pages.len() > 20, "pages {}", pages.len());
    }

    #[test]
    fn write_fraction_is_respected() {
        let mut p = params(Pattern::UniformRandom);
        p.write_frac = 0.3;
        let mut t = SyntheticTrace::new(p, 4);
        let writes = (0..10_000)
            .filter(|_| t.next_entry().access.unwrap().is_write)
            .count();
        assert!((2500..3500).contains(&writes), "writes {writes}");
    }

    #[test]
    fn mean_bubbles_near_parameter() {
        let p = params(Pattern::UniformRandom);
        let mut t = SyntheticTrace::new(p, 5);
        let total: u64 = (0..10_000).map(|_| u64::from(t.next_entry().bubbles)).sum();
        let mean = total as f64 / 10_000.0;
        assert!((8.0..12.0).contains(&mean), "mean bubbles {mean}");
    }

    #[test]
    #[should_panic(expected = "invalid GenParams")]
    fn bad_params_rejected() {
        let mut p = params(Pattern::UniformRandom);
        p.cold_frac = 1.5;
        let _ = SyntheticTrace::new(p, 0);
    }
}
