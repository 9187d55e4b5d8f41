//! Instruction-trace format (Ramulator CPU-trace style).

/// One memory access in a trace, in the application's virtual address
/// space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Virtual byte address.
    pub vaddr: u64,
    /// Store (true) or load (false).
    pub is_write: bool,
}

/// One trace record: `bubbles` non-memory instructions followed by an
/// optional memory instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Non-memory instructions preceding the access.
    pub bubbles: u32,
    /// The memory access, if this record ends in one.
    pub access: Option<MemAccess>,
}

impl TraceEntry {
    /// A record of pure compute instructions.
    pub fn bubbles(n: u32) -> Self {
        Self {
            bubbles: n,
            access: None,
        }
    }

    /// A record with `n` bubbles followed by a load of `vaddr`.
    pub fn load(n: u32, vaddr: u64) -> Self {
        Self {
            bubbles: n,
            access: Some(MemAccess {
                vaddr,
                is_write: false,
            }),
        }
    }

    /// A record with `n` bubbles followed by a store to `vaddr`.
    pub fn store(n: u32, vaddr: u64) -> Self {
        Self {
            bubbles: n,
            access: Some(MemAccess {
                vaddr,
                is_write: true,
            }),
        }
    }

    /// Instructions this record represents.
    pub fn instruction_count(&self) -> u64 {
        u64::from(self.bubbles) + u64::from(self.access.is_some())
    }
}

/// Why a trace could not supply the next record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceError {
    /// The trace held no records at all.
    Empty,
    /// A supposedly endless trace ran dry after yielding `after` records.
    Exhausted {
        /// Records yielded before the source ran dry.
        after: u64,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Empty => write!(f, "trace is empty"),
            TraceError::Exhausted { after } => {
                write!(f, "trace exhausted after {after} records")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// An endless instruction stream. Finite workloads wrap around
/// (simulations run until an instruction target, so generators must not
/// run dry — see [`LoopedTrace`]).
pub trait TraceSource: Send {
    /// Produces the next trace record.
    ///
    /// # Panics
    ///
    /// May panic if the source runs dry; fallible sources should
    /// override [`TraceSource::try_next_entry`] so consumers can park
    /// instead of crashing.
    fn next_entry(&mut self) -> TraceEntry;

    /// Fallible variant of [`TraceSource::next_entry`]. Endless sources
    /// keep the default (never errs); finite adapters such as
    /// [`IterTrace`] report [`TraceError::Exhausted`] instead of
    /// panicking mid-simulation.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] when the source cannot produce a record.
    fn try_next_entry(&mut self) -> Result<TraceEntry, TraceError> {
        Ok(self.next_entry())
    }

    /// Inert: nothing calls it since warm checkpoints were removed.
    /// Kept only because `crowbench`'s trace wrapper overrides it.
    fn snapshot_words(&self) -> Option<Vec<u64>> {
        None
    }

    /// Inert: nothing calls it since warm checkpoints were removed.
    /// Kept only because `crowbench`'s trace wrapper overrides it.
    fn restore_words(&mut self, _words: &[u64]) -> bool {
        false
    }
}

/// Replays a finite recording forever.
#[derive(Debug, Clone)]
pub struct LoopedTrace {
    entries: Vec<TraceEntry>,
    pos: usize,
}

impl LoopedTrace {
    /// Wraps a non-empty recording.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty.
    pub fn new(entries: Vec<TraceEntry>) -> Self {
        match Self::try_new(entries) {
            Ok(t) => t,
            Err(e) => panic!("trace must be non-empty: {e}"),
        }
    }

    /// Wraps a recording, rejecting an empty one with a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Empty`] if `entries` is empty.
    pub fn try_new(entries: Vec<TraceEntry>) -> Result<Self, TraceError> {
        if entries.is_empty() {
            return Err(TraceError::Empty);
        }
        Ok(Self { entries, pos: 0 })
    }
}

impl TraceSource for LoopedTrace {
    fn next_entry(&mut self) -> TraceEntry {
        let e = self.entries[self.pos];
        self.pos = (self.pos + 1) % self.entries.len();
        e
    }
}

/// Adapts an iterator into a [`TraceSource`]. Endlessness is probed at
/// construction (the first record is fetched eagerly), and a generator
/// that later runs dry surfaces [`TraceError::Exhausted`] through
/// [`TraceSource::try_next_entry`] rather than panicking deep inside the
/// simulation loop.
#[derive(Debug, Clone)]
pub struct IterTrace<I> {
    iter: I,
    /// The record fetched one step ahead; `None` once the iterator dried
    /// up (the *previous* record was the last valid one).
    lookahead: Option<TraceEntry>,
    yielded: u64,
}

impl<I: Iterator<Item = TraceEntry>> IterTrace<I> {
    /// Wraps an iterator, fetching the first record to prove the trace
    /// is non-empty.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Empty`] if the iterator yields nothing.
    pub fn try_new(mut iter: I) -> Result<Self, TraceError> {
        let first = iter.next().ok_or(TraceError::Empty)?;
        Ok(Self {
            iter,
            lookahead: Some(first),
            yielded: 0,
        })
    }

    /// Wraps an iterator the caller asserts is non-empty.
    ///
    /// # Panics
    ///
    /// Panics if the iterator yields nothing.
    pub fn new(iter: I) -> Self {
        match Self::try_new(iter) {
            Ok(t) => t,
            Err(e) => panic!("trace iterators must be endless: {e}"),
        }
    }
}

impl<I: Iterator<Item = TraceEntry> + Send> TraceSource for IterTrace<I> {
    fn next_entry(&mut self) -> TraceEntry {
        match self.try_next_entry() {
            Ok(e) => e,
            Err(e) => panic!("trace iterators must be endless: {e}"),
        }
    }

    fn try_next_entry(&mut self) -> Result<TraceEntry, TraceError> {
        let e = self.lookahead.take().ok_or(TraceError::Exhausted {
            after: self.yielded,
        })?;
        self.yielded += 1;
        self.lookahead = self.iter.next();
        Ok(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_instruction_count() {
        assert_eq!(TraceEntry::bubbles(3).instruction_count(), 3);
        assert_eq!(TraceEntry::load(3, 0x1000).instruction_count(), 4);
        assert_eq!(TraceEntry::store(0, 0x1000).instruction_count(), 1);
    }

    #[test]
    fn looped_trace_wraps() {
        let mut t = LoopedTrace::new(vec![TraceEntry::bubbles(1), TraceEntry::load(0, 64)]);
        assert_eq!(t.next_entry(), TraceEntry::bubbles(1));
        assert_eq!(t.next_entry(), TraceEntry::load(0, 64));
        assert_eq!(t.next_entry(), TraceEntry::bubbles(1));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_trace_rejected() {
        let _ = LoopedTrace::new(vec![]);
    }

    #[test]
    fn empty_trace_typed_error() {
        assert_eq!(LoopedTrace::try_new(vec![]).unwrap_err(), TraceError::Empty);
        assert!(LoopedTrace::try_new(vec![TraceEntry::bubbles(1)]).is_ok());
    }

    #[test]
    fn iter_trace_rejects_empty_at_construction() {
        assert_eq!(
            IterTrace::try_new(std::iter::empty::<TraceEntry>()).unwrap_err(),
            TraceError::Empty
        );
    }

    #[test]
    fn iter_trace_reports_exhaustion_instead_of_panicking() {
        let entries = vec![TraceEntry::bubbles(1), TraceEntry::load(0, 64)];
        let mut t = IterTrace::try_new(entries.into_iter()).unwrap();
        assert_eq!(t.try_next_entry(), Ok(TraceEntry::bubbles(1)));
        assert_eq!(t.try_next_entry(), Ok(TraceEntry::load(0, 64)));
        assert_eq!(t.try_next_entry(), Err(TraceError::Exhausted { after: 2 }));
        // The error is sticky: the count does not keep advancing.
        assert_eq!(t.try_next_entry(), Err(TraceError::Exhausted { after: 2 }));
    }

    #[test]
    fn iter_trace_endless_never_errs() {
        let mut t = IterTrace::new((0..).map(|i| TraceEntry::load(1, i * 64)));
        for i in 0..100u64 {
            assert_eq!(t.next_entry(), TraceEntry::load(1, i * 64));
        }
    }

    #[test]
    #[should_panic(expected = "endless")]
    fn iter_trace_legacy_path_panics_on_dry_iterator() {
        let mut t = IterTrace::new(vec![TraceEntry::bubbles(1)].into_iter());
        let _ = t.next_entry();
        let _ = t.next_entry();
    }

    #[test]
    fn trace_error_display() {
        assert_eq!(TraceError::Empty.to_string(), "trace is empty");
        assert_eq!(
            TraceError::Exhausted { after: 7 }.to_string(),
            "trace exhausted after 7 records"
        );
    }
}

/// Reads a trace from a Ramulator-style text file: one record per line,
/// `<bubbles>` alone for compute-only records or
/// `<bubbles> <R|W> <hex-vaddr>` for records ending in a memory access.
/// Blank lines and `#` comments are skipped.
///
/// # Errors
///
/// Returns an I/O error or a parse error naming the offending line.
pub fn load_trace(path: &std::path::Path) -> std::io::Result<Vec<TraceEntry>> {
    use std::io::{BufRead, BufReader};
    let f = std::fs::File::open(path)?;
    let mut out = Vec::new();
    for (lineno, line) in BufReader::new(f).lines().enumerate() {
        let line = line?;
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let err = |msg: &str| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("line {}: {msg}: {line:?}", lineno + 1),
            )
        };
        let bubbles: u32 = it
            .next()
            .ok_or_else(|| err("missing bubble count"))?
            .parse()
            .map_err(|_| err("bad bubble count"))?;
        let access = match it.next() {
            None => None,
            Some(kind) => {
                let is_write = match kind {
                    "R" | "r" => false,
                    "W" | "w" => true,
                    _ => return Err(err("expected R or W")),
                };
                let addr = it.next().ok_or_else(|| err("missing address"))?;
                let addr = addr.strip_prefix("0x").unwrap_or(addr);
                let vaddr = u64::from_str_radix(addr, 16).map_err(|_| err("bad hex address"))?;
                Some(MemAccess { vaddr, is_write })
            }
        };
        if it.next().is_some() {
            return Err(err("trailing tokens"));
        }
        out.push(TraceEntry { bubbles, access });
    }
    Ok(out)
}

/// Writes `entries` in the format [`load_trace`] reads.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn save_trace(path: &std::path::Path, entries: &[TraceEntry]) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "# crow trace: <bubbles> [R|W <hex-vaddr>]")?;
    for e in entries {
        match e.access {
            None => writeln!(f, "{}", e.bubbles)?,
            Some(a) => writeln!(
                f,
                "{} {} 0x{:x}",
                e.bubbles,
                if a.is_write { 'W' } else { 'R' },
                a.vaddr
            )?,
        }
    }
    Ok(())
}

/// Records `n` entries from any source into a replayable vector (e.g. to
/// snapshot a synthetic generator into a file via [`save_trace`]).
pub fn record_trace(source: &mut dyn TraceSource, n: usize) -> Vec<TraceEntry> {
    (0..n).map(|_| source.next_entry()).collect()
}

#[cfg(test)]
mod io_tests {
    use super::*;

    #[test]
    fn roundtrip_through_file() {
        let entries = vec![
            TraceEntry::bubbles(7),
            TraceEntry::load(3, 0xdead_b000),
            TraceEntry::store(0, 0x40),
        ];
        let dir = std::env::temp_dir().join(format!("crow-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        save_trace(&path, &entries).unwrap();
        let back = load_trace(&path).unwrap();
        assert_eq!(back, entries);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parser_reports_bad_lines() {
        let dir = std::env::temp_dir().join(format!("crow-trace-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.trace");
        std::fs::write(&path, "3 X 0x10\n").unwrap();
        let e = load_trace(&path).unwrap_err();
        assert!(e.to_string().contains("line 1"));
        std::fs::write(&path, "1 R zz\n").unwrap();
        assert!(load_trace(&path).is_err());
        std::fs::write(&path, "# comment\n\n5\n2 W 0xabc\n").unwrap();
        let ok = load_trace(&path).unwrap();
        assert_eq!(ok.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn record_snapshots_a_generator() {
        let mut t = LoopedTrace::new(vec![TraceEntry::bubbles(1), TraceEntry::load(0, 64)]);
        let rec = record_trace(&mut t, 5);
        assert_eq!(rec.len(), 5);
        assert_eq!(rec[0], TraceEntry::bubbles(1));
        assert_eq!(rec[1], TraceEntry::load(0, 64));
    }
}
