//! Spans and counters recorded by the benchmark's own wrappers around
//! the program's public API, kept in memory and written out as JSONL
//! when the traced pass ends.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crow_cpu::{MemAccess, TraceEntry, TraceError, TraceSource};

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// The span that caused this one (0: none).
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The job (or request) the span belongs to.
    pub job: Option<u64>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug, Default)]
struct Log {
    spans: Vec<Span>,
    counters: Vec<(&'static str, Option<u64>, f64)>,
}

/// In-memory span and counter recorder for one workload.
#[derive(Debug)]
pub struct Tracer {
    workload: String,
    t0: Instant,
    next_id: AtomicU64,
    log: Mutex<Log>,
}

impl Tracer {
    pub fn new(workload: &str) -> Arc<Self> {
        Arc::new(Self {
            workload: workload.to_string(),
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            log: Mutex::new(Log::default()),
        })
    }

    fn log(&self) -> std::sync::MutexGuard<'_, Log> {
        // A panic while holding the lock leaves at most one record
        // missing; the log stays usable.
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span named `name` around `f`, which receives the new
    /// span's id so that it can parent spans of its own.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        job: Option<u64>,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.log().spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
            job,
        });
        out
    }

    /// Records a count taken at a layer boundary.
    pub fn counter(&self, name: &'static str, job: Option<u64>, value: f64) {
        self.log().counters.push((name, job, value));
    }

    #[cfg(test)]
    pub fn spans(&self) -> Vec<Span> {
        self.log().spans.clone()
    }

    /// Sum of the durations of every span called `name`, in seconds.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.log()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Durations of every span called `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.log()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Writes every span and counter as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }

    fn render(&self) -> String {
        let log = self.log();
        let job = |j: Option<u64>| j.map_or_else(|| "null".to_string(), |j| j.to_string());
        let mut out = String::new();
        for s in &log.spans {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"workload\":\"{}\",\"job\":{}}}",
                s.name,
                s.id,
                s.parent,
                s.start_ns,
                s.end_ns,
                self.workload,
                job(s.job)
            );
        }
        for (name, j, value) in &log.counters {
            let _ = writeln!(
                out,
                "{{\"counter\":\"{name}\",\"workload\":\"{}\",\"job\":{},\"value\":{value}}}",
                self.workload,
                job(*j)
            );
        }
        out
    }
}

/// Runs `f` inside a span when tracing, or directly (with parent id 0)
/// when not.
pub fn span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: u64,
    job: Option<u64>,
    f: impl FnOnce(u64) -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, parent, job, f),
        None => f(0),
    }
}

/// Every how many trace records one is timed: timing each of them would
/// cost more than producing most records.
const SAMPLE_EVERY: u64 = 16;

/// Counts shared by the [`TimedTrace`] wrappers of one job.
#[derive(Debug, Default)]
pub struct TraceTally {
    pub entries: AtomicU64,
    pub accesses: AtomicU64,
    pub sampled: AtomicU64,
    pub sampled_ns: AtomicU64,
    recorded: Mutex<Vec<MemAccess>>,
}

impl TraceTally {
    /// Estimated host seconds spent producing records, after removing
    /// `timer_ns` of clock overhead from every timed call.
    pub fn self_secs(&self, timer_ns: f64) -> f64 {
        let sampled = self.sampled.load(Ordering::Relaxed);
        if sampled == 0 {
            return 0.0;
        }
        let per =
            (self.sampled_ns.load(Ordering::Relaxed) as f64 / sampled as f64 - timer_ns).max(0.0);
        per * self.entries.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// The memory accesses recorded by the wrapper that was asked to.
    pub fn recorded(&self) -> Vec<MemAccess> {
        self.recorded
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// A [`TraceSource`] that forwards to another and counts (and, for one
/// record in [`SAMPLE_EVERY`], times) the records it produces. It can
/// also keep the first accesses for the layer replays. Counts reach the
/// shared tally when the wrapper is dropped with its system.
pub struct TimedTrace {
    inner: Box<dyn TraceSource>,
    tally: Arc<TraceTally>,
    entries: u64,
    accesses: u64,
    sampled: u64,
    sampled_ns: u64,
    record_cap: usize,
    recorded: Vec<MemAccess>,
}

impl TimedTrace {
    pub fn new(inner: Box<dyn TraceSource>, tally: Arc<TraceTally>, record_cap: usize) -> Self {
        Self {
            inner,
            tally,
            entries: 0,
            accesses: 0,
            sampled: 0,
            sampled_ns: 0,
            record_cap,
            recorded: Vec::new(),
        }
    }

    fn observe(&mut self, e: &TraceEntry) {
        if let Some(a) = e.access {
            self.accesses += 1;
            if self.recorded.len() < self.record_cap {
                self.recorded.push(a);
            }
        }
    }

    fn produce<T>(&mut self, f: impl FnOnce(&mut dyn TraceSource) -> T) -> T {
        self.entries += 1;
        if !self.entries.is_multiple_of(SAMPLE_EVERY) {
            return f(self.inner.as_mut());
        }
        let t = Instant::now();
        let out = f(self.inner.as_mut());
        self.sampled_ns += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.sampled += 1;
        out
    }
}

impl TraceSource for TimedTrace {
    fn next_entry(&mut self) -> TraceEntry {
        let e = self.produce(|t| t.next_entry());
        self.observe(&e);
        e
    }

    fn try_next_entry(&mut self) -> Result<TraceEntry, TraceError> {
        let r = self.produce(|t| t.try_next_entry());
        if let Ok(e) = &r {
            self.observe(e);
        }
        r
    }

    fn snapshot_words(&self) -> Option<Vec<u64>> {
        self.inner.snapshot_words()
    }

    fn restore_words(&mut self, words: &[u64]) -> bool {
        self.inner.restore_words(words)
    }
}

impl Drop for TimedTrace {
    fn drop(&mut self) {
        let t = &self.tally;
        t.entries.fetch_add(self.entries, Ordering::Relaxed);
        t.accesses.fetch_add(self.accesses, Ordering::Relaxed);
        t.sampled.fetch_add(self.sampled, Ordering::Relaxed);
        t.sampled_ns.fetch_add(self.sampled_ns, Ordering::Relaxed);
        if !self.recorded.is_empty() {
            if let Ok(mut r) = t.recorded.lock() {
                r.append(&mut self.recorded);
            }
        }
    }
}

/// Median cost of reading the clock twice around nothing, in ns: the
/// overhead every timed record carries.
pub fn timer_overhead_ns() -> f64 {
    let samples: Vec<f64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(&t);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A source that counts which methods were called.
    #[derive(Default)]
    struct Probe {
        calls: Arc<Mutex<[u32; 4]>>,
        n: u64,
    }

    impl TraceSource for Probe {
        fn next_entry(&mut self) -> TraceEntry {
            self.calls.lock().unwrap()[0] += 1;
            self.n += 1;
            TraceEntry::load(3, self.n * 64)
        }
        fn try_next_entry(&mut self) -> Result<TraceEntry, TraceError> {
            self.calls.lock().unwrap()[1] += 1;
            if self.n >= 40 {
                return Err(TraceError::Exhausted { after: self.n });
            }
            self.n += 1;
            Ok(TraceEntry::store(1, self.n * 64))
        }
        fn snapshot_words(&self) -> Option<Vec<u64>> {
            self.calls.lock().unwrap()[2] += 1;
            Some(vec![self.n])
        }
        fn restore_words(&mut self, words: &[u64]) -> bool {
            self.calls.lock().unwrap()[3] += 1;
            self.n = words[0];
            true
        }
    }

    #[test]
    fn wrapper_forwards_all_four_methods() {
        let calls = Arc::new(Mutex::new([0u32; 4]));
        let probe = Probe {
            calls: Arc::clone(&calls),
            n: 0,
        };
        let tally = Arc::new(TraceTally::default());
        let mut w = TimedTrace::new(Box::new(probe), Arc::clone(&tally), 3);
        assert_eq!(w.next_entry(), TraceEntry::load(3, 64));
        assert_eq!(w.try_next_entry(), Ok(TraceEntry::store(1, 128)));
        assert_eq!(w.snapshot_words(), Some(vec![2]));
        assert!(w.restore_words(&[40]));
        assert_eq!(
            w.try_next_entry(),
            Err(TraceError::Exhausted { after: 40 }),
            "errors pass through unchanged"
        );
        for _ in 0..40 {
            w.next_entry();
        }
        assert_eq!(*calls.lock().unwrap(), [41, 2, 1, 1]);
        drop(w);
        // 43 calls produced a record or an error; the error is no access.
        assert_eq!(tally.entries.load(Ordering::Relaxed), 43);
        assert_eq!(tally.accesses.load(Ordering::Relaxed), 42);
        assert_eq!(tally.sampled.load(Ordering::Relaxed), 43 / SAMPLE_EVERY);
        let rec = tally.recorded();
        assert_eq!(rec.len(), 3, "recording stops at its cap");
        assert!(!rec[0].is_write && rec[1].is_write);
    }

    #[test]
    fn spans_nest_and_write_as_jsonl() {
        let t = Tracer::new("w");
        let inner = t.span("outer", 0, None, |id| t.span("inner", id, Some(7), |id| id));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let child = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(child.id, inner);
        assert_eq!(child.parent, outer.id);
        assert!(outer.start_ns <= child.start_ns && child.end_ns <= outer.end_ns);
        t.counter("c", Some(7), 2.5);
        let text = t.render();
        for line in text.lines() {
            crow_sim::Json::parse(line).expect("every line is JSON");
        }
        assert_eq!(text.lines().count(), 3);
    }
}
