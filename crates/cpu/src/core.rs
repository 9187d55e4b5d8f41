//! The per-core out-of-order window model.

use std::cell::Cell;
use std::collections::VecDeque;

use crate::trace::{TraceError, TraceSource};

/// A point in time in CPU clock cycles.
pub type CpuCycle = u64;

const WAITING: CpuCycle = u64::MAX;

/// An in-flight memory instruction (load or store).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MemSlot {
    /// Dispatch sequence number; also marks a waiting load ready on
    /// completion.
    seq: u64,
    /// Cycle at which the instruction may retire (`WAITING` for a load
    /// whose fill has not returned).
    ready_at: CpuCycle,
}

/// A simple out-of-order core: instructions enter an in-order window and
/// retire in order, up to `ipc` per cycle; only loads can block
/// retirement (stores are posted, compute instructions are single-cycle).
///
/// This is the standard trace-driven model Ramulator uses for CPU traces
/// and is the core the paper simulates (4-wide, 128-entry window).
///
/// The window holds the sequence numbers `head ..= next_seq`. Only its
/// memory instructions are stored; every other sequence number in that
/// range is a bubble (compute instruction). A bubble needs no slot: it
/// is ready from the cycle it dispatches, and retirement runs before
/// dispatch in every cycle, so a bubble is always ready by the time it
/// reaches the head.
pub struct Core {
    /// In-flight memory instructions in dispatch order.
    mem: VecDeque<MemSlot>,
    /// Leading entries of `mem` known ready. A slot ready at one cycle
    /// stays ready at every later one, so the scan for the first slot
    /// that is not ready resumes here (see [`Core::first_unready`]).
    ready: Cell<usize>,
    /// Sequence number of the oldest in-flight instruction
    /// (`next_seq + 1` when the window is empty).
    head: u64,
    window_size: usize,
    ipc: u32,
    trace: Box<dyn TraceSource>,
    /// Bubbles left to dispatch from the current trace record.
    pending_bubbles: u32,
    /// The current record's memory access, if not yet dispatched.
    pending_access: Option<crate::trace::MemAccess>,
    next_seq: u64,
    retired: u64,
    target: u64,
    finish_cycle: Option<CpuCycle>,
    /// Set when the trace ran dry; the core is then *parked* (counts as
    /// finished so the simulation can terminate gracefully).
    trace_fault: Option<TraceError>,
    /// Demand LLC load misses (for MPKI reporting).
    pub(crate) demand_misses: u64,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("retired", &self.retired)
            .field("window", &self.window_len())
            .finish()
    }
}

impl Core {
    /// Creates a core over an endless trace.
    pub fn new(trace: Box<dyn TraceSource>, ipc: u32, window_size: usize, target: u64) -> Self {
        Self {
            mem: VecDeque::with_capacity(window_size),
            ready: Cell::new(0),
            head: 1,
            window_size,
            ipc,
            trace,
            pending_bubbles: 0,
            pending_access: None,
            next_seq: 0,
            retired: 0,
            target,
            finish_cycle: None,
            trace_fault: None,
            demand_misses: 0,
        }
    }

    /// Instructions retired (frozen at the target).
    pub fn retired(&self) -> u64 {
        self.retired.min(self.target)
    }

    /// The cycle the core hit its instruction target, if it has.
    pub fn finish_cycle(&self) -> Option<CpuCycle> {
        self.finish_cycle
    }

    /// Whether the core is done: either the instruction target was
    /// reached, or the trace ran dry and the core parked itself (see
    /// [`Core::trace_fault`]).
    pub fn finished(&self) -> bool {
        self.finish_cycle.is_some() || self.trace_fault.is_some()
    }

    /// The trace fault that parked this core, if any.
    pub fn trace_fault(&self) -> Option<TraceError> {
        self.trace_fault
    }

    /// IPC over the measured window (0 until finished if asked early).
    pub fn ipc_value(&self) -> f64 {
        match self.finish_cycle {
            Some(c) if c > 0 => self.target as f64 / c as f64,
            _ => 0.0,
        }
    }

    /// Demand misses per kilo-instruction so far.
    pub fn mpki(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.demand_misses as f64 * 1000.0 / self.retired.min(self.target) as f64
        }
    }

    /// In-flight instructions.
    fn window_len(&self) -> u64 {
        self.next_seq + 1 - self.head
    }

    /// Retires up to `ipc` ready instructions from the window head.
    pub fn retire(&mut self, now: CpuCycle) {
        for _ in 0..self.ipc {
            if self.window_len() == 0 {
                break;
            }
            if let Some(s) = self.mem.front().filter(|s| s.seq == self.head) {
                if s.ready_at > now {
                    break;
                }
                self.mem.pop_front();
                self.ready.set(self.ready.get().saturating_sub(1));
            }
            // Otherwise the head is a bubble, which is always ready.
            self.head += 1;
            self.retired += 1;
            if self.retired == self.target && self.finish_cycle.is_none() {
                self.finish_cycle = Some(now.max(1));
            }
        }
    }

    /// Whether the window has space for another instruction.
    pub fn window_has_space(&self) -> bool {
        self.window_len() < self.window_size as u64
    }

    /// Pulls trace records until a dispatchable instruction is pending.
    /// If the trace runs dry the core records the fault and parks itself
    /// (no pending work, [`Core::finished`] turns true) instead of
    /// panicking mid-simulation; callers must check
    /// [`Core::trace_fault`] before dispatching.
    pub fn refill_pending(&mut self) {
        while self.pending_bubbles == 0 && self.pending_access.is_none() {
            if self.trace_fault.is_some() {
                return;
            }
            match self.trace.try_next_entry() {
                Ok(e) => {
                    self.pending_bubbles = e.bubbles;
                    self.pending_access = e.access;
                }
                Err(e) => {
                    self.trace_fault = Some(e);
                    return;
                }
            }
        }
    }

    /// The memory access waiting to dispatch, if the current record has
    /// drained its bubbles.
    pub fn pending_access(&self) -> Option<crate::trace::MemAccess> {
        if self.pending_bubbles == 0 {
            self.pending_access
        } else {
            None
        }
    }

    /// Dispatches one bubble (compute) instruction.
    pub fn dispatch_bubble(&mut self) {
        debug_assert!(self.pending_bubbles > 0 && self.window_has_space());
        self.pending_bubbles -= 1;
        self.next_seq += 1;
    }

    /// Dispatches the pending memory access as already-satisfied (store,
    /// or load hit ready at `ready_at`).
    pub fn dispatch_ready(&mut self, ready_at: CpuCycle) {
        self.dispatch_access(ready_at);
    }

    /// Dispatches the pending load as waiting on memory; returns the seq
    /// to mark ready later.
    pub fn dispatch_waiting(&mut self) -> u64 {
        self.dispatch_access(WAITING)
    }

    fn dispatch_access(&mut self, ready_at: CpuCycle) -> u64 {
        debug_assert!(self.pending_access().is_some() && self.window_has_space());
        self.pending_access = None;
        self.next_seq += 1;
        let seq = self.next_seq;
        self.mem.push_back(MemSlot { seq, ready_at });
        seq
    }

    /// Marks a waiting load ready (fill returned).
    pub fn complete(&mut self, seq: u64, now: CpuCycle) {
        match self.mem.binary_search_by_key(&seq, |s| s.seq) {
            Ok(i) => {
                debug_assert_eq!(
                    self.mem[i].ready_at, WAITING,
                    "completing a non-waiting slot"
                );
                self.mem[i].ready_at = now;
            }
            Err(_) => debug_assert!(false, "completion for unknown seq {seq}"),
        }
    }

    /// Consumes up to `max` of the pending record's bubbles without
    /// dispatching them, returning how many were taken. The functional
    /// warmup path batches a record's compute instructions in one step
    /// instead of cycling each through the instruction window — bubbles
    /// touch no architectural state the warmup preserves.
    pub fn skip_bubbles(&mut self, max: u64) -> u64 {
        let k = u64::from(self.pending_bubbles).min(max);
        self.pending_bubbles -= k as u32;
        k
    }

    /// Consumes the pending memory access without dispatching it
    /// (functional warmup path); `None` while bubbles still precede it.
    pub fn take_access(&mut self) -> Option<crate::trace::MemAccess> {
        if self.pending_bubbles == 0 {
            self.pending_access.take()
        } else {
            None
        }
    }

    /// Advances the dispatch sequence counter as if `n` instructions
    /// had been dispatched and retired, keeping the batched functional
    /// warmup bit-identical to the historical one-instruction-at-a-time
    /// path. The warmup runs on an empty window.
    pub fn bump_seq(&mut self, n: u64) {
        debug_assert!(
            self.window_empty(),
            "functional warmup with instructions in flight"
        );
        self.next_seq += n;
        self.head += n;
    }

    /// How many cycles starting at `now` this core is provably *inert*:
    /// its per-cycle behaviour is either a full stall (window full, head
    /// not yet retirable — the cycle does nothing at all) or a purely
    /// mechanical bubble stretch (retire `ipc` ready slots, dispatch
    /// `ipc` bubbles — no trace refill, no memory access, no LLC touch).
    /// Such cycles can be replayed in closed form by
    /// [`Core::advance_inert`] with bit-identical results.
    ///
    /// Returns 0 if the next cycle must run normally; `u64::MAX` means
    /// inert until an external completion arrives. `now` never goes
    /// backwards from one call to the next.
    pub fn inert_cycles(&self, now: CpuCycle) -> u64 {
        if self.trace_fault.is_some() && self.window_empty() {
            // Parked with a drained window: no retire, no dispatch, no
            // refill can ever happen again — inert indefinitely.
            return u64::MAX;
        }
        let k = self.mechanical_cycles(now);
        if k > 0 || self.window_has_space() {
            return k;
        }
        // Fully stalled: nothing can dispatch, and retirement resumes
        // only once the head becomes ready. A bubble head is ready.
        match self.mem.front() {
            Some(s) if s.seq == self.head && s.ready_at == WAITING => u64::MAX,
            Some(s) if s.seq == self.head && s.ready_at > now => s.ready_at - now,
            _ => 0,
        }
    }

    /// The length of the mechanical bubble stretch starting at `now`, in
    /// cycles (0: none). Cycle `j` of a stretch retires the window's
    /// slots `j·ipc .. (j+1)·ipc` and dispatches `ipc` bubbles, so a
    /// stretch of `k` cycles needs:
    ///
    /// - `k·ipc` queued bubbles, so no trace refill or access dispatch
    ///   happens;
    /// - at least `ipc` slots in the window, so exactly `ipc` retire per
    ///   cycle and the window length is invariant;
    /// - the first `k·ipc` slots ready at `now`, so retirement never
    ///   blocks. The bubbles the stretch dispatches reach the head at
    ///   least one cycle after they dispatch, so they are ready too.
    ///
    /// A stretch also stops one instruction short of the retirement
    /// target, so the finishing cycle runs through the normal path and
    /// records `finish_cycle` exactly as stepping would.
    fn mechanical_cycles(&self, now: CpuCycle) -> u64 {
        let n = u64::from(self.ipc);
        let len = self.window_len();
        if u64::from(self.pending_bubbles) < n || len < n {
            return 0;
        }
        let mut k = u64::from(self.pending_bubbles) / n;
        if self.finish_cycle.is_none() {
            k = k.min(self.target.saturating_sub(self.retired + 1) / n);
        }
        if let Some(first) = self.first_unready(now) {
            k = k.min(first / n);
        }
        k
    }

    /// The window position of the first slot not ready at `now`, or
    /// `None` when every slot is. Bubbles are always ready, so this is
    /// the first memory slot with `ready_at > now`; the scan resumes
    /// after the slots earlier calls found ready, since a slot ready at
    /// one cycle stays ready at every later one. Amortised O(1).
    fn first_unready(&self, now: CpuCycle) -> Option<u64> {
        let mut i = self.ready.get();
        let first = loop {
            match self.mem.get(i) {
                Some(s) if s.ready_at <= now => i += 1,
                Some(s) => break Some(s.seq - self.head),
                None => break None,
            }
        };
        self.ready.set(i);
        first
    }

    /// Replays `k` cycles agreed inert by [`Core::inert_cycles`] in
    /// closed form. For a stalled core this is a no-op; for a mechanical
    /// bubble stretch it retires the first `k·ipc` slots and dispatches
    /// `k·ipc` bubbles behind the rest, at a cost of the memory slots
    /// it retires.
    pub fn advance_inert(&mut self, now: CpuCycle, k: u64) {
        if k == 0 || self.mechanical_cycles(now) == 0 {
            return;
        }
        debug_assert!(k <= self.mechanical_cycles(now));
        let m = u64::from(self.ipc) * k;
        self.retired += m;
        self.pending_bubbles -= m as u32;
        self.next_seq += m;
        self.head += m;
        // Every retired memory slot lies before the first unready one,
        // inside the prefix `mechanical_cycles` just found ready.
        let mut popped = 0;
        while self.mem.front().is_some_and(|s| s.seq < self.head) {
            self.mem.pop_front();
            popped += 1;
        }
        self.ready.set(self.ready.get() - popped);
    }

    /// Zeroes retirement statistics (used after functional warmup so the
    /// measured window starts clean).
    pub fn reset_measurement(&mut self) {
        self.retired = 0;
        self.finish_cycle = None;
        self.demand_misses = 0;
    }

    /// Starts a new measured phase mid-run: zeroes the retirement
    /// statistics and arms a fresh instruction target. In-flight window
    /// slots are kept — instructions dispatched by the previous phase
    /// retire into this one, which is exactly what a mid-run measurement
    /// boundary wants (the pipeline stays full across the boundary).
    pub fn begin_phase(&mut self, target: u64) {
        self.reset_measurement();
        self.target = target;
    }

    /// Whether the in-order window holds no in-flight instructions.
    pub fn window_empty(&self) -> bool {
        self.window_len() == 0
    }

    /// Every field a cycle can change, for tests that compare a stepped
    /// core with a replayed one.
    #[cfg(test)]
    pub(crate) fn state(&self) -> String {
        format!(
            "retired {} finish {:?} head {} next_seq {} bubbles {} access {:?} misses {} target {} fault {:?} mem {:?}",
            self.retired,
            self.finish_cycle,
            self.head,
            self.next_seq,
            self.pending_bubbles,
            self.pending_access,
            self.demand_misses,
            self.target,
            self.trace_fault,
            self.mem,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{LoopedTrace, TraceEntry};

    fn core(entries: Vec<TraceEntry>, target: u64) -> Core {
        Core::new(Box::new(LoopedTrace::new(entries)), 4, 8, target)
    }

    #[test]
    fn bubbles_retire_at_ipc() {
        let mut c = core(vec![TraceEntry::bubbles(100)], 16);
        for now in 0..10 {
            c.retire(now);
            for _ in 0..4 {
                if !c.window_has_space() {
                    break;
                }
                c.refill_pending();
                if c.pending_access().is_none() {
                    c.dispatch_bubble();
                }
            }
        }
        // 4-wide: 16 instructions retire within a handful of cycles.
        assert!(c.finished());
        assert!(c.ipc_value() > 2.0, "ipc {}", c.ipc_value());
    }

    #[test]
    fn waiting_load_blocks_retirement() {
        let mut c = core(vec![TraceEntry::load(0, 0x40)], 8);
        c.refill_pending();
        assert!(c.pending_access().is_some());
        let seq = c.dispatch_waiting();
        // Dispatch more bubbles behind the load.
        for _ in 0..3 {
            c.refill_pending();
            let s2 = c.dispatch_waiting();
            c.complete(s2, 0); // later loads complete immediately
        }
        c.retire(5);
        assert_eq!(c.retired(), 0, "head load still waiting");
        c.complete(seq, 6);
        c.retire(6);
        assert_eq!(c.retired(), 4);
    }

    #[test]
    fn finish_freezes_ipc() {
        let mut c = core(vec![TraceEntry::bubbles(10)], 8);
        for now in 0..100 {
            c.retire(now);
            while c.window_has_space() {
                c.refill_pending();
                c.dispatch_bubble();
            }
        }
        assert!(c.finished());
        let ipc = c.ipc_value();
        assert!(ipc > 0.0);
        assert_eq!(c.retired(), 8);
    }

    #[test]
    fn exhausted_trace_parks_core_instead_of_panicking() {
        use crate::trace::IterTrace;
        let entries = vec![TraceEntry::bubbles(2), TraceEntry::load(0, 0x40)];
        let src = IterTrace::try_new(entries.into_iter()).unwrap();
        let mut c = Core::new(Box::new(src), 4, 8, 1000);
        // Drain the two records.
        for now in 0..4 {
            c.refill_pending();
            if c.trace_fault().is_some() {
                break;
            }
            if c.pending_access().is_some() {
                c.dispatch_ready(now);
            } else {
                c.dispatch_bubble();
            }
        }
        c.refill_pending(); // trace is dry now
        assert_eq!(c.trace_fault(), Some(TraceError::Exhausted { after: 2 }));
        assert!(c.finished(), "parked core counts as finished");
        assert!(c.pending_access().is_none());
        // Parking is stable: further refills stay parked.
        c.refill_pending();
        assert_eq!(c.trace_fault(), Some(TraceError::Exhausted { after: 2 }));
        // Retire what dispatched; the window drains and the core goes
        // permanently inert.
        c.retire(10);
        assert_eq!(c.inert_cycles(11), u64::MAX);
    }

    /// A core driven the way the cluster drives it, against a memory
    /// whose latencies the trace encodes: a load whose address has bit 0
    /// set misses and fills `vaddr >> 8` cycles after dispatch (at least
    /// one); any other load hits the LLC and is ready `vaddr >> 8` cycles
    /// after dispatch; stores are ready at once.
    struct Driven {
        core: Core,
        /// Outstanding fills: (due cycle, seq), in dispatch order.
        fills: Vec<(CpuCycle, u64)>,
        /// Completions delivered so far: (cycle, seq).
        completed: Vec<(CpuCycle, u64)>,
    }

    impl Driven {
        fn new(core: Core) -> Self {
            Self {
                core,
                fills: Vec::new(),
                completed: Vec::new(),
            }
        }

        fn next_fill(&self) -> CpuCycle {
            self.fills.iter().map(|f| f.0).min().unwrap_or(u64::MAX)
        }

        /// One cycle: deliver due fills, retire, dispatch up to `ipc`.
        fn step(&mut self, now: CpuCycle) {
            let (due, rest): (Vec<_>, Vec<_>) = self.fills.iter().partition(|f| f.0 <= now);
            self.fills = rest;
            for (_, seq) in due {
                self.core.complete(seq, now);
                self.completed.push((now, seq));
            }
            self.core.retire(now);
            for _ in 0..self.core.ipc {
                if !self.core.window_has_space() {
                    break;
                }
                self.core.refill_pending();
                if self.core.trace_fault().is_some() {
                    break;
                }
                match self.core.pending_access() {
                    None => self.core.dispatch_bubble(),
                    Some(a) if a.is_write => self.core.dispatch_ready(now),
                    Some(a) if a.vaddr & 1 == 0 => self.core.dispatch_ready(now + (a.vaddr >> 8)),
                    Some(a) => {
                        let seq = self.core.dispatch_waiting();
                        self.fills.push((now + (a.vaddr >> 8).max(1), seq));
                    }
                }
            }
        }
    }

    fn assert_same(stepped: &Driven, replayed: &Driven, now: CpuCycle) {
        let (a, b) = (&stepped.core, &replayed.core);
        let state = |c: &Core| {
            (
                c.retired,
                c.finish_cycle,
                c.window_len(),
                c.next_seq,
                c.pending_bubbles,
                c.mem.iter().copied().collect::<Vec<_>>(),
            )
        };
        assert_eq!(state(a), state(b), "diverged by cycle {now}");
        assert_eq!(stepped.completed, replayed.completed, "by cycle {now}");
    }

    /// Runs two cores over `trace()` for `cycles` cycles: one steps every
    /// cycle, the other replays whatever [`Core::inert_cycles`] allows,
    /// up to the next fill. Returns the cycles replayed while a load
    /// was waiting in the window, which demanding the whole window ready
    /// would have stepped.
    fn replay_matches_stepping(
        trace: impl Fn() -> Box<dyn TraceSource>,
        target: u64,
        cycles: u64,
    ) -> u64 {
        let mut stepped = Driven::new(Core::new(trace(), 4, 128, target));
        let mut replayed = Driven::new(Core::new(trace(), 4, 128, target));
        let mut behind_waiting = 0;
        let mut now = 0;
        while now < cycles {
            let next_fill = replayed.next_fill();
            let k = if next_fill <= now {
                0
            } else {
                replayed
                    .core
                    .inert_cycles(now)
                    .min(next_fill - now)
                    .min(cycles - now)
            };
            if k == 0 {
                stepped.step(now);
                replayed.step(now);
                now += 1;
            } else {
                if replayed.core.mem.iter().any(|s| s.ready_at == WAITING) {
                    behind_waiting += k;
                }
                replayed.core.advance_inert(now, k);
                for c in now..now + k {
                    stepped.step(c);
                }
                now += k;
            }
            assert_same(&stepped, &replayed, now);
        }
        behind_waiting
    }

    fn latency_addr(cycles: u64, miss: bool) -> u64 {
        (cycles << 8) | u64::from(miss)
    }

    fn random_entries(seed: u64, records: usize) -> Vec<TraceEntry> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..records)
            .map(|_| {
                let bubbles = if rng.gen_bool(0.1) {
                    rng.gen_range(40..400u32)
                } else {
                    rng.gen_range(0..8u32)
                };
                match rng.gen_range(0..10u32) {
                    0 => TraceEntry::bubbles(bubbles.max(1)),
                    1..=3 => TraceEntry::store(bubbles, 0),
                    4..=6 => TraceEntry::load(bubbles, latency_addr(rng.gen_range(0..30), false)),
                    _ => TraceEntry::load(bubbles, latency_addr(rng.gen_range(1..600), true)),
                }
            })
            .collect()
    }

    #[test]
    fn replay_equals_stepping_on_random_traces() {
        for seed in 1..=6 {
            let entries = random_entries(seed, 4_000);
            replay_matches_stepping(
                || Box::new(LoopedTrace::new(entries.clone())),
                40_000,
                80_000,
            );
        }
    }

    #[test]
    fn replay_runs_past_a_waiting_load_deep_in_a_full_window() {
        // A waiting load at the head, then one 100 slots behind it: the
        // window fills and stalls on the head. Once the head fills, the
        // 100 ready slots ahead of the second load retire in closed form.
        let mut entries = vec![
            TraceEntry::load(0, latency_addr(3_000, true)),
            TraceEntry::load(99, latency_addr(6_000, true)),
            TraceEntry::bubbles(20_000),
        ];
        entries.extend(random_entries(7, 2_000));
        let behind = replay_matches_stepping(
            || Box::new(LoopedTrace::new(entries.clone())),
            60_000,
            30_000,
        );
        assert!(
            behind >= 20,
            "replayed {behind} cycles behind a waiting load"
        );
    }

    #[test]
    fn replay_stops_short_of_the_target() {
        // 501 is not a multiple of the width: the target falls inside a
        // would-be stretch, and the finishing cycle must be stepped.
        replay_matches_stepping(
            || Box::new(LoopedTrace::new(vec![TraceEntry::bubbles(1_000)])),
            501,
            2_000,
        );
        let entries = random_entries(8, 3_000);
        for target in [997, 4_001, 12_345] {
            replay_matches_stepping(
                || Box::new(LoopedTrace::new(entries.clone())),
                target,
                40_000,
            );
        }
    }

    #[test]
    fn replay_equals_stepping_on_a_parked_core() {
        use crate::trace::IterTrace;
        let entries = random_entries(9, 300);
        let trace = || -> Box<dyn TraceSource> {
            Box::new(IterTrace::try_new(entries.clone().into_iter()).unwrap())
        };
        replay_matches_stepping(trace, 1_000_000, 60_000);
        let mut c = Core::new(trace(), 4, 128, 1_000_000);
        let mut d = Driven::new(c);
        for now in 0..60_000 {
            d.step(now);
        }
        c = d.core;
        assert!(c.trace_fault().is_some() && c.window_empty());
        assert_eq!(c.inert_cycles(60_000), u64::MAX);
    }

    #[test]
    fn window_capacity_respected() {
        let mut c = core(vec![TraceEntry::bubbles(1000)], 1000);
        for _ in 0..20 {
            if !c.window_has_space() {
                break;
            }
            c.refill_pending();
            c.dispatch_bubble();
        }
        assert!(!c.window_has_space());
    }
}
