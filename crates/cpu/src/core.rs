//! The per-core out-of-order window model.

use std::collections::VecDeque;

use crate::trace::{TraceError, TraceSource};

/// A point in time in CPU clock cycles.
pub type CpuCycle = u64;

const WAITING: CpuCycle = u64::MAX;

#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Cycle at which the instruction may retire (`WAITING` for a load
    /// whose fill has not returned).
    ready_at: CpuCycle,
    /// Identifier used to mark waiting loads ready on completion.
    seq: u64,
}

/// A simple out-of-order core: instructions enter an in-order window and
/// retire in order, up to `ipc` per cycle; only loads can block
/// retirement (stores are posted, compute instructions are single-cycle).
///
/// This is the standard trace-driven model Ramulator uses for CPU traces
/// and is the core the paper simulates (4-wide, 128-entry window).
pub struct Core {
    window: VecDeque<Slot>,
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
            .field("window", &self.window.len())
            .finish()
    }
}

impl Core {
    /// Creates a core over an endless trace.
    pub fn new(trace: Box<dyn TraceSource>, ipc: u32, window_size: usize, target: u64) -> Self {
        Self {
            window: VecDeque::with_capacity(window_size),
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

    /// Retires up to `ipc` ready instructions from the window head.
    pub fn retire(&mut self, now: CpuCycle) {
        for _ in 0..self.ipc {
            match self.window.front() {
                Some(s) if s.ready_at <= now => {
                    self.window.pop_front();
                    self.retired += 1;
                    if self.retired == self.target && self.finish_cycle.is_none() {
                        self.finish_cycle = Some(now.max(1));
                    }
                }
                _ => break,
            }
        }
    }

    /// Whether the window has space for another instruction.
    pub fn window_has_space(&self) -> bool {
        self.window.len() < self.window_size
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
    pub fn dispatch_bubble(&mut self, now: CpuCycle) {
        debug_assert!(self.pending_bubbles > 0 && self.window_has_space());
        self.pending_bubbles -= 1;
        let seq = self.alloc_seq();
        self.window.push_back(Slot { ready_at: now, seq });
    }

    /// Dispatches the pending memory access as already-satisfied (store,
    /// or load hit ready at `ready_at`).
    pub fn dispatch_ready(&mut self, ready_at: CpuCycle) {
        debug_assert!(self.pending_access().is_some() && self.window_has_space());
        self.pending_access = None;
        let seq = self.alloc_seq();
        self.window.push_back(Slot { ready_at, seq });
    }

    /// Dispatches the pending load as waiting on memory; returns the seq
    /// to mark ready later.
    pub fn dispatch_waiting(&mut self) -> u64 {
        debug_assert!(self.pending_access().is_some() && self.window_has_space());
        self.pending_access = None;
        let seq = self.alloc_seq();
        self.window.push_back(Slot {
            ready_at: WAITING,
            seq,
        });
        seq
    }

    /// Marks a waiting load ready (fill returned).
    pub fn complete(&mut self, seq: u64, now: CpuCycle) {
        for s in self.window.iter_mut() {
            if s.seq == seq {
                debug_assert_eq!(s.ready_at, WAITING, "completing a non-waiting slot");
                s.ready_at = now;
                return;
            }
        }
        debug_assert!(false, "completion for unknown seq {seq}");
    }

    fn alloc_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
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
    /// had been dispatched, keeping the batched functional warmup
    /// bit-identical to the historical one-instruction-at-a-time path.
    pub fn bump_seq(&mut self, n: u64) {
        self.next_seq += n;
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
    /// inert until an external completion arrives.
    pub fn inert_cycles(&self, now: CpuCycle) -> u64 {
        if self.trace_fault.is_some() && self.window.is_empty() {
            // Parked with a drained window: no retire, no dispatch, no
            // refill can ever happen again — inert indefinitely.
            return u64::MAX;
        }
        if self.is_mechanical(now) {
            let n = u64::from(self.ipc);
            let mut k = u64::from(self.pending_bubbles) / n;
            if self.finish_cycle.is_none() {
                // Stop strictly before the retirement target so the
                // finishing cycle itself runs through the normal path and
                // records `finish_cycle` exactly as the naive stepper
                // would.
                k = k.min(self.target.saturating_sub(self.retired + 1) / n);
            }
            return k;
        }
        if !self.window_has_space() {
            // Fully stalled: nothing can dispatch, and retirement resumes
            // only once the head slot becomes ready.
            return match self.window.front() {
                Some(s) if s.ready_at == WAITING => u64::MAX,
                Some(s) if s.ready_at > now => s.ready_at - now,
                _ => 0,
            };
        }
        0
    }

    /// Mechanical-stretch preconditions: enough queued bubbles that no
    /// trace refill or access dispatch happens, a window deep enough
    /// that exactly `ipc` slots retire per cycle, and every slot already
    /// retirable (so retirement never blocks mid-stretch). The window
    /// length is then invariant cycle over cycle: retire `ipc`, dispatch
    /// `ipc` bubbles.
    fn is_mechanical(&self, now: CpuCycle) -> bool {
        let n = u64::from(self.ipc);
        u64::from(self.pending_bubbles) >= n
            && self.window.len() as u64 >= n
            && !self.window.iter().any(|s| s.ready_at > now)
    }

    /// Replays `k` cycles agreed inert by [`Core::inert_cycles`] in
    /// closed form. For a stalled core this is a no-op; for a mechanical
    /// bubble stretch it applies the exact retire/dispatch effects of
    /// cycles `now .. now + k`.
    pub fn advance_inert(&mut self, now: CpuCycle, k: u64) {
        if k == 0 || !self.is_mechanical(now) {
            return;
        }
        let n = u64::from(self.ipc);
        let pushes = n * k;
        debug_assert!(u64::from(self.pending_bubbles) >= pushes);
        // Each cycle retires `ipc` ready slots and dispatches `ipc`
        // bubbles, so the window length is invariant and its final
        // content is the most recent `len` dispatches (possibly with a
        // prefix of surviving old slots if the stretch was short).
        let len = self.window.len() as u64;
        self.retired += pushes;
        self.pending_bubbles -= pushes as u32;
        let kept_new = pushes.min(len);
        if pushes >= len {
            self.window.clear();
        } else {
            self.window.drain(..pushes as usize);
        }
        // Bubble `i` (0-based within the stretch) dispatches in cycle
        // `now + i / ipc` with seq `next_seq + 1 + i`; keep the last
        // `kept_new` of them.
        for i in (pushes - kept_new)..pushes {
            self.window.push_back(Slot {
                ready_at: now + i / n,
                seq: self.next_seq + 1 + i,
            });
        }
        self.next_seq += pushes;
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
        self.window.is_empty()
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
                    c.dispatch_bubble(now);
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
                c.dispatch_bubble(now);
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
                c.dispatch_bubble(now);
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

    #[test]
    fn window_capacity_respected() {
        let mut c = core(vec![TraceEntry::bubbles(1000)], 1000);
        for _ in 0..20 {
            if !c.window_has_space() {
                break;
            }
            c.refill_pending();
            c.dispatch_bubble(0);
        }
        assert!(!c.window_has_space());
    }
}
