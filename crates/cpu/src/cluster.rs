//! The CPU cluster: cores + shared LLC + page tables + prefetcher,
//! talking to the memory system through [`MemPort`].

use std::collections::VecDeque;

use crate::cache::{AccessKind, Llc, LlcResult};
use crate::config::CpuConfig;
use crate::core::{Core, CpuCycle};
use crate::page::PageTable;
use crate::prefetch::StridePrefetcher;
use crate::trace::{TraceError, TraceSource};

/// A cache-line request handed to the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuMemReq {
    /// Unique id; read completions must be reported back with it.
    pub id: u64,
    /// Line-aligned physical address.
    pub line_pa: u64,
    /// Writeback (no completion expected) vs read fill.
    pub is_write: bool,
    /// Originating core.
    pub core: u32,
    /// Generated by the prefetcher.
    pub is_prefetch: bool,
}

/// Backpressured path into the memory system (implemented by the
/// simulator over the per-channel controllers).
pub trait MemPort {
    /// Attempts to enqueue; `false` means the target queue is full and
    /// the cluster will retry.
    fn send(&mut self, req: CpuMemReq) -> bool;
}

/// An outstanding fill.
#[derive(Debug)]
struct MshrEntry {
    /// Line-aligned physical address.
    line: u64,
    /// Id of the read request sent for it.
    req: u64,
    initiator: u32,
    waiters: Vec<(u32, u64)>,
}

/// Cores, shared LLC, and miss handling.
pub struct CpuCluster {
    cfg: CpuConfig,
    cores: Vec<Core>,
    pages: Vec<PageTable>,
    llc: Llc,
    prefetcher: Option<StridePrefetcher>,
    /// Outstanding fills, at most one per line; the MSHR cap bounds them
    /// by cores × MSHRs, so lookups scan.
    outstanding: Vec<MshrEntry>,
    mshr_used: Vec<u32>,
    pending_writebacks: VecDeque<(u32, u64)>,
    next_req: u64,
    demand_reads_sent: u64,
    writebacks_sent: u64,
    /// When set, cycles only retire in-flight work (no refill, no
    /// dispatch, no prefetch training): the cluster drains toward
    /// [`CpuCluster::quiescent`] without creating new memory traffic.
    fetch_frozen: bool,
    /// Per core, the first cycle not yet applied to it. A core behind
    /// the cluster's clock is *deferred*: it is known inert from
    /// `local` up to `inert_until`, and replays that gap in closed form
    /// ([`Core::advance_inert`]) only when it is next read or changed.
    local: Vec<CpuCycle>,
    /// Per core, the end of its known inert stretch (`local` when
    /// nothing is known). [`CpuCluster::cycle`] skips a core whose
    /// horizon is still ahead; `local <= inert_until` always holds.
    inert_until: Vec<CpuCycle>,
    /// Core-cycles that ran `core_cycle` (see
    /// [`CpuCluster::stepped_core_cycles`]).
    stepped_core_cycles: u64,
}

impl CpuCluster {
    /// Builds a cluster with one core per trace; page tables are seeded
    /// deterministically from `seed` and the physical space spans
    /// `mem_capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid or `traces` is empty.
    pub fn new(
        cfg: CpuConfig,
        traces: Vec<Box<dyn TraceSource>>,
        mem_capacity: u64,
        seed: u64,
    ) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid CpuConfig: {e}");
        }
        assert!(!traces.is_empty(), "at least one core required");
        let n = traces.len();
        let cores: Vec<Core> = traces
            .into_iter()
            .map(|t| Core::new(t, cfg.ipc, cfg.window, cfg.target_insts))
            .collect();
        let pages = (0..n)
            .map(|i| PageTable::new(mem_capacity, seed.wrapping_add(i as u64 * 7919)))
            .collect();
        Self {
            cores,
            pages,
            llc: Llc::new(cfg.llc_bytes, cfg.llc_ways),
            prefetcher: cfg.prefetcher.map(|(e, d)| StridePrefetcher::new(e, d)),
            outstanding: Vec::with_capacity(n * cfg.mshrs as usize),
            mshr_used: vec![0; n],
            pending_writebacks: VecDeque::new(),
            next_req: 0,
            demand_reads_sent: 0,
            writebacks_sent: 0,
            fetch_frozen: false,
            local: vec![0; n],
            inert_until: vec![0; n],
            stepped_core_cycles: 0,
            cfg,
        }
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// The shared LLC (for statistics).
    pub fn llc(&self) -> &Llc {
        &self.llc
    }

    /// Demand read requests sent to memory.
    pub fn demand_reads_sent(&self) -> u64 {
        self.demand_reads_sent
    }

    /// Writebacks sent to memory.
    pub fn writebacks_sent(&self) -> u64 {
        self.writebacks_sent
    }

    /// Prefetch candidates issued (0 when disabled).
    pub fn prefetches_issued(&self) -> u64 {
        self.prefetcher.as_ref().map_or(0, |p| p.issued())
    }

    /// Whether every core reached its instruction target (or parked on a
    /// trace fault — see [`CpuCluster::trace_faults`]).
    pub fn done(&self) -> bool {
        self.cores.iter().all(Core::finished)
    }

    /// Cores parked because their trace ran dry, with the fault that
    /// parked them. Empty in a healthy run.
    pub fn trace_faults(&self) -> Vec<(usize, TraceError)> {
        self.cores
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.trace_fault().map(|e| (i, e)))
            .collect()
    }

    /// Per-core IPC (0 until that core finishes).
    pub fn ipc(&self, core: usize) -> f64 {
        self.cores[core].ipc_value()
    }

    /// Per-core demand MPKI. A deferred core's retired count lags, so
    /// the cluster must be settled ([`CpuCluster::settle`]).
    pub fn mpki(&self, core: usize) -> f64 {
        debug_assert!(self.settled(), "MPKI read from an unsettled cluster");
        self.cores[core].mpki()
    }

    /// Core-cycles that ran through the per-core step of
    /// [`CpuCluster::cycle`]; every other core-cycle was skipped as
    /// inert and replayed in closed form.
    pub fn stepped_core_cycles(&self) -> u64 {
        self.stepped_core_cycles
    }

    /// Warms the LLC and page tables by functionally replaying
    /// `instructions` per core without timing (the paper fast-forwards
    /// 100 M instructions before measurement).
    pub fn warm(&mut self, instructions: u64) {
        self.warm_with(instructions, &mut |_| {});
    }

    /// [`CpuCluster::warm`] with a miss observer: `miss` is called with
    /// the line-aligned physical address of every LLC miss and every
    /// dirty line the resulting fill evicts. The sampling fast-forward
    /// feeds these to the memory controllers so address-indexed DRAM
    /// state (the CROW table's install/eviction dynamics) keeps evolving
    /// while timing simulation is suspended. Both run on a
    /// [`CpuCluster::quiescent`] cluster: before the first cycle, or
    /// after a drain.
    pub fn warm_with(&mut self, instructions: u64, miss: &mut dyn FnMut(u64)) {
        debug_assert!(self.settled(), "functional warmup with deferred cores");
        for i in 0..self.cores.len() {
            let mut done = 0u64;
            while done < instructions {
                self.cores[i].refill_pending();
                if self.cores[i].trace_fault().is_some() {
                    break; // trace ran dry during warmup: core is parked
                }
                // Batch the record's compute bubbles — they touch no
                // warmed state — and replay only its memory access
                // through the page tables and LLC.
                done += self.cores[i].skip_bubbles(instructions - done);
                if done >= instructions {
                    break;
                }
                if let Some(acc) = self.cores[i].take_access() {
                    let pa = self.pages[i].translate(acc.vaddr);
                    let kind = if acc.is_write {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    if let LlcResult::Miss { writeback } = self.llc.warm_access(pa, kind) {
                        miss(pa & !63);
                        // Dirty read-fill victims also reach memory; the
                        // detailed path drops write-install victims here
                        // too, so the observer stream matches it.
                        if !acc.is_write {
                            if let Some(victim) = writeback {
                                miss(victim);
                            }
                        }
                    }
                    done += 1;
                }
            }
            // The one-at-a-time path allocated a window sequence number
            // per warmed instruction; keep the counter bit-identical.
            self.cores[i].bump_seq(done);
        }
        // Warmup instructions must not count toward the measured target.
        for c in &mut self.cores {
            c.reset_measurement();
        }
        for m in &mut self.mshr_used {
            *m = 0;
        }
    }

    /// Freezes (or thaws) instruction fetch on every core. While frozen,
    /// [`CpuCluster::cycle`] only retires in-flight window slots and
    /// retries queued writebacks — no trace refill, no dispatch, no
    /// prefetch training — so in-flight state converges toward
    /// [`CpuCluster::quiescent`] as outstanding fills return. The
    /// sampling driver freezes between a measured window and a
    /// functional fast-forward.
    pub fn set_fetch_frozen(&mut self, frozen: bool) {
        debug_assert!(self.settled(), "fetch frozen with deferred cores");
        self.fetch_frozen = frozen;
    }

    /// Whether the cluster holds no in-flight memory state: no
    /// outstanding fills, no queued writebacks, and every core's window
    /// is empty. From here a functional advance ([`CpuCluster::warm`])
    /// is exact — there is nothing mid-flight for it to corrupt.
    pub fn quiescent(&self) -> bool {
        self.outstanding.is_empty()
            && self.pending_writebacks.is_empty()
            && self.cores.iter().all(Core::window_empty)
    }

    /// Starts a new measured phase on every core: retirement statistics
    /// reset and a fresh per-core target of `insts` armed (see
    /// [`Core::begin_phase`]).
    pub fn begin_phase(&mut self, insts: u64) {
        debug_assert!(self.settled(), "phase begun with deferred cores");
        for c in &mut self.cores {
            c.begin_phase(insts);
        }
    }

    /// The cycle `core` hit its current phase target, if it has.
    pub fn finish_cycle(&self, core: usize) -> Option<CpuCycle> {
        self.cores[core].finish_cycle()
    }

    /// Advances the cluster by one CPU cycle. A core whose inert horizon
    /// is still ahead is skipped: its cycle would touch nothing another
    /// core sees, and it replays the cycle in closed form later.
    pub fn cycle(&mut self, now: CpuCycle, mem: &mut dyn MemPort) {
        // Retry queued writebacks first (they block LLC fills).
        while let Some(&(core, line)) = self.pending_writebacks.front() {
            let id = self.alloc_req();
            let sent = mem.send(CpuMemReq {
                id,
                line_pa: line,
                is_write: true,
                core,
                is_prefetch: false,
            });
            if sent {
                self.writebacks_sent += 1;
                self.pending_writebacks.pop_front();
            } else {
                break;
            }
        }
        let n = self.cores.len();
        for k in 0..n {
            // Rotate priority so no core monopolizes the LLC/memory path.
            let i = (k + now as usize) % n;
            if self.inert_until[i] > now {
                continue;
            }
            self.settle_core(i, now);
            self.core_cycle(i, now, mem);
            self.local[i] = now + 1;
            self.inert_until[i] = now + 1;
            self.stepped_core_cycles += 1;
        }
    }

    fn core_cycle(&mut self, i: usize, now: CpuCycle, mem: &mut dyn MemPort) {
        self.cores[i].retire(now);
        if self.fetch_frozen {
            return;
        }
        let ipc = self.cfg.ipc;
        for _ in 0..ipc {
            if !self.cores[i].window_has_space() {
                break;
            }
            self.cores[i].refill_pending();
            if self.cores[i].trace_fault().is_some() {
                break; // parked: nothing left to dispatch, ever
            }
            let Some(acc) = self.cores[i].pending_access() else {
                self.cores[i].dispatch_bubble();
                continue;
            };
            let pa = self.pages[i].translate(acc.vaddr);
            let line = pa & !63;
            if acc.is_write {
                // Posted store with write-validate allocation.
                if self.pending_writebacks.len() >= 64 {
                    break; // backpressure
                }
                if let LlcResult::Miss {
                    writeback: Some(wb),
                } = self.llc.access(pa, AccessKind::Write)
                {
                    self.pending_writebacks.push_back((i as u32, wb));
                }
                self.cores[i].dispatch_ready(now);
                continue;
            }
            // Load. A miss leaves the LLC untouched, so a dispatch that
            // stalls below perturbs no hit/miss statistics or LRU state;
            // each branch that dispatches the miss counts it.
            if self.llc.read_hit(pa) {
                let ready = now + self.cfg.llc_hit_cycles;
                self.cores[i].dispatch_ready(ready);
            } else if let Some(m) = self.outstanding.iter().position(|e| e.line == line) {
                // Merge into the in-flight fill.
                let _ = self.llc.access(pa, AccessKind::Read);
                self.cores[i].demand_misses += 1;
                let seq = self.cores[i].dispatch_waiting();
                self.outstanding[m].waiters.push((i as u32, seq));
            } else {
                if self.mshr_used[i] >= self.cfg.mshrs {
                    break; // all MSHRs busy: stall dispatch
                }
                let id = self.alloc_req();
                let sent = mem.send(CpuMemReq {
                    id,
                    line_pa: line,
                    is_write: false,
                    core: i as u32,
                    is_prefetch: false,
                });
                if !sent {
                    break; // memory queue full: stall
                }
                let _ = self.llc.access(pa, AccessKind::Read);
                self.cores[i].demand_misses += 1;
                self.demand_reads_sent += 1;
                let seq = self.cores[i].dispatch_waiting();
                self.outstanding.push(MshrEntry {
                    line,
                    req: id,
                    initiator: i as u32,
                    waiters: vec![(i as u32, seq)],
                });
                self.mshr_used[i] += 1;
            }
            self.train_prefetcher(i, acc.vaddr, mem);
        }
    }

    fn train_prefetcher(&mut self, i: usize, vaddr: u64, mem: &mut dyn MemPort) {
        let Some(pf) = self.prefetcher.as_mut() else {
            return;
        };
        for cand in pf.on_load(vaddr) {
            let pa = self.pages[i].translate(cand);
            let line = pa & !63;
            if self.llc.probe(line) || self.outstanding.iter().any(|e| e.line == line) {
                continue;
            }
            if self.mshr_used[i] >= self.cfg.mshrs {
                return;
            }
            let id = self.alloc_req();
            let sent = mem.send(CpuMemReq {
                id,
                line_pa: line,
                is_write: false,
                core: i as u32,
                is_prefetch: true,
            });
            if !sent {
                return;
            }
            self.outstanding.push(MshrEntry {
                line,
                req: id,
                initiator: i as u32,
                waiters: Vec::new(),
            });
            self.mshr_used[i] += 1;
        }
    }

    /// Reports a completed memory read; fills the LLC and wakes waiting
    /// loads.
    pub fn on_completion(&mut self, req_id: u64, now: CpuCycle) {
        let Some(m) = self.outstanding.iter().position(|e| e.req == req_id) else {
            return; // writeback acks are not tracked
        };
        let entry = self.outstanding.swap_remove(m);
        if let Some(wb) = self.llc.fill(entry.line) {
            self.pending_writebacks.push_back((entry.initiator, wb));
        }
        for (core, seq) in entry.waiters {
            self.settle_core(core as usize, now);
            self.cores[core as usize].complete(seq, now);
        }
        self.mshr_used[entry.initiator as usize] -= 1;
    }

    fn alloc_req(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
    }

    /// How many upcoming CPU cycles (starting at `now`) the whole
    /// cluster is provably inert: no queued writeback needs the memory
    /// path and every core is either fully stalled or in a mechanical
    /// bubble stretch, retiring window slots that are already ready while
    /// loads further back may still wait (see [`Core::inert_cycles`]).
    /// Those cycles touch neither the LLC, the page tables, the
    /// prefetcher, nor the memory system, so the simulator may skip
    /// them, provided no memory completion is delivered inside the
    /// window.
    ///
    /// Only the horizons that have come are recomputed (each such core
    /// is settled to `now` first); the others are still valid, so a
    /// stall followed by a mechanical stretch chains without a step.
    ///
    /// Returns 0 if the next cycle must run normally; `u64::MAX` means
    /// inert until an external completion arrives.
    pub fn inert_cycles(&mut self, now: CpuCycle) -> u64 {
        if self.fetch_frozen || !self.pending_writebacks.is_empty() {
            return 0;
        }
        let mut until = CpuCycle::MAX;
        for i in 0..self.cores.len() {
            if self.inert_until[i] <= now {
                self.settle_core(i, now);
                self.inert_until[i] = now.saturating_add(self.cores[i].inert_cycles(now));
            }
            until = until.min(self.inert_until[i]);
        }
        if until == CpuCycle::MAX {
            u64::MAX
        } else {
            until - now
        }
    }

    /// Brings every core to `now` and expires every horizon. The
    /// simulator settles at run end and around phase changes, before it
    /// reads per-core statistics or freezes fetch.
    pub fn settle(&mut self, now: CpuCycle) {
        for i in 0..self.cores.len() {
            self.settle_core(i, now);
        }
    }

    /// Replays core `i`'s deferred inert cycles up to `now` and expires
    /// its horizon.
    fn settle_core(&mut self, i: usize, now: CpuCycle) {
        let local = self.local[i];
        debug_assert!(
            local <= now && now <= self.inert_until[i],
            "core {i} settled at {now} outside its inert stretch {local}..={}",
            self.inert_until[i]
        );
        self.cores[i].advance_inert(local, now - local);
        self.local[i] = now;
        self.inert_until[i] = now;
    }

    /// Whether no core is deferred.
    fn settled(&self) -> bool {
        self.local == self.inert_until
    }
}

impl std::fmt::Debug for CpuCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CpuCluster")
            .field("cores", &self.cores.len())
            .field("outstanding", &self.outstanding.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{LoopedTrace, TraceEntry};

    /// Memory that completes every read after a fixed delay, plus up to
    /// `spread` cycles drawn from a hash of the request id (so two
    /// clusters sending the same requests see the same latencies).
    struct FixedLatency {
        delay: u64,
        spread: u64,
        now: u64,
        inflight: Vec<(u64, u64)>,
        capacity: usize,
        sent: u64,
    }

    impl FixedLatency {
        fn new(delay: u64) -> Self {
            Self::random(delay, 0)
        }

        fn random(delay: u64, spread: u64) -> Self {
            Self {
                delay,
                spread,
                now: 0,
                inflight: Vec::new(),
                capacity: 32,
                sent: 0,
            }
        }

        /// The earliest cycle a read completes (`u64::MAX`: none).
        fn next_due(&self) -> u64 {
            self.inflight.iter().map(|f| f.0).min().unwrap_or(u64::MAX)
        }

        fn deliver(&mut self, now: u64, cluster: &mut CpuCluster) {
            self.now = now;
            let mut i = 0;
            while i < self.inflight.len() {
                if self.inflight[i].0 <= now {
                    let (_, id) = self.inflight.swap_remove(i);
                    cluster.on_completion(id, now);
                } else {
                    i += 1;
                }
            }
        }
    }

    impl MemPort for FixedLatency {
        fn send(&mut self, req: CpuMemReq) -> bool {
            if self.inflight.len() >= self.capacity {
                return false;
            }
            self.sent += 1;
            if !req.is_write {
                let jitter = req.id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                let latency = self.delay + jitter % (self.spread + 1);
                self.inflight.push((self.now + latency, req.id));
            }
            true
        }
    }

    fn streaming_trace(lines: u64) -> Box<dyn TraceSource> {
        let entries: Vec<TraceEntry> = (0..lines).map(|i| TraceEntry::load(3, i * 64)).collect();
        Box::new(LoopedTrace::new(entries))
    }

    fn run(cluster: &mut CpuCluster, mem: &mut FixedLatency, max_cycles: u64) -> u64 {
        for now in 0..max_cycles {
            mem.deliver(now, cluster);
            cluster.cycle(now, mem);
            if cluster.done() {
                return now;
            }
        }
        max_cycles
    }

    #[test]
    fn cluster_retires_to_target() {
        let cfg = CpuConfig::paper_default().with_target(2000);
        let mut cl = CpuCluster::new(cfg, vec![streaming_trace(64)], 1 << 30, 1);
        let mut mem = FixedLatency::new(0);
        let end = run(&mut cl, &mut mem, 200_000);
        assert!(cl.done(), "did not finish by {end}");
        assert!(cl.ipc(0) > 0.0);
        assert!(cl.llc().hits() > 0);
    }

    #[test]
    fn misses_generate_memory_reads_with_mshr_cap() {
        // 4096 distinct lines >> LLC... use a tiny LLC to force misses.
        let mut cfg = CpuConfig::paper_default().with_target(3000);
        cfg.llc_bytes = 64 * 1024;
        cfg.llc_ways = 4;
        let mut cl = CpuCluster::new(cfg, vec![streaming_trace(100_000)], 1 << 30, 2);
        let mut mem = FixedLatency::new(5);
        run(&mut cl, &mut mem, 500_000);
        assert!(cl.done());
        assert!(cl.demand_reads_sent() > 0);
        assert!(cl.mpki(0) > 0.0);
    }

    #[test]
    fn slower_memory_lowers_ipc() {
        let mk = || {
            let mut cfg = CpuConfig::paper_default().with_target(3000);
            cfg.llc_bytes = 64 * 1024;
            cfg.llc_ways = 4;
            CpuCluster::new(cfg, vec![streaming_trace(100_000)], 1 << 30, 3)
        };
        let mut fast = mk();
        let mut slow = mk();
        run(&mut fast, &mut FixedLatency::new(1), 1_000_000);
        run(&mut slow, &mut FixedLatency::new(400), 5_000_000);
        assert!(fast.done() && slow.done());
        assert!(
            fast.ipc(0) > slow.ipc(0) * 1.5,
            "fast {} slow {}",
            fast.ipc(0),
            slow.ipc(0)
        );
    }

    #[test]
    fn stores_produce_writebacks_eventually() {
        let entries: Vec<TraceEntry> = (0..100_000u64)
            .map(|i| TraceEntry::store(1, i * 64))
            .collect();
        let mut cfg = CpuConfig::paper_default().with_target(5000);
        cfg.llc_bytes = 32 * 1024;
        cfg.llc_ways = 4;
        let mut cl = CpuCluster::new(cfg, vec![Box::new(LoopedTrace::new(entries))], 1 << 30, 4);
        let mut mem = FixedLatency::new(2);
        run(&mut cl, &mut mem, 500_000);
        assert!(cl.done());
        assert!(cl.writebacks_sent() > 0);
    }

    #[test]
    fn prefetcher_issues_on_streaming() {
        let mut cfg = CpuConfig::paper_default()
            .with_target(3000)
            .with_prefetcher();
        cfg.llc_bytes = 64 * 1024;
        cfg.llc_ways = 4;
        let mut cl = CpuCluster::new(cfg, vec![streaming_trace(100_000)], 1 << 30, 5);
        let mut mem = FixedLatency::new(5);
        run(&mut cl, &mut mem, 500_000);
        assert!(cl.prefetches_issued() > 0);
    }

    #[test]
    fn multicore_shares_llc_and_finishes() {
        let cfg = CpuConfig::paper_default().with_target(1000);
        let traces: Vec<Box<dyn TraceSource>> = (0..4).map(|_| streaming_trace(256)).collect();
        let mut cl = CpuCluster::new(cfg, traces, 1 << 30, 6);
        let mut mem = FixedLatency::new(3);
        run(&mut cl, &mut mem, 500_000);
        assert!(cl.done());
        for c in 0..4 {
            assert!(cl.ipc(c) > 0.0);
        }
    }

    #[test]
    fn dry_trace_parks_core_and_cluster_finishes() {
        use crate::trace::IterTrace;
        // 500 records << the 5000-instruction target: the trace runs dry
        // mid-measurement and the core must park instead of panicking.
        let entries: Vec<TraceEntry> = (0..500).map(|i| TraceEntry::load(3, i * 64)).collect();
        let n = entries.len() as u64;
        let src = IterTrace::try_new(entries.into_iter()).unwrap();
        let cfg = CpuConfig::paper_default().with_target(5000);
        let mut cl = CpuCluster::new(cfg, vec![Box::new(src)], 1 << 30, 8);
        let mut mem = FixedLatency::new(3);
        run(&mut cl, &mut mem, 200_000);
        assert!(cl.done(), "parked cluster reports done");
        let faults = cl.trace_faults();
        assert_eq!(faults, vec![(0, TraceError::Exhausted { after: n })]);
        assert_eq!(cl.ipc(0), 0.0, "target never reached, IPC stays 0");
    }

    /// A random trace that keeps a small LLC missing and evicting dirty
    /// lines, with long bubble runs for mechanical stretches.
    fn random_trace(seed: u64) -> Box<dyn TraceSource> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let entries = (0..3_000)
            .map(|_| {
                let bubbles = if rng.gen_bool(0.15) {
                    rng.gen_range(40..600u32)
                } else {
                    rng.gen_range(0..6u32)
                };
                let line = rng.gen_range(0..4_096u64) * 64;
                match rng.gen_range(0..10u32) {
                    0 => TraceEntry::bubbles(bubbles.max(1)),
                    1..=3 => TraceEntry::store(bubbles, line),
                    _ => TraceEntry::load(bubbles, line),
                }
            })
            .collect();
        Box::new(LoopedTrace::new(entries))
    }

    fn four_core_cluster(seed: u64, target: u64) -> CpuCluster {
        let mut cfg = CpuConfig::paper_default().with_target(target);
        cfg.llc_bytes = 16 * 1024;
        cfg.llc_ways = 4;
        let traces = (0..4).map(|c| random_trace(seed * 10 + c)).collect();
        CpuCluster::new(cfg, traces, 1 << 30, seed)
    }

    /// Everything a deferred core could disagree on after a settle.
    fn cluster_state(cl: &CpuCluster, mem: &FixedLatency) -> String {
        let cores: Vec<String> = cl.cores.iter().map(Core::state).collect();
        let mshrs: Vec<_> = cl
            .outstanding
            .iter()
            .map(|e| (e.line, e.req, e.initiator, e.waiters.clone()))
            .collect();
        format!(
            "{cores:#?} llc {}/{} mshrs {mshrs:?} used {:?} wbs {:?} sent {} inflight {:?} done {}",
            cl.llc.hits(),
            cl.llc.misses(),
            cl.mshr_used,
            cl.pending_writebacks,
            mem.sent,
            mem.inflight,
            cl.done(),
        )
    }

    /// Two four-core clusters over the same random traces: `stepped`
    /// runs [`CpuCluster::cycle`] in every cycle, `deferred` follows the
    /// event protocol (ask for the inert horizon, skip to it or to the
    /// next completion, step that cycle) and leaves inert cores behind.
    struct Pair {
        stepped: CpuCluster,
        stepped_mem: FixedLatency,
        deferred: CpuCluster,
        deferred_mem: FixedLatency,
        now: CpuCycle,
        rng: rand::rngs::StdRng,
        /// Completions delivered to a core that was deferred.
        deferred_completions: u64,
        /// Stepped cycles with writebacks queued and a core deferred.
        deferred_under_writebacks: u64,
        /// Cycles the deferred cluster stepped.
        deferred_cycles: u64,
    }

    impl Pair {
        fn new(seed: u64, target: u64) -> Self {
            use rand::SeedableRng;
            Self {
                stepped: four_core_cluster(seed, target),
                stepped_mem: FixedLatency::random(5, 400),
                deferred: four_core_cluster(seed, target),
                deferred_mem: FixedLatency::random(5, 400),
                now: 0,
                rng: rand::rngs::StdRng::seed_from_u64(seed),
                deferred_completions: 0,
                deferred_under_writebacks: 0,
                deferred_cycles: 0,
            }
        }

        fn step_deferred(&mut self, now: CpuCycle) {
            let cl = &self.deferred;
            let behind = |i: usize| cl.local[i] < now;
            self.deferred_completions += cl
                .outstanding
                .iter()
                .filter(|e| {
                    let req = e.req;
                    self.deferred_mem
                        .inflight
                        .iter()
                        .any(|&(at, id)| id == req && at <= now)
                })
                .flat_map(|e| &e.waiters)
                .filter(|&&(core, _)| behind(core as usize))
                .count() as u64;
            if !cl.pending_writebacks.is_empty() && (0..4).any(|i| cl.inert_until[i] > now) {
                self.deferred_under_writebacks += 1;
            }
            self.deferred_mem.deliver(now, &mut self.deferred);
            self.deferred.cycle(now, &mut self.deferred_mem);
            self.deferred_cycles += 1;
        }

        /// Runs both clusters to `end`, settling the deferred one (and
        /// comparing) at random points.
        fn run_to(&mut self, end: CpuCycle) {
            use rand::Rng;
            while self.now < end {
                let k = self.deferred.inert_cycles(self.now).min(end - self.now);
                let next = if k == 0 {
                    self.now
                } else {
                    (self.now + k).min(self.deferred_mem.next_due())
                };
                while self.now < next {
                    self.stepped_mem.deliver(self.now, &mut self.stepped);
                    self.stepped.cycle(self.now, &mut self.stepped_mem);
                    self.now += 1;
                }
                if self.now == end {
                    break;
                }
                self.stepped_mem.deliver(self.now, &mut self.stepped);
                self.stepped.cycle(self.now, &mut self.stepped_mem);
                self.step_deferred(self.now);
                self.now += 1;
                if self.rng.gen_bool(0.02) {
                    self.settle_and_compare();
                }
            }
            self.settle_and_compare();
        }

        fn settle_and_compare(&mut self) {
            self.deferred.settle(self.now);
            assert_eq!(
                cluster_state(&self.stepped, &self.stepped_mem),
                cluster_state(&self.deferred, &self.deferred_mem),
                "diverged by cycle {}",
                self.now
            );
        }

        fn both(&mut self, f: impl Fn(&mut CpuCluster)) {
            f(&mut self.stepped);
            f(&mut self.deferred);
        }
    }

    #[test]
    fn deferred_cores_equal_a_stepping_cluster() {
        for seed in 1..=4 {
            let mut p = Pair::new(seed, 30_000);
            p.run_to(20_000);
            // Freeze fetch and drain, as `sampling::drive` does.
            p.both(|c| c.set_fetch_frozen(true));
            p.run_to(22_000);
            assert!(p.deferred.quiescent(), "seed {seed}: drain incomplete");
            p.both(|c| c.set_fetch_frozen(false));
            // A new measured phase between segments.
            p.both(|c| c.begin_phase(6_000));
            p.run_to(60_000);
            assert!(p.deferred.done(), "seed {seed}: phase unfinished");
            assert!(
                p.deferred_completions > 0,
                "seed {seed}: no completion reached a deferred core"
            );
            assert!(
                p.deferred_under_writebacks > 0,
                "seed {seed}: no core stayed deferred under queued writebacks"
            );
            assert!(
                p.deferred.stepped_core_cycles() < 4 * p.deferred_cycles,
                "seed {seed}: no core was skipped inside a stepped cycle"
            );
        }
    }

    #[test]
    fn warm_fills_llc() {
        let cfg = CpuConfig::paper_default().with_target(100);
        let mut cl = CpuCluster::new(cfg, vec![streaming_trace(64)], 1 << 30, 7);
        cl.warm(1000);
        // After warming 64 lines repeatedly, timed accesses hit.
        let mut mem = FixedLatency::new(100);
        run(&mut cl, &mut mem, 100_000);
        assert!(cl.done());
        assert_eq!(cl.demand_reads_sent(), 0, "all hits after warmup");
    }
}
