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

    /// Per-core demand MPKI.
    pub fn mpki(&self, core: usize) -> f64 {
        self.cores[core].mpki()
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
        for i in 0..self.cores.len() {
            let mut done = 0u64;
            // One-entry TLB: translate() is a hash lookup per access and
            // most workloads reuse the last page heavily. Caching only
            // repeats translations the table has already made, so the
            // physical addresses (and first-touch allocation order) are
            // unchanged.
            let mut tlb: Option<(u64, u64)> = None;
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
                    let vpage = acc.vaddr >> crate::page::PAGE_SHIFT;
                    let pa = match tlb {
                        Some((v, base)) if v == vpage => {
                            base | (acc.vaddr & ((1 << crate::page::PAGE_SHIFT) - 1))
                        }
                        _ => {
                            let pa = self.pages[i].translate(acc.vaddr);
                            tlb = Some((vpage, pa & !((1 << crate::page::PAGE_SHIFT) - 1)));
                            pa
                        }
                    };
                    let kind = if acc.is_write {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    let (missed, victim) = self.llc.warm_access(pa, kind);
                    if missed {
                        miss(pa & !63);
                        // Dirty read-fill victims also reach memory; the
                        // detailed path drops write-install victims here
                        // too, so the observer stream matches it.
                        if !acc.is_write {
                            if let Some(victim) = victim {
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
        for c in &mut self.cores {
            c.begin_phase(insts);
        }
    }

    /// The cycle `core` hit its current phase target, if it has.
    pub fn finish_cycle(&self, core: usize) -> Option<CpuCycle> {
        self.cores[core].finish_cycle()
    }

    /// Advances every core by one CPU cycle.
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
            self.core_cycle(i, now, mem);
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
            // Load. Probe first so stalled dispatch attempts do not
            // perturb hit/miss statistics or LRU state.
            if self.llc.probe(line) {
                let _ = self.llc.access(pa, AccessKind::Read);
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
    /// prefetcher, nor the memory system, so the simulator may replay
    /// them in closed form with [`CpuCluster::advance_inert`] — provided
    /// no memory completion is delivered inside the window.
    ///
    /// Returns 0 if the next cycle must run normally; `u64::MAX` means
    /// inert until an external completion arrives.
    pub fn inert_cycles(&self, now: CpuCycle) -> u64 {
        if self.fetch_frozen {
            return 0;
        }
        if !self.pending_writebacks.is_empty() {
            return 0;
        }
        let mut k = u64::MAX;
        for core in &self.cores {
            k = k.min(core.inert_cycles(now));
            if k == 0 {
                return 0;
            }
        }
        k
    }

    /// Replays `k` cycles agreed inert by [`CpuCluster::inert_cycles`]
    /// on every core (stalled cores are untouched; mechanical cores
    /// retire and dispatch in closed form, at a cost of the memory slots
    /// they retire rather than of `k`).
    pub fn advance_inert(&mut self, now: CpuCycle, k: u64) {
        for core in &mut self.cores {
            core.advance_inert(now, k);
        }
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

    /// Memory that completes every read after a fixed delay.
    struct FixedLatency {
        delay: u64,
        now: u64,
        inflight: Vec<(u64, u64)>,
        capacity: usize,
        sent: u64,
    }

    impl FixedLatency {
        fn new(delay: u64) -> Self {
            Self {
                delay,
                now: 0,
                inflight: Vec::new(),
                capacity: 32,
                sent: 0,
            }
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
                self.inflight.push((self.now + self.delay, req.id));
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
