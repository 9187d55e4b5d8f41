//! The memory controller: request scheduling, row-buffer policy, refresh,
//! and CROW command integration for one DRAM channel.

use std::collections::VecDeque;

use crow_core::{ActDecision, CrowSubstrate};
use crow_dram::channel::{ClosedRow, IssueFx};
use crow_dram::{
    ActKind, ActTimingMod, CmdDesc, Command, Cycle, DramChannel, DramConfig, OpenRow, RestoreState,
    RowAddr,
};
use crow_energy::{EnergyCounter, EnergyModel, EnergySpec};

use crate::config::{McConfig, Mitigation, RowPolicy, SchedImpl, SchedKind};
use crate::error::McError;
use crate::request::{Completion, MemRequest, ReqKind};
use crate::sched::{Cursor, QueueIndex, SchedStats, Wake, MISS_STREAM};
use crate::stats::McStats;

/// How CROW-table hits and misses translate into DRAM commands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CacheMode {
    /// CROW semantics: hits use `ACT-t`, installs use `ACT-c` (paper §4.1).
    Crow,
    /// TL-DRAM semantics (§8.1.4 baseline): hits activate the near-segment
    /// row alone with near timings; ordinary activations pay the far-
    /// segment penalty. Timing-only model (contents are not tracked).
    TlDram {
        /// Near-segment activation timings.
        near: ActTimingMod,
        /// Far-segment activation timings.
        far: ActTimingMod,
    },
}

/// A physical DRAM event observed at the controller's single command
/// chokepoint, for consumers that model cell-level disturbance (the
/// simulator's RowHammer flip model). Only recorded when the event log
/// is enabled ([`MemController::enable_event_log`]); zero cost otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramEvent {
    /// A regular row was opened (plain `ACT`, the regular half of an
    /// `ACT-t` pair, or the source row of an `ACT-c` copy). The
    /// activation disturbs physical neighbours and re-establishes the
    /// row's own charge.
    Act {
        /// Target rank.
        rank: u32,
        /// Target bank.
        bank: u32,
        /// The regular row opened.
        row: u32,
    },
    /// All-bank refresh command (`REF`) on a rank: one more slice of
    /// every bank's rows had its charge re-established.
    RefAll {
        /// Refreshed rank.
        rank: u32,
    },
    /// Per-bank refresh command (`REFpb`).
    RefBank {
        /// Refreshed rank.
        rank: u32,
        /// Refreshed bank.
        bank: u32,
    },
}

/// Why a maintenance row copy is pending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CopyPurpose {
    /// RowHammer victim protection (paper §4.3).
    Hammer,
    /// Runtime weak-row remap after a VRT discovery (paper §4.2.3).
    WeakRow,
}

/// A pending maintenance `ACT-c` (RowHammer victim or VRT weak row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CopyOp {
    rank: u32,
    bank: u32,
    subarray: u32,
    row: u32,
    purpose: CopyPurpose,
}

/// The memory controller for one channel.
///
/// Drive it by calling [`MemController::tick`] once per memory-clock
/// cycle; at most one DRAM command issues per tick (the command bus is a
/// single slot). Completed reads are appended to the caller's completion
/// buffer.
#[derive(Debug, Clone)]
pub struct MemController {
    cfg: McConfig,
    dram_cfg: DramConfig,
    channel: DramChannel,
    crow: Option<CrowSubstrate>,
    mode: CacheMode,
    energy_model: EnergyModel,
    energy_events: EnergyCounter,
    bg_cycles: u64,
    bg_open_cycles: u64,
    /// Functional-touch counter driving the deterministic restore-
    /// truncation model of [`MemController::warm_touch`].
    warm_touches: u64,
    stats: McStats,
    read_q: Vec<MemRequest>,
    write_q: Vec<MemRequest>,
    inflight: Vec<(Cycle, Completion)>,
    copy_ops: VecDeque<CopyOp>,
    /// Subarrays holding a maintenance activation that must reach full
    /// restoration before `PRE` (restore-before-evict / hammer copies).
    forced_restore: Vec<(u32, u32, u32)>,
    /// Open activations in the order they were opened, for O(open)
    /// policy scans: (rank, bank, subarray).
    open_list: Vec<(u32, u32, u32)>,
    /// Which request id opened each subarray (for hit/miss accounting),
    /// indexed by [`MemController::sa_slot`].
    opener: Vec<Option<u64>>,
    /// Column commands served since the subarray's last activation (for
    /// the FR-FCFS cap), indexed by [`MemController::sa_slot`]; 0 for a
    /// subarray never activated.
    served: Vec<u32>,
    next_ref: Vec<Cycle>,
    refresh_pending: Vec<bool>,
    /// Round-robin bank counter for per-bank refresh.
    refresh_bank: Vec<u32>,
    drain_writes: bool,
    /// Armed by [`MemController::drop_next_issue`] (fault harness): the
    /// next scheduling opportunity is lost as if the command bus dropped
    /// the command.
    drop_pending: bool,
    /// Reusable FR-FCFS candidate-order buffer, so the per-tick hot path
    /// performs no heap allocation in steady state.
    scratch_order: Vec<(u8, Cycle, usize)>,
    /// Scheduler work counters (see [`SchedStats`]).
    sched: SchedStats,
    /// Per-(rank,bank) read-queue index, kept under both scheduler
    /// implementations; only [`SchedImpl::Indexed`] selects from it.
    rd_index: QueueIndex,
    /// Write-queue counterpart of `rd_index`.
    wr_index: QueueIndex,
    /// Monotonic stamp of scheduler-visible mutations (issues, queue
    /// changes, maintenance pops, refresh flags, injections). Readiness
    /// and wake-hint memos are valid only while their stored stamp
    /// still matches.
    sched_epoch: u64,
    /// Per-queue, per-(rank,bank) memoized earliest cycle at which any
    /// of the bank's queued candidates could issue, as (epoch, cycle);
    /// written only by a scan that attempted every candidate of the
    /// bank and issued nothing.
    bank_ready: [Vec<(u64, Cycle)>; 2],
    /// Written by a tick that issued nothing: while the stamped epoch
    /// matches, no tick strictly before the stored cycle can issue.
    wake_hint: Option<(u64, Cycle)>,
    /// Reusable merge-cursor buffer for indexed selection.
    scratch_cursors: Vec<Cursor>,
    /// Reusable per-bank readiness-bound accumulator.
    scratch_bounds: Vec<(u32, Cycle)>,
    /// Recycled hit-sublist storage for bucket rebuilds.
    stream_pool: Vec<Vec<(Cycle, u32)>>,
    /// Pending PARA/TRR neighbor refreshes: (rank, bank, row), served as
    /// fully-restoring maintenance activations between demand requests.
    neighbor_ops: VecDeque<(u32, u32, u32)>,
    /// Per-(rank,bank) TRR sampler tables: (row, count), evict-min.
    trr_tables: Vec<Vec<(u32, u32)>>,
    /// SplitMix64 state for the PARA coin; seedable for determinism
    /// across channels ([`MemController::set_mitigation_seed`]).
    mitigation_rng: u64,
    /// Physical event log for the disturbance model (None = disabled).
    event_log: Option<Vec<DramEvent>>,
}

impl MemController {
    /// Creates a controller over a fresh channel.
    ///
    /// # Panics
    ///
    /// Panics if either configuration is invalid; use
    /// [`MemController::try_new`] to handle the failure instead.
    pub fn new(cfg: McConfig, dram_cfg: DramConfig, crow: Option<CrowSubstrate>) -> Self {
        match Self::try_new(cfg, dram_cfg, crow) {
            Ok(mc) => mc,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a controller over a fresh channel, validating both
    /// configurations.
    ///
    /// # Errors
    ///
    /// [`McError`] if either configuration fails validation.
    pub fn try_new(
        cfg: McConfig,
        dram_cfg: DramConfig,
        crow: Option<CrowSubstrate>,
    ) -> Result<Self, McError> {
        cfg.validate()
            .map_err(|reason| McError::Config(crow_dram::ConfigError::new("McConfig", reason)))?;
        let channel = DramChannel::try_new(dram_cfg.clone()).map_err(McError::Dram)?;
        let energy_model =
            EnergyModel::new(EnergySpec::lpddr4(), dram_cfg.timings).with_banks(dram_cfg.banks);
        let trefi = u64::from(dram_cfg.timings.trefi);
        let ranks = dram_cfg.ranks as usize;
        let slots = (dram_cfg.ranks * dram_cfg.banks) as usize;
        let subarrays = slots * dram_cfg.subarrays_per_bank() as usize;
        Ok(Self {
            cfg,
            dram_cfg,
            channel,
            crow,
            mode: CacheMode::Crow,
            energy_model,
            energy_events: EnergyCounter::new(),
            bg_cycles: 0,
            bg_open_cycles: 0,
            warm_touches: 0,
            stats: McStats::new(),
            // Pre-size to the configured caps: the steady-state hot path
            // performs no queue reallocation.
            read_q: Vec::with_capacity(cfg.read_q),
            write_q: Vec::with_capacity(cfg.write_q),
            inflight: Vec::with_capacity(cfg.read_q),
            copy_ops: VecDeque::with_capacity(16),
            forced_restore: Vec::new(),
            open_list: Vec::new(),
            opener: vec![None; subarrays],
            served: vec![0; subarrays],
            next_ref: vec![trefi; ranks],
            refresh_pending: vec![false; ranks],
            refresh_bank: vec![0; ranks],
            drain_writes: false,
            drop_pending: false,
            scratch_order: Vec::with_capacity(cfg.read_q.max(cfg.write_q)),
            sched: SchedStats::new(),
            rd_index: QueueIndex::new(slots),
            wr_index: QueueIndex::new(slots),
            sched_epoch: 1,
            bank_ready: [vec![(0, 0); slots], vec![(0, 0); slots]],
            wake_hint: None,
            scratch_cursors: Vec::new(),
            scratch_bounds: Vec::new(),
            stream_pool: Vec::new(),
            neighbor_ops: VecDeque::new(),
            trr_tables: vec![Vec::new(); slots],
            mitigation_rng: 0x2545_F491_4F6C_DD1D,
            event_log: None,
        })
    }

    /// Reseeds the PARA mitigation coin (call before simulation starts;
    /// give each channel a distinct seed for independent streams).
    pub fn set_mitigation_seed(&mut self, seed: u64) {
        // SplitMix64 state must be nonzero-ish only for xorshift; the
        // golden-ratio increment makes any seed (incl. 0) fine.
        self.mitigation_rng = seed;
    }

    /// Enables recording of physical [`DramEvent`]s at the command
    /// chokepoint (used by the simulator's RowHammer flip model).
    pub fn enable_event_log(&mut self) {
        self.event_log = Some(Vec::new());
    }

    /// Drains recorded physical events into `out` (order preserved).
    /// No-op when the log is disabled.
    pub fn drain_events(&mut self, out: &mut Vec<DramEvent>) {
        if let Some(log) = self.event_log.as_mut() {
            out.append(log);
        }
    }

    /// Next PARA coin: SplitMix64 step.
    fn next_mitigation_rand(&mut self) -> u64 {
        self.mitigation_rng = self.mitigation_rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.mitigation_rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Switches hit/miss translation (TL-DRAM baseline support).
    pub fn set_cache_mode(&mut self, mode: CacheMode) {
        self.mode = mode;
        self.invalidate_classification();
    }

    /// Records a mutation that may change any bucket's hit/miss
    /// classification (mode switches, external CROW-table access).
    fn invalidate_classification(&mut self) {
        self.bump_epoch();
        self.rd_index.mark_all_stale();
        self.wr_index.mark_all_stale();
    }

    /// Records a scheduler-visible mutation: readiness and wake-hint
    /// memos computed before this point are dead.
    fn bump_epoch(&mut self) {
        self.sched_epoch += 1;
    }

    fn use_index(&self) -> bool {
        self.cfg.sched_impl == SchedImpl::Indexed
    }

    fn slot_of(&self, rank: u32, bank: u32) -> usize {
        (rank * self.dram_cfg.banks + bank) as usize
    }

    /// Index of a (rank, bank, subarray) in `opener` and `served`.
    fn sa_slot(&self, rank: u32, bank: u32, sa: u32) -> usize {
        self.slot_of(rank, bank) * self.dram_cfg.subarrays_per_bank() as usize + sa as usize
    }

    fn kind_ix(kind: ReqKind) -> usize {
        match kind {
            ReqKind::Read => 0,
            ReqKind::Write => 1,
        }
    }

    fn queue(&self, kind: ReqKind) -> &[MemRequest] {
        match kind {
            ReqKind::Read => &self.read_q,
            ReqKind::Write => &self.write_q,
        }
    }

    /// A request queue with its bank index, which every push and
    /// removal keeps in step.
    fn queue_mut(&mut self, kind: ReqKind) -> (&mut Vec<MemRequest>, &mut QueueIndex) {
        match kind {
            ReqKind::Read => (&mut self.read_q, &mut self.rd_index),
            ReqKind::Write => (&mut self.write_q, &mut self.wr_index),
        }
    }

    fn index(&self, kind: ReqKind) -> &QueueIndex {
        match kind {
            ReqKind::Read => &self.rd_index,
            ReqKind::Write => &self.wr_index,
        }
    }

    fn index_mut(&mut self, kind: ReqKind) -> &mut QueueIndex {
        match kind {
            ReqKind::Read => &mut self.rd_index,
            ReqKind::Write => &mut self.wr_index,
        }
    }

    /// Whether any scheduling flow could want the command bus.
    fn has_pending_work(&self) -> bool {
        !self.read_q.is_empty()
            || !self.write_q.is_empty()
            || !self.copy_ops.is_empty()
            || !self.forced_restore.is_empty()
            || !self.neighbor_ops.is_empty()
            || self.drop_pending
            || self.refresh_pending.contains(&true)
    }

    /// Attaches the data-integrity oracle to the underlying channel.
    pub fn attach_oracle(&mut self) {
        self.channel.attach_oracle();
    }

    /// Attaches the shadow protocol validator to the underlying channel
    /// and, when refresh is enabled, arms its refresh-gap bound from the
    /// controller's effective interval (with generous slack for JEDEC
    /// postponement — the bound catches a *lost* refresh stream, not a
    /// briefly deferred one).
    pub fn attach_validator(&mut self) {
        self.channel.attach_validator();
        if self.cfg.refresh {
            let slack = u64::from(self.cfg.max_postponed_refreshes) + 4;
            let gap = self.trefi_eff() * slack + u64::from(self.dram_cfg.timings.trfc);
            if let Some(v) = self.channel.validator_mut() {
                v.set_max_ref_gap(gap);
            }
        }
    }

    /// Runs the shadow validator's end-of-stream checks (e.g. the
    /// refresh-gap bound up to `now`). No-op without a validator.
    pub fn finish_validation(&mut self, now: Cycle) {
        if let Some(v) = self.channel.validator_mut() {
            v.finish(now);
        }
    }

    /// The underlying DRAM channel (for stats and oracle inspection).
    pub fn channel(&self) -> &DramChannel {
        &self.channel
    }

    /// The CROW substrate, if configured.
    pub fn crow(&self) -> Option<&CrowSubstrate> {
        self.crow.as_ref()
    }

    /// Controller statistics.
    pub fn stats(&self) -> &McStats {
        &self.stats
    }

    /// Scheduler work counters.
    pub fn sched_stats(&self) -> &SchedStats {
        &self.sched
    }

    /// Total DRAM energy so far (events + background).
    pub fn energy(&self) -> EnergyCounter {
        let mut e = self.energy_events;
        e.add_background(&self.energy_model, self.bg_cycles, self.bg_open_cycles);
        e
    }

    /// Number of requests queued or in flight.
    pub fn pending(&self) -> usize {
        self.read_q.len()
            + self.write_q.len()
            + self.inflight.len()
            + self.copy_ops.len()
            + self.neighbor_ops.len()
    }

    /// Whether the read queue can accept a request.
    pub fn can_accept_read(&self) -> bool {
        self.read_q.len() < self.cfg.read_q
    }

    /// Whether the write queue can accept a request.
    pub fn can_accept_write(&self) -> bool {
        self.write_q.len() < self.cfg.write_q
    }

    /// Enqueues a request, stamping its arrival time.
    ///
    /// # Errors
    ///
    /// Returns the request back if the target queue is full (the caller
    /// must retry later; the rejection is counted).
    pub fn try_enqueue(&mut self, mut req: MemRequest) -> Result<(), MemRequest> {
        let ok = match req.kind {
            ReqKind::Read => self.can_accept_read(),
            ReqKind::Write => self.can_accept_write(),
        };
        if !ok {
            self.stats.rejections += 1;
            return Err(req);
        }
        req.arrival = self.bg_cycles;
        let slot = self.slot_of(req.rank, req.bank);
        let (q, index) = self.queue_mut(req.kind);
        q.push(req);
        index.on_push(slot, req.arrival, (q.len() - 1) as u32);
        self.bump_epoch();
        Ok(())
    }

    /// `swap_remove` on a request queue, keeping the bank index
    /// consistent: the removed entry leaves its bucket and the element
    /// moved into the vacated position is re-keyed.
    fn q_swap_remove(&mut self, kind: ReqKind, idx: usize) -> MemRequest {
        let banks = self.dram_cfg.banks;
        let (q, index) = self.queue_mut(kind);
        let old_last = (q.len() - 1) as u32;
        let removed = q.swap_remove(idx);
        let slot = (removed.rank * banks + removed.bank) as usize;
        index.remove(slot, removed.arrival, idx as u32);
        if idx < q.len() {
            let moved = q[idx];
            let mslot = (moved.rank * banks + moved.bank) as usize;
            index.reposition(mslot, moved.arrival, old_last, idx as u32);
        }
        removed
    }

    /// Advances the controller by one memory-clock cycle, issuing at most
    /// one DRAM command and delivering completed reads into `out`.
    pub fn tick(&mut self, now: Cycle, out: &mut Vec<Completion>) {
        // Background accounting.
        self.bg_cycles += 1;
        self.bg_open_cycles += self.open_list.len() as u64;
        // Deliver finished reads.
        let mut i = 0;
        while i < self.inflight.len() {
            if self.inflight[i].0 <= now {
                let (_, c) = self.inflight.swap_remove(i);
                out.push(c);
            } else {
                i += 1;
            }
        }
        // Refresh scheduling, with optional JEDEC postponement: while
        // demand requests are queued, up to `max_postponed_refreshes` due
        // refreshes may be deferred; the debt is repaid when the queues
        // drain (or immediately once the cap is reached).
        if self.cfg.refresh {
            let busy = !self.read_q.is_empty() || !self.write_q.is_empty();
            let trefi = self.trefi_eff();
            for rank in 0..self.dram_cfg.ranks as usize {
                if now >= self.next_ref[rank] && !self.refresh_pending[rank] {
                    let debt = (now - self.next_ref[rank]) / trefi;
                    if !busy || debt >= u64::from(self.cfg.max_postponed_refreshes) {
                        self.refresh_pending[rank] = true;
                        self.bump_epoch();
                    }
                }
            }
        }
        self.issue_one(now);
    }

    /// The earliest cycle at which a tick could have any observable
    /// effect beyond background accounting: deliver a completion,
    /// schedule or issue a refresh, serve queued work, or close a row
    /// under the row policy.
    ///
    /// With queued work and the indexed scheduler, the bound comes from
    /// the wake hint the last (issue-less) tick recorded — the minimum
    /// retry cycle over every failed issue flow — so the event engine
    /// can skip dead cycles even under load. The hint is epoch-stamped:
    /// any scheduler-visible mutation since it was computed degrades
    /// the bound to `now + 1`.
    ///
    /// The event-driven engine may replace every tick strictly before
    /// the returned cycle with [`MemController::skip_idle`]; the bound
    /// is invalidated by anything that mutates the controller (a tick
    /// or an enqueue), after which it must be recomputed. Always
    /// `> now`.
    pub fn min_wakeup(&self, now: Cycle) -> Cycle {
        let mut next = Cycle::MAX;
        for &(at, _) in &self.inflight {
            next = next.min(at);
        }
        if self.cfg.refresh {
            let busy = !self.read_q.is_empty() || !self.write_q.is_empty();
            let postpone = u64::from(self.cfg.max_postponed_refreshes) * self.trefi_eff();
            for (rank, &at) in self.next_ref.iter().enumerate() {
                if self.refresh_pending[rank] {
                    // Already pending: the refresh flow's wake notes (or
                    // the pending-work fallback below) bound it.
                    continue;
                }
                // Ticks set the flag at `next_ref` when idle; while
                // demand requests are queued, exactly when the
                // postponement debt reaches the cap.
                next = next.min(if busy { at + postpone } else { at });
            }
        }
        if self.has_pending_work() {
            match self.wake_hint {
                Some((stamp, at)) if stamp == self.sched_epoch => next = next.min(at),
                _ => return now + 1,
            }
        } else if !self.open_list.is_empty() {
            match self.cfg.policy {
                RowPolicy::OpenPage => {}
                RowPolicy::ClosedPage => return now + 1,
                RowPolicy::Timeout { cycles } => {
                    for &(r, b, s) in &self.open_list {
                        if let Some(act) = self.channel.subarray_activation(r, b, s) {
                            next = next.min(act.last_use + cycles);
                        }
                    }
                }
            }
        }
        next.max(now + 1)
    }

    /// Advances background accounting over `cycles` idle memory cycles in
    /// one step, exactly as that many no-op [`MemController::tick`] calls
    /// would (the open-row set cannot change while no command issues).
    pub fn skip_idle(&mut self, cycles: u64) {
        self.bg_cycles += cycles;
        self.bg_open_cycles += cycles * self.open_list.len() as u64;
        if !self.read_q.is_empty() || !self.write_q.is_empty() {
            self.sched.wakeup_skips += cycles;
        }
    }

    /// Fraction of functional activations whose modeled precharge cuts
    /// the pair restore short: one in `RESTORE_TRUNCATION_DEN`. Under
    /// detailed simulation the truncation rate is set by bank-conflict
    /// pressure (a conflicting request closes the row before the
    /// restore completes); measured across the bench workloads it sits
    /// between ~6% (omnetpp) and ~20% (random), so the functional model
    /// uses a deterministic 1-in-5 marking. (Calibrating the ratio from
    /// the measured windows' pair-precharge mix was tried and measured
    /// *worse*: windows under-observe the truncation pressure their own
    /// presence creates, and the short first segment seeds the largest
    /// fast-forward stretch with a noisy ratio.) A counter, not an RNG,
    /// keeps sampled reports bit-identical across engines/schedulers.
    const RESTORE_TRUNCATION_DEN: u64 = 5;

    /// Functionally advances address-indexed CROW-table state for one
    /// would-be activation of `row`, with no timing, commands, or
    /// queueing. The sampling fast-forward calls this for every LLC
    /// miss it replays so the table's install/eviction/LRU dynamics
    /// (and hence steady-state restore pressure) evolve across skipped
    /// instructions just as they would under detailed simulation. The
    /// precharge outcome follows the deterministic restore-truncation
    /// model above. Row-buffer and scheduler state are untouched; the
    /// detailed warmup preceding each measured window rebuilds those.
    /// CROW cache statistics (lookups, installs, evictions) advance
    /// with the table, so a sampled report's CROW counters reflect the
    /// whole run, not just the measured windows.
    pub fn warm_touch(&mut self, rank: u32, bank: u32, row: u32) {
        let sa = self.subarray_of(row);
        let cb = self.crow_bank(rank, bank);
        let rows_per_subarray = self.dram_cfg.rows_per_subarray;
        self.warm_touches += 1;
        let restored = !self
            .warm_touches
            .is_multiple_of(Self::RESTORE_TRUNCATION_DEN);
        let Some(crow) = self.crow.as_mut() else {
            return;
        };
        // The data-integrity oracle (when attached) shadows row contents
        // from the observed command stream, and a functional advance
        // issues no commands — so the activations modeled here are
        // replayed into the oracle below, carrying the ACT-c content
        // adoption and pair-restore outcomes the detailed stream would
        // have. Single-row activations always restore fully; only pair
        // restores can be truncated.
        let pre = if restored {
            RestoreState::Full
        } else {
            RestoreState::Partial
        };
        let mut install = None;
        let act = match crow.decide(cb, sa, row) {
            ActDecision::Normal => (ActKind::single(row), RestoreState::Full),
            ActDecision::RemappedSingle { copy } => (
                ActKind::Single(RowAddr::Copy {
                    subarray: sa,
                    idx: copy,
                }),
                RestoreState::Full,
            ),
            // A re-activation of a resident pair re-drives the restore;
            // the same truncation model decides whether it completes.
            ActDecision::Twin {
                copy,
                fully_restored,
            } => (
                ActKind::Twin {
                    row,
                    copy,
                    fully_restored,
                },
                pre,
            ),
            ActDecision::CopyInstall { copy } => {
                crow.commit_install(cb, sa, row, copy);
                (ActKind::Copy { src: row, copy }, pre)
            }
            ActDecision::RestoreFirst {
                copy, victim_row, ..
            } => {
                // Detailed simulation would restore the victim with a
                // forced activation, then install over it on retry.
                crow.on_precharge(cb, victim_row / rows_per_subarray, victim_row, true);
                if let ActDecision::CopyInstall { copy } = crow.decide(cb, sa, row) {
                    crow.commit_install(cb, sa, row, copy);
                    install = Some((ActKind::Copy { src: row, copy }, pre));
                }
                let victim = ActKind::Twin {
                    row: victim_row,
                    copy,
                    fully_restored: false,
                };
                (victim, RestoreState::Full)
            }
        };
        crow.on_precharge(cb, sa, row, restored);
        for (kind, restore) in std::iter::once(act).chain(install) {
            self.channel.warm_act(rank, bank, kind, restore);
        }
    }

    /// Functionally precharges every open row. Called at sampling
    /// fast-forward boundaries, after the drain has emptied the
    /// queues: the fast-forward mutates CROW-table install/evict state
    /// directly, so an open pair left over from the drained segment
    /// must not survive it — a later write through the stale open row
    /// would bypass the table. Settles the same per-close bookkeeping
    /// as a scheduled `PRE` (restore outcome into the CROW table,
    /// restoration-drive energy, tracking lists), then invalidates the
    /// scheduler memos.
    pub fn quiesce_open_rows(&mut self, now: Cycle) {
        let closed = self.channel.close_all_open(now);
        if closed.is_empty() {
            return;
        }
        for (rank, bank, c) in closed {
            self.energy_events
                .on_command(&self.energy_model, Command::Pre);
            self.settle_close(rank, bank, c);
        }
        self.bump_epoch();
    }

    /// Settles the controller's side of a row close, scheduled or
    /// functional: the activation's energy, charged now that the
    /// restoration drive's length is known (early termination
    /// transfers less charge), the tracking lists, and the restore
    /// outcome into the CROW table (partial restoration, paper §4.1.3).
    /// The caller charges the `PRE` first: energy is a sum of floats,
    /// so the order of the additions is part of the report.
    fn settle_close(&mut self, rank: u32, bank: u32, c: ClosedRow) {
        let mra = matches!(c.open, OpenRow::Pair { .. });
        self.energy_events
            .on_act_pair(&self.energy_model, c.restore_drive, mra);
        let key = (rank, bank, c.subarray);
        Self::drop_tracking_entry(&mut self.open_list, key);
        Self::drop_tracking_entry(&mut self.forced_restore, key);
        let i = self.sa_slot(rank, bank, c.subarray);
        self.opener[i] = None;
        let cb = self.crow_bank(rank, bank);
        if let (Some(crow), OpenRow::Pair { row, .. }) = (self.crow.as_mut(), c.open) {
            crow.on_precharge(cb, c.subarray, row, c.restore == RestoreState::Full);
        }
    }

    /// The effective refresh interval (honours CROW-ref's extension).
    fn trefi_eff(&self) -> u64 {
        let mult = self.crow.as_ref().map_or(1, |c| c.refresh_multiplier());
        let base = u64::from(self.dram_cfg.timings.trefi) * u64::from(mult);
        if self.cfg.per_bank_refresh {
            // One bank per command: commands come `banks`x as often.
            (base / u64::from(self.dram_cfg.banks)).max(1)
        } else {
            base
        }
    }

    fn subarray_of(&self, row: u32) -> u32 {
        row / self.dram_cfg.rows_per_subarray
    }

    /// CROW-table bank index: ranks get disjoint bank ranges so multi-rank
    /// channels never alias table entries.
    fn crow_bank(&self, rank: u32, bank: u32) -> u32 {
        rank * self.dram_cfg.banks + bank
    }

    /// Whether the open activation (if any) in the request's subarray can
    /// serve it, accounting for CROW remaps/duplicates.
    fn serving_activation(&self, req: &MemRequest) -> bool {
        let sa = self.subarray_of(req.row);
        let Some(act) = self.channel.subarray_activation(req.rank, req.bank, sa) else {
            return false;
        };
        if act.open.serves_regular(req.row) {
            return true;
        }
        if let Some(crow) = &self.crow {
            let cb = self.crow_bank(req.rank, req.bank);
            if let Some((way, _)) = crow.table().lookup(cb, sa, req.row) {
                return act
                    .open
                    .serves_copy(sa, way, self.dram_cfg.rows_per_subarray);
            }
        }
        false
    }

    /// Issues at most one command this cycle, recording a wake hint for
    /// the event-driven engine when nothing could issue.
    fn issue_one(&mut self, now: Cycle) {
        self.wake_hint = None;
        if self.drop_pending {
            // Injected command-bus drop: whatever would have issued this
            // cycle is lost; the scheduler retries next tick.
            self.drop_pending = false;
            self.stats.bus_drops += 1;
            self.bump_epoch();
            return;
        }
        let mut wake = Wake::new();
        let issued = self.try_refresh(now, &mut wake)
            || self.try_forced_restore_pre(now, &mut wake)
            || self.try_maintenance_copy(now, &mut wake)
            || self.try_neighbor_refresh(now, &mut wake)
            || self.try_serve_queues(now, &mut wake)
            || self.try_policy_pre(now, &mut wake);
        if !issued && self.use_index() {
            // Every flow reached this tick noted its earliest retry
            // cycle (timing failures) or depends only on state that
            // cannot change without bumping the epoch; ticks strictly
            // before the minimum provably repeat the same failures.
            self.wake_hint = Some((self.sched_epoch, wake.at));
        }
    }

    /// Refresh flow: drain the open rows of the first pending rank's
    /// target, then refresh it. The target is the whole rank for `REF`,
    /// or the rank's `refresh_bank` for `REFpb` in per-bank mode.
    fn try_refresh(&mut self, now: Cycle, wake: &mut Wake) -> bool {
        let Some(rank) = (0..self.dram_cfg.ranks).find(|&r| self.refresh_pending[r as usize])
        else {
            return false;
        };
        let banks = self.dram_cfg.banks;
        let target = self
            .cfg
            .per_bank_refresh
            .then_some(self.refresh_bank[rank as usize]);
        let (d, closed) = match target {
            Some(bank) => (
                CmdDesc::refresh_bank(rank, bank),
                self.channel.open_count(rank, bank) == 0,
            ),
            None => (CmdDesc::refresh(rank), self.channel.all_banks_closed(rank)),
        };
        if closed {
            if let Err(e) = self.channel.check(&d, now) {
                wake.note_err(&e);
                return false;
            }
            self.issue(&d, now);
            self.stats.refreshes += 1;
            self.refresh_pending[rank as usize] = false;
            self.next_ref[rank as usize] += self.trefi_eff();
            if let Some(bank) = target {
                self.refresh_bank[rank as usize] = (bank + 1) % banks;
            }
            // Refresh resets RowHammer disturbance: every REF, and the
            // REFpb that completes a round of the banks.
            if target.is_none_or(|bank| bank == banks - 1) {
                if let Some(crow) = self.crow.as_mut() {
                    crow.on_refresh();
                }
            }
            self.trr_flush(rank, target);
            return true;
        }
        // Drain the target's open rows, oldest-opened first: `open_list`
        // is in activation order.
        for i in 0..self.open_list.len() {
            let (r, b, s) = self.open_list[i];
            if r != rank || target.is_some_and(|t| b != t) {
                continue;
            }
            let full = self.forced_restore.contains(&(r, b, s));
            if self.try_pre_subarray(now, r, b, s, full, wake) {
                return true;
            }
        }
        false
    }

    /// Whether a pending refresh holds back requests to (`rank`, `bank`)
    /// so the refresh cannot be starved: the whole rank for all-bank
    /// refresh, only the target bank in per-bank mode.
    fn refresh_holds(&self, rank: u32, bank: u32) -> bool {
        self.refresh_pending[rank as usize]
            && (!self.cfg.per_bank_refresh || bank == self.refresh_bank[rank as usize])
    }

    /// Precharges one subarray if legal; `full_restore` delays the `PRE`
    /// until the open pair is fully restored.
    fn try_pre_subarray(
        &mut self,
        now: Cycle,
        rank: u32,
        bank: u32,
        sa: u32,
        full_restore: bool,
        wake: &mut Wake,
    ) -> bool {
        let Some(act) = self.channel.subarray_activation(rank, bank, sa) else {
            return false;
        };
        if full_restore && now < act.full_restore_at {
            wake.note(act.full_restore_at);
            return false;
        }
        let d = if self.dram_cfg.subarray_parallelism {
            CmdDesc::pre_subarray(rank, bank, sa)
        } else {
            CmdDesc::pre(rank, bank)
        };
        match self.channel.check(&d, now) {
            Ok(()) => {
                self.issue(&d, now);
                true
            }
            Err(e) => {
                wake.note_err(&e);
                false
            }
        }
    }

    /// Precharges maintenance activations that reached full restoration.
    fn try_forced_restore_pre(&mut self, now: Cycle, wake: &mut Wake) -> bool {
        for i in 0..self.forced_restore.len() {
            let (rank, bank, sa) = self.forced_restore[i];
            if self.try_pre_subarray(now, rank, bank, sa, true, wake) {
                return true;
            }
        }
        false
    }

    /// Queues a runtime weak-row remap (VRT discovery, paper §4.2.3):
    /// the row's data will be copied to a strong copy row with `ACT-c`
    /// and subsequent activations redirected there.
    pub fn remap_weak_row(&mut self, bank: u32, row: u32) {
        self.remap_weak_row_in_rank(0, bank, row);
    }

    /// [`MemController::remap_weak_row`] for a specific rank.
    pub fn remap_weak_row_in_rank(&mut self, rank: u32, bank: u32, row: u32) {
        let subarray = self.subarray_of(row);
        self.copy_ops.push_back(CopyOp {
            rank,
            bank,
            subarray,
            row,
            purpose: CopyPurpose::WeakRow,
        });
        self.bump_epoch();
    }

    /// Arms a transient command-bus drop (fault harness): the next
    /// scheduling opportunity issues nothing and the lost cycle is
    /// counted in [`McStats::bus_drops`].
    pub fn drop_next_issue(&mut self) {
        self.drop_pending = true;
        self.bump_epoch();
    }

    /// Starts a pending maintenance copy (RowHammer victim or VRT weak
    /// row) when its bank is free.
    fn try_maintenance_copy(&mut self, now: Cycle, wake: &mut Wake) -> bool {
        let Some(&op) = self.copy_ops.front() else {
            return false;
        };
        if self.refresh_pending[op.rank as usize] {
            return false;
        }
        let Some(crow) = self.crow.as_mut() else {
            // Popping changes what the next tick attempts.
            self.copy_ops.pop_front();
            self.bump_epoch();
            wake.note(now + 1);
            return false;
        };
        // Reserve a way. For a hammer victim with no way available, the
        // victim stays unprotected (the detector will fire again); for a
        // weak row, the chip must fall back to the default refresh
        // interval (paper §4.2.1).
        let cb = op.rank * self.dram_cfg.banks + op.bank;
        let way = match op.purpose {
            CopyPurpose::Hammer => crow.commit_hammer_remap(cb, op.subarray, op.row),
            CopyPurpose::WeakRow => crow.remap_weak_row_runtime(cb, op.subarray, op.row),
        };
        let Some(way) = way else {
            if op.purpose == CopyPurpose::WeakRow {
                crow.ref_fallback();
            }
            self.copy_ops.pop_front();
            self.bump_epoch();
            wake.note(now + 1);
            return false;
        };
        let d = CmdDesc::act(
            op.rank,
            op.bank,
            ActKind::Copy {
                src: op.row,
                copy: way,
            },
        );
        match self.channel.check(&d, now) {
            Ok(()) => {
                self.issue(&d, now);
                if op.purpose == CopyPurpose::Hammer {
                    self.stats.hammer_copies += 1;
                }
                self.forced_restore.push((op.rank, op.bank, op.subarray));
                self.copy_ops.pop_front();
                true
            }
            Err(e) => {
                // Roll back the reservation; retry next cycle.
                let crow = self.crow.as_mut().expect("checked above");
                match op.purpose {
                    CopyPurpose::Hammer => crow.undo_hammer_remap(cb, op.subarray, way),
                    CopyPurpose::WeakRow => crow.undo_runtime_remap(cb, op.subarray, way),
                }
                wake.note_err(&e);
                false
            }
        }
    }

    /// The in-subarray neighbours of `row` (clamped: rows at subarray
    /// edges border sense-amplifier stripes, not other rows).
    fn neighbor_rows(&self, row: u32) -> [Option<u32>; 2] {
        let rps = self.dram_cfg.rows_per_subarray;
        let sa = row / rps;
        let lo = sa * rps;
        let hi = lo + rps - 1;
        [(row > lo).then(|| row - 1), (row < hi).then(|| row + 1)]
    }

    /// Queues a PARA/TRR neighbor refresh (bounded; overflow is dropped —
    /// the mitigation is best-effort and the next sample re-arms it).
    fn queue_neighbor_refresh(&mut self, rank: u32, bank: u32, row: u32) {
        const NEIGHBOR_Q_CAP: usize = 64;
        if self.neighbor_ops.len() >= NEIGHBOR_Q_CAP {
            return;
        }
        self.neighbor_ops.push_back((rank, bank, row));
        self.bump_epoch();
    }

    /// PARA/TRR observation of a demand activation of a regular row.
    fn observe_demand_act(&mut self, rank: u32, bank: u32, row: u32) {
        match self.cfg.mitigation {
            Mitigation::None => {}
            Mitigation::Para { hazard } => {
                let r = self.next_mitigation_rand();
                if r.is_multiple_of(u64::from(hazard)) {
                    let [below, above] = self.neighbor_rows(row);
                    // An independent bit picks the side; fall back to the
                    // other side at subarray edges.
                    let pick = if (r >> 32) & 1 == 0 {
                        below.or(above)
                    } else {
                        above.or(below)
                    };
                    if let Some(n) = pick {
                        self.queue_neighbor_refresh(rank, bank, n);
                    }
                }
            }
            Mitigation::Trr { entries, .. } => {
                let slot = self.slot_of(rank, bank);
                let table = &mut self.trr_tables[slot];
                if let Some(e) = table.iter_mut().find(|e| e.0 == row) {
                    e.1 += 1;
                } else if table.len() < entries as usize {
                    table.push((row, 1));
                } else {
                    // Evict the min-count entry; ties break on the
                    // smallest row so the choice is deterministic.
                    let mut m = 0;
                    for i in 1..table.len() {
                        if table[i].1 < table[m].1
                            || (table[i].1 == table[m].1 && table[i].0 < table[m].0)
                        {
                            m = i;
                        }
                    }
                    table[m] = (row, 1);
                }
            }
        }
    }

    /// TRR refresh hook: queue neighbor refreshes for every sampled row
    /// that reached the threshold, then clear the sampled tables (`bank`
    /// = `None` for an all-bank `REF`, the bank for `REFpb`).
    fn trr_flush(&mut self, rank: u32, bank: Option<u32>) {
        let Mitigation::Trr { threshold, .. } = self.cfg.mitigation else {
            return;
        };
        let banks = match bank {
            Some(b) => b..b + 1,
            None => 0..self.dram_cfg.banks,
        };
        for b in banks {
            let slot = self.slot_of(rank, b);
            let mut table = std::mem::take(&mut self.trr_tables[slot]);
            for &(row, count) in &table {
                if count >= threshold {
                    for n in self.neighbor_rows(row).into_iter().flatten() {
                        self.queue_neighbor_refresh(rank, b, n);
                    }
                }
            }
            table.clear();
            self.trr_tables[slot] = table;
        }
    }

    /// Serves one pending PARA/TRR neighbor refresh: a fully-restoring
    /// activation of the victim row, issued when its bank is closed and
    /// precharged by the forced-restore flow once restoration completes.
    fn try_neighbor_refresh(&mut self, now: Cycle, wake: &mut Wake) -> bool {
        let Some(&(rank, bank, row)) = self.neighbor_ops.front() else {
            return false;
        };
        if self.refresh_pending[rank as usize] {
            return false;
        }
        if self.channel.open_count(rank, bank) != 0 {
            // Bank busy: the open set cannot change without an issue
            // (which bumps the epoch), so no wake bound is needed.
            return false;
        }
        let d = CmdDesc::act(rank, bank, ActKind::single(row));
        match self.channel.check(&d, now) {
            Ok(()) => {
                self.issue(&d, now);
                self.stats.neighbor_refreshes += 1;
                let sa = self.subarray_of(row);
                self.forced_restore.push((rank, bank, sa));
                self.neighbor_ops.pop_front();
                true
            }
            Err(e) => {
                wake.note_err(&e);
                false
            }
        }
    }

    /// Main request scheduling: pick the highest-priority issuable command
    /// from the active queue.
    fn try_serve_queues(&mut self, now: Cycle, wake: &mut Wake) -> bool {
        // Write drain hysteresis.
        if self.write_q.len() >= self.cfg.wr_high {
            self.drain_writes = true;
        } else if self.write_q.len() <= self.cfg.wr_low {
            self.drain_writes = false;
        }
        let use_writes = self.drain_writes || self.read_q.is_empty();
        if use_writes && !self.write_q.is_empty() {
            self.serve_from(now, ReqKind::Write, wake)
        } else if !self.read_q.is_empty() {
            self.serve_from(now, ReqKind::Read, wake)
        } else {
            false
        }
    }

    /// Picks the FR-FCFS(-Cap) candidate order and issues the first
    /// legal command. Both implementations attempt candidates in the
    /// identical (priority, arrival, queue-position) order.
    fn serve_from(&mut self, now: Cycle, kind: ReqKind, wake: &mut Wake) -> bool {
        match self.cfg.sched_impl {
            SchedImpl::Linear => self.serve_from_linear(now, kind, wake),
            SchedImpl::Indexed => self.serve_from_indexed(now, kind, wake),
        }
    }

    /// Reference implementation: scan the whole queue, sort, attempt.
    fn serve_from_linear(&mut self, now: Cycle, kind: ReqKind, wake: &mut Wake) -> bool {
        // Candidate order: (priority, arrival, index).
        let mut order = std::mem::take(&mut self.scratch_order);
        order.clear();
        for (i, req) in self.queue(kind).iter().enumerate() {
            let hit = self.serving_activation(req);
            let prio = match self.cfg.sched {
                SchedKind::Fcfs => 1,
                SchedKind::FrFcfs => u8::from(!hit),
                SchedKind::FrFcfsCap { cap } => {
                    // Only a served request's row names a real subarray,
                    // so the count is read only for hits.
                    let sa = self.subarray_of(req.row);
                    u8::from(!(hit && self.served[self.sa_slot(req.rank, req.bank, sa)] < cap))
                }
            };
            order.push((prio, req.arrival, i));
        }
        order.sort_unstable();
        self.sched.scanned += order.len() as u64;
        let mut issued = false;
        for &(_, _, idx) in &order {
            if self.try_serve_request(now, kind, idx, wake) {
                self.sched.picks += 1;
                issued = true;
                break;
            }
        }
        self.scratch_order = order;
        issued
    }

    /// Indexed implementation: k-way merge over per-bank hit sublists
    /// and miss lists, skipping banks whose memoized readiness bound
    /// proves every candidate still fails (DESIGN.md §3.13).
    fn serve_from_indexed(&mut self, now: Cycle, kind: ReqKind, wake: &mut Wake) -> bool {
        let banks = self.dram_cfg.banks;
        let slots = (self.dram_cfg.ranks * banks) as usize;
        let ki = Self::kind_ix(kind);
        let mut cursors = std::mem::take(&mut self.scratch_cursors);
        let mut bounds = std::mem::take(&mut self.scratch_bounds);
        cursors.clear();
        bounds.clear();
        for slot in 0..slots {
            if self.index(kind).bucket(slot).cands.is_empty() {
                continue;
            }
            let rank = slot as u32 / banks;
            let bank = slot as u32 % banks;
            // Refresh hold-back: the linear scan rejects these candidates
            // without side effects, so skipping them wholesale is
            // equivalent (the pending flag flips only with an epoch bump).
            if self.refresh_holds(rank, bank) {
                continue;
            }
            // Readiness fast path: while the epoch is unchanged the
            // memoized bound is exact, so a future bound means every
            // candidate of this bank fails this tick exactly as before.
            let (stamp, ready) = self.bank_ready[ki][slot];
            if stamp == self.sched_epoch && ready > now {
                wake.note(ready);
                self.sched.fastpath_skips += 1;
                continue;
            }
            self.ensure_bucket_fresh(kind, slot);
            let b = self.index(kind).bucket(slot);
            for (si, (sa, sub)) in b.hits.iter().enumerate() {
                if sub.is_empty() {
                    continue;
                }
                // One priority per hit sublist: `served` is constant
                // during the scan, so the whole sublist shares it.
                let prio = match self.cfg.sched {
                    SchedKind::Fcfs => 1,
                    SchedKind::FrFcfs => 0,
                    SchedKind::FrFcfsCap { cap } => {
                        u8::from(self.served[self.sa_slot(rank, bank, *sa)] >= cap)
                    }
                };
                cursors.push(Cursor {
                    prio,
                    slot: slot as u32,
                    stream: si as u32,
                    next: 0,
                });
            }
            if !b.miss.is_empty() {
                cursors.push(Cursor {
                    prio: 1,
                    slot: slot as u32,
                    stream: MISS_STREAM,
                    next: 0,
                });
            }
            bounds.push((slot as u32, Cycle::MAX));
        }
        let mut issued = false;
        loop {
            // Smallest (priority, arrival, position) across stream heads:
            // identical to the linear scan's sorted order (keys are
            // unique because positions are).
            let mut best: Option<((u8, Cycle, u32), usize)> = None;
            for (ci, c) in cursors.iter().enumerate() {
                let Some((arrival, pos)) = self.stream_head(kind, c) else {
                    continue;
                };
                let key = (c.prio, arrival, pos);
                if best.is_none_or(|(bk, _)| key < bk) {
                    best = Some((key, ci));
                }
            }
            let Some(((_, _, pos), ci)) = best else {
                break;
            };
            self.sched.scanned += 1;
            let mut attempt = Wake::new();
            if self.try_serve_request(now, kind, pos as usize, &mut attempt) {
                self.sched.picks += 1;
                issued = true;
                break;
            }
            wake.merge(&attempt);
            let slot = cursors[ci].slot;
            if let Some(e) = bounds.iter_mut().find(|e| e.0 == slot) {
                e.1 = e.1.min(attempt.at);
            }
            cursors[ci].next += 1;
        }
        if !issued {
            // Every participating bank was attempted to exhaustion:
            // memoize its earliest possible issue cycle under this epoch.
            for &(slot, bound) in &bounds {
                self.bank_ready[ki][slot as usize] = (self.sched_epoch, bound);
            }
        }
        self.scratch_cursors = cursors;
        self.scratch_bounds = bounds;
        issued
    }

    /// The next unconsumed (arrival, position) of a merge cursor.
    fn stream_head(&self, kind: ReqKind, c: &Cursor) -> Option<(Cycle, u32)> {
        let b = self.index(kind).bucket(c.slot as usize);
        let sub = if c.stream == MISS_STREAM {
            &b.miss
        } else {
            &b.hits[c.stream as usize].1
        };
        sub.get(c.next as usize).copied()
    }

    /// Rebuilds `slot`'s hit/miss split if a bank-state change
    /// invalidated it since the last scan.
    fn ensure_bucket_fresh(&mut self, kind: ReqKind, slot: usize) {
        if self.index(kind).bucket(slot).fresh {
            return;
        }
        let mut b = std::mem::take(self.index_mut(kind).bucket_mut(slot));
        let mut pool = std::mem::take(&mut self.stream_pool);
        b.clear_split(&mut pool);
        for i in 0..b.cands.len() {
            let (arrival, pos) = b.cands[i];
            let req = self.queue(kind)[pos as usize];
            if self.serving_activation(&req) {
                b.hit_push(self.subarray_of(req.row), (arrival, pos), &mut pool);
            } else {
                b.miss.push((arrival, pos));
            }
        }
        b.fresh = true;
        self.sched.scanned += b.cands.len() as u64;
        self.sched.rebuilds += 1;
        self.stream_pool = pool;
        *self.index_mut(kind).bucket_mut(slot) = b;
    }

    /// Attempts to advance one request: column access if its row is open,
    /// otherwise activate (via the CROW decision) or precharge a
    /// conflicting row.
    fn try_serve_request(
        &mut self,
        now: Cycle,
        kind: ReqKind,
        idx: usize,
        wake: &mut Wake,
    ) -> bool {
        let req = self.queue(kind)[idx];
        if self.refresh_holds(req.rank, req.bank) {
            return false;
        }
        let sa = self.subarray_of(req.row);
        if self.serving_activation(&req) {
            return self.try_column(now, kind, idx, wake);
        }
        // Row not open. In a maintenance window, leave the bank alone.
        if self.forced_restore.contains(&(req.rank, req.bank, sa)) {
            return false;
        }
        let sa_open = self
            .channel
            .subarray_activation(req.rank, req.bank, sa)
            .is_some();
        let bank_conflict =
            !self.dram_cfg.subarray_parallelism && self.channel.open_count(req.rank, req.bank) > 0;
        if sa_open || bank_conflict {
            // Conflict: close the blocking row (the open subarray).
            let victim_sa = if sa_open {
                sa
            } else {
                self.channel
                    .open_activation(req.rank, req.bank)
                    .map(|(s, _)| s)
                    .expect("bank_conflict implies an open activation")
            };
            if self
                .forced_restore
                .contains(&(req.rank, req.bank, victim_sa))
            {
                return false;
            }
            if self.try_pre_subarray(now, req.rank, req.bank, victim_sa, false, wake) {
                self.stats.row_conflicts += 1;
                return true;
            }
            return false;
        }
        // Bank/subarray closed: activate, honouring the CROW decision.
        self.try_activate(now, &req, wake)
    }

    /// Issues the activation for a request, consulting the CROW substrate.
    fn try_activate(&mut self, now: Cycle, req: &MemRequest, wake: &mut Wake) -> bool {
        let sa = self.subarray_of(req.row);
        let cb = self.crow_bank(req.rank, req.bank);
        let decision = self
            .crow
            .as_ref()
            .map_or(ActDecision::Normal, |c| c.peek(cb, sa, req.row));
        let mut restore_sa = None;
        let (kind, act_mod, is_restore) = match decision {
            ActDecision::Normal => {
                let far = match self.mode {
                    CacheMode::TlDram { far, .. } => Some(far),
                    CacheMode::Crow => None,
                };
                (ActKind::single(req.row), far, false)
            }
            ActDecision::RemappedSingle { copy } => (
                ActKind::Single(RowAddr::Copy {
                    subarray: sa,
                    idx: copy,
                }),
                None,
                false,
            ),
            ActDecision::Twin {
                copy,
                fully_restored,
            } => match self.mode {
                CacheMode::Crow => (
                    ActKind::Twin {
                        row: req.row,
                        copy,
                        fully_restored,
                    },
                    None,
                    false,
                ),
                CacheMode::TlDram { near, .. } => (
                    ActKind::Single(RowAddr::Copy {
                        subarray: sa,
                        idx: copy,
                    }),
                    Some(near),
                    false,
                ),
            },
            ActDecision::CopyInstall { copy } => {
                (ActKind::Copy { src: req.row, copy }, None, false)
            }
            ActDecision::RestoreFirst {
                copy, victim_row, ..
            } => {
                // The victim may live in a *different* subarray of the
                // shared CROW-table set (paper §6.1); ensure it is the
                // one whose activation we hold open for full restore.
                restore_sa = Some(self.subarray_of(victim_row));
                (
                    ActKind::Twin {
                        row: victim_row,
                        copy,
                        fully_restored: false,
                    },
                    None,
                    true,
                )
            }
        };
        let mut d = CmdDesc::act(req.rank, req.bank, kind);
        d.act_mod = act_mod;
        if let Err(e) = self.channel.check(&d, now) {
            wake.note_err(&e);
            return false;
        }
        self.issue(&d, now);
        // Commit the decision (stats, LRU, installs) now that it issued.
        if let Some(crow) = self.crow.as_mut() {
            match crow.decide(cb, sa, req.row) {
                ActDecision::CopyInstall { copy } => {
                    crow.commit_install(cb, sa, req.row, copy);
                }
                ActDecision::RestoreFirst { .. } => {
                    self.stats.restore_activations += 1;
                }
                _ => {}
            }
            // Feed the RowHammer detector with the aggressor row.
            for victim in crow.hammer_check(cb, req.row, now) {
                self.copy_ops.push_back(CopyOp {
                    rank: req.rank,
                    bank: req.bank,
                    subarray: self.subarray_of(victim),
                    row: victim,
                    purpose: CopyPurpose::Hammer,
                });
            }
        }
        // PARA/TRR mitigation baselines sample demand activations.
        self.observe_demand_act(req.rank, req.bank, req.row);
        let i = self.sa_slot(req.rank, req.bank, sa);
        if is_restore {
            self.forced_restore
                .push((req.rank, req.bank, restore_sa.unwrap_or(sa)));
        } else {
            self.stats.row_misses += 1;
            self.opener[i] = Some(req.id);
        }
        self.served[i] = 0;
        true
    }

    /// Issues the column command for a request whose row is open.
    fn try_column(&mut self, now: Cycle, kind: ReqKind, idx: usize, wake: &mut Wake) -> bool {
        let req = self.queue(kind)[idx];
        let sa = self.subarray_of(req.row);
        let d = match (kind, self.dram_cfg.subarray_parallelism) {
            (ReqKind::Read, false) => CmdDesc::rd(req.rank, req.bank, req.col),
            (ReqKind::Read, true) => CmdDesc::rd_subarray(req.rank, req.bank, sa, req.col),
            (ReqKind::Write, false) => CmdDesc::wr(req.rank, req.bank, req.col),
            (ReqKind::Write, true) => CmdDesc::wr_subarray(req.rank, req.bank, sa, req.col),
        };
        if let Err(e) = self.channel.check(&d, now) {
            wake.note_err(&e);
            return false;
        }
        let fx = self.issue(&d, now);
        let i = self.sa_slot(req.rank, req.bank, sa);
        self.served[i] += 1;
        // Hit/miss accounting: the request that opened the row already
        // counted a miss.
        if self.opener[i] == Some(req.id) {
            self.opener[i] = None;
        } else {
            self.stats.row_hits += 1;
        }
        match kind {
            ReqKind::Read => {
                let req = self.q_swap_remove(ReqKind::Read, idx);
                let done = fx.read_done.expect("RD returns completion time");
                let latency = done.saturating_sub(req.arrival);
                self.stats.reads += 1;
                self.stats.read_latency_sum += latency;
                self.stats.read_latency_max = self.stats.read_latency_max.max(latency);
                self.stats.record_latency(latency);
                self.inflight.push((
                    done,
                    Completion {
                        id: req.id,
                        core: req.core,
                        done,
                        latency,
                        is_prefetch: req.is_prefetch,
                    },
                ));
            }
            ReqKind::Write => {
                self.q_swap_remove(ReqKind::Write, idx);
                self.stats.writes += 1;
            }
        }
        true
    }

    /// Row-buffer policy precharges (timeout / closed-page).
    fn try_policy_pre(&mut self, now: Cycle, wake: &mut Wake) -> bool {
        let timeout = match self.cfg.policy {
            RowPolicy::OpenPage => return false,
            RowPolicy::Timeout { cycles } => Some(cycles),
            RowPolicy::ClosedPage => None,
        };
        for i in 0..self.open_list.len() {
            let (rank, bank, sa) = self.open_list[i];
            if self.forced_restore.contains(&(rank, bank, sa)) {
                continue;
            }
            let (last_use, open) = {
                let Some(act) = self.channel.subarray_activation(rank, bank, sa) else {
                    continue;
                };
                (act.last_use, act.open)
            };
            if let Some(t) = timeout {
                if now.saturating_sub(last_use) < t {
                    wake.note(last_use + t);
                    continue;
                }
            }
            // Any queued request served by this activation keeps it open.
            // (The `wanted` predicate is time-independent, so rows skipped
            // here impose no wake bound.)
            let wanted = if self.use_index() {
                self.wanted_indexed(rank, bank, sa)
            } else {
                self.read_q.iter().chain(self.write_q.iter()).any(|r| {
                    r.rank == rank
                        && r.bank == bank
                        && self.subarray_of(r.row) == sa
                        && (open.serves_regular(r.row) || self.serving_activation(r))
                })
            };
            if wanted {
                continue;
            }
            if self.try_pre_subarray(now, rank, bank, sa, false, wake) {
                return true;
            }
        }
        false
    }

    /// Index-backed `wanted` test for the row policy: the activation in
    /// (rank, bank, sa) serves some queued request iff either queue's
    /// hit sublist for that subarray is non-empty. (The linear scan's
    /// `serves_regular` disjunct is subsumed: an open activation always
    /// serves its own regular row, so such a request classifies as a
    /// hit in exactly this sublist.)
    fn wanted_indexed(&mut self, rank: u32, bank: u32, sa: u32) -> bool {
        let slot = self.slot_of(rank, bank);
        for kind in [ReqKind::Read, ReqKind::Write] {
            if self.index(kind).bucket(slot).cands.is_empty() {
                continue;
            }
            self.ensure_bucket_fresh(kind, slot);
            if self
                .index(kind)
                .bucket(slot)
                .hits
                .iter()
                .any(|(s, sub)| *s == sa && !sub.is_empty())
            {
                return true;
            }
        }
        false
    }

    /// Issues a checked command, updating energy, stats, open-row
    /// tracking, and CROW restoration state.
    fn issue(&mut self, d: &CmdDesc, now: Cycle) -> IssueFx {
        let fx = self.channel.issue(d, now);
        self.bump_epoch();
        if let Some(log) = self.event_log.as_mut() {
            match d.cmd {
                Command::Act | Command::ActC | Command::ActT => {
                    // The regular row whose cells this activation opens
                    // (copy-row-only activations disturb no regular row).
                    let row = match d.act {
                        Some(ActKind::Single(RowAddr::Regular(r))) => Some(r),
                        Some(ActKind::Single(RowAddr::Copy { .. })) => None,
                        Some(ActKind::Copy { src, .. }) => Some(src),
                        Some(ActKind::Twin { row, .. }) => Some(row),
                        None => None,
                    };
                    if let Some(row) = row {
                        log.push(DramEvent::Act {
                            rank: d.rank,
                            bank: d.bank,
                            row,
                        });
                    }
                }
                Command::Ref => log.push(DramEvent::RefAll { rank: d.rank }),
                Command::RefPb => log.push(DramEvent::RefBank {
                    rank: d.rank,
                    bank: d.bank,
                }),
                Command::Pre | Command::Rd | Command::Wr => {}
            }
        }
        // The bank's row state (and with it hit/miss classification)
        // may have changed; refresh commands touch the whole rank.
        let slots = match d.cmd {
            Command::Ref | Command::RefPb => self.slot_of(d.rank, 0)..self.slot_of(d.rank + 1, 0),
            _ => self.slot_of(d.rank, d.bank)..self.slot_of(d.rank, d.bank) + 1,
        };
        for slot in slots {
            self.rd_index.mark_stale(slot);
            self.wr_index.mark_stale(slot);
        }
        if d.cmd.is_activate() {
            // Activation energy is charged when the row closes
            // (`settle_close`).
            let kind = d.act.expect("activation has kind");
            let sa = kind.subarray(self.dram_cfg.rows_per_subarray);
            self.open_list.push((d.rank, d.bank, sa));
        } else {
            self.energy_events.on_command(&self.energy_model, d.cmd);
            if let Some(closed) = fx.closed {
                self.settle_close(d.rank, d.bank, closed);
            }
        }
        fx
    }

    /// Drops every entry equal to `key` from a (rank, bank, subarray)
    /// tracking list (open rows, forced restores).
    fn drop_tracking_entry(list: &mut Vec<(u32, u32, u32)>, key: (u32, u32, u32)) {
        list.retain(|&e| e != key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crow_core::{CrowConfig, CrowSubstrate};
    use crow_dram::DramConfig;

    fn run(mc: &mut MemController, cycles: u64) -> Vec<Completion> {
        let mut out = Vec::new();
        for now in 0..cycles {
            mc.tick(now, &mut out);
        }
        out
    }

    fn baseline_mc() -> MemController {
        let mut cfg = DramConfig::tiny_test();
        cfg.copy_rows_per_subarray = 0;
        MemController::new(McConfig::paper_default(), cfg, None)
    }

    fn crow_mc() -> MemController {
        let dram = DramConfig::tiny_test();
        let crow = CrowSubstrate::new(CrowConfig::tiny_test());
        let mut mc = MemController::new(McConfig::paper_default(), dram, Some(crow));
        mc.attach_oracle();
        mc
    }

    fn read(id: u64, bank: u32, row: u32, col: u32) -> MemRequest {
        MemRequest::new(id, ReqKind::Read, 0, bank, row, col, 0)
    }

    #[test]
    fn single_read_completes() {
        let mut mc = baseline_mc();
        mc.try_enqueue(read(1, 0, 5, 3)).unwrap();
        let done = run(&mut mc, 300);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 1);
        assert!(done[0].latency > 0);
        assert_eq!(mc.stats().reads, 1);
        assert_eq!(mc.stats().row_misses, 1);
        assert_eq!(mc.stats().row_hits, 0);
        assert_eq!(mc.pending(), 0);
    }

    #[test]
    fn row_hits_counted_for_same_row() {
        let mut mc = baseline_mc();
        for i in 0..4 {
            mc.try_enqueue(read(i, 0, 5, i as u32)).unwrap();
        }
        let done = run(&mut mc, 500);
        assert_eq!(done.len(), 4);
        assert_eq!(mc.stats().row_misses, 1);
        assert_eq!(mc.stats().row_hits, 3);
    }

    #[test]
    fn conflicting_rows_precharge() {
        let mut mc = baseline_mc();
        mc.try_enqueue(read(1, 0, 5, 0)).unwrap();
        mc.try_enqueue(read(2, 0, 200, 0)).unwrap();
        let done = run(&mut mc, 1000);
        assert_eq!(done.len(), 2);
        assert!(mc.stats().row_conflicts >= 1);
        assert_eq!(mc.stats().row_misses, 2);
    }

    #[test]
    fn writes_drain_via_watermarks() {
        let mut mc = baseline_mc();
        for i in 0..50 {
            mc.try_enqueue(MemRequest::new(
                i,
                ReqKind::Write,
                0,
                0,
                5,
                i as u32 % 16,
                0,
            ))
            .unwrap();
        }
        run(&mut mc, 4000);
        assert_eq!(mc.stats().writes, 50);
        assert_eq!(mc.pending(), 0);
    }

    #[test]
    fn fr_fcfs_cap_eventually_serves_the_conflicting_row() {
        // A stream of row-5 hits plus one old row-200 request: with the
        // cap, the conflicting request is served after at most `cap`
        // column commands once it is oldest; uncapped FR-FCFS keeps
        // prioritizing hits as long as any are present.
        let serve_order = |sched| {
            let mut cfg = McConfig::paper_default();
            cfg.sched = sched;
            let mut dram = DramConfig::tiny_test();
            dram.copy_rows_per_subarray = 0;
            let mut mc = MemController::new(cfg, dram, None);
            mc.try_enqueue(read(0, 0, 200, 0)).unwrap(); // oldest, other row
            for i in 1..=12u64 {
                mc.try_enqueue(read(i, 0, 5, (i % 16) as u32)).unwrap();
            }
            let mut out = Vec::new();
            let mut now = 0;
            while out.len() < 13 && now < 100_000 {
                mc.tick(now, &mut out);
                now += 1;
            }
            out.iter().position(|c| c.id == 0).expect("req 0 served")
        };
        let capped = serve_order(SchedKind::FrFcfsCap { cap: 4 });
        let uncapped = serve_order(SchedKind::FrFcfs);
        assert!(capped <= 5, "cap bounds starvation: position {capped}");
        assert!(
            uncapped >= capped,
            "uncapped ({uncapped}) should serve the conflict no sooner than capped ({capped})"
        );
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut mc = baseline_mc();
        let mut rejected = 0;
        for i in 0..100 {
            if mc.try_enqueue(read(i, 0, 5, 0)).is_err() {
                rejected += 1;
            }
        }
        assert_eq!(rejected, 100 - 64);
        assert_eq!(mc.stats().rejections, 36);
    }

    #[test]
    fn refresh_issues_periodically() {
        let mut mc = baseline_mc();
        let trefi = u64::from(mc.channel().config().timings.trefi);
        run(&mut mc, trefi * 4 + 100);
        assert!(mc.stats().refreshes >= 3, "{}", mc.stats().refreshes);
    }

    #[test]
    fn per_bank_refresh_mode_issues_refpb() {
        let mut cfg = McConfig::paper_default();
        cfg.per_bank_refresh = true;
        let mut dram = DramConfig::tiny_test();
        dram.copy_rows_per_subarray = 0;
        let mut mc = MemController::new(cfg, dram, None);
        let trefi = u64::from(mc.channel().config().timings.trefi);
        run(&mut mc, trefi * 4 + 100);
        let st = mc.channel().stats();
        assert_eq!(st.issued(Command::Ref), 0);
        // One REFpb every tREFI/banks: roughly banks x as many commands.
        assert!(
            st.issued(Command::RefPb) >= 6,
            "REFpb count {}",
            st.issued(Command::RefPb)
        );
    }

    #[test]
    fn per_bank_refresh_total_energy_close_to_all_bank() {
        let mk = |per_bank: bool| {
            let mut cfg = McConfig::paper_default();
            cfg.per_bank_refresh = per_bank;
            let mut dram = DramConfig::tiny_test();
            dram.copy_rows_per_subarray = 0;
            let mut mc = MemController::new(cfg, dram, None);
            let trefi = u64::from(mc.channel().config().timings.trefi);
            run(&mut mc, trefi * 16);
            mc.energy().ref_nj
        };
        let ab = mk(false);
        let pb = mk(true);
        assert!(ab > 0.0 && pb > 0.0);
        let ratio = pb / ab;
        assert!((0.7..1.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn refresh_postponement_defers_under_load_but_repays_debt() {
        let mk = |postpone: u32| {
            let mut cfg = McConfig::paper_default();
            cfg.max_postponed_refreshes = postpone;
            let mut dram = DramConfig::tiny_test();
            dram.copy_rows_per_subarray = 0;
            MemController::new(cfg, dram, None)
        };
        let trefi = u64::from(DramConfig::tiny_test().timings.trefi);
        // Keep a burst of requests queued across several tREFI periods.
        let run_burst = |mc: &mut MemController| -> (u64, usize) {
            let mut out = Vec::new();
            let mut id = 0u64;
            for now in 0..trefi * 4 {
                if mc.can_accept_read() && now % 50 == 0 {
                    let row = ((id * 97) % 512) as u32;
                    mc.try_enqueue(read(id, (id % 2) as u32, row, 0)).ok();
                    id += 1;
                }
                mc.tick(now, &mut out);
            }
            (mc.stats().refreshes, out.len())
        };
        let mut strict = mk(0);
        let (refs_strict, _) = run_burst(&mut strict);
        let mut flexible = mk(8);
        let (refs_flex, _) = run_burst(&mut flexible);
        assert!(
            refs_strict >= 3,
            "strict must refresh on schedule: {refs_strict}"
        );
        assert!(
            refs_flex < refs_strict,
            "postponement defers refreshes under load: {refs_flex} vs {refs_strict}"
        );
        // Once traffic stops, the debt is repaid: total refreshes catch up.
        let mut out = Vec::new();
        for now in trefi * 4..trefi * 12 {
            flexible.tick(now, &mut out);
        }
        assert!(
            flexible.stats().refreshes >= refs_strict,
            "debt repaid: {} vs {refs_strict}",
            flexible.stats().refreshes
        );
    }

    #[test]
    fn refresh_can_be_disabled() {
        let mut cfg = McConfig::paper_default();
        cfg.refresh = false;
        let mut dram = DramConfig::tiny_test();
        dram.copy_rows_per_subarray = 0;
        let mut mc = MemController::new(cfg, dram, None);
        let trefi = u64::from(mc.channel().config().timings.trefi);
        run(&mut mc, trefi * 3);
        assert_eq!(mc.stats().refreshes, 0);
    }

    #[test]
    fn crow_cache_hit_uses_act_t() {
        let mut mc = crow_mc();
        mc.try_enqueue(read(1, 0, 5, 0)).unwrap();
        run(&mut mc, 500);
        // First access installs via ACT-c.
        assert_eq!(mc.channel().stats().issued(Command::ActC), 1);
        mc.try_enqueue(read(2, 0, 5, 1)).unwrap();
        run(&mut mc, 500);
        assert_eq!(mc.channel().stats().issued(Command::ActT), 1);
        let crow = mc.crow().unwrap();
        assert_eq!(crow.stats().cache_hits, 1);
        assert_eq!(crow.stats().cache_installs, 1);
        mc.channel().oracle().unwrap().assert_clean();
    }

    #[test]
    fn crow_faster_than_baseline_on_reuse() {
        // Interleave two conflicting rows so every access re-activates;
        // CROW-cache should serve the re-activations faster.
        let mut base = baseline_mc();
        let mut crow = crow_mc();
        for mc in [&mut base, &mut crow] {
            let mut id = 0;
            let mut out = Vec::new();
            let mut now = 0u64;
            // Warm both rows.
            for _ in 0..20 {
                for row in [5u32, 200] {
                    mc.try_enqueue(read(id, 0, row, (id % 8) as u32)).unwrap();
                    id += 1;
                    // Let the request finish before the next (serialized).
                    let target = out.len() + 1;
                    while out.len() < target && now < 2_000_000 {
                        mc.tick(now, &mut out);
                        now += 1;
                    }
                }
            }
        }
        let base_lat = base.stats().avg_read_latency();
        let crow_lat = crow.stats().avg_read_latency();
        assert!(
            crow_lat < base_lat,
            "CROW latency {crow_lat} should beat baseline {base_lat}"
        );
        crow.channel().oracle().unwrap().assert_clean();
    }

    #[test]
    fn restore_before_evict_flow() {
        // 2 copy rows per subarray. Keep the bank contended so precharges
        // happen at the earliest legal point (before full restoration),
        // leaving cached pairs partially restored; the third distinct row
        // must then trigger the restore-before-evict flow of §4.1.4.
        let mut mc = crow_mc();
        let mut out = Vec::new();
        let mut id = 0u64;
        let mut now = 0u64;
        // Alternate among three rows of subarray 0 with the queue kept
        // non-empty, so each activation is closed early by the conflict.
        for round in 0..30 {
            for row in [1u32, 2, 3] {
                mc.try_enqueue(read(id, 0, row, (round % 8) as u32))
                    .unwrap();
                id += 1;
            }
            for _ in 0..400 {
                mc.tick(now, &mut out);
                now += 1;
            }
        }
        while mc.pending() > 0 && now < 2_000_000 {
            mc.tick(now, &mut out);
            now += 1;
        }
        assert_eq!(out.len() as u64, id);
        let crow_stats = *mc.crow().unwrap().stats();
        assert!(crow_stats.cache_installs >= 3);
        assert!(
            crow_stats.restore_evictions >= 1,
            "expected restore-before-evict events, stats: {crow_stats:?}"
        );
        assert!(mc.stats().restore_activations >= 1);
        mc.channel().oracle().unwrap().assert_clean();
    }

    #[test]
    fn crow_ref_redirects_and_halves_refresh() {
        use crow_core::RetentionProfile;
        let dram = DramConfig::tiny_test();
        let mut crow_cfg = CrowConfig::tiny_test();
        crow_cfg.cache = false;
        let mut crow = CrowSubstrate::new(crow_cfg);
        let weak = RetentionProfile::FixedPerSubarray { n: 1 }.generate(2, 8, 64, 2, 9);
        let remapped = crow.install_ref_plan(&weak);
        assert!(remapped > 0);
        let mut mc = MemController::new(McConfig::paper_default(), dram, Some(crow));
        let (b, sa, weak_row) = weak.iter_regular().next().unwrap();
        mc.try_enqueue(MemRequest::new(1, ReqKind::Read, 0, b, weak_row, 0, 0))
            .unwrap();
        let trefi = u64::from(mc.channel().config().timings.trefi);
        let done = run(&mut mc, trefi * 8);
        assert_eq!(done.len(), 1);
        assert_eq!(mc.crow().unwrap().stats().ref_redirects, 1);
        let _ = sa;
        // Extended interval: roughly half the refreshes of the baseline
        // over the same window.
        let mut base = baseline_mc();
        run(&mut base, trefi * 8);
        assert!(
            mc.stats().refreshes < base.stats().refreshes,
            "extended {} vs base {}",
            mc.stats().refreshes,
            base.stats().refreshes
        );
    }

    #[test]
    fn salp_mode_overlaps_subarrays() {
        let mut dram = DramConfig::tiny_test();
        dram.subarray_parallelism = true;
        dram.copy_rows_per_subarray = 0;
        let mut mc = MemController::new(McConfig::paper_default().with_open_page(), dram, None);
        // Two rows in different subarrays of the same bank.
        mc.try_enqueue(read(1, 0, 5, 0)).unwrap();
        mc.try_enqueue(read(2, 0, 300, 0)).unwrap();
        let done = run(&mut mc, 1000);
        assert_eq!(done.len(), 2);
        // No conflict precharge was needed.
        assert_eq!(mc.stats().row_conflicts, 0);
    }

    #[test]
    fn energy_accumulates() {
        let mut mc = baseline_mc();
        mc.try_enqueue(read(1, 0, 5, 0)).unwrap();
        run(&mut mc, 1000);
        let e = mc.energy();
        assert!(e.act_nj > 0.0);
        assert!(e.rd_nj > 0.0);
        assert!(e.background_nj > 0.0);
    }

    #[test]
    fn try_new_reports_invalid_configs() {
        let mut bad_mc = McConfig::paper_default();
        bad_mc.read_q = 0;
        let err = MemController::try_new(bad_mc, DramConfig::tiny_test(), None).unwrap_err();
        assert!(err.to_string().contains("invalid McConfig"));
        let mut bad_dram = DramConfig::tiny_test();
        bad_dram.banks = 6;
        let err = MemController::try_new(McConfig::paper_default(), bad_dram, None).unwrap_err();
        assert!(err.to_string().contains("invalid DramConfig"));
    }

    #[test]
    fn injected_bus_drop_loses_one_cycle_and_is_counted() {
        let mut mc = baseline_mc();
        mc.try_enqueue(read(1, 0, 5, 3)).unwrap();
        let mut reference = baseline_mc();
        reference.try_enqueue(read(1, 0, 5, 3)).unwrap();
        mc.drop_next_issue();
        let done = run(&mut mc, 300);
        let done_ref = run(&mut reference, 300);
        assert_eq!(mc.stats().bus_drops, 1);
        assert_eq!(reference.stats().bus_drops, 0);
        assert_eq!(done.len(), 1);
        // The dropped cycle delays the ACT by exactly one cycle.
        assert_eq!(done[0].latency, done_ref[0].latency + 1);
    }

    #[test]
    fn demand_activations_queue_hammer_copies() {
        let mut crow_cfg = CrowConfig::tiny_test();
        crow_cfg.hammer = Some(crow_core::HammerConfig {
            threshold: 4,
            window_cycles: 1_000_000,
        });
        let dram = DramConfig::tiny_test();
        let mut mc = MemController::new(
            McConfig::paper_default(),
            dram,
            Some(CrowSubstrate::new(crow_cfg)),
        );
        mc.attach_oracle();
        let mut now = 0;
        let mut out = Vec::new();
        // Each read runs to completion, and row 200 shares bank 0 with
        // row 10, so every read of row 10 is a fresh demand ACT.
        let mut read_row = |mc: &mut MemController, id: u64, row: u32| {
            mc.try_enqueue(read(id, 0, row, 0)).unwrap();
            while mc.pending() > 0 {
                mc.tick(now, &mut out);
                now += 1;
            }
        };
        for (id, row) in [10, 200, 10, 200, 10, 200].into_iter().enumerate() {
            read_row(&mut mc, id as u64, row);
        }
        // Three activations of row 10 stay below the threshold.
        assert_eq!(mc.crow().unwrap().hammer_detections(), 0);
        assert_eq!(mc.stats().hammer_copies, 0);
        // The fourth crosses it: both neighbours get ACT-c copies.
        read_row(&mut mc, 6, 10);
        assert_eq!(mc.crow().unwrap().hammer_detections(), 1);
        assert_eq!(mc.stats().hammer_copies, 2);
        mc.channel().oracle().unwrap().assert_clean();
    }

    #[test]
    fn validator_stays_clean_across_controller_traffic() {
        let mut mc = crow_mc();
        mc.attach_validator();
        for i in 0..32 {
            let _ = mc.try_enqueue(read(i, (i % 2) as u32, (i * 37 % 128) as u32, 0));
        }
        let _ = run(&mut mc, 20_000);
        let v = mc.channel().validator().expect("attached");
        assert!(v.observed() > 0);
        v.assert_clean();
    }

    #[test]
    fn fcfs_serves_in_order_across_rows() {
        let mut cfg = McConfig::paper_default();
        cfg.sched = SchedKind::Fcfs;
        let mut dram = DramConfig::tiny_test();
        dram.copy_rows_per_subarray = 0;
        let mut mc = MemController::new(cfg, dram, None);
        mc.try_enqueue(read(1, 0, 5, 0)).unwrap();
        mc.try_enqueue(read(2, 0, 200, 0)).unwrap();
        mc.try_enqueue(read(3, 0, 5, 1)).unwrap();
        let done = run(&mut mc, 2000);
        assert_eq!(done.len(), 3);
    }
}
