//! The DRAM channel: the timing engine that checks and applies every
//! command against the full LPDDR4 constraint set, including the CROW
//! multiple-row-activation flavours.

use std::collections::VecDeque;

use crate::bank::{Activation, BankState, OpenRow, RestoreState};
use crate::command::{ActKind, CmdDesc, Command, RowAddr};
use crate::config::DramConfig;
use crate::error::{ConfigError, IssueError};
use crate::oracle::DataOracle;
use crate::stats::ChannelStats;
use crate::timing::scale_cycles;
use crate::validator::ShadowValidator;
use crate::Cycle;

/// Rank-level timing state.
#[derive(Debug, Clone)]
struct RankState {
    banks: Vec<BankState>,
    /// Earliest next activate anywhere in the rank (`tRRD_S`, `tFAW`).
    next_act: Cycle,
    /// Earliest next activate per bank group (`tRRD_L`).
    next_act_group: Vec<Cycle>,
    /// Earliest next `RD` (`tCCD_S`, write-to-read turnaround).
    next_rd: Cycle,
    /// Earliest next `RD` per bank group (`tCCD_L`).
    next_rd_group: Vec<Cycle>,
    /// Earliest next `WR` (`tCCD_S`, read-to-write turnaround).
    next_wr: Cycle,
    /// Earliest next `WR` per bank group (`tCCD_L`).
    next_wr_group: Vec<Cycle>,
    /// Issue times of the most recent activates, for `tFAW`.
    faw: VecDeque<Cycle>,
    /// Earliest cycle a `REF` may issue (`tRP` after the latest `PRE`).
    ref_ready: Cycle,
    /// Earliest next per-bank refresh (`tpbR2pbR`).
    next_refpb: Cycle,
}

impl RankState {
    fn new(banks: u32, subarrays: u32, groups: u32) -> Self {
        Self {
            banks: (0..banks).map(|_| BankState::new(subarrays)).collect(),
            next_act: 0,
            next_act_group: vec![0; groups as usize],
            next_rd: 0,
            next_rd_group: vec![0; groups as usize],
            next_wr: 0,
            next_wr_group: vec![0; groups as usize],
            faw: VecDeque::with_capacity(4),
            ref_ready: 0,
            next_refpb: 0,
        }
    }
}

/// A row that a `PRE` just closed, reported to the controller so it can
/// update CROW-table restoration state (paper §4.1.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosedRow {
    /// Subarray whose row buffer was precharged.
    pub subarray: u32,
    /// What was open.
    pub open: OpenRow,
    /// Whether the cells ended fully or partially restored.
    pub restore: RestoreState,
    /// How long the sense amplifiers drove restoration, in cycles
    /// (capped at the full-restoration point) — used by the energy model:
    /// early-terminated restoration transfers less charge (paper §4.1.3).
    pub restore_drive: u64,
}

/// Side effects of issuing a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IssueFx {
    /// Set by `PRE`: the row(s) that closed and their restoration outcome.
    pub closed: Option<ClosedRow>,
    /// Set by `RD`: the cycle at which the burst completes on the data bus.
    pub read_done: Option<Cycle>,
    /// Set by `WR`: the cycle at which the burst completes on the data bus.
    pub write_done: Option<Cycle>,
}

/// One DRAM channel: ranks of banks of subarrays, with full command
/// legality checking.
///
/// The controller drives the channel with a *check-then-issue* protocol:
/// [`DramChannel::ready_at`] reports the earliest legal issue cycle for a
/// command (or a structural error), and [`DramChannel::issue`] applies it.
/// `issue` debug-asserts legality, so any scheduler bug that would violate
/// a JEDEC timing constraint is caught in tests.
#[derive(Debug, Clone)]
pub struct DramChannel {
    cfg: DramConfig,
    ranks: Vec<RankState>,
    /// Command bus occupancy: next free cycle.
    cmd_bus_free: Cycle,
    stats: ChannelStats,
    oracle: Option<DataOracle>,
    /// Optional shadow protocol validator cross-checking every issued
    /// command against an independent state machine.
    validator: Option<Box<ShadowValidator>>,
}

impl DramChannel {
    /// Creates a channel in the all-banks-closed state.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`DramConfig::validate`]; use
    /// [`DramChannel::try_new`] to handle the failure instead.
    pub fn new(cfg: DramConfig) -> Self {
        match Self::try_new(cfg) {
            Ok(ch) => ch,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a channel in the all-banks-closed state, validating the
    /// configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] if `cfg` fails [`DramConfig::validate`].
    pub fn try_new(cfg: DramConfig) -> Result<Self, ConfigError> {
        cfg.validate()
            .map_err(|reason| ConfigError::new("DramConfig", reason))?;
        let ranks = (0..cfg.ranks)
            .map(|_| RankState::new(cfg.banks, cfg.subarrays_per_bank(), cfg.bank_groups))
            .collect();
        Ok(Self {
            cfg,
            ranks,
            cmd_bus_free: 0,
            stats: ChannelStats::new(),
            oracle: None,
            validator: None,
        })
    }

    /// Attaches a functional data-integrity oracle; every subsequent
    /// command is cross-checked (intended for tests).
    pub fn attach_oracle(&mut self) {
        self.oracle = Some(DataOracle::with_geometry(self.cfg.rows_per_subarray));
    }

    /// The attached oracle, if any.
    pub fn oracle(&self) -> Option<&DataOracle> {
        self.oracle.as_ref()
    }

    /// Mirrors one functional fast-forward activation into the attached
    /// oracle (no-op without one). Interval sampling advances the CROW
    /// table without issuing commands, so the data-movement side
    /// effects the detailed command stream would have carried — `ACT-c`
    /// content adoption, `ACT-t` content checks, the restoration
    /// outcome at the closing precharge — are replayed here to keep the
    /// oracle's shadow state consistent across sampled runs.
    pub fn warm_act(&mut self, rank: u32, bank: u32, kind: ActKind, restore: RestoreState) {
        let Some(o) = self.oracle.as_mut() else {
            return;
        };
        o.on_act(rank, bank, kind);
        let open = match kind {
            ActKind::Single(addr) => OpenRow::Single(addr),
            ActKind::Copy { src, copy } => OpenRow::Pair { row: src, copy },
            ActKind::Twin { row, copy, .. } => OpenRow::Pair { row, copy },
        };
        o.on_pre(rank, bank, open, restore);
    }

    /// Functionally closes every open row, as if the scheduler had
    /// issued a `PRE` to each at `now` (or at the earliest cycle its
    /// `tRAS`/`tWR` restore deadline allows, whichever is later). Used
    /// at sampling fast-forward boundaries: the functional advance
    /// mutates CROW-table state directly, and a stale open pair
    /// surviving from the drained segment would write through rows
    /// whose table entries no longer exist. The oracle, shadow
    /// validator and timing state are settled exactly as for issued
    /// precharges; returns one record per closed row so the controller
    /// can settle its own bookkeeping.
    pub fn close_all_open(&mut self, now: Cycle) -> Vec<(u32, u32, ClosedRow)> {
        let mut closed = Vec::new();
        for r in 0..self.cfg.ranks {
            for b in 0..self.cfg.banks {
                for s in 0..self.cfg.subarrays_per_bank() {
                    if self.open_count(r, b) == 0 {
                        break;
                    }
                    if let Some(act) = self.subarray_activation(r, b, s) {
                        let at = now.max(act.min_pre);
                        closed.push((r, b, self.close(r, b, s, at)));
                    }
                }
            }
        }
        if !closed.is_empty() {
            if let Some(v) = self.validator.as_mut() {
                v.force_close_all(now);
            }
        }
        closed
    }

    /// Precharges subarray `sa` of (`rank`, `bank`) at `at`: the cells'
    /// restore outcome goes to the oracle and back to the caller, and
    /// the bank and rank wait `tRP` before their next `ACT` and `REF`.
    /// An open subarray's `next_act` is never later than its activation,
    /// so `at + tRP` replaces it.
    fn close(&mut self, rank: u32, bank: u32, sa: u32, at: Cycle) -> ClosedRow {
        let trp = u64::from(self.cfg.timings.trp);
        let r = &mut self.ranks[rank as usize];
        let b = &mut r.banks[bank as usize];
        let sub = &mut b.subarrays[sa as usize];
        let act = sub
            .open
            .take()
            .expect("close of a subarray with no open row");
        sub.next_act = at + trp;
        b.open_count -= 1;
        if !self.cfg.subarray_parallelism {
            b.next_act = b.next_act.max(at + trp);
        }
        r.ref_ready = r.ref_ready.max(at + trp);
        let restore = act.restored_if_closed_at(at);
        if let Some(o) = self.oracle.as_mut() {
            o.on_pre(rank, bank, act.open, restore);
        }
        ClosedRow {
            subarray: sa,
            open: act.open,
            restore,
            restore_drive: at.min(act.full_restore_at) - act.opened_at,
        }
    }

    /// Attaches a shadow protocol validator; every subsequent command is
    /// cross-checked against an independent state machine and violations
    /// are recorded (never asserted).
    pub fn attach_validator(&mut self) {
        self.validator = Some(Box::new(ShadowValidator::new(&self.cfg)));
    }

    /// The attached shadow validator, if any.
    pub fn validator(&self) -> Option<&ShadowValidator> {
        self.validator.as_deref()
    }

    /// Mutable access to the attached shadow validator (e.g. to enable
    /// the refresh-gap check or run end-of-stream checks).
    pub fn validator_mut(&mut self) -> Option<&mut ShadowValidator> {
        self.validator.as_deref_mut()
    }

    /// The channel configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Command issue counters.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// The open activation of `bank` (commodity mode: at most one).
    pub fn open_activation(&self, rank: u32, bank: u32) -> Option<(u32, &Activation)> {
        self.ranks[rank as usize].banks[bank as usize].open_activation()
    }

    /// The activation open in a specific subarray, if any.
    pub fn subarray_activation(&self, rank: u32, bank: u32, subarray: u32) -> Option<&Activation> {
        self.ranks[rank as usize].banks[bank as usize].subarrays[subarray as usize]
            .open
            .as_ref()
    }

    /// Number of open row buffers in `bank`.
    pub fn open_count(&self, rank: u32, bank: u32) -> u32 {
        self.ranks[rank as usize].banks[bank as usize].open_count
    }

    /// Whether every bank of `rank` is precharged (required before `REF`).
    pub fn all_banks_closed(&self, rank: u32) -> bool {
        self.ranks[rank as usize]
            .banks
            .iter()
            .all(|b| !b.any_open())
    }

    /// Earliest legal issue cycle for `d`, or a structural error if the
    /// device state cannot accept the command at any time.
    ///
    /// # Errors
    ///
    /// [`IssueError::WrongState`] if the command does not fit the current
    /// open/closed state; [`IssueError::BadAddress`] if it addresses
    /// outside the configured geometry.
    pub fn ready_at(&self, d: &CmdDesc) -> Result<Cycle, IssueError> {
        self.validate_addr(d)?;
        let rank = &self.ranks[d.rank as usize];
        let mut ready = self.cmd_bus_free;
        match d.cmd {
            Command::Act | Command::ActC | Command::ActT => {
                let kind = d
                    .act
                    .ok_or(IssueError::WrongState("activate without ActKind"))?;
                let sa = kind.subarray(self.cfg.rows_per_subarray);
                let bank = &rank.banks[d.bank as usize];
                let sa_state = &bank.subarrays[sa as usize];
                if sa_state.open.is_some() {
                    return Err(IssueError::WrongState("subarray already open"));
                }
                if !self.cfg.subarray_parallelism && bank.any_open() {
                    return Err(IssueError::WrongState("bank already has an open row"));
                }
                let group = self.cfg.bank_group_of(d.bank) as usize;
                ready = ready
                    .max(sa_state.next_act)
                    .max(rank.next_act)
                    .max(rank.next_act_group[group]);
                if !self.cfg.subarray_parallelism {
                    ready = ready.max(bank.next_act);
                }
                if rank.faw.len() == 4 {
                    ready = ready.max(rank.faw[0] + u64::from(self.cfg.timings.tfaw));
                }
            }
            Command::Rd | Command::Wr => {
                let (_, act) = self.resolve_open(d)?;
                let group = self.cfg.bank_group_of(d.bank) as usize;
                let col_ready = if d.cmd == Command::Rd {
                    act.ready_rd
                        .max(rank.next_rd)
                        .max(rank.next_rd_group[group])
                } else {
                    act.ready_wr
                        .max(rank.next_wr)
                        .max(rank.next_wr_group[group])
                };
                ready = ready.max(col_ready);
            }
            Command::Pre => {
                let (_, act) = self.resolve_open(d)?;
                ready = ready.max(act.min_pre);
            }
            Command::Ref => {
                if !self.all_banks_closed(d.rank) {
                    return Err(IssueError::WrongState("REF requires all banks closed"));
                }
                ready = ready.max(rank.ref_ready);
                for b in &rank.banks {
                    ready = ready.max(b.next_act.saturating_sub(u64::from(self.cfg.timings.trp)));
                }
            }
            Command::RefPb => {
                let bank = &rank.banks[d.bank as usize];
                if bank.any_open() {
                    return Err(IssueError::WrongState("REFpb requires the bank closed"));
                }
                ready = ready.max(rank.next_refpb).max(
                    bank.next_act
                        .saturating_sub(u64::from(self.cfg.timings.trp)),
                );
                for sa in &bank.subarrays {
                    ready = ready.max(sa.next_act.saturating_sub(u64::from(self.cfg.timings.trp)));
                }
            }
        }
        Ok(ready)
    }

    /// Checks whether `d` may issue at `now`.
    ///
    /// # Errors
    ///
    /// [`IssueError::TooEarly`] with the earliest legal cycle, or the
    /// structural errors of [`DramChannel::ready_at`].
    pub fn check(&self, d: &CmdDesc, now: Cycle) -> Result<(), IssueError> {
        let ready = self.ready_at(d)?;
        if ready > now {
            Err(IssueError::TooEarly { ready_at: ready })
        } else {
            Ok(())
        }
    }

    /// Issues `d` at cycle `now`, updating all timing state.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the command is not legal at `now`
    /// (schedulers must call [`DramChannel::check`] first).
    pub fn issue(&mut self, d: &CmdDesc, now: Cycle) -> IssueFx {
        if let Some(v) = self.validator.as_deref_mut() {
            v.observe(d, now);
        }
        debug_assert!(
            self.check(d, now).is_ok(),
            "illegal issue of {:?} at {now}: {:?}",
            d,
            self.check(d, now)
        );
        self.stats.record(d.cmd);
        let extra = if matches!(d.cmd, Command::ActC | Command::ActT) {
            u64::from(self.cfg.mra_extra_cmd_cycles)
        } else {
            0
        };
        self.cmd_bus_free = now + 1 + extra;
        let t = self.cfg.timings;
        let mra = self.cfg.mra;
        let mut fx = IssueFx::default();
        match d.cmd {
            Command::Act | Command::ActC | Command::ActT => {
                let kind = d.act.expect("activate without ActKind");
                let sa = kind.subarray(self.cfg.rows_per_subarray);
                let (open, mut tmod) = match kind {
                    ActKind::Single(addr) => (
                        OpenRow::Single(addr),
                        crate::timing::ActTimingMod::identity(),
                    ),
                    ActKind::Copy { src, copy } => (OpenRow::Pair { row: src, copy }, mra.act_c),
                    ActKind::Twin {
                        row,
                        copy,
                        fully_restored,
                    } => {
                        let m = if fully_restored {
                            mra.act_t_full
                        } else {
                            mra.act_t_partial
                        };
                        (OpenRow::Pair { row, copy }, m)
                    }
                };
                if let Some(m) = d.act_mod {
                    tmod = m;
                }
                let trcd_eff = u64::from(scale_cycles(t.trcd, tmod.trcd));
                let tras_early = u64::from(scale_cycles(t.tras, tmod.tras_early));
                let tras_full = u64::from(scale_cycles(t.tras, tmod.tras_full));
                let act = Activation {
                    open,
                    opened_at: now,
                    ready_rd: now + trcd_eff,
                    ready_wr: now + trcd_eff,
                    min_pre: now + tras_early,
                    full_restore_at: now + tras_full,
                    last_use: now,
                };
                if let Some(o) = self.oracle.as_mut() {
                    o.on_act(d.rank, d.bank, kind);
                }
                let group = self.cfg.bank_group_of(d.bank) as usize;
                let rank = &mut self.ranks[d.rank as usize];
                let bank = &mut rank.banks[d.bank as usize];
                bank.subarrays[sa as usize].open = Some(act);
                bank.open_count += 1;
                bank.last_opened = sa;
                rank.next_act = rank.next_act.max(now + u64::from(t.trrd));
                rank.next_act_group[group] =
                    rank.next_act_group[group].max(now + u64::from(t.trrd_l));
                if rank.faw.len() == 4 {
                    rank.faw.pop_front();
                }
                rank.faw.push_back(now);
            }
            Command::Rd => {
                let (sa, _) = self.resolve_open(d).expect("RD without open row");
                let done = now + u64::from(t.rl) + u64::from(t.tbl);
                fx.read_done = Some(done);
                if let Some(o) = self.oracle.as_mut() {
                    o.note_read(d.rank, d.bank);
                }
                let group = self.cfg.bank_group_of(d.bank) as usize;
                let rank = &mut self.ranks[d.rank as usize];
                let act = rank.banks[d.bank as usize].subarrays[sa as usize]
                    .open
                    .as_mut()
                    .expect("resolved open row vanished");
                act.last_use = now;
                act.min_pre = act.min_pre.max(now + u64::from(t.trtp));
                rank.next_rd = rank.next_rd.max(now + u64::from(t.tccd));
                rank.next_rd_group[group] =
                    rank.next_rd_group[group].max(now + u64::from(t.tccd_l));
                // Read-to-write turnaround: write data may not be driven
                // until the read burst has left the bus.
                let rtw =
                    (now + u64::from(t.rl) + u64::from(t.tbl) + 2).saturating_sub(u64::from(t.wl));
                rank.next_wr = rank.next_wr.max(rtw).max(now + u64::from(t.tccd));
            }
            Command::Wr => {
                let (sa, act_ro) = self.resolve_open(d).expect("WR without open row");
                let open = act_ro.open;
                let data_end = now + u64::from(t.wl) + u64::from(t.tbl);
                fx.write_done = Some(data_end);
                // Write recovery scales with the MRA flavour: restoring two
                // cells takes longer (paper Table 1: tWR +14% full / -13%
                // early-terminated; identical for ACT-c and ACT-t).
                let (twr_early, twr_full) = match open {
                    OpenRow::Single(_) => (t.twr, t.twr),
                    OpenRow::Pair { .. } => (
                        scale_cycles(t.twr, mra.act_t_full.twr_early),
                        scale_cycles(t.twr, mra.act_t_full.twr_full),
                    ),
                };
                if let Some(o) = self.oracle.as_mut() {
                    o.on_write(d.rank, d.bank, open);
                }
                let group = self.cfg.bank_group_of(d.bank) as usize;
                let rank = &mut self.ranks[d.rank as usize];
                let act = rank.banks[d.bank as usize].subarrays[sa as usize]
                    .open
                    .as_mut()
                    .expect("resolved open row vanished");
                act.last_use = now;
                act.min_pre = act.min_pre.max(data_end + u64::from(twr_early));
                act.full_restore_at = act.full_restore_at.max(data_end + u64::from(twr_full));
                rank.next_wr = rank.next_wr.max(now + u64::from(t.tccd));
                rank.next_wr_group[group] =
                    rank.next_wr_group[group].max(now + u64::from(t.tccd_l));
                rank.next_rd = rank.next_rd.max(data_end + u64::from(t.twtr));
            }
            Command::Pre => {
                let (sa, _) = self.resolve_open(d).expect("PRE without open row");
                fx.closed = Some(self.close(d.rank, d.bank, sa, now));
            }
            Command::Ref => {
                let rank = &mut self.ranks[d.rank as usize];
                let busy_until = now + u64::from(t.trfc);
                for bank in &mut rank.banks {
                    bank.next_act = bank.next_act.max(busy_until);
                    for s in &mut bank.subarrays {
                        s.next_act = s.next_act.max(busy_until);
                    }
                }
            }
            Command::RefPb => {
                let rank = &mut self.ranks[d.rank as usize];
                let busy_until = now + u64::from(t.trfc_pb);
                let bank = &mut rank.banks[d.bank as usize];
                bank.next_act = bank.next_act.max(busy_until);
                for s in &mut bank.subarrays {
                    s.next_act = s.next_act.max(busy_until);
                }
                rank.next_refpb = now + u64::from(t.tpbr2pbr);
            }
        }
        fx
    }

    /// Resolves the activation a column/precharge command targets.
    fn resolve_open(&self, d: &CmdDesc) -> Result<(u32, &Activation), IssueError> {
        let bank = &self.ranks[d.rank as usize].banks[d.bank as usize];
        if let Some(sa) = d.subarray {
            if sa as usize >= bank.subarrays.len() {
                return Err(IssueError::BadAddress("subarray out of range"));
            }
            bank.subarrays[sa as usize]
                .open
                .as_ref()
                .map(|a| (sa, a))
                .ok_or(IssueError::WrongState("target subarray has no open row"))
        } else {
            bank.open_activation()
                .ok_or(IssueError::WrongState("bank has no open row"))
        }
    }

    /// Validates command addressing against the geometry.
    fn validate_addr(&self, d: &CmdDesc) -> Result<(), IssueError> {
        if d.rank >= self.cfg.ranks {
            return Err(IssueError::BadAddress("rank out of range"));
        }
        if d.cmd != Command::Ref && d.bank >= self.cfg.banks {
            return Err(IssueError::BadAddress("bank out of range"));
        }
        if let Some(kind) = d.act {
            let check_row = |r: u32| -> Result<(), IssueError> {
                if r >= self.cfg.rows_per_bank {
                    Err(IssueError::BadAddress("row out of range"))
                } else {
                    Ok(())
                }
            };
            let check_copy = |c: u8| -> Result<(), IssueError> {
                if c >= self.cfg.copy_rows_per_subarray {
                    Err(IssueError::BadAddress("copy row out of range"))
                } else {
                    Ok(())
                }
            };
            match kind {
                ActKind::Single(RowAddr::Regular(r)) => check_row(r)?,
                ActKind::Single(RowAddr::Copy { subarray, idx }) => {
                    if subarray >= self.cfg.subarrays_per_bank() {
                        return Err(IssueError::BadAddress("subarray out of range"));
                    }
                    check_copy(idx)?;
                }
                ActKind::Copy { src, copy } => {
                    check_row(src)?;
                    check_copy(copy)?;
                }
                ActKind::Twin { row, copy, .. } => {
                    check_row(row)?;
                    check_copy(copy)?;
                }
            }
        }
        if let Some(col) = d.col {
            if col >= self.cfg.cols_per_row() {
                return Err(IssueError::BadAddress("column out of range"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;

    fn ch() -> DramChannel {
        DramChannel::new(DramConfig::tiny_test())
    }

    #[test]
    fn act_then_rd_obeys_trcd() {
        let mut c = ch();
        let t = c.config().timings;
        c.issue(&CmdDesc::act(0, 0, ActKind::single(5)), 0);
        let rd = CmdDesc::rd(0, 0, 0);
        assert_eq!(
            c.check(&rd, u64::from(t.trcd) - 1),
            Err(IssueError::TooEarly {
                ready_at: u64::from(t.trcd)
            })
        );
        assert!(c.check(&rd, u64::from(t.trcd)).is_ok());
    }

    #[test]
    fn act_on_open_bank_rejected_in_commodity_mode() {
        let mut c = ch();
        c.issue(&CmdDesc::act(0, 0, ActKind::single(5)), 0);
        let act2 = CmdDesc::act(0, 0, ActKind::single(300));
        assert!(matches!(
            c.check(&act2, 10_000),
            Err(IssueError::WrongState(_))
        ));
    }

    #[test]
    fn salp_mode_allows_open_rows_in_different_subarrays() {
        let mut cfg = DramConfig::tiny_test();
        cfg.subarray_parallelism = true;
        let mut c = DramChannel::new(cfg);
        let t = c.config().timings;
        c.issue(&CmdDesc::act(0, 0, ActKind::single(5)), 0);
        // Row 300 lives in a different subarray (64 rows per subarray).
        let act2 = CmdDesc::act(0, 0, ActKind::single(300));
        let ready = c.ready_at(&act2).unwrap();
        assert_eq!(ready, u64::from(t.trrd));
        c.issue(&act2, ready);
        assert_eq!(c.open_count(0, 0), 2);
        // Same subarray still conflicts.
        let act3 = CmdDesc::act(0, 0, ActKind::single(6));
        assert!(matches!(
            c.check(&act3, 10_000),
            Err(IssueError::WrongState(_))
        ));
    }

    #[test]
    fn pre_before_tras_rejected() {
        let mut c = ch();
        let t = c.config().timings;
        c.issue(&CmdDesc::act(0, 0, ActKind::single(5)), 0);
        let pre = CmdDesc::pre(0, 0);
        assert!(matches!(
            c.check(&pre, u64::from(t.tras) - 1),
            Err(IssueError::TooEarly { .. })
        ));
        assert!(c.check(&pre, u64::from(t.tras)).is_ok());
    }

    #[test]
    fn act_t_reduces_trcd() {
        let mut c = ch();
        let t = c.config().timings;
        let m = c.config().mra;
        c.issue(
            &CmdDesc::act(
                0,
                0,
                ActKind::Twin {
                    row: 5,
                    copy: 0,
                    fully_restored: true,
                },
            ),
            0,
        );
        let rd = CmdDesc::rd(0, 0, 0);
        let expect = u64::from(scale_cycles(t.trcd, m.act_t_full.trcd));
        assert_eq!(c.ready_at(&rd).unwrap(), expect);
        assert!(expect < u64::from(t.trcd));
    }

    #[test]
    fn early_pre_reports_partial_restore() {
        let mut c = ch();
        let t = c.config().timings;
        let m = c.config().mra;
        c.issue(
            &CmdDesc::act(
                0,
                0,
                ActKind::Twin {
                    row: 5,
                    copy: 0,
                    fully_restored: true,
                },
            ),
            0,
        );
        let min_pre = u64::from(scale_cycles(t.tras, m.act_t_full.tras_early));
        let fx = c.issue(&CmdDesc::pre(0, 0), min_pre);
        let closed = fx.closed.unwrap();
        assert_eq!(closed.restore, RestoreState::Partial);
        assert_eq!(closed.open, OpenRow::Pair { row: 5, copy: 0 });
    }

    #[test]
    fn late_pre_reports_full_restore() {
        let mut c = ch();
        let t = c.config().timings;
        c.issue(&CmdDesc::act(0, 0, ActKind::Copy { src: 5, copy: 1 }), 0);
        // ACT-c full restoration threshold is tRAS * 1.18.
        let full_at = u64::from(scale_cycles(t.tras, c.config().mra.act_c.tras_full));
        let fx = c.issue(&CmdDesc::pre(0, 0), full_at);
        assert_eq!(fx.closed.unwrap().restore, RestoreState::Full);
    }

    #[test]
    fn write_extends_restore_deadline() {
        let mut c = ch();
        let t = c.config().timings;
        c.issue(&CmdDesc::act(0, 0, ActKind::single(5)), 0);
        let wr = CmdDesc::wr(0, 0, 2);
        let wr_at = c.ready_at(&wr).unwrap();
        c.issue(&wr, wr_at);
        let pre = CmdDesc::pre(0, 0);
        let expect = wr_at + u64::from(t.wl) + u64::from(t.tbl) + u64::from(t.twr);
        assert_eq!(c.ready_at(&pre).unwrap(), expect);
    }

    #[test]
    fn read_write_turnarounds_enforced() {
        let mut c = ch();
        let t = c.config().timings;
        c.issue(&CmdDesc::act(0, 0, ActKind::single(5)), 0);
        let rd = CmdDesc::rd(0, 0, 0);
        let rd_at = c.ready_at(&rd).unwrap();
        c.issue(&rd, rd_at);
        // Read-to-write: the write burst may not start until the read
        // burst has left the shared data bus.
        let wr = CmdDesc::wr(0, 0, 1);
        let expect_rtw = rd_at + u64::from(t.rl) + u64::from(t.tbl) + 2 - u64::from(t.wl);
        assert_eq!(c.ready_at(&wr).unwrap(), expect_rtw);
        let wr_at = c.ready_at(&wr).unwrap();
        c.issue(&wr, wr_at);
        // Write-to-read: tWTR after the write burst completes.
        let rd2 = CmdDesc::rd(0, 0, 2);
        let expect_wtr = wr_at + u64::from(t.wl) + u64::from(t.tbl) + u64::from(t.twtr);
        assert_eq!(c.ready_at(&rd2).unwrap(), expect_wtr);
    }

    #[test]
    fn tfaw_limits_activation_rate() {
        let cfg = DramConfig::tiny_test();
        let t = cfg.timings;
        let mut c = DramChannel::new(cfg);
        let mut first_act = None;
        // Activate banks 0 and 1, precharge, re-activate: 4 activations.
        for i in 0..4u32 {
            let bank = i % 2;
            let act = CmdDesc::act(0, bank, ActKind::single(i * 70));
            let at = c.ready_at(&act).unwrap();
            c.issue(&act, at);
            first_act.get_or_insert(at);
            let pre = CmdDesc::pre(0, bank);
            let pre_at = c.ready_at(&pre).unwrap();
            c.issue(&pre, pre_at);
        }
        // The 5th activation must wait for the FAW window from the 1st.
        let act5 = CmdDesc::act(0, 0, ActKind::single(400));
        let ready = c.ready_at(&act5).unwrap();
        assert!(ready >= first_act.unwrap() + u64::from(t.tfaw));
        assert_eq!(c.stats().total_activations(), 4);
    }

    #[test]
    fn bank_groups_enforce_tccd_l_within_and_tccd_s_across() {
        let mut cfg = crate::config::DramConfig::ddr4_default();
        cfg.ranks = 1;
        let t = cfg.timings;
        assert!(t.tccd_l > t.tccd);
        let mut c = DramChannel::new(cfg);
        // Open a row in banks 0 (group 0), 1 (group 0), and 4 (group 1).
        for bank in [0u32, 1, 4] {
            let act = CmdDesc::act(0, bank, ActKind::single(5));
            let at = c.ready_at(&act).unwrap();
            c.issue(&act, at);
        }
        // Wait until every opened row is past its own tRCD so the only
        // remaining constraint is column spacing.
        let warm = [0u32, 1, 4]
            .iter()
            .map(|&b| c.ready_at(&CmdDesc::rd(0, b, 0)).unwrap())
            .max()
            .unwrap();
        let rd0 = CmdDesc::rd(0, 0, 0);
        let at0 = c.ready_at(&rd0).unwrap().max(warm);
        c.issue(&rd0, at0);
        // Same group (bank 1): must wait tCCD_L.
        let rd_same = CmdDesc::rd(0, 1, 0);
        assert_eq!(c.ready_at(&rd_same).unwrap(), at0 + u64::from(t.tccd_l));
        // Different group (bank 4): only tCCD_S.
        let rd_cross = CmdDesc::rd(0, 4, 0);
        assert_eq!(c.ready_at(&rd_cross).unwrap(), at0 + u64::from(t.tccd));
    }

    #[test]
    fn bank_groups_enforce_trrd_l() {
        let mut cfg = crate::config::DramConfig::ddr4_default();
        cfg.ranks = 1;
        let t = cfg.timings;
        let mut c = DramChannel::new(cfg);
        c.issue(&CmdDesc::act(0, 0, ActKind::single(5)), 0);
        // Same group: tRRD_L; cross group: tRRD_S.
        let same = CmdDesc::act(0, 1, ActKind::single(5));
        let cross = CmdDesc::act(0, 4, ActKind::single(5));
        assert_eq!(c.ready_at(&same).unwrap(), u64::from(t.trrd_l));
        assert_eq!(c.ready_at(&cross).unwrap(), u64::from(t.trrd));
    }

    #[test]
    fn refresh_requires_closed_banks_and_blocks_activates() {
        let mut c = ch();
        let t = c.config().timings;
        c.issue(&CmdDesc::act(0, 0, ActKind::single(5)), 0);
        assert!(matches!(
            c.check(&CmdDesc::refresh(0), 10_000),
            Err(IssueError::WrongState(_))
        ));
        let pre_at = c.ready_at(&CmdDesc::pre(0, 0)).unwrap();
        c.issue(&CmdDesc::pre(0, 0), pre_at);
        let ref_at = c.ready_at(&CmdDesc::refresh(0)).unwrap();
        assert_eq!(ref_at, pre_at + u64::from(t.trp));
        c.issue(&CmdDesc::refresh(0), ref_at);
        let act = CmdDesc::act(0, 1, ActKind::single(0));
        assert_eq!(c.ready_at(&act).unwrap(), ref_at + u64::from(t.trfc));
    }

    #[test]
    fn per_bank_refresh_keeps_other_banks_usable() {
        let mut c = ch();
        let t = c.config().timings;
        // Refresh bank 0; bank 1 must accept an ACT during tRFCpb.
        let refpb = CmdDesc::refresh_bank(0, 0);
        assert!(c.check(&refpb, 0).is_ok());
        c.issue(&refpb, 0);
        let act_other = CmdDesc::act(0, 1, ActKind::single(3));
        assert!(c.check(&act_other, 1).is_ok(), "bank 1 usable during REFpb");
        // Bank 0 itself is busy until tRFCpb.
        let act_same = CmdDesc::act(0, 0, ActKind::single(3));
        assert_eq!(c.ready_at(&act_same).unwrap(), u64::from(t.trfc_pb));
        assert_eq!(c.stats().issued(Command::RefPb), 1);
    }

    #[test]
    fn per_bank_refresh_spacing_enforced() {
        let mut c = ch();
        let t = c.config().timings;
        c.issue(&CmdDesc::refresh_bank(0, 0), 0);
        let next = CmdDesc::refresh_bank(0, 1);
        assert_eq!(c.ready_at(&next).unwrap(), u64::from(t.tpbr2pbr));
    }

    #[test]
    fn per_bank_refresh_requires_closed_bank() {
        let mut c = ch();
        c.issue(&CmdDesc::act(0, 0, ActKind::single(5)), 0);
        assert!(matches!(
            c.check(&CmdDesc::refresh_bank(0, 0), 10_000),
            Err(IssueError::WrongState(_))
        ));
        // Other banks can still refresh.
        assert!(c.check(&CmdDesc::refresh_bank(0, 1), 10_000).is_ok());
    }

    #[test]
    fn bad_addresses_rejected() {
        let c = ch();
        assert!(matches!(
            c.ready_at(&CmdDesc::act(0, 9, ActKind::single(0))),
            Err(IssueError::BadAddress(_))
        ));
        assert!(matches!(
            c.ready_at(&CmdDesc::act(0, 0, ActKind::single(100_000))),
            Err(IssueError::BadAddress(_))
        ));
        assert!(matches!(
            c.ready_at(&CmdDesc::act(0, 0, ActKind::Copy { src: 0, copy: 9 })),
            Err(IssueError::BadAddress(_))
        ));
        assert!(matches!(
            c.ready_at(&CmdDesc::rd(0, 0, 1 << 20)),
            Err(IssueError::BadAddress(_))
        ));
    }

    #[test]
    fn rd_without_open_row_rejected() {
        let c = ch();
        assert!(matches!(
            c.ready_at(&CmdDesc::rd(0, 0, 0)),
            Err(IssueError::WrongState(_))
        ));
    }

    #[test]
    fn act_c_keeps_baseline_trcd_but_raises_tras() {
        let mut c = ch();
        let t = c.config().timings;
        let m = c.config().mra;
        c.issue(&CmdDesc::act(0, 0, ActKind::Copy { src: 5, copy: 0 }), 0);
        assert_eq!(
            c.ready_at(&CmdDesc::rd(0, 0, 0)).unwrap(),
            u64::from(t.trcd)
        );
        // Earliest PRE for ACT-c is the early-termination point (tRAS·0.93).
        let expect_pre = u64::from(scale_cycles(t.tras, m.act_c.tras_early));
        assert_eq!(c.ready_at(&CmdDesc::pre(0, 0)).unwrap(), expect_pre);
    }

    #[test]
    fn mra_commands_occupy_extra_command_bus_cycle() {
        let mut c = ch();
        c.issue(&CmdDesc::act(0, 0, ActKind::Copy { src: 5, copy: 0 }), 0);
        // Next command cannot issue at cycle 1 (bus busy with copy-row addr).
        let act2 = CmdDesc::act(0, 1, ActKind::single(0));
        assert!(c.ready_at(&act2).unwrap() >= 2);
    }
}
