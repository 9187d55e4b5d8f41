//! Bank and subarray state: open-row tracking, per-activation timing
//! deadlines, and restoration progress.

use crate::command::RowAddr;
use crate::Cycle;

/// Restoration level of a row's cell charge when its activation closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RestoreState {
    /// Charge fully restored; the row can be activated alone.
    Full,
    /// Restoration was terminated early (paper §4.1.3); the row pair holds
    /// just enough aggregate charge for the refresh window and **must** be
    /// re-activated with `ACT-t` (both rows together).
    Partial,
}

/// What is currently latched in a subarray's local row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpenRow {
    /// A single row (regular or copy) opened with plain `ACT`.
    Single(RowAddr),
    /// A regular row and its duplicate copy row, opened together by
    /// `ACT-c` or `ACT-t`.
    Pair {
        /// The regular row.
        row: u32,
        /// The copy-row index within the subarray.
        copy: u8,
    },
}

impl OpenRow {
    /// Whether a column access intended for regular row `row` can be
    /// served from this open entry.
    pub fn serves_regular(&self, row: u32) -> bool {
        match *self {
            OpenRow::Single(RowAddr::Regular(r)) => r == row,
            OpenRow::Single(RowAddr::Copy { .. }) => false,
            OpenRow::Pair { row: r, .. } => r == row,
        }
    }

    /// Whether a column access intended for the given copy row can be
    /// served from this open entry.
    pub fn serves_copy(&self, subarray: u32, idx: u8, rows_per_subarray: u32) -> bool {
        match *self {
            OpenRow::Single(RowAddr::Copy {
                subarray: s,
                idx: i,
            }) => s == subarray && i == idx,
            OpenRow::Pair { row, copy } => row / rows_per_subarray == subarray && copy == idx,
            _ => false,
        }
    }

    /// The regular row involved, if any.
    pub fn regular_row(&self) -> Option<u32> {
        match *self {
            OpenRow::Single(RowAddr::Regular(r)) => Some(r),
            OpenRow::Pair { row, .. } => Some(row),
            _ => None,
        }
    }
}

/// A live activation in one subarray: the open row(s) and the timing
/// deadlines the engine derived when the activate issued.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Activation {
    /// What is open.
    pub open: OpenRow,
    /// Cycle the activate command issued.
    pub opened_at: Cycle,
    /// Earliest cycle a `RD` may issue (activate + effective `tRCD`).
    pub ready_rd: Cycle,
    /// Earliest cycle a `WR` may issue.
    pub ready_wr: Cycle,
    /// Earliest legal `PRE` (effective early-termination `tRAS`, pushed
    /// later by `RD`/`WR` recovery constraints).
    pub min_pre: Cycle,
    /// If `PRE` issues at or after this cycle, the open row(s) are fully
    /// restored; earlier, they close partially restored.
    pub full_restore_at: Cycle,
    /// Cycle of the most recent column access, for row-buffer timeout
    /// policies.
    pub last_use: Cycle,
}

impl Activation {
    /// Whether precharging at `now` would leave the row(s) fully restored.
    pub fn restored_if_closed_at(&self, now: Cycle) -> RestoreState {
        if now >= self.full_restore_at {
            RestoreState::Full
        } else {
            RestoreState::Partial
        }
    }
}

/// Per-subarray state: the live activation (if any) and the earliest cycle
/// the subarray may activate again.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SubarrayState {
    /// The live activation, if the local row buffer holds a row.
    pub open: Option<Activation>,
    /// Earliest next `ACT` to this subarray (after `PRE`+`tRP`, `REF`+`tRFC`,
    /// or same-subarray `tRC`).
    pub next_act: Cycle,
}

/// Per-bank state: all subarrays plus bank-global constraints.
#[derive(Debug, Clone, PartialEq)]
pub struct BankState {
    /// One state per subarray.
    pub subarrays: Vec<SubarrayState>,
    /// Earliest next `ACT` anywhere in the bank (commodity DRAM: `tRP`
    /// after a `PRE`, `tRC` after an `ACT`, `tRFC` after `REF`).
    pub next_act: Cycle,
    /// Number of subarrays currently holding an open row.
    pub open_count: u32,
    /// The subarray the most recent `ACT` opened. While it is the only
    /// open one, [`BankState::open_activation`] answers without a scan.
    pub(crate) last_opened: u32,
}

impl BankState {
    /// Creates a bank with `subarrays` closed subarrays.
    pub fn new(subarrays: u32) -> Self {
        Self {
            subarrays: vec![SubarrayState::default(); subarrays as usize],
            next_act: 0,
            open_count: 0,
            last_opened: 0,
        }
    }

    /// The open activation in the lowest-numbered subarray, if any: the
    /// single open activation of a commodity (non-SALP) bank. O(1) while
    /// only the most recently opened subarray holds a row; a scan
    /// otherwise (SALP with several rows open).
    pub fn open_activation(&self) -> Option<(u32, &Activation)> {
        if self.open_count == 1 {
            let sa = self.last_opened;
            if let Some(a) = self
                .subarrays
                .get(sa as usize)
                .and_then(|s| s.open.as_ref())
            {
                return Some((sa, a));
            }
        }
        self.subarrays
            .iter()
            .enumerate()
            .find_map(|(i, s)| s.open.as_ref().map(|a| (i as u32, a)))
    }

    /// Whether any subarray holds an open row.
    pub fn any_open(&self) -> bool {
        self.open_count > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_row_serving() {
        let pair = OpenRow::Pair { row: 520, copy: 3 };
        assert!(pair.serves_regular(520));
        assert!(!pair.serves_regular(521));
        assert!(pair.serves_copy(1, 3, 512));
        assert!(!pair.serves_copy(0, 3, 512));

        let single = OpenRow::Single(RowAddr::Regular(7));
        assert!(single.serves_regular(7));
        assert!(!single.serves_copy(0, 0, 512));

        let copy = OpenRow::Single(RowAddr::Copy {
            subarray: 2,
            idx: 1,
        });
        assert!(copy.serves_copy(2, 1, 512));
        assert!(!copy.serves_regular(2));
        assert_eq!(copy.regular_row(), None);
        assert_eq!(pair.regular_row(), Some(520));
    }

    #[test]
    fn restore_threshold() {
        let act = Activation {
            open: OpenRow::Pair { row: 1, copy: 0 },
            opened_at: 100,
            ready_rd: 120,
            ready_wr: 120,
            min_pre: 145,
            full_restore_at: 168,
            last_use: 100,
        };
        assert_eq!(act.restored_if_closed_at(150), RestoreState::Partial);
        assert_eq!(act.restored_if_closed_at(168), RestoreState::Full);
    }

    #[test]
    fn bank_open_tracking() {
        let mut b = BankState::new(4);
        assert!(b.open_activation().is_none());
        b.subarrays[2].open = Some(Activation {
            open: OpenRow::Single(RowAddr::Regular(9)),
            opened_at: 0,
            ready_rd: 0,
            ready_wr: 0,
            min_pre: 0,
            full_restore_at: 0,
            last_use: 0,
        });
        b.open_count = 1;
        let (sa, act) = b.open_activation().unwrap();
        assert_eq!(sa, 2);
        assert!(act.open.serves_regular(9));
        assert!(b.any_open());
    }

    #[test]
    fn open_activation_matches_a_scan_as_rows_open_and_close() {
        use rand::{Rng, SeedableRng};
        let scan = |b: &BankState| {
            b.subarrays
                .iter()
                .position(|s| s.open.is_some())
                .map(|i| i as u32)
        };
        let act = |row| Activation {
            open: OpenRow::Single(RowAddr::Regular(row)),
            opened_at: 0,
            ready_rd: 0,
            ready_wr: 0,
            min_pre: 0,
            full_restore_at: 0,
            last_use: 0,
        };
        // Opens and closes as `DramChannel::issue` does, several rows at
        // once as under SALP, so the most recently opened subarray is
        // sometimes closed while an older one stays open.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut b = BankState::new(8);
        for step in 0..5_000u32 {
            let sa = rng.gen_range(0..8u32);
            let sub = &mut b.subarrays[sa as usize];
            if sub.open.take().is_some() {
                b.open_count -= 1;
            } else {
                sub.open = Some(act(step));
                b.open_count += 1;
                b.last_opened = sa;
            }
            assert_eq!(b.open_activation().map(|(i, _)| i), scan(&b), "step {step}");
        }
    }
}
