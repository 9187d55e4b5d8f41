//! The substrate arbiter: CROW-cache, CROW-ref, and RowHammer mitigation
//! sharing one CROW-table, consulted by the memory controller before
//! every activation.

use crate::hammer::{HammerConfig, RowHammerGuard};
use crate::retention::WeakRows;
use crate::stats::CrowStats;
use crate::table::{CrowTable, Entry, Owner};

/// Configuration of the CROW substrate for one channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrowConfig {
    /// Banks per channel.
    pub banks: u32,
    /// Subarrays per bank.
    pub subarrays_per_bank: u32,
    /// Regular rows per subarray.
    pub rows_per_subarray: u32,
    /// Copy rows per subarray (table ways).
    pub copy_rows: u8,
    /// CROW-table entry sharing factor (paper §6.1; 1 = dedicated).
    pub share_factor: u32,
    /// Enable the CROW-cache mechanism.
    pub cache: bool,
    /// RowHammer detector, if the mitigation mechanism is enabled.
    pub hammer: Option<HammerConfig>,
    /// Hypothetical 100%-hit-rate mode (the paper's *Ideal CROW-cache*):
    /// every activation behaves as a fully-restored `ACT-t` hit without
    /// consuming copy rows.
    pub ideal: bool,
}

impl CrowConfig {
    /// The paper's Table 2 substrate: 8 banks × 128 subarrays × 512 rows,
    /// 8 copy rows, dedicated table entries, CROW-cache enabled.
    pub fn paper_default() -> Self {
        Self {
            banks: 8,
            subarrays_per_bank: 128,
            rows_per_subarray: 512,
            copy_rows: 8,
            share_factor: 1,
            cache: true,
            hammer: None,
            ideal: false,
        }
    }

    /// A small geometry for unit tests.
    pub fn tiny_test() -> Self {
        Self {
            banks: 2,
            subarrays_per_bank: 8,
            rows_per_subarray: 64,
            copy_rows: 2,
            share_factor: 1,
            cache: true,
            hammer: None,
            ideal: false,
        }
    }
}

/// What the memory controller should issue to activate regular row `row`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActDecision {
    /// Plain single-row `ACT` of the regular row.
    Normal,
    /// The row is remapped (CROW-ref or RowHammer): `ACT` the copy row
    /// alone, with standard single-row timings (paper §4.2.2).
    RemappedSingle {
        /// Copy-row index within the subarray.
        copy: u8,
    },
    /// CROW-cache hit: `ACT-t` the regular row together with its
    /// duplicate.
    Twin {
        /// Copy-row index.
        copy: u8,
        /// The `isFullyRestored` state, selecting the Table 1 timing row.
        fully_restored: bool,
    },
    /// CROW-cache miss with a way available: `ACT-c` to install a
    /// duplicate.
    CopyInstall {
        /// Copy-row index.
        copy: u8,
    },
    /// CROW-cache miss whose LRU victim is partially restored: the
    /// controller must first fully restore the victim with an `ACT-t`
    /// honouring the default `tRAS`, then `PRE`, before re-deciding
    /// (paper §4.1.4).
    RestoreFirst {
        /// Way holding the victim.
        copy: u8,
        /// The victim regular row to restore.
        victim_row: u32,
        /// Whether the victim pair was fully restored (always `false`).
        victim_fully_restored: bool,
    },
}

/// The CROW substrate state for one channel.
#[derive(Debug, Clone)]
pub struct CrowSubstrate {
    cfg: CrowConfig,
    table: CrowTable,
    stats: CrowStats,
    hammer: Option<RowHammerGuard>,
    /// CROW-ref outcome: `None` = mechanism off; `Some(true)` = extended
    /// refresh interval in force; `Some(false)` = profile exceeded copy
    /// rows somewhere, chip fell back to the default interval (§4.2.1).
    ref_extended: Option<bool>,
    /// Refresh commands observed since the detector was last reset; the
    /// guard fully resets once per refresh *window* (every
    /// [`REFS_PER_WINDOW`] REFs), since one REF re-establishes the
    /// charge of only `1/REFS_PER_WINDOW` of the rows.
    refs_seen: u32,
}

/// JEDEC refresh commands per refresh window (`tREFW / tREFI` = 8192):
/// a given row's cells are re-established once per window, not per REF.
pub const REFS_PER_WINDOW: u32 = 8192;

impl CrowSubstrate {
    /// Creates the substrate with an empty CROW-table.
    pub fn new(cfg: CrowConfig) -> Self {
        let table = CrowTable::new(
            cfg.banks,
            cfg.subarrays_per_bank,
            cfg.copy_rows,
            cfg.share_factor,
        );
        Self {
            cfg,
            table,
            stats: CrowStats::new(),
            hammer: cfg.hammer.map(RowHammerGuard::new),
            ref_extended: None,
            refs_seen: 0,
        }
    }

    /// The substrate configuration.
    pub fn config(&self) -> &CrowConfig {
        &self.cfg
    }

    /// Mechanism counters.
    pub fn stats(&self) -> &CrowStats {
        &self.stats
    }

    /// Direct access to the CROW-table (read-only).
    pub fn table(&self) -> &CrowTable {
        &self.table
    }

    /// Refresh-interval multiplier granted by CROW-ref: ×2 when every
    /// weak row was remapped, ×1 otherwise.
    pub fn refresh_multiplier(&self) -> u32 {
        match self.ref_extended {
            Some(true) => 2,
            _ => 1,
        }
    }

    /// Installs a CROW-ref remapping plan from a retention profile
    /// (performed at boot; the controller is expected to issue the
    /// corresponding `ACT-c` copies before enabling the extended
    /// interval — our simulations start from an empty memory so the
    /// copies carry no architectural state).
    ///
    /// Returns the number of rows remapped. If any subarray holds more
    /// weak regular rows than *strong* copy rows, the whole chip falls
    /// back to the default refresh interval (paper §4.2.1) and no
    /// remappings are installed.
    pub fn install_ref_plan(&mut self, weak: &WeakRows) -> usize {
        // Feasibility check first (chip-wide fallback semantics).
        for bank in 0..self.cfg.banks {
            for sa in 0..self.cfg.subarrays_per_bank {
                let weak_regular = weak.weak_regular(bank, sa).len();
                let weak_copy = weak.weak_copy(bank, sa).len();
                let strong_copy = usize::from(self.cfg.copy_rows).saturating_sub(weak_copy);
                if weak_regular > strong_copy {
                    self.ref_extended = Some(false);
                    return 0;
                }
            }
        }
        let mut remapped = 0;
        for (bank, sa, row) in weak.iter_regular() {
            // Pick the first strong, unallocated copy row.
            let way = (0..self.cfg.copy_rows)
                .find(|&w| {
                    !weak.weak_copy(bank, sa).contains(&w)
                        && self.table.entry_at(bank, sa, w).is_none()
                })
                .expect("feasibility was checked");
            self.table.install(
                bank,
                sa,
                way,
                Entry {
                    row,
                    owner: Owner::Ref,
                    fully_restored: true,
                },
            );
            remapped += 1;
        }
        self.ref_extended = Some(true);
        remapped
    }

    /// Remaps one newly-discovered weak row at runtime (VRT support,
    /// paper §4.2.3). Returns the copy row to `ACT-c` into, or `None`
    /// if the subarray has no free way (the caller should fall back to
    /// the default refresh interval).
    pub fn remap_weak_row_runtime(&mut self, bank: u32, subarray: u32, row: u32) -> Option<u8> {
        // Evict a cache entry if needed; ref remaps have priority.
        let way = self.table.free_way(bank, subarray).or_else(|| {
            self.table
                .lru_cache_way(bank, subarray)
                .filter(|(_, e)| e.fully_restored)
                .map(|(w, _)| w)
        })?;
        self.table.install(
            bank,
            subarray,
            way,
            Entry {
                row,
                owner: Owner::Ref,
                fully_restored: true,
            },
        );
        Some(way)
    }

    /// Decides how to activate regular row `row`, *without* mutating any
    /// state (for scheduler probing).
    pub fn peek(&self, bank: u32, subarray: u32, row: u32) -> ActDecision {
        if self.cfg.ideal && self.cfg.cache {
            return ActDecision::Twin {
                copy: 0,
                fully_restored: true,
            };
        }
        if let Some((way, e)) = self.table.lookup(bank, subarray, row) {
            return match e.owner {
                Owner::Ref | Owner::Hammer => ActDecision::RemappedSingle { copy: way },
                Owner::Cache => ActDecision::Twin {
                    copy: way,
                    fully_restored: e.fully_restored,
                },
            };
        }
        if !self.cfg.cache {
            return ActDecision::Normal;
        }
        if let Some(way) = self.table.free_way(bank, subarray) {
            return ActDecision::CopyInstall { copy: way };
        }
        match self.table.lru_cache_way(bank, subarray) {
            Some((way, victim)) if victim.fully_restored => ActDecision::CopyInstall { copy: way },
            Some((way, victim)) => ActDecision::RestoreFirst {
                copy: way,
                victim_row: victim.row,
                victim_fully_restored: false,
            },
            // All ways pinned by CROW-ref/RowHammer: bypass the cache.
            None => ActDecision::Normal,
        }
    }

    /// Decides how to activate `row` and updates LRU/statistics. Call at
    /// command-issue time; the controller must then perform the returned
    /// action (and call [`CrowSubstrate::commit_install`] for
    /// `CopyInstall`).
    pub fn decide(&mut self, bank: u32, subarray: u32, row: u32) -> ActDecision {
        let d = self.peek(bank, subarray, row);
        match d {
            ActDecision::Twin { copy, .. } => {
                self.stats.cache_lookups += 1;
                self.stats.cache_hits += 1;
                self.table.touch(bank, subarray, copy);
            }
            ActDecision::CopyInstall { .. } | ActDecision::Normal => {
                if self.cfg.cache {
                    self.stats.cache_lookups += 1;
                }
            }
            ActDecision::RemappedSingle { copy } => {
                self.stats.ref_redirects += 1;
                self.table.touch(bank, subarray, copy);
            }
            ActDecision::RestoreFirst { .. } => {
                self.stats.restore_evictions += 1;
            }
        }
        d
    }

    /// Installs the CROW-table entry for a just-issued `ACT-c`
    /// duplicating `row` into `copy`. The pair starts *not* fully
    /// restored; the precharge outcome sets the final state.
    pub fn commit_install(&mut self, bank: u32, subarray: u32, row: u32, copy: u8) {
        self.stats.cache_installs += 1;
        let old = self.table.install(
            bank,
            subarray,
            copy,
            Entry {
                row,
                owner: Owner::Cache,
                fully_restored: false,
            },
        );
        if old.is_some() {
            self.stats.clean_evictions += 1;
        }
    }

    /// Records the precharge outcome for a regular row whose activation
    /// involved a copy row: updates the `isFullyRestored` bit (paper
    /// §4.1.4).
    pub fn on_precharge(&mut self, bank: u32, subarray: u32, row: u32, fully_restored: bool) {
        self.table.set_restored(bank, subarray, row, fully_restored);
    }

    /// Feeds the RowHammer detector with an activation; returns the
    /// victim rows that should be remapped (`ACT-c`) now.
    pub fn hammer_check(&mut self, bank: u32, row: u32, now: u64) -> Vec<u32> {
        let rows_per_subarray = self.cfg.rows_per_subarray;
        let Some(guard) = self.hammer.as_mut() else {
            return Vec::new();
        };
        let victims = guard.on_activate(bank, row, rows_per_subarray, now);
        victims
            .into_iter()
            .filter(|&v| {
                let sa = v / rows_per_subarray;
                // Already remapped victims need no second copy.
                !matches!(
                    self.table.lookup(bank, sa, v),
                    Some((_, e)) if e.owner != Owner::Cache
                )
            })
            .collect()
    }

    /// Detector alarms so far (0 without a RowHammer detector).
    pub fn hammer_detections(&self) -> u64 {
        self.hammer.as_ref().map_or(0, RowHammerGuard::detections)
    }

    /// Reverses a [`CrowSubstrate::commit_hammer_remap`] whose `ACT-c`
    /// could not issue (the controller retries later).
    pub fn undo_hammer_remap(&mut self, bank: u32, subarray: u32, way: u8) {
        self.table.remove(bank, subarray, way);
        self.stats.hammer_remaps = self.stats.hammer_remaps.saturating_sub(1);
    }

    /// Reverses a [`CrowSubstrate::remap_weak_row_runtime`] whose `ACT-c`
    /// could not issue (the controller retries later).
    pub fn undo_runtime_remap(&mut self, bank: u32, subarray: u32, way: u8) {
        self.table.remove(bank, subarray, way);
    }

    /// Records that a runtime weak-row discovery could not be remapped
    /// (no allocatable copy row): the chip falls back to the default
    /// refresh interval for safety (paper §4.2.1).
    pub fn ref_fallback(&mut self) {
        self.ref_extended = Some(false);
    }

    /// Notifies the substrate of an all-bank refresh command.
    ///
    /// One `REF` re-establishes the charge of only `1/8192` of the rows,
    /// so the detector's counters are fully reset only once per refresh
    /// window ([`REFS_PER_WINDOW`] REFs); in between, the guard's own
    /// `window_cycles` expiry models per-row staleness. Resetting on
    /// every REF would blind the detector to any demand-driven attack
    /// (no realistic threshold is reachable inside one `tREFI`).
    pub fn on_refresh(&mut self) {
        self.refs_seen += 1;
        if self.refs_seen >= REFS_PER_WINDOW {
            self.refs_seen = 0;
            if let Some(g) = self.hammer.as_mut() {
                g.reset();
            }
        }
    }

    /// Installs a RowHammer victim remap after the controller issued the
    /// `ACT-c`. Returns the chosen way, or `None` if the subarray has no
    /// allocatable way.
    pub fn commit_hammer_remap(&mut self, bank: u32, subarray: u32, victim: u32) -> Option<u8> {
        let way = self.table.free_way(bank, subarray).or_else(|| {
            self.table
                .lru_cache_way(bank, subarray)
                .filter(|(_, e)| e.fully_restored)
                .map(|(w, _)| w)
        })?;
        self.table.install(
            bank,
            subarray,
            way,
            Entry {
                row: victim,
                owner: Owner::Hammer,
                fully_restored: true,
            },
        );
        self.stats.hammer_remaps += 1;
        Some(way)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retention::RetentionProfile;

    fn substrate() -> CrowSubstrate {
        CrowSubstrate::new(CrowConfig::tiny_test())
    }

    #[test]
    fn miss_install_hit_cycle() {
        let mut s = substrate();
        match s.decide(0, 0, 5) {
            ActDecision::CopyInstall { copy } => s.commit_install(0, 0, 5, copy),
            d => panic!("expected install, got {d:?}"),
        }
        // Close fully restored.
        s.on_precharge(0, 0, 5, true);
        match s.decide(0, 0, 5) {
            ActDecision::Twin { fully_restored, .. } => assert!(fully_restored),
            d => panic!("expected twin, got {d:?}"),
        }
        assert_eq!(s.stats().cache_hits, 1);
        assert_eq!(s.stats().cache_installs, 1);
        assert!((s.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn partial_restore_tracked_through_table() {
        let mut s = substrate();
        if let ActDecision::CopyInstall { copy } = s.decide(0, 0, 5) {
            s.commit_install(0, 0, 5, copy);
        }
        s.on_precharge(0, 0, 5, false);
        match s.decide(0, 0, 5) {
            ActDecision::Twin { fully_restored, .. } => assert!(!fully_restored),
            d => panic!("{d:?}"),
        }
    }

    #[test]
    fn partially_restored_victim_requires_restore_first() {
        let mut s = substrate(); // 2 ways
        for row in [1u32, 2] {
            if let ActDecision::CopyInstall { copy } = s.decide(0, 0, row) {
                s.commit_install(0, 0, row, copy);
            }
            s.on_precharge(0, 0, row, false); // partially restored
        }
        // Third distinct row: LRU victim (row 1) is partial.
        match s.decide(0, 0, 3) {
            ActDecision::RestoreFirst { victim_row, .. } => assert_eq!(victim_row, 1),
            d => panic!("expected restore-first, got {d:?}"),
        }
        assert_eq!(s.stats().restore_evictions, 1);
        // The controller restores the victim...
        s.on_precharge(0, 0, 1, true);
        // ...and the retry can now evict it.
        match s.decide(0, 0, 3) {
            ActDecision::CopyInstall { copy } => {
                s.commit_install(0, 0, 3, copy);
                assert_eq!(s.stats().clean_evictions, 1);
            }
            d => panic!("{d:?}"),
        }
        assert!(s.table().lookup(0, 0, 1).is_none(), "victim evicted");
    }

    #[test]
    fn lru_victim_selection_respects_recency() {
        let mut s = substrate();
        for row in [1u32, 2] {
            if let ActDecision::CopyInstall { copy } = s.decide(0, 0, row) {
                s.commit_install(0, 0, row, copy);
            }
            s.on_precharge(0, 0, row, true);
        }
        // Touch row 1 so row 2 becomes LRU.
        let _ = s.decide(0, 0, 1);
        s.on_precharge(0, 0, 1, true);
        if let ActDecision::CopyInstall { copy } = s.decide(0, 0, 3) {
            s.commit_install(0, 0, 3, copy);
        }
        assert!(s.table().lookup(0, 0, 2).is_none(), "LRU row 2 evicted");
        assert!(s.table().lookup(0, 0, 1).is_some());
    }

    #[test]
    fn ref_plan_remaps_and_extends_refresh() {
        let mut s = substrate();
        let weak = RetentionProfile::FixedPerSubarray { n: 1 }.generate(2, 8, 64, 2, 3);
        let n = s.install_ref_plan(&weak);
        assert_eq!(n, 16);
        assert_eq!(s.refresh_multiplier(), 2);
        // Activating a weak row redirects to its copy row.
        let (b, sa, row) = weak.iter_regular().next().unwrap();
        assert!(matches!(
            s.decide(b, sa, row),
            ActDecision::RemappedSingle { .. }
        ));
        assert_eq!(s.stats().ref_redirects, 1);
    }

    #[test]
    fn oversubscribed_subarray_falls_back_chip_wide() {
        let mut s = substrate(); // 2 copy rows per subarray
        let weak = RetentionProfile::FixedPerSubarray { n: 3 }.generate(2, 8, 64, 2, 3);
        let n = s.install_ref_plan(&weak);
        assert_eq!(n, 0);
        assert_eq!(s.refresh_multiplier(), 1);
    }

    #[test]
    fn pinned_ways_shrink_cache_until_bypass() {
        let mut cfg = CrowConfig::tiny_test();
        cfg.copy_rows = 1;
        let mut s = CrowSubstrate::new(cfg);
        let mut weak = crate::retention::WeakRows::new();
        weak.add_weak_regular(0, 0, 5);
        s.install_ref_plan(&weak);
        // Subarray (0,0)'s only way is pinned: the cache must bypass.
        assert_eq!(s.decide(0, 0, 9), ActDecision::Normal);
        // Other subarrays still cache.
        assert!(matches!(
            s.decide(0, 1, 70),
            ActDecision::CopyInstall { .. }
        ));
    }

    #[test]
    fn hammer_detection_and_remap_flow() {
        let mut cfg = CrowConfig::tiny_test();
        cfg.hammer = Some(HammerConfig {
            threshold: 2,
            window_cycles: 1_000_000,
        });
        let mut s = CrowSubstrate::new(cfg);
        assert!(s.hammer_check(0, 10, 0).is_empty());
        let victims = s.hammer_check(0, 10, 1);
        assert_eq!(victims, vec![9, 11]);
        for v in victims {
            let way = s.commit_hammer_remap(0, 0, v).unwrap();
            assert!(s.table().entry_at(0, 0, way).is_some());
        }
        // Victims now activate via their copy rows.
        assert!(matches!(
            s.decide(0, 0, 9),
            ActDecision::RemappedSingle { .. }
        ));
        assert_eq!(s.stats().hammer_remaps, 2);
    }

    #[test]
    fn cache_disabled_yields_normal_activations() {
        let mut cfg = CrowConfig::tiny_test();
        cfg.cache = false;
        let mut s = CrowSubstrate::new(cfg);
        assert_eq!(s.decide(0, 0, 5), ActDecision::Normal);
        assert_eq!(s.stats().cache_lookups, 0);
    }

    #[test]
    fn runtime_vrt_remap_uses_free_or_clean_way() {
        let mut s = substrate();
        let way = s.remap_weak_row_runtime(0, 0, 7).unwrap();
        assert!(matches!(
            s.decide(0, 0, 7),
            ActDecision::RemappedSingle { copy } if copy == way
        ));
    }
}
