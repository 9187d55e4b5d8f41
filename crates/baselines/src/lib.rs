//! # crow-baselines
//!
//! The two in-DRAM caching baselines the CROW paper compares against in
//! §8.1.4 (Fig. 11), built on the same device/controller substrate:
//!
//! * **TL-DRAM** (Tiered-Latency DRAM, Lee et al. HPCA 2013 \[58\]):
//!   isolation transistors split each subarray into a fast *near*
//!   segment and a slightly slower *far* segment. We model the near
//!   segment with the device's copy rows (same MRU caching management),
//!   activating hits as single near rows with the near-segment timings
//!   from the `crow-circuit` isolation-transistor model.
//! * **SALP-MASA** (Subarray-Level Parallelism, Kim et al. ISCA 2012
//!   \[53\]): every subarray keeps its local row buffer live, so each
//!   subarray acts as a one-row cache. Modeled with the device's
//!   subarray-parallelism mode; the energy cost of multiple live row
//!   buffers comes out of the `IDD3N` background uplift in
//!   `crow-energy`.
//!
//! This crate holds the configuration builders plus the area/energy
//! comparison metadata that Fig. 11's harness combines with simulation
//! results.

use crow_circuit::{DecoderAreaModel, SalpAreaModel, TlDramModel};
use crow_core::{CrowConfig, CrowSubstrate};
use crow_dram::{ActTimingMod, DramConfig};
use crow_mem::controller::CacheMode;
use crow_mem::{McConfig, MemController};

/// A TL-DRAM organization with `near_rows` near-segment rows per
/// subarray.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlDramConfig {
    /// Near-segment rows per subarray.
    pub near_rows: u8,
}

impl TlDramConfig {
    /// The TL-DRAM-1 and TL-DRAM-8 points evaluated in Fig. 11.
    pub const PAPER_POINTS: [TlDramConfig; 2] =
        [TlDramConfig { near_rows: 1 }, TlDramConfig { near_rows: 8 }];

    /// Display label (`TL-DRAM-8`).
    pub fn label(&self) -> String {
        format!("TL-DRAM-{}", self.near_rows)
    }

    /// Near-segment activation timing modifier.
    pub fn near_mod(&self) -> ActTimingMod {
        let m = TlDramModel::calibrated();
        let trcd = m.near_trcd_ratio(u32::from(self.near_rows));
        let tras = m.near_tras_ratio(u32::from(self.near_rows));
        ActTimingMod {
            trcd,
            tras_full: tras,
            tras_early: tras,
            twr_full: tras.max(0.2),
            twr_early: tras.max(0.2),
        }
    }

    /// Far-segment activation timing modifier (slight penalty).
    pub fn far_mod(&self) -> ActTimingMod {
        let f = TlDramModel::calibrated().far_ratio();
        ActTimingMod {
            trcd: f,
            tras_full: f,
            tras_early: f,
            twr_full: f,
            twr_early: f,
        }
    }

    /// DRAM chip area overhead of this organization (paper: 6.9% for
    /// TL-DRAM-8 vs 0.48% for CROW-8).
    pub fn chip_area_overhead(&self) -> f64 {
        TlDramModel::calibrated().chip_area_overhead(u32::from(self.near_rows))
    }

    /// Builds the device configuration: the near segment is represented
    /// by copy rows.
    pub fn dram_config(&self, mut base: DramConfig) -> DramConfig {
        base.copy_rows_per_subarray = self.near_rows;
        base
    }

    /// Builds a controller in TL-DRAM mode over `base` (the CROW-table
    /// machinery manages the near segment as an MRU cache, as the paper
    /// does by reusing `ACT-c` for the far→near copy).
    pub fn controller(&self, mc: McConfig, base: DramConfig) -> MemController {
        let dram = self.dram_config(base);
        let crow_cfg = CrowConfig {
            banks: dram.banks * dram.ranks,
            subarrays_per_bank: dram.subarrays_per_bank(),
            rows_per_subarray: dram.rows_per_subarray,
            copy_rows: dram.copy_rows_per_subarray,
            share_factor: 1,
            cache: true,
            hammer: None,
            ideal: false,
        };
        let mut ctl = MemController::new(mc, dram, Some(CrowSubstrate::new(crow_cfg)));
        ctl.set_cache_mode(CacheMode::TlDram {
            near: self.near_mod(),
            far: self.far_mod(),
        });
        ctl
    }
}

/// A SALP-MASA organization with `subarrays` subarrays per bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SalpConfig {
    /// Subarrays per bank (the baseline structure has 128).
    pub subarrays: u32,
    /// Open-page row policy (`SALP-N-O`).
    pub open_page: bool,
}

impl SalpConfig {
    /// The SALP points of Fig. 11 (64–256 subarrays, both policies).
    pub fn paper_points() -> Vec<SalpConfig> {
        let mut v = Vec::new();
        for &subarrays in &[128u32, 256] {
            for &open_page in &[false, true] {
                v.push(SalpConfig {
                    subarrays,
                    open_page,
                });
            }
        }
        v
    }

    /// Display label (`SALP-128-O`).
    pub fn label(&self) -> String {
        format!(
            "SALP-{}{}",
            self.subarrays,
            if self.open_page { "-O" } else { "" }
        )
    }

    /// Chip-area overhead (sense-amplifier duplication, §8.1.4).
    pub fn chip_area_overhead(&self) -> f64 {
        SalpAreaModel::calibrated().chip_area_overhead(self.subarrays)
    }

    /// Builds the device configuration: subarray-parallel mode with the
    /// requested subarray count. A count that does not divide the rows
    /// per bank leaves `rows_per_subarray` at 0, which
    /// [`DramConfig::validate`] rejects.
    pub fn dram_config(&self, mut base: DramConfig) -> DramConfig {
        base.subarray_parallelism = true;
        base.copy_rows_per_subarray = 0;
        base.rows_per_subarray = match base.rows_per_bank.checked_rem(self.subarrays) {
            Some(0) => base.rows_per_bank / self.subarrays,
            _ => 0,
        };
        base
    }

    /// Builds a SALP controller.
    pub fn controller(&self, mut mc: McConfig, base: DramConfig) -> MemController {
        if self.open_page {
            mc = mc.with_open_page();
        }
        MemController::new(mc, self.dram_config(base), None)
    }
}

/// One Fig. 11 comparison row: mechanism label, chip-area overhead, and
/// the CROW-table-equivalent controller storage (0 for SALP).
#[derive(Debug, Clone, PartialEq)]
pub struct AreaComparison {
    /// Mechanism label.
    pub label: String,
    /// DRAM chip area overhead (fraction).
    pub chip_area: f64,
}

/// The static area comparison of Fig. 11b (CROW vs TL-DRAM vs SALP).
pub fn fig11_area_rows() -> Vec<AreaComparison> {
    let decoder = DecoderAreaModel::calibrated();
    let mut rows = vec![
        AreaComparison {
            label: "CROW-1".into(),
            chip_area: decoder.chip_overhead(1),
        },
        AreaComparison {
            label: "CROW-8".into(),
            chip_area: decoder.chip_overhead(8),
        },
    ];
    for t in TlDramConfig::PAPER_POINTS {
        rows.push(AreaComparison {
            label: t.label(),
            chip_area: t.chip_area_overhead(),
        });
    }
    for s in SalpConfig::paper_points() {
        if !s.open_page {
            rows.push(AreaComparison {
                label: s.label(),
                chip_area: s.chip_area_overhead(),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crow_dram::DramConfig;
    use crow_mem::{MemRequest, ReqKind};

    #[test]
    fn tldram_near_is_much_faster_than_far() {
        let t = TlDramConfig { near_rows: 8 };
        let near = t.near_mod();
        let far = t.far_mod();
        assert!(near.trcd < 0.3);
        assert!(near.tras_full < 0.25);
        assert!(far.trcd > 1.0 && far.trcd < 1.1);
    }

    #[test]
    fn area_ordering_matches_paper() {
        // Paper: CROW-8 (0.48%) << TL-DRAM-8 (6.9%) << SALP-256 (28.9%).
        let rows = fig11_area_rows();
        let get = |label: &str| {
            rows.iter()
                .find(|r| r.label == label)
                .unwrap_or_else(|| panic!("{label} missing"))
                .chip_area
        };
        assert!((get("CROW-8") - 0.0048).abs() < 1e-6);
        assert!((get("TL-DRAM-8") - 0.069).abs() < 0.002);
        assert!((get("SALP-256") - 0.289).abs() < 0.01);
        assert!(get("CROW-8") < get("TL-DRAM-8"));
        assert!(get("TL-DRAM-8") < get("SALP-256"));
    }

    #[test]
    fn tldram_controller_serves_requests() {
        let t = TlDramConfig { near_rows: 2 };
        let mut mc = t.controller(McConfig::paper_default(), DramConfig::tiny_test());
        let mut out = Vec::new();
        let mut now = 0u64;
        // Serialize: row 5 installs, row 7 forces it closed, row 5 again
        // must re-activate — as a near-segment hit.
        for (i, row) in [5u32, 7, 5, 7].iter().enumerate() {
            mc.try_enqueue(MemRequest::new(i as u64, ReqKind::Read, 0, 0, *row, 0, 0))
                .unwrap();
            let target = i + 1;
            while out.len() < target && now < 100_000 {
                mc.tick(now, &mut out);
                now += 1;
            }
        }
        assert_eq!(out.len(), 4);
        // Hits to row 5 after install activate the near row alone (ACT).
        let ch = mc.channel().stats();
        assert!(ch.issued(crow_dram::Command::ActC) >= 1, "install copies");
        assert!(ch.issued(crow_dram::Command::Act) >= 1, "near-row hits");
        assert_eq!(
            ch.issued(crow_dram::Command::ActT),
            0,
            "no ACT-t in TL mode"
        );
    }

    #[test]
    fn salp_controller_overlaps_subarrays() {
        let s = SalpConfig {
            subarrays: 8,
            open_page: true,
        };
        let mut mc = s.controller(McConfig::paper_default(), DramConfig::tiny_test());
        let mut out = Vec::new();
        // Rows in different subarrays of bank 0 (512/8 = 64 rows each).
        mc.try_enqueue(MemRequest::new(1, ReqKind::Read, 0, 0, 5, 0, 0))
            .unwrap();
        mc.try_enqueue(MemRequest::new(2, ReqKind::Read, 0, 0, 300, 0, 0))
            .unwrap();
        for now in 0..3000 {
            mc.tick(now, &mut out);
        }
        assert_eq!(out.len(), 2);
        assert_eq!(mc.stats().row_conflicts, 0, "no conflicts across subarrays");
    }

    #[test]
    fn salp_rejects_bad_geometry() {
        let mut s = SalpConfig {
            subarrays: 7,
            open_page: false,
        };
        let e = s
            .dram_config(DramConfig::tiny_test())
            .validate()
            .unwrap_err();
        assert!(e.contains("rows_per_subarray"), "{e}");
        s.subarrays = 0;
        assert!(s.dram_config(DramConfig::tiny_test()).validate().is_err());
    }

    #[test]
    fn labels() {
        assert_eq!(TlDramConfig { near_rows: 8 }.label(), "TL-DRAM-8");
        assert_eq!(
            SalpConfig {
                subarrays: 128,
                open_page: true
            }
            .label(),
            "SALP-128-O"
        );
    }
}
