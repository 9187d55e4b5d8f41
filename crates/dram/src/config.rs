//! DRAM geometry and organization configuration.

use crate::timing::{MraTimings, SpeedBin, Timings};

/// Geometry and organization of one DRAM channel.
///
/// The defaults mirror Table 2 of the CROW paper: LPDDR4-3200, one rank,
/// eight banks per rank, 64 Ki rows per bank, 512 rows per subarray (128
/// subarrays per bank), an 8 KiB row buffer, and eight copy rows per
/// subarray.
///
/// All counts must be powers of two; [`DramConfig::validate`] enforces this.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Number of ranks sharing the channel bus.
    pub ranks: u32,
    /// Number of banks per rank.
    pub banks: u32,
    /// Number of bank groups per rank (DDR4-style; 1 = no grouping, as
    /// in LPDDR4). Same-group commands obey the longer `tCCD_L`/`tRRD_L`.
    pub bank_groups: u32,
    /// Number of *regular* rows per bank.
    pub rows_per_bank: u32,
    /// Number of regular rows per subarray.
    pub rows_per_subarray: u32,
    /// Row buffer (row) size in bytes.
    pub row_bytes: u32,
    /// Size in bytes of one column access (one cache line).
    pub col_bytes: u32,
    /// Number of CROW copy rows per subarray (0 disables the substrate).
    pub copy_rows_per_subarray: u8,
    /// Chip density in gigabits; scales `tRFC` and refresh energy.
    pub density_gbit: u32,
    /// DRAM timing parameters, in memory-clock cycles.
    pub timings: Timings,
    /// Timing modifiers for the CROW multiple-row-activation commands.
    pub mra: MraTimings,
    /// When `true`, banks may hold one open row *per subarray*
    /// (SALP-MASA-style subarray-level parallelism). When `false`
    /// (commodity DRAM), at most one row may be open per bank.
    pub subarray_parallelism: bool,
    /// Extra command-bus cycles consumed by `ACT-c`/`ACT-t` to transfer the
    /// copy-row address (paper footnote 3). The paper assumes 1.
    pub mra_extra_cmd_cycles: u32,
}

impl DramConfig {
    /// The paper's Table 2 configuration for one channel of LPDDR4-3200.
    pub fn lpddr4_default() -> Self {
        Self {
            ranks: 1,
            banks: 8,
            bank_groups: 1,
            rows_per_bank: 65_536,
            rows_per_subarray: 512,
            row_bytes: 8192,
            col_bytes: 64,
            copy_rows_per_subarray: 8,
            density_gbit: 8,
            timings: SpeedBin::lpddr4_3200().timings(8),
            mra: MraTimings::paper_table1(),
            subarray_parallelism: false,
            mra_extra_cmd_cycles: 1,
        }
    }

    /// A DDR4-2400 organization: 16 banks in 4 bank groups, 64 ms
    /// refresh window, 2 ranks (the paper's mechanisms are not
    /// LPDDR4-specific, §7).
    pub fn ddr4_default() -> Self {
        Self {
            ranks: 2,
            banks: 16,
            bank_groups: 4,
            rows_per_bank: 32_768,
            rows_per_subarray: 512,
            row_bytes: 8192,
            col_bytes: 64,
            copy_rows_per_subarray: 8,
            density_gbit: 8,
            timings: SpeedBin::ddr4_2400().timings(8),
            mra: MraTimings::paper_operating_point(),
            subarray_parallelism: false,
            mra_extra_cmd_cycles: 1,
        }
    }

    /// A small geometry for fast unit tests: 2 banks, 8 subarrays of 64
    /// rows, 2 copy rows per subarray.
    pub fn tiny_test() -> Self {
        Self {
            ranks: 1,
            banks: 2,
            bank_groups: 1,
            rows_per_bank: 512,
            rows_per_subarray: 64,
            row_bytes: 1024,
            col_bytes: 64,
            copy_rows_per_subarray: 2,
            density_gbit: 8,
            timings: SpeedBin::lpddr4_3200().timings(8),
            mra: MraTimings::paper_table1(),
            subarray_parallelism: false,
            mra_extra_cmd_cycles: 1,
        }
    }

    /// Returns a copy of this configuration scaled to the given chip
    /// density (paper Fig. 13 sweeps 8, 16, 32, and 64 Gbit).
    ///
    /// Density scaling doubles the number of rows per bank per doubling and
    /// lengthens `tRFC` according to the speed-bin table.
    pub fn with_density(mut self, gbit: u32) -> Self {
        assert!(
            gbit.is_power_of_two() && (8..=64).contains(&gbit),
            "density must be 8, 16, 32, or 64 Gbit"
        );
        let scale = gbit / 8;
        self.rows_per_bank = 65_536 * scale;
        self.density_gbit = gbit;
        self.timings = SpeedBin::lpddr4_3200().timings(gbit);
        self
    }

    /// Number of subarrays per bank.
    pub fn subarrays_per_bank(&self) -> u32 {
        self.rows_per_bank / self.rows_per_subarray
    }

    /// Number of column (cache-line) accesses per row.
    pub fn cols_per_row(&self) -> u32 {
        self.row_bytes / self.col_bytes
    }

    /// Total channel capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        u64::from(self.ranks)
            * u64::from(self.banks)
            * u64::from(self.rows_per_bank)
            * u64::from(self.row_bytes)
    }

    /// The bank group of `bank` (banks are numbered group-major).
    pub fn bank_group_of(&self, bank: u32) -> u32 {
        bank / (self.banks / self.bank_groups)
    }

    /// The subarray index that contains regular row `row`.
    pub fn subarray_of(&self, row: u32) -> u32 {
        debug_assert!(row < self.rows_per_bank);
        row / self.rows_per_subarray
    }

    /// Fraction of storage capacity consumed by copy rows
    /// (paper: 8/512 = 1.6%).
    pub fn copy_row_capacity_overhead(&self) -> f64 {
        f64::from(self.copy_rows_per_subarray) / f64::from(self.rows_per_subarray)
    }

    /// Checks the structural invariants of the configuration.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated invariant
    /// (non-power-of-two field, subarray larger than bank, etc.).
    pub fn validate(&self) -> Result<(), String> {
        let pow2 = |v: u32, name: &str| -> Result<(), String> {
            if v == 0 || !v.is_power_of_two() {
                Err(format!("{name} must be a nonzero power of two, got {v}"))
            } else {
                Ok(())
            }
        };
        pow2(self.ranks, "ranks")?;
        pow2(self.banks, "banks")?;
        pow2(self.bank_groups, "bank_groups")?;
        if self.bank_groups > self.banks {
            return Err("more bank groups than banks".into());
        }
        pow2(self.rows_per_bank, "rows_per_bank")?;
        pow2(self.rows_per_subarray, "rows_per_subarray")?;
        pow2(self.row_bytes, "row_bytes")?;
        pow2(self.col_bytes, "col_bytes")?;
        if self.rows_per_subarray > self.rows_per_bank {
            return Err("rows_per_subarray exceeds rows_per_bank".into());
        }
        if self.col_bytes > self.row_bytes {
            return Err("col_bytes exceeds row_bytes".into());
        }
        self.timings.validate()?;
        self.mra.validate()?;
        Ok(())
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::lpddr4_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_table2() {
        let c = DramConfig::lpddr4_default();
        c.validate().unwrap();
        assert_eq!(c.banks, 8);
        assert_eq!(c.subarrays_per_bank(), 128);
        assert_eq!(c.cols_per_row(), 128);
        // 8 banks * 64Ki rows * 8KiB = 4 GiB per channel.
        assert_eq!(c.capacity_bytes(), 4 << 30);
    }

    #[test]
    fn ddr4_config_valid_with_bank_groups() {
        let c = DramConfig::ddr4_default();
        c.validate().unwrap();
        assert_eq!(c.bank_groups, 4);
        assert_eq!(c.bank_group_of(0), 0);
        assert_eq!(c.bank_group_of(3), 0);
        assert_eq!(c.bank_group_of(4), 1);
        assert_eq!(c.bank_group_of(15), 3);
        assert!(c.timings.tccd_l > c.timings.tccd);
    }

    #[test]
    fn copy_row_overhead_is_1_6_percent() {
        let c = DramConfig::lpddr4_default();
        let ov = c.copy_row_capacity_overhead();
        assert!((ov - 0.015625).abs() < 1e-12, "overhead {ov}");
    }

    #[test]
    fn density_scaling_grows_rows_and_trfc() {
        let c8 = DramConfig::lpddr4_default();
        let c64 = DramConfig::lpddr4_default().with_density(64);
        assert_eq!(c64.rows_per_bank, c8.rows_per_bank * 8);
        assert!(c64.timings.trfc > c8.timings.trfc);
        c64.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "density")]
    fn bad_density_panics() {
        let _ = DramConfig::lpddr4_default().with_density(12);
    }

    #[test]
    fn validate_rejects_non_power_of_two() {
        let mut c = DramConfig::lpddr4_default();
        c.banks = 6;
        assert!(c.validate().is_err());
    }

    #[test]
    fn subarray_of_maps_rows() {
        let c = DramConfig::lpddr4_default();
        assert_eq!(c.subarray_of(0), 0);
        assert_eq!(c.subarray_of(511), 0);
        assert_eq!(c.subarray_of(512), 1);
        assert_eq!(c.subarray_of(65_535), 127);
    }
}
