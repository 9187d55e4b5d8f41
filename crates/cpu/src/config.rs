//! CPU cluster configuration.

/// Configuration for the cores and shared LLC (paper Table 2 defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuConfig {
    /// Issue/retire width per core.
    pub ipc: u32,
    /// Instruction window entries per core.
    pub window: usize,
    /// MSHRs per core.
    pub mshrs: u32,
    /// Shared LLC capacity in bytes.
    pub llc_bytes: u64,
    /// LLC associativity.
    pub llc_ways: usize,
    /// LLC hit latency in CPU cycles.
    pub llc_hit_cycles: u64,
    /// Stride prefetcher (entries, degree), if enabled (§8.1.5).
    pub prefetcher: Option<(usize, u32)>,
    /// Instructions each core must retire before its IPC freezes.
    pub target_insts: u64,
}

impl CpuConfig {
    /// Paper Table 2: 4-wide, 128-entry window, 8 MSHRs, 8 MiB 8-way LLC.
    pub fn paper_default() -> Self {
        Self {
            ipc: 4,
            window: 128,
            mshrs: 8,
            llc_bytes: 8 << 20,
            llc_ways: 8,
            llc_hit_cycles: 20,
            prefetcher: None,
            target_insts: 1_000_000,
        }
    }

    /// Returns a copy with a different LLC capacity (paper Fig. 14 sweeps
    /// 512 KiB – 32 MiB).
    pub fn with_llc_bytes(mut self, bytes: u64) -> Self {
        self.llc_bytes = bytes;
        self
    }

    /// Returns a copy with the §8.1.5 RPT prefetcher enabled.
    pub fn with_prefetcher(mut self) -> Self {
        self.prefetcher = Some((64, 2));
        self
    }

    /// Returns a copy with a different per-core instruction target.
    pub fn with_target(mut self, insts: u64) -> Self {
        self.target_insts = insts;
        self
    }

    /// Validates the structural constraints.
    ///
    /// # Errors
    ///
    /// Describes the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.ipc == 0 || self.window == 0 || self.target_insts == 0 {
            return Err("ipc, window, and target must be nonzero".into());
        }
        if self.mshrs == 0 {
            return Err("at least one MSHR is required".into());
        }
        crate::cache::llc_sets(self.llc_bytes, self.llc_ways).map(drop)
    }
}

impl Default for CpuConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_valid() {
        CpuConfig::paper_default().validate().unwrap();
    }

    #[test]
    fn builders() {
        let c = CpuConfig::paper_default()
            .with_llc_bytes(1 << 20)
            .with_prefetcher()
            .with_target(5000);
        assert_eq!(c.llc_bytes, 1 << 20);
        assert_eq!(c.prefetcher, Some((64, 2)));
        assert_eq!(c.target_insts, 5000);
    }

    #[test]
    fn zero_fields_rejected() {
        let mut c = CpuConfig::paper_default();
        c.mshrs = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn bad_llc_geometry_rejected() {
        for (bytes, ways, want) in [
            (3 << 20, 8, "power of two, got 6144"),
            (8 << 20, 0, "1..=16, got 0"),
            (8 << 20, 17, "1..=16, got 17"),
            (32, 1, "power of two, got 0"),
        ] {
            let mut c = CpuConfig::paper_default().with_llc_bytes(bytes);
            c.llc_ways = ways;
            let e = c.validate().unwrap_err();
            assert!(e.contains(want), "{bytes} B, {ways} ways: {e}");
        }
    }
}
