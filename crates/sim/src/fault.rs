//! Transient command-bus drops (robustness testing).
//!
//! A [`FaultPlan`] drops one command-bus scheduling opportunity every
//! `drop_interval` CPU cycles, rotating across channels, which exercises
//! the controller's retry behaviour. Drops are the only fault class
//! with no other injector: VRT weak-row discoveries come from
//! [`crate::SystemConfig::vrt_interval_cycles`] and RowHammer from a
//! [`crate::hammer::HammerScenario`]'s aggressor reads. The schedule
//! draws no random numbers, so runs are bit-reproducible and identical
//! across stepping engines.

/// A deterministic schedule of command-bus drops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Drop one command-bus scheduling slot every this many CPU cycles
    /// ([`crate::System::try_new`] rejects 0).
    pub drop_interval: u64,
}

/// Counters for every periodic injection (deterministic; part of the
/// cross-engine equivalence contract).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// VRT weak-row discoveries injected
    /// ([`crate::SystemConfig::vrt_interval_cycles`]).
    pub vrt_injected: u64,
    /// Command-bus drops armed ([`FaultPlan`]).
    pub drops_injected: u64,
}
