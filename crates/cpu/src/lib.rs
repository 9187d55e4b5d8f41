//! # crow-cpu
//!
//! The trace-driven CPU front end of the CROW reproduction, standing in
//! for the Ramulator CPU model + Pin traces of the paper's methodology
//! (§7):
//!
//! * [`Core`] — a simple out-of-order core: 4-wide issue/retire, a
//!   128-entry instruction window, loads that block retirement until
//!   their fill returns, posted stores, and 8 MSHRs per core (Table 2).
//! * [`Llc`] — the shared last-level cache (8 MiB, 8-way, 64 B lines by
//!   default), writeback + write-validate allocation, true LRU. It holds
//!   a tag and a recency rank per way, `sets × ways` of each, and a dirty
//!   mask per set; every update goes through one lookup.
//! * [`PageTable`] — virtual-to-physical translation that allocates a
//!   *random* 4 KiB frame on first touch, emulating a steady-state
//!   system's page placement \[85\]. It memoizes the last page's
//!   translation.
//! * [`StridePrefetcher`] — a reference-prediction-table-style stride
//!   prefetcher (§8.1.5; region-indexed rather than PC-indexed because
//!   traces carry no program counters).
//! * [`CpuCluster`] — wires cores, LLC, page tables, and prefetcher
//!   together and talks to the memory system through the [`MemPort`]
//!   trait, so the simulator crate can route requests to channels.
//!
//! The trace format mirrors Ramulator's CPU traces: each entry is a
//! number of non-memory "bubble" instructions followed by an optional
//! memory access.

pub mod cache;
pub mod cluster;
pub mod config;
pub mod core;
pub mod page;
pub mod prefetch;
pub mod trace;

pub use cache::{AccessKind, Llc};
pub use cluster::{CpuCluster, CpuMemReq, MemPort};
pub use config::CpuConfig;
pub use core::Core;
pub use page::PageTable;
pub use prefetch::StridePrefetcher;
pub use trace::{IterTrace, MemAccess, TraceEntry, TraceError, TraceSource};
