//! # crow-sim
//!
//! The full-system simulator of the CROW reproduction: trace-driven cores
//! and a shared LLC (`crow-cpu`) connected through an address mapper to
//! four LPDDR4 channels, each driven by a memory controller (`crow-mem`)
//! over the cycle-accurate device model (`crow-dram`), with the CROW
//! substrate (`crow-core`) and energy accounting (`crow-energy`) wired
//! in.
//!
//! [`SystemConfig`] defaults to the paper's Table 2 platform; a
//! [`Mechanism`] selects between the baseline, CROW-cache (any copy-row
//! count), CROW-ref, the combined mechanism, the ideal variants, and the
//! TL-DRAM / SALP comparison baselines of §8.1.4.
//!
//! The CPU runs at 4 GHz and the memory bus at 1600 MHz; the 2.5× clock
//! ratio is handled with an integer accumulator (two memory ticks every
//! five CPU ticks).
//!
//! ## Example
//!
//! ```
//! use crow_sim::{Mechanism, SystemConfig, System};
//! use crow_workloads::AppProfile;
//!
//! let cfg = SystemConfig::quick_test(Mechanism::crow_cache(8));
//! let app = AppProfile::by_name("mcf").unwrap();
//! let mut sys = System::new(cfg, &[app]);
//! let report = sys.run(2_000_000);
//! assert!(report.ipc[0] > 0.0);
//! ```

pub mod campaign;
pub mod config;
pub mod error;
mod exec;
pub mod experiments;
pub mod fault;
pub mod hammer;
pub mod json;
mod knobs;
pub mod metrics;
pub mod report;
pub mod sampling;
pub mod server;
pub mod supervise;
pub mod system;

pub use campaign::{
    Campaign, CampaignPolicy, JobOutcome, Journal, Journaled, OutcomeCounts, OutcomeKind,
};
pub use config::{Engine, Mechanism, SystemConfig};
pub use error::CrowError;
pub use experiments::{run_job, run_job_with, Scale};
pub use fault::{FaultPlan, FaultStats};
pub use hammer::{
    AggressorGen, AttackPattern, FlipModel, FlipParams, HammerScenario, HammerState, HammerStats,
};
pub use json::Json;
pub use metrics::weighted_speedup;
pub use report::SimReport;
pub use sampling::{MetricStats, SamplePlan, SampleStats};
pub use server::{LineRead, LineReader, Reply, Request, ServeConfig, Server, SimJob};
pub use supervise::{
    Admit, BreakerState, Breakers, IsolationMode, SupCounters, SuperviseConfig, Supervisor,
};
pub use system::System;
