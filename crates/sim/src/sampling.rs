//! Statistical interval sampling: detailed measured windows separated by
//! functional fast-forward, with per-metric confidence intervals.
//!
//! The event-driven engine only buys ~1.1–1.2× on memory-bound traces
//! because nearly every cycle does real work; the next order of
//! magnitude comes from simulating *less*. A sampled run splits the
//! instruction budget into alternating intervals (SMARTS-style):
//!
//! ```text
//! [detailed warmup][measured window] [FF][warmup][window] [FF][warmup][window] …
//! ```
//!
//! * **Functional fast-forward** drives cores and caches functionally
//!   ([`crow_cpu::CpuCluster::warm`]): trace cursors, page tables and
//!   LLC state advance so architectural state stays warm, but no
//!   per-cycle controller/DRAM simulation runs.
//! * **Detailed warmup** re-engages the full pipeline for a short
//!   stretch so the row buffers, MSHRs and queues the drain emptied
//!   refill before measurement starts.
//! * **Measured windows** run the full detailed pipeline and contribute
//!   one sample per metric (IPC, energy, row-hit rate).
//!
//! Between a measured window and the next fast-forward the driver
//! *drains*: fetch freezes ([`crow_cpu::CpuCluster::set_fetch_frozen`])
//! and the system steps until no in-flight memory state remains
//! ([`crow_cpu::CpuCluster::quiescent`]), so the functional advance
//! never corrupts mid-flight requests. The drain steps through the
//! configured engine — the event engine's skips are provably exact
//! no-ops — so a sampled run is bit-identical for a given
//! `(seed, plan)` across `Engine` and scheduler choices, exactly like a
//! full run.
//!
//! Per-window samples aggregate into [`SampleStats`]: mean and 95%
//! confidence half-width per metric (Student-t for small window counts,
//! 1.96 beyond 30 degrees of freedom).

use crate::config::Engine;
use crate::error::CrowError;
use crate::json::Json;
use crate::knobs::Knobs;
use crate::system::System;
use crow_dram::ConfigError;

/// An interval-sampling schedule, in instructions per core.
///
/// A plan of `{window, warmup, ff}` measures
/// `total / (window + warmup + ff)` windows (at least one) over a run
/// with per-core target `total`; the first window is preceded by no
/// fast-forward (the regular pre-run warmup covers it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplePlan {
    /// Instructions each core retires per measured window (detailed).
    pub window_insts: u64,
    /// Detailed warmup instructions per core before each window.
    pub warmup_insts: u64,
    /// Functionally fast-forwarded instructions per core per interval.
    pub ff_insts: u64,
}

impl SamplePlan {
    /// The default sampling profile: 20 k measured + 10 k warmup per
    /// 200 k-instruction interval (15% detailed). Tuned on the bench
    /// workloads at 2 M instructions/core: shorter warmups bias the
    /// streaming traces (libq reads high by ~8% below 8 k warmup) and
    /// smaller windows both amplify the in-flight window-boundary bias
    /// and leave too few samples for a stable mean. Sampling is meant
    /// for long runs — at 2 M instructions this plan measures 10
    /// windows with every bench case within 2% of its full-run IPC;
    /// stretching `ff` on longer runs (e.g. `20000:10000:370000` at
    /// 4 M) raises the wall-clock win past 5× on memory-bound traces.
    pub fn default_profile() -> Self {
        Self {
            window_insts: 20_000,
            warmup_insts: 10_000,
            ff_insts: 170_000,
        }
    }

    /// Instructions one full interval spans.
    pub fn interval_insts(&self) -> u64 {
        self.window_insts + self.warmup_insts + self.ff_insts
    }

    /// Measured windows a run of `total_insts` per core is split into.
    pub fn windows_for(&self, total_insts: u64) -> u64 {
        (total_insts / self.interval_insts().max(1)).max(1)
    }

    /// Checks the plan is usable.
    ///
    /// # Errors
    ///
    /// Returns [`CrowError::Config`] when the measured window is empty.
    pub fn validate(&self) -> Result<(), CrowError> {
        if self.window_insts == 0 {
            return Err(CrowError::Config(ConfigError::new(
                "SamplePlan",
                "window instructions must be positive",
            )));
        }
        Ok(())
    }

    /// A stable text fingerprint, embedded in campaign/job fingerprints
    /// so sampled and full runs (or two different plans) never collide
    /// in a journal.
    pub fn fingerprint(&self) -> String {
        format!(
            "w{}h{}f{}",
            self.window_insts, self.warmup_insts, self.ff_insts
        )
    }

    /// Parses a `window:warmup:ff` spec (instructions per core, e.g.
    /// `5000:2500:42500`) or the literal `default`.
    ///
    /// # Errors
    ///
    /// Returns [`CrowError::Config`] on a malformed spec — never a
    /// silent fallback.
    pub fn parse(spec: &str) -> Result<Self, CrowError> {
        let spec = spec.trim();
        if spec == "default" {
            return Ok(Self::default_profile());
        }
        let bad = |reason: String| CrowError::Config(ConfigError::new("SamplePlan", reason));
        let parts: Vec<&str> = spec.split(':').collect();
        if parts.len() != 3 {
            return Err(bad(format!(
                "sample spec {spec:?} is not `window:warmup:ff` or `default`"
            )));
        }
        let num = |s: &str, what: &str| -> Result<u64, CrowError> {
            s.trim()
                .parse()
                .map_err(|_| bad(format!("{what} {s:?} is not an unsigned integer")))
        };
        let plan = Self {
            window_insts: num(parts[0], "window instructions")?,
            warmup_insts: num(parts[1], "warmup instructions")?,
            ff_insts: num(parts[2], "fast-forward instructions")?,
        };
        plan.validate()?;
        Ok(plan)
    }

    /// Reads the sampling knobs from the environment:
    ///
    /// * `CROW_SAMPLE` — `off`/`0` (no sampling), `default`/`on`/`1`
    ///   (the default profile), or a `window:warmup:ff` spec;
    /// * `CROW_SAMPLE_WINDOW`, `CROW_SAMPLE_WARMUP`, `CROW_SAMPLE_FF` —
    ///   per-field overrides (applied over the default profile when
    ///   `CROW_SAMPLE` is unset).
    ///
    /// Nothing set means no sampling (`Ok(None)`). A malformed value is
    /// a configuration error, never a silent default.
    ///
    /// # Errors
    ///
    /// Returns [`CrowError::Config`] on any malformed knob, and on the
    /// contradiction of `CROW_SAMPLE=off` with field overrides set.
    pub fn from_env() -> Result<Option<Self>, CrowError> {
        Self::from_lookup(|k| std::env::var(k).ok())
    }

    /// [`SamplePlan::from_env`] against an arbitrary variable lookup, so
    /// the parsing is testable without mutating process-global state.
    ///
    /// # Errors
    ///
    /// See [`SamplePlan::from_env`].
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Option<Self>, CrowError> {
        let env = Knobs::new("SamplePlan", &lookup);
        let window = env.uint("CROW_SAMPLE_WINDOW", 0)?;
        let warmup = env.uint("CROW_SAMPLE_WARMUP", 0)?;
        let ff = env.uint("CROW_SAMPLE_FF", 0)?;
        let overridden = window.is_some() || warmup.is_some() || ff.is_some();
        let base = match env.raw("CROW_SAMPLE") {
            None if overridden => Some(Self::default_profile()),
            None => None,
            Some(v) => match v.trim() {
                "off" | "0" => {
                    if overridden {
                        return Err(env.err(format!(
                            "CROW_SAMPLE={v:?} contradicts CROW_SAMPLE_* overrides"
                        )));
                    }
                    None
                }
                "default" | "on" | "1" => Some(Self::default_profile()),
                spec => Some(Self::parse(spec)?),
            },
        };
        let Some(mut plan) = base else {
            return Ok(None);
        };
        if let Some(w) = window {
            plan.window_insts = w;
        }
        if let Some(h) = warmup {
            plan.warmup_insts = h;
        }
        if let Some(f) = ff {
            plan.ff_insts = f;
        }
        plan.validate()?;
        Ok(Some(plan))
    }
}

/// Mean and 95% confidence half-width over per-window samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricStats {
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the 95% confidence interval (Student-t with `n−1`
    /// degrees of freedom; 0 when fewer than two samples exist).
    pub ci95: f64,
    /// Number of samples.
    pub n: u64,
}

/// Two-sided 97.5% Student-t quantiles for 1–30 degrees of freedom;
/// beyond that the normal 1.96 is within half a percent.
const T95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

impl MetricStats {
    /// Aggregates raw per-window samples.
    pub fn from_samples(samples: &[f64]) -> Self {
        let n = samples.len();
        if n == 0 {
            return Self {
                mean: 0.0,
                ci95: 0.0,
                n: 0,
            };
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        if n < 2 {
            return Self {
                mean,
                ci95: 0.0,
                n: 1,
            };
        }
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (n - 1) as f64;
        let t = T95.get(n - 2).copied().unwrap_or(1.96);
        Self {
            mean,
            ci95: t * (var / n as f64).sqrt(),
            n: n as u64,
        }
    }

    fn to_json(self) -> Json {
        Json::Arr(vec![
            Json::f64(self.mean),
            Json::f64(self.ci95),
            Json::u64(self.n),
        ])
    }

    fn decode(v: &Json) -> Option<Self> {
        let a = v.as_arr()?;
        if a.len() != 3 {
            return None;
        }
        let num = |e: &Json| match e {
            Json::Null => Some(f64::NAN),
            other => other.as_f64(),
        };
        Some(Self {
            mean: num(&a[0])?,
            ci95: num(&a[1])?,
            n: a[2].as_u64()?,
        })
    }
}

/// Per-run sampling outcome carried in [`crate::SimReport`] (and through
/// the campaign journal) when the run was sampled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleStats {
    /// The schedule the run used.
    pub plan: SamplePlan,
    /// Measured windows that actually completed.
    pub windows: u64,
    /// Instructions measured in detail, summed over cores and windows.
    pub measured_insts: u64,
    /// Detailed warmup instructions, summed over cores and windows.
    pub warmed_insts: u64,
    /// Functionally fast-forwarded instructions, summed over cores.
    pub skipped_insts: u64,
    /// CPU cycles spent draining in-flight state before fast-forwards.
    pub drain_cycles: u64,
    /// Per-window aggregate IPC (sum over cores).
    pub ipc: MetricStats,
    /// Per-window DRAM energy in nanojoules.
    pub energy_nj: MetricStats,
    /// Per-window DRAM row-hit rate.
    pub row_hit_rate: MetricStats,
}

impl SampleStats {
    /// Journal encoding, nested under the report's `samples` key.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "plan".into(),
                Json::Arr(vec![
                    Json::u64(self.plan.window_insts),
                    Json::u64(self.plan.warmup_insts),
                    Json::u64(self.plan.ff_insts),
                ]),
            ),
            ("windows".into(), Json::u64(self.windows)),
            ("measured_insts".into(), Json::u64(self.measured_insts)),
            ("warmed_insts".into(), Json::u64(self.warmed_insts)),
            ("skipped_insts".into(), Json::u64(self.skipped_insts)),
            ("drain_cycles".into(), Json::u64(self.drain_cycles)),
            ("ipc".into(), self.ipc.to_json()),
            ("energy_nj".into(), self.energy_nj.to_json()),
            ("row_hit_rate".into(), self.row_hit_rate.to_json()),
        ])
    }

    /// Decodes [`SampleStats::to_json`] output; `None` on malformed
    /// input (a present-but-broken `samples` key is a decode error, not
    /// a silent default).
    pub fn decode(v: &Json) -> Option<Self> {
        let plan = v.get("plan")?.as_arr()?;
        if plan.len() != 3 {
            return None;
        }
        let u = |key: &str| v.get(key)?.as_u64();
        Some(Self {
            plan: SamplePlan {
                window_insts: plan[0].as_u64()?,
                warmup_insts: plan[1].as_u64()?,
                ff_insts: plan[2].as_u64()?,
            },
            windows: u("windows")?,
            measured_insts: u("measured_insts")?,
            warmed_insts: u("warmed_insts")?,
            skipped_insts: u("skipped_insts")?,
            drain_cycles: u("drain_cycles")?,
            ipc: MetricStats::decode(v.get("ipc")?)?,
            energy_nj: MetricStats::decode(v.get("energy_nj")?)?,
            row_hit_rate: MetricStats::decode(v.get("row_hit_rate")?)?,
        })
    }
}

/// What [`drive`] hands back to [`System::run`].
pub(crate) struct SampleOutcome {
    pub stats: SampleStats,
    /// Per-core mean window IPC.
    pub ipc: Vec<f64>,
    /// Per-core mean window MPKI.
    pub mpki: Vec<f64>,
    /// Every scheduled window completed within the cycle cap.
    pub complete: bool,
}

/// DRAM-side counters a window measures as deltas.
fn snapshot(sys: &System) -> (f64, u64, u64) {
    let mut energy = 0.0;
    let mut hits = 0u64;
    let mut opens = 0u64;
    for mc in &sys.mcs {
        energy += mc.energy().total_nj();
        let s = mc.stats();
        hits += s.row_hits;
        opens += s.row_hits + s.row_misses + s.row_conflicts;
    }
    (energy, hits, opens)
}

/// Runs `sys` under the sampling schedule. The caller (`System::run`)
/// already handled the pre-run functional warmup; this drives the
/// alternating (drain, fast-forward, detailed warmup, measured window)
/// intervals and aggregates per-window samples.
pub(crate) fn drive(sys: &mut System, plan: SamplePlan, max_cpu_cycles: u64) -> SampleOutcome {
    let event = matches!(sys.cfg.engine, Engine::EventDriven);
    let cores = sys.cluster.num_cores() as u64;
    let windows = plan.windows_for(sys.cfg.cpu.target_insts);
    let mut ipc_samples = Vec::with_capacity(windows as usize);
    let mut energy_samples = Vec::with_capacity(windows as usize);
    let mut rhr_samples = Vec::with_capacity(windows as usize);
    let mut core_ipc: Vec<Vec<f64>> = vec![Vec::new(); cores as usize];
    let mut core_mpki: Vec<Vec<f64>> = vec![Vec::new(); cores as usize];
    let mut drain_cycles = 0u64;
    let mut warmed = 0u64;
    let mut skipped = 0u64;
    let mut done_windows = 0u64;

    for w in 0..windows {
        if sys.cpu_cycle >= max_cpu_cycles {
            break;
        }
        if w > 0 {
            // Drain: freeze fetch and step the detailed pipeline until
            // nothing is in flight, so the functional fast-forward acts
            // on clean architectural state. The event engine's skips
            // here are the usual provably exact no-ops.
            let drain_start = sys.cpu_cycle;
            sys.cluster.set_fetch_frozen(true);
            while !sys.cluster.quiescent() && sys.cpu_cycle < max_cpu_cycles {
                sys.step(event);
            }
            sys.cluster.set_fetch_frozen(false);
            drain_cycles += sys.cpu_cycle - drain_start;
            if !sys.cluster.quiescent() {
                break; // cycle cap hit mid-drain
            }
            sys.settle();
            // The drain emptied the queues but open-page policy leaves
            // row buffers open; close them through the normal precharge
            // bookkeeping before the fast-forward mutates the CROW
            // table underneath them — a stale open pair would otherwise
            // write through rows whose table entries no longer exist.
            let mem_now = sys.mem_cycle;
            for mc in &mut sys.mcs {
                mc.quiesce_open_rows(mem_now);
            }
            // Fast-forward functionally, replaying every LLC miss (and
            // dirty eviction) into its controller so address-indexed
            // DRAM state — the CROW table's install/eviction/LRU
            // dynamics — evolves across the skipped instructions. Queues
            // stay behind; the detailed warmup below rebuilds row
            // buffers and queues before measurement.
            let System {
                cluster,
                mcs,
                mapper,
                ..
            } = sys;
            cluster.warm_with(plan.ff_insts, &mut |pa| {
                let a = mapper.decode(pa);
                mcs[a.channel as usize].warm_touch(a.rank, a.bank, a.row);
            });
            skipped += plan.ff_insts * cores;
        }
        if plan.warmup_insts > 0 {
            sys.cluster.begin_phase(plan.warmup_insts);
            sys.run_serial(max_cpu_cycles);
            if !sys.cluster.done() {
                break; // cycle cap hit mid-warmup
            }
            warmed += plan.warmup_insts * cores;
        }
        let start = sys.cpu_cycle;
        let (e0, hits0, opens0) = snapshot(sys);
        sys.cluster.begin_phase(plan.window_insts);
        sys.run_serial(max_cpu_cycles);
        let finished = sys.cluster.done();
        let (e1, hits1, opens1) = snapshot(sys);
        let mut ipc_sum = 0.0;
        for i in 0..cores as usize {
            // A core that never hit the window target (parked trace or
            // cycle cap) samples 0, matching the full-run convention.
            let ipc = match sys.cluster.finish_cycle(i) {
                Some(fc) => plan.window_insts as f64 / fc.saturating_sub(start).max(1) as f64,
                None => 0.0,
            };
            core_ipc[i].push(ipc);
            core_mpki[i].push(sys.cluster.mpki(i));
            ipc_sum += ipc;
        }
        ipc_samples.push(ipc_sum);
        energy_samples.push(e1 - e0);
        rhr_samples
            .push(hits1.saturating_sub(hits0) as f64 / opens1.saturating_sub(opens0).max(1) as f64);
        done_windows += 1;
        if !finished {
            break; // cycle cap hit mid-window
        }
    }

    let mean = |s: &[f64]| {
        if s.is_empty() {
            0.0
        } else {
            s.iter().sum::<f64>() / s.len() as f64
        }
    };
    let complete = done_windows == windows && sys.cluster.done();
    SampleOutcome {
        stats: SampleStats {
            plan,
            windows: done_windows,
            measured_insts: done_windows * plan.window_insts * cores,
            warmed_insts: warmed,
            skipped_insts: skipped,
            drain_cycles,
            ipc: MetricStats::from_samples(&ipc_samples),
            energy_nj: MetricStats::from_samples(&energy_samples),
            row_hit_rate: MetricStats::from_samples(&rhr_samples),
        },
        ipc: core_ipc.iter().map(|s| mean(s)).collect(),
        mpki: core_mpki.iter().map(|s| mean(s)).collect(),
        complete,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_parse_and_fingerprint() {
        let p = SamplePlan::parse("5000:2500:42500").unwrap();
        assert_eq!(
            p,
            SamplePlan {
                window_insts: 5000,
                warmup_insts: 2500,
                ff_insts: 42_500
            }
        );
        assert_eq!(p.fingerprint(), "w5000h2500f42500");
        assert_eq!(p.interval_insts(), 50_000);
        assert_eq!(p.windows_for(400_000), 8);
        assert_eq!(p.windows_for(10_000), 1, "at least one window");
        assert_eq!(
            SamplePlan::parse(" default ").unwrap(),
            SamplePlan::default_profile()
        );
        for bad in ["", "5000", "1:2", "1:2:3:4", "a:2:3", "0:2:3"] {
            assert!(SamplePlan::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn env_lookup_is_strict() {
        // Nothing set: no sampling.
        assert_eq!(SamplePlan::from_lookup(|_| None).unwrap(), None);
        // Explicit spec.
        let p = SamplePlan::from_lookup(|k| (k == "CROW_SAMPLE").then(|| "100:50:850".into()))
            .unwrap()
            .unwrap();
        assert_eq!(p.window_insts, 100);
        // Named profile.
        let p = SamplePlan::from_lookup(|k| (k == "CROW_SAMPLE").then(|| "default".into()))
            .unwrap()
            .unwrap();
        assert_eq!(p, SamplePlan::default_profile());
        // Field overrides alone start from the default profile.
        let p = SamplePlan::from_lookup(|k| (k == "CROW_SAMPLE_FF").then(|| "90000".into()))
            .unwrap()
            .unwrap();
        assert_eq!(p.ff_insts, 90_000);
        assert_eq!(p.window_insts, SamplePlan::default_profile().window_insts);
        // Overrides compose with an explicit base.
        let p = SamplePlan::from_lookup(|k| match k {
            "CROW_SAMPLE" => Some("100:50:850".into()),
            "CROW_SAMPLE_WARMUP" => Some("75".into()),
            _ => None,
        })
        .unwrap()
        .unwrap();
        assert_eq!((p.window_insts, p.warmup_insts, p.ff_insts), (100, 75, 850));
        // Explicit off.
        let off = SamplePlan::from_lookup(|k| (k == "CROW_SAMPLE").then(|| "off".into())).unwrap();
        assert_eq!(off, None);
        // Malformed values are configuration errors, never silent
        // defaults — same contract as CROW_INSTS/CROW_SERVE_*.
        for (k, v) in [
            ("CROW_SAMPLE", "fast"),
            ("CROW_SAMPLE", "1:2"),
            ("CROW_SAMPLE", "0:1:2"),
            ("CROW_SAMPLE_WINDOW", "5k"),
            ("CROW_SAMPLE_WINDOW", "0"),
            ("CROW_SAMPLE_WARMUP", "-1"),
            ("CROW_SAMPLE_FF", "ninety"),
        ] {
            let err = SamplePlan::from_lookup(|q| (q == k).then(|| v.into()))
                .expect_err(&format!("{k}={v} must be rejected"))
                .to_string();
            assert!(err.contains("SamplePlan"), "typed error: {err}");
        }
        // off + overrides is a contradiction, not a silent winner.
        let err = SamplePlan::from_lookup(|k| match k {
            "CROW_SAMPLE" => Some("off".into()),
            "CROW_SAMPLE_WINDOW" => Some("100".into()),
            _ => None,
        })
        .unwrap_err()
        .to_string();
        assert!(err.contains("contradicts"), "{err}");
    }

    #[test]
    fn ci_math_matches_hand_computation() {
        let s = MetricStats::from_samples(&[]);
        assert_eq!((s.mean, s.ci95, s.n), (0.0, 0.0, 0));
        let s = MetricStats::from_samples(&[2.5]);
        assert_eq!((s.mean, s.ci95, s.n), (2.5, 0.0, 1));
        // Two samples: mean 2, sample stddev sqrt(2), CI = 12.706·1.
        let s = MetricStats::from_samples(&[1.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.ci95 - 12.706).abs() < 1e-9, "{}", s.ci95);
        // Five identical samples: zero variance.
        let s = MetricStats::from_samples(&[4.0; 5]);
        assert_eq!((s.mean, s.ci95, s.n), (4.0, 0.0, 5));
        // Large n falls back to the normal quantile.
        let samples: Vec<f64> = (0..100).map(|i| f64::from(i % 2)).collect();
        let s = MetricStats::from_samples(&samples);
        let sd = (samples.iter().map(|v| (v - 0.5) * (v - 0.5)).sum::<f64>() / 99.0).sqrt();
        assert!((s.ci95 - 1.96 * sd / 10.0).abs() < 1e-12);
    }

    #[test]
    fn sample_stats_json_roundtrips_bit_exact() {
        let stats = SampleStats {
            plan: SamplePlan::default_profile(),
            windows: 8,
            measured_insts: 40_000,
            warmed_insts: 20_000,
            skipped_insts: 297_500,
            drain_cycles: 1234,
            ipc: MetricStats {
                mean: 0.1 + 0.2,
                ci95: 1.0 / 3.0,
                n: 8,
            },
            energy_nj: MetricStats {
                mean: 1e-300,
                ci95: 0.30000000000000004,
                n: 8,
            },
            row_hit_rate: MetricStats {
                mean: f64::NAN,
                ci95: 0.0,
                n: 8,
            },
        };
        let text = stats.to_json().render();
        let back = SampleStats::decode(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.plan, stats.plan);
        assert_eq!(back.ipc.mean.to_bits(), stats.ipc.mean.to_bits());
        assert_eq!(
            back.energy_nj.ci95.to_bits(),
            stats.energy_nj.ci95.to_bits()
        );
        assert!(back.row_hit_rate.mean.is_nan(), "NaN survives as null");
        assert_eq!(back.windows, 8);
        // Re-encoding reproduces the bytes (modulo the NaN→null mapping,
        // which is already applied on the first encode).
        assert_eq!(back.to_json().render(), text);
        // Malformed nested stats are decode errors.
        let mut v = Json::parse(&text).unwrap();
        if let Json::Obj(fields) = &mut v {
            for (k, val) in fields.iter_mut() {
                if k == "ipc" {
                    *val = Json::Arr(vec![Json::u64(1)]);
                }
            }
        }
        assert!(SampleStats::decode(&v).is_none());
    }
}
