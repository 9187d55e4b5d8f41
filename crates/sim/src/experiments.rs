//! The simulation scale and the one job runner behind every figure,
//! `crow-serve` and `simulate`.

use crow_workloads::AppProfile;

use crate::config::SystemConfig;
use crate::error::CrowError;
use crate::knobs::Knobs;
use crate::report::SimReport;
use crate::system::System;

/// Simulation scale knobs, overridable from the environment:
///
/// * `CROW_INSTS` — instructions per core (default 400 000);
/// * `CROW_WARMUP` — functional warmup instructions (default 50 000);
/// * `CROW_MIXES` — mixes per four-core group (default 3, paper uses 20);
/// * `CROW_SAMPLE` (+ `CROW_SAMPLE_WINDOW`/`_WARMUP`/`_FF`) — interval
///   sampling with per-window confidence intervals (default off); see
///   [`crate::sampling::SamplePlan::from_env`].
///
/// `CROW_THREADS`, `CROW_CHECKPOINTS` and `CROW_CHECKPOINT_DIR` belonged
/// to the removed sharded engine and warm checkpoints; setting any of
/// them is a configuration error.
///
/// The paper simulates 200 M instructions per app; the defaults keep a
/// full figure regeneration in the minutes range while preserving the
/// relative behaviour (see `EXPERIMENTS.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Instructions each core must retire.
    pub insts: u64,
    /// Functional warmup instructions per core.
    pub warmup: u64,
    /// Mixes per multi-core group.
    pub mixes_per_group: usize,
    /// Hard cap on simulated CPU cycles.
    pub max_cycles: u64,
    /// Inert, always 1: the sharded engine was removed. Kept only
    /// because `crowbench` builds a `Scale` literal; nothing reads it.
    pub threads: u32,
    /// Inert, always `false`: warm checkpoints were removed. Kept only
    /// because `crowbench` builds a `Scale` literal; nothing reads it.
    pub checkpoints: bool,
    /// Interval-sampling schedule (`None` = full detailed runs); see
    /// [`crate::sampling::SamplePlan`] and the `CROW_SAMPLE*` knobs.
    pub sample: Option<crate::sampling::SamplePlan>,
}

impl Scale {
    /// The default evaluation scale (env-overridable).
    ///
    /// A malformed override (`CROW_INSTS=4OO000`) is a configuration
    /// error, not a silent fallback to the default — quietly running a
    /// figure at the wrong scale is worse than refusing to start.
    pub fn from_env() -> Result<Self, CrowError> {
        Self::from_lookup(|k| std::env::var(k).ok())
    }

    /// [`Scale::from_env`] against an arbitrary variable lookup, so the
    /// parsing is testable without mutating process-global state.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, CrowError> {
        let env = Knobs::new("Scale", &lookup);
        for (key, removed) in [
            ("CROW_THREADS", "the sharded engine"),
            ("CROW_CHECKPOINTS", "the warm-checkpoint cache"),
            ("CROW_CHECKPOINT_DIR", "the warm-checkpoint cache"),
        ] {
            if env.raw(key).is_some() {
                return Err(env.err(format!("{key} is set, but {removed} was removed; unset it")));
            }
        }
        Ok(Self {
            insts: env.uint("CROW_INSTS", 1)?.unwrap_or(400_000),
            warmup: env.uint("CROW_WARMUP", 0)?.unwrap_or(50_000),
            mixes_per_group: env.uint("CROW_MIXES", 0)?.map_or(3, |n| n as usize),
            max_cycles: env.uint("CROW_MAX_CYCLES", 0)?.unwrap_or(2_000_000_000),
            threads: 1,
            checkpoints: false,
            sample: crate::sampling::SamplePlan::from_lookup(&lookup)?,
        })
    }

    /// A tiny scale for integration tests.
    pub fn tiny() -> Self {
        Self {
            insts: 30_000,
            warmup: 5_000,
            mixes_per_group: 1,
            max_cycles: 50_000_000,
            threads: 1,
            checkpoints: false,
            sample: None,
        }
    }

    /// A stable text fingerprint of the scale, embedded in campaign
    /// journal fingerprints so changing the scale invalidates journaled
    /// results instead of silently reusing them. The inert `threads` and
    /// `checkpoints` are excluded. A sampling plan changes what a run
    /// reports, so it joins the fingerprint (and full runs keep their
    /// historical fingerprints).
    pub fn fingerprint(&self) -> String {
        let mut fp = format!(
            "i{}w{}m{}c{}",
            self.insts, self.warmup, self.mixes_per_group, self.max_cycles
        );
        if let Some(p) = &self.sample {
            fp.push_str("/s");
            fp.push_str(&p.fingerprint());
        }
        fp
    }

    /// The journal key of job `job` at this scale,
    /// `{job}@{fingerprint}`: campaigns, `crow-serve` and `simulate` all
    /// key their journals with it.
    pub fn key(&self, job: &str) -> String {
        format!("{job}@{}", self.fingerprint())
    }
}

/// Runs one job: sets the instruction target and sampling plan from
/// `scale`, builds the system, warms it, runs it under
/// [`System::run_checked`] up to `scale.max_cycles`, and checks the
/// data-integrity oracle when one is attached.
///
/// # Errors
///
/// Returns the [`CrowError`] of the failed build or of
/// [`System::run_checked`].
///
/// # Panics
///
/// Panics if the oracle recorded a violation.
pub fn run_job(
    cfg: SystemConfig,
    apps: &[&AppProfile],
    scale: Scale,
) -> Result<SimReport, CrowError> {
    run_job_with(cfg, scale, |cfg| System::try_new(cfg, apps))
}

/// [`run_job`] over the system `build` makes from the prepared
/// configuration, e.g. recorded traces through
/// [`System::try_with_traces`]. Errors and panics as [`run_job`].
pub fn run_job_with(
    mut cfg: SystemConfig,
    scale: Scale,
    build: impl FnOnce(SystemConfig) -> Result<System, CrowError>,
) -> Result<SimReport, CrowError> {
    cfg.cpu.target_insts = scale.insts;
    cfg.sample = scale.sample;
    let mut sys = build(cfg)?;
    if scale.warmup > 0 {
        sys.warm(scale.warmup);
    }
    let r = sys.run_checked(scale.max_cycles)?;
    sys.assert_data_integrity();
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mechanism;

    #[test]
    fn scale_env_defaults() {
        let s = Scale::from_lookup(|_| None).unwrap();
        assert!(s.insts > 0 && s.warmup < s.insts * 10);
        assert_eq!(s.insts, 400_000);
    }

    #[test]
    fn scale_rejects_malformed_overrides() {
        // The motivating typo: O (letter) for 0 (digit).
        let err = Scale::from_lookup(|k| (k == "CROW_INSTS").then(|| "4OO000".into()))
            .unwrap_err()
            .to_string();
        assert!(err.contains("CROW_INSTS"), "names the variable: {err}");
        assert!(err.contains("4OO000"), "echoes the bad value: {err}");
        assert!(Scale::from_lookup(|k| (k == "CROW_MIXES").then(|| "-1".into())).is_err());
        assert!(Scale::from_lookup(|k| (k == "CROW_INSTS").then(|| "0".into())).is_err());
        let ok = Scale::from_lookup(|k| (k == "CROW_WARMUP").then(|| " 1000 ".into())).unwrap();
        assert_eq!(ok.warmup, 1000, "surrounding whitespace is tolerated");
    }

    #[test]
    fn knobs_of_removed_mechanisms_are_errors() {
        let s = Scale::from_lookup(|_| None).unwrap();
        assert_eq!((s.threads, s.checkpoints), (1, false), "defaults");
        // Any value is rejected, even one that asks for the old default.
        for (k, v) in [
            ("CROW_THREADS", "1"),
            ("CROW_THREADS", "4"),
            ("CROW_CHECKPOINTS", "0"),
            ("CROW_CHECKPOINTS", "1"),
            ("CROW_CHECKPOINT_DIR", "results/ckpt"),
        ] {
            let err = Scale::from_lookup(|q| (q == k).then(|| v.into()))
                .expect_err(&format!("{k}={v} must be rejected"))
                .to_string();
            assert!(err.contains(k) && err.contains("removed"), "{err}");
        }
        let mut cfg = SystemConfig::quick_test(Mechanism::Baseline);
        cfg.threads = 2;
        let app = AppProfile::by_name("mcf").unwrap();
        match System::try_new(cfg, &[app]) {
            Err(CrowError::Config(e)) => assert!(e.reason.contains("threads"), "{e}"),
            other => panic!("threads = 2 must be a ConfigError, got {other:?}"),
        }
    }

    #[test]
    fn scale_fingerprint_is_stable_and_distinct() {
        let a = Scale::tiny();
        let mut b = a;
        b.insts += 1;
        assert_eq!(a.fingerprint(), Scale::tiny().fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn scale_sampling_knobs_parse_and_join_the_fingerprint() {
        let s = Scale::from_lookup(|_| None).unwrap();
        assert_eq!(s.sample, None, "sampling defaults off");
        let s =
            Scale::from_lookup(|k| (k == "CROW_SAMPLE").then(|| "5000:2500:42500".into())).unwrap();
        let p = s.sample.expect("plan parsed");
        assert_eq!(p.window_insts, 5000);
        // Sampled and full runs must never collide in a journal.
        let mut full = Scale::tiny();
        let mut sampled = Scale::tiny();
        sampled.sample = Some(p);
        assert_ne!(full.fingerprint(), sampled.fingerprint());
        assert!(sampled.fingerprint().ends_with("/sw5000h2500f42500"));
        // Full runs keep their historical fingerprints.
        full.sample = None;
        assert_eq!(full.fingerprint(), "i30000w5000m1c50000000");
        // Malformed sampling knobs are configuration errors here too.
        assert!(Scale::from_lookup(|k| (k == "CROW_SAMPLE").then(|| "nope".into())).is_err());
        assert!(Scale::from_lookup(|k| (k == "CROW_SAMPLE_WINDOW").then(|| "x".into())).is_err());
    }

    #[test]
    fn single_run_on_tiny_scale() {
        // Uses the full paper platform but a tiny instruction budget.
        let app = AppProfile::by_name("gcc").unwrap();
        let cfg = SystemConfig::paper_default(Mechanism::Baseline);
        let r = run_job(cfg, &[app], Scale::tiny()).unwrap();
        assert!(r.finished);
        assert!(r.ipc[0] > 0.0);
    }
}
