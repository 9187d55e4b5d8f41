//! The three simulation workloads: job lists generated from the seed,
//! the pinned configuration, the timed and traced passes, and their
//! correctness checks.

use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crow_mem::SchedImpl;
use crow_sim::campaign::fnv1a64;
use crow_sim::{
    Campaign, CampaignPolicy, CrowError, Engine, Journaled, Json, Mechanism, OutcomeCounts,
    OutcomeKind, SamplePlan, Scale, SimReport, System, SystemConfig,
};
use crow_workloads::{mixes_for_group, AppProfile, MixGroup};

use crate::tracing::{span, TimedTrace, TraceTally, Tracer};

/// Simulated CPU-cycle cap per job: far beyond any job here, so hitting
/// it means the simulator stopped making progress.
pub const MAX_CYCLES: u64 = 40_000_000_000;

/// One simulation job: applications (one per core), mechanism, size and
/// seed, all generated from the run's seed.
#[derive(Debug, Clone)]
pub struct SimJob {
    pub idx: u64,
    pub label: String,
    pub apps: Vec<&'static AppProfile>,
    pub mechanism: Mechanism,
    /// Instructions per core.
    pub insts: u64,
    /// Functional warmup instructions per core.
    pub warmup: u64,
    pub seed: u64,
    pub sample: Option<SamplePlan>,
}

impl SimJob {
    /// The paper platform with every field that could alter a run set
    /// explicitly, so nothing is read from the environment.
    pub fn config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::paper_default(self.mechanism)
            .with_density(8)
            .with_llc_bytes(8 << 20);
        cfg.channels = 4;
        cfg.seed = self.seed;
        cfg.oracle = false;
        cfg.validate_protocol = false;
        cfg.threads = 1;
        cfg.engine = Engine::EventDriven;
        cfg.mc.sched_impl = SchedImpl::Indexed;
        cfg.vrt_interval_cycles = None;
        cfg.mra_override = None;
        cfg.fault_plan = None;
        cfg.hammer = None;
        cfg.sample = self.sample;
        cfg.cpu.target_insts = self.insts;
        cfg
    }

    /// The journal fingerprint of the job within its campaign.
    pub fn fingerprint(&self) -> String {
        format!("{}/s{}", self.label, self.seed)
    }

    /// A copy scaled down to `insts` per core, for the short checks.
    pub fn shortened(&self, insts: u64, warmup: u64) -> Self {
        Self {
            insts,
            warmup,
            ..self.clone()
        }
    }

    /// Instructions the run covers (sampled runs: measured, detailed
    /// warmup and fast-forwarded) and of those the ones simulated in
    /// detail. The pre-run functional warmup counts toward neither.
    pub fn covered(&self, r: &SimReport) -> (f64, f64) {
        match &r.samples {
            Some(s) => (
                (s.measured_insts + s.warmed_insts + s.skipped_insts) as f64,
                (s.measured_insts + s.warmed_insts) as f64,
            ),
            None => {
                let n = (self.insts * self.apps.len() as u64) as f64;
                (n, n)
            }
        }
    }
}

/// SplitMix64: spreads a run seed into independent per-job seeds.
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(salt.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(0x94d0_49bb_1331_11eb);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn app(name: &str) -> &'static AppProfile {
    AppProfile::by_name(name).expect("suite application")
}

fn scaled(base: u64, factor: f64, min: u64) -> u64 {
    ((base as f64 * factor) as u64).max(min)
}

/// Reference sizes, calibrated so that a measured pass (every job run
/// eight times) lasts about [`REF_SECONDS`] on a 2-core host; a run of
/// `s` seconds scales every instruction count by `s / REF_SECONDS`.
pub const REF_SECONDS: f64 = 20.0;
const SINGLE_WARMUP: u64 = 200_000;
const FULL_INSTS: u64 = 800_000;
const FULL_WARMUP: u64 = 100_000;
const SAMPLED_INSTS: u64 = 2_800_000;
const SAMPLED_WARMUP: u64 = 200_000;

/// Applications of `single-membound` with their instructions: each job
/// takes about the same host time, so no application dominates the pass
/// and the median job is a typical one.
const SINGLE_APPS: [(&str, u64); 6] = [
    ("mcf", 1_100_000),
    ("omnetpp", 2_500_000),
    ("soplex", 2_000_000),
    ("milc", 2_250_000),
    ("libq", 2_700_000),
    ("random", 350_000),
];
const FULL_GROUPS: [MixGroup; 3] = [MixGroup::Llll, MixGroup::Llmm, MixGroup::Mmmm];
/// Longest first, so the two campaign workers finish together.
const SAMPLED_GROUPS: [MixGroup; 3] = [MixGroup::Hhhh, MixGroup::Mmhh, MixGroup::Llhh];
const MIXES_PER_GROUP: usize = 2;
/// `mix4-full` runs more, shorter jobs: a job's fastest run is likelier
/// undisturbed the shorter it is (see [`run_sequential`]).
const FULL_MIXES_PER_GROUP: usize = 4;
/// The mixes are one fixed draw per group, while the run seed drives
/// every job's own seed (trace streams, page tables, weak rows). Mixes
/// drawn from the run seed would change how much work a run holds: over
/// ten seeds that spread `mix4-full` throughput by about 10%, more than
/// any change the benchmark should resolve.
const MIX_DRAW_SEED: u64 = 1;

/// `single-membound`: six memory-bound applications alone on the paper
/// platform under baseline, CROW-8 and CROW-8 with CROW-ref.
pub fn single_membound(seed: u64, factor: f64) -> Vec<SimJob> {
    let mechs = [
        Mechanism::Baseline,
        Mechanism::crow_cache(8),
        Mechanism::crow_combined(),
    ];
    let mut jobs = Vec::new();
    for (name, insts) in SINGLE_APPS {
        for mech in mechs {
            let idx = jobs.len() as u64;
            jobs.push(SimJob {
                idx,
                label: format!("{name}/{}", mech.label()),
                apps: vec![app(name)],
                mechanism: mech,
                insts: scaled(insts, factor, 2_000),
                warmup: scaled(SINGLE_WARMUP, factor, 1_000),
                seed: mix_seed(seed, idx),
                sample: None,
            });
        }
    }
    jobs
}

fn mix_jobs(
    seed: u64,
    groups: &[MixGroup],
    per_group: usize,
    insts: u64,
    warmup: u64,
    sample: Option<SamplePlan>,
) -> Vec<SimJob> {
    let mut jobs = Vec::new();
    for &group in groups {
        for mix in mixes_for_group(group, per_group, MIX_DRAW_SEED) {
            for mech in [Mechanism::Baseline, Mechanism::crow_cache(8)] {
                let idx = jobs.len() as u64;
                let names: Vec<&str> = mix.iter().map(|a| a.name).collect();
                jobs.push(SimJob {
                    idx,
                    label: format!("{}:{}/{}", group.label(), names.join("+"), mech.label()),
                    apps: mix.to_vec(),
                    mechanism: mech,
                    insts,
                    warmup,
                    seed: mix_seed(seed, idx),
                    sample,
                });
            }
        }
    }
    jobs
}

/// `mix4-full`: four-core low- and medium-intensity mixes in full
/// detail under baseline and CROW-8.
pub fn mix4_full(seed: u64, factor: f64) -> Vec<SimJob> {
    mix_jobs(
        seed,
        &FULL_GROUPS,
        FULL_MIXES_PER_GROUP,
        scaled(FULL_INSTS, factor, 2_000),
        scaled(FULL_WARMUP, factor, 1_000),
        None,
    )
}

/// `mix4-sampled`: four-core mixes with high-intensity members under
/// the default interval-sampling plan.
pub fn mix4_sampled(seed: u64, factor: f64) -> Vec<SimJob> {
    mix_jobs(
        seed,
        &SAMPLED_GROUPS,
        MIXES_PER_GROUP,
        scaled(SAMPLED_INSTS, factor, 20_000),
        scaled(SAMPLED_WARMUP, factor, 1_000),
        Some(SamplePlan::default_profile()),
    )
}

/// Where a traced job sends its trace-record counts.
#[derive(Clone, Default)]
pub struct Probe {
    pub tally: Option<Arc<TraceTally>>,
    /// Memory accesses of core 0 to keep for the layer replays.
    pub record: usize,
}

/// Builds, warms and runs one job through the public API, inside spans
/// when a tracer is given. A job that does not finish is an error.
pub fn run_job(
    job: &SimJob,
    scale: (u64, u64),
    tracer: Option<&Tracer>,
    parent: u64,
    probe: &Probe,
) -> Result<SimReport, CrowError> {
    let jid = Some(job.idx);
    span(tracer, "job", parent, jid, |id| {
        let mut cfg = job.config();
        cfg.cpu.target_insts = scale.0;
        let mut sys = span(tracer, "system.new", id, jid, |_| match &probe.tally {
            None => System::try_new(cfg, &job.apps),
            Some(tally) => {
                let traces = job
                    .apps
                    .iter()
                    .enumerate()
                    .map(|(i, a)| {
                        // The seed derivation of `System::try_new`, so a
                        // traced job simulates exactly the untraced one.
                        let inner = a.trace(cfg.seed.wrapping_add(i as u64 * 0x5bd1_e995));
                        let cap = if i == 0 { probe.record } else { 0 };
                        Box::new(TimedTrace::new(inner, Arc::clone(tally), cap))
                            as Box<dyn crow_cpu::TraceSource>
                    })
                    .collect();
                System::try_with_traces(cfg, traces)
            }
        })?;
        span(tracer, "cpu.warm", id, jid, |_| sys.warm(scale.1));
        let r = span(tracer, "system.run", id, jid, |_| {
            sys.run_checked(MAX_CYCLES)
        })?;
        if !r.finished || r.trace_faults > 0 {
            return Err(CrowError::Request {
                reason: format!("{} did not reach its instruction target", job.label),
            });
        }
        Ok(r)
    })
}

/// FNV-1a over the journal encodings of `reports` without the two
/// wall-clock fields, which differ on every run by construction.
pub fn digest<'a>(reports: impl IntoIterator<Item = &'a SimReport>) -> u64 {
    let mut text = String::new();
    for r in reports {
        text.push_str(&strip_wall(r.encode()).render());
        text.push('\n');
    }
    fnv1a64(text.as_bytes())
}

fn strip_wall(doc: Json) -> Json {
    match doc {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| k != "wall_seconds" && k != "sim_cycles_per_sec")
                .collect(),
        ),
        other => other,
    }
}

/// What a timed (or traced) pass over a job list produced.
#[derive(Debug, Default)]
pub struct Batch {
    /// Per job, in job order; `None` for a failed job.
    pub reports: Vec<Option<SimReport>>,
    /// Host seconds of each successful job, at its fastest run.
    pub latencies: Vec<f64>,
    /// The sum of `latencies`.
    pub wall: f64,
    /// Host seconds of the whole pass, every round included.
    pub elapsed: f64,
    pub errors: Vec<String>,
    /// Campaign outcome counters (sampled workload only).
    pub campaign: Option<CampaignInfo>,
}

#[derive(Debug, Default, Clone)]
pub struct CampaignInfo {
    pub jobs: u64,
    pub retries: u64,
    pub resume_secs: f64,
    pub restored: u64,
    pub rerun: u64,
    pub resume_digest: u64,
    pub resume_errors: Vec<String>,
}

impl Batch {
    pub fn ok_reports(&self) -> impl Iterator<Item = &SimReport> {
        self.reports.iter().flatten()
    }

    pub fn digest(&self) -> u64 {
        digest(self.ok_reports())
    }

    /// Sets each successful job's time from `best`, its fastest run.
    fn set_fastest(&mut self, best: Vec<f64>) {
        self.latencies = best
            .into_iter()
            .zip(&self.reports)
            .filter(|(t, r)| r.is_some() && t.is_finite())
            .map(|(t, _)| t)
            .collect();
        self.wall = self.latencies.iter().sum();
    }
}

/// Runs the jobs one after another on this thread, the whole list
/// `reps` times. With several rounds, round `r` runs job `j` pinned to
/// CPU `(j + r) % cpus`, and a job's time is its fastest run: on a
/// shared host either CPU runs 1.6 to 1.8 times slower than usual for
/// a share of the time that itself drifts from a third to nearly all
/// over minutes, switching within a second, so the more runs of a job
/// spread over the pass, the likelier one of them is undisturbed. Every
/// run of a job must report exactly the same.
pub fn run_sequential(
    jobs: &[SimJob],
    tracer: Option<&Tracer>,
    parent: u64,
    probes: &[Probe],
    reps: usize,
) -> Batch {
    let mut b = Batch::default();
    let started = Instant::now();
    let cpus = crate::host::cpus();
    let mut best = vec![f64::INFINITY; jobs.len()];
    b.reports = vec![None; jobs.len()];
    let mut failed = vec![false; jobs.len()];
    for r in 0..reps {
        for (j, (job, probe)) in jobs.iter().zip(probes).enumerate() {
            if failed[j] {
                continue;
            }
            if reps > 1 {
                crate::host::pin_thread([(j + r) % cpus]);
            }
            let t = Instant::now();
            match run_job(job, (job.insts, job.warmup), tracer, parent, probe) {
                Ok(rep) => {
                    best[j] = best[j].min(t.elapsed().as_secs_f64());
                    match &b.reports[j] {
                        Some(first) if digest([first]) != digest([&rep]) => {
                            b.errors
                                .push(format!("{}: runs report differently", job.label));
                        }
                        Some(_) => {}
                        None => b.reports[j] = Some(rep),
                    }
                }
                Err(e) => {
                    b.errors.push(format!("{}: {e}", job.label));
                    b.reports[j] = None;
                    failed[j] = true;
                }
            }
        }
    }
    if reps > 1 {
        crate::host::pin_thread(0..cpus);
    }
    b.elapsed = started.elapsed().as_secs_f64();
    b.set_fastest(best);
    b
}

fn campaign_policy(jobs: &[SimJob], resume: bool) -> CampaignPolicy {
    let first = &jobs[0];
    CampaignPolicy {
        scale: Scale {
            insts: first.insts,
            warmup: first.warmup,
            mixes_per_group: MIXES_PER_GROUP,
            max_cycles: MAX_CYCLES,
            threads: 1,
            checkpoints: false,
            sample: first.sample,
        },
        timeout: None,
        max_retries: 1,
        min_insts: 10_000,
        backoff: std::time::Duration::from_millis(100),
        threads: 2,
        resume,
    }
}

/// Reports, errors, per-job host seconds and counters of one campaign.
type Round = (
    Vec<Option<SimReport>>,
    Vec<String>,
    Vec<(u64, f64)>,
    OutcomeCounts,
);

/// Runs the jobs as a journaled campaign in `dir` with two worker
/// threads.
fn campaign_round(
    jobs: &[SimJob],
    dir: &Path,
    tracer: Option<Arc<Tracer>>,
    parent: u64,
    probes: &[Probe],
) -> Result<Round, String> {
    let mut camp = Campaign::at_dir("crowbench", campaign_policy(jobs, false), dir)
        .map_err(|e| e.to_string())?;
    let work: Vec<(String, (SimJob, Probe))> = jobs
        .iter()
        .zip(probes)
        .map(|(j, p)| (j.fingerprint(), (j.clone(), p.clone())))
        .collect();
    let latencies = Arc::new(Mutex::new(Vec::new()));
    let lat = Arc::clone(&latencies);
    let outcomes = camp.run(work, move |(job, probe): &(SimJob, Probe), scale: Scale| {
        let t = Instant::now();
        let r = run_job(
            job,
            (scale.insts, scale.warmup),
            tracer.as_deref(),
            parent,
            probe,
        );
        if r.is_ok() {
            lat.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push((job.idx, t.elapsed().as_secs_f64()));
        }
        r
    });
    let mut reports = Vec::new();
    let mut errors = Vec::new();
    for (job, o) in jobs.iter().zip(outcomes) {
        if o.kind == OutcomeKind::Ok {
            reports.push(o.result);
        } else {
            errors.push(format!(
                "{}: {} ({})",
                job.label,
                o.kind.as_str(),
                o.error.unwrap_or_default()
            ));
            reports.push(None);
        }
    }
    let lat = std::mem::take(&mut *latencies.lock().unwrap_or_else(PoisonError::into_inner));
    Ok((reports, errors, lat, camp.counts()))
}

/// Runs the jobs as `rounds` journaled campaigns (a fresh journal each)
/// with two worker threads, then resumes the last one from its journal.
/// Each job's time is its fastest run, as in [`run_sequential`]: a
/// round's own wall time needs both CPUs undisturbed at once and so
/// spread twice as widely across runs. Every round must report exactly
/// the same.
pub fn run_campaign(
    jobs: &[SimJob],
    dir: &Path,
    tracer: Option<Arc<Tracer>>,
    parent: u64,
    probes: &[Probe],
    rounds: usize,
) -> Batch {
    let mut b = Batch::default();
    let started = Instant::now();
    let tr = tracer.as_deref();
    let mut best = vec![f64::INFINITY; jobs.len()];
    let mut counts = OutcomeCounts::default();
    let mut round_dir = dir.to_path_buf();
    for round in 0..rounds {
        round_dir = dir.join(format!("round{round}"));
        let result = span(tr, "campaign.run", parent, None, |cid| {
            campaign_round(jobs, &round_dir, tracer.clone(), cid, probes)
        });
        let (reports, errors, lat, c) = match result {
            Ok(x) => x,
            Err(e) => {
                b.errors.push(format!("campaign: {e}"));
                b.reports = vec![None; jobs.len()];
                return b;
            }
        };
        b.errors.extend(errors);
        counts = c;
        for (idx, secs) in lat {
            let slot = &mut best[usize::try_from(idx).expect("job index fits")];
            *slot = slot.min(secs);
        }
        if round == 0 {
            b.reports = reports;
        } else if digest(reports.iter().flatten()) != b.digest() {
            b.errors.push("campaign rounds report differently".into());
        }
    }
    b.elapsed = started.elapsed().as_secs_f64();
    b.set_fastest(best);
    let t = Instant::now();
    let info = span(tr, "campaign.resume", parent, None, |_| {
        resume(jobs, &round_dir)
    });
    b.campaign = Some(CampaignInfo {
        jobs: counts.total(),
        retries: counts.retries,
        resume_secs: t.elapsed().as_secs_f64(),
        ..info
    });
    b
}

/// Reopens the campaign journal and runs the same jobs again: every
/// job must come back restored, none re-run.
fn resume(jobs: &[SimJob], dir: &Path) -> CampaignInfo {
    let mut info = CampaignInfo::default();
    let mut camp = match Campaign::at_dir("crowbench", campaign_policy(jobs, true), dir) {
        Ok(c) => c,
        Err(e) => {
            info.resume_errors.push(format!("resume: {e}"));
            return info;
        }
    };
    let work: Vec<(String, ())> = jobs.iter().map(|j| (j.fingerprint(), ())).collect();
    let outcomes = camp.run(work, |_: &(), _: Scale| -> Result<SimReport, CrowError> {
        Err(CrowError::Request {
            reason: "a journaled job was run again".into(),
        })
    });
    let counts = camp.counts();
    info.restored = counts.skipped;
    info.rerun = counts.total() - counts.skipped;
    let restored: Vec<SimReport> = outcomes.into_iter().filter_map(|o| o.result).collect();
    if restored.len() != jobs.len() {
        info.resume_errors.push(format!(
            "resume restored {} of {} reports",
            restored.len(),
            jobs.len()
        ));
    }
    info.resume_digest = digest(&restored);
    info
}

/// Runs `job` with the shadow protocol validator and the data-integrity
/// oracle attached; any violation is an error.
pub fn checked_run(job: &SimJob) -> Result<(), String> {
    let mut cfg = job.config();
    cfg.validate_protocol = true;
    cfg.oracle = true;
    let outcome = std::panic::catch_unwind(|| -> Result<(), String> {
        let mut sys = System::try_new(cfg, &job.apps).map_err(|e| e.to_string())?;
        sys.warm(job.warmup);
        let r = sys.run_checked(MAX_CYCLES).map_err(|e| e.to_string())?;
        if r.violations != 0 || !r.finished {
            return Err(format!(
                "{} violations, finished {}",
                r.violations, r.finished
            ));
        }
        sys.assert_data_integrity();
        Ok(())
    });
    match outcome {
        Ok(r) => r.map_err(|e| format!("{} with validator and oracle: {e}", job.label)),
        Err(_) => Err(format!("{}: data-integrity oracle failed", job.label)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_lists_follow_the_workload_shapes() {
        let single = single_membound(1, 1.0);
        assert_eq!(single.len(), 18);
        assert!(single
            .iter()
            .all(|j| j.apps.len() == 1 && j.sample.is_none()));
        let full = mix4_full(1, 1.0);
        assert_eq!(full.len(), 24);
        assert!(full.iter().all(|j| j.apps.len() == 4));
        let sampled = mix4_sampled(1, 1.0);
        assert_eq!(sampled.len(), 12);
        assert!(sampled[0].label.starts_with("HHHH"), "longest first");
        assert!(sampled.iter().all(|j| j.sample.is_some()));
    }

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        let seeds = |s| mix4_full(s, 1.0).iter().map(|j| j.seed).collect::<Vec<_>>();
        assert_eq!(seeds(3), seeds(3));
        assert_ne!(seeds(3), seeds(4));
        let labels = |s| {
            mix4_full(s, 1.0)
                .iter()
                .map(|j| j.label.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(labels(3), labels(4), "the same mixes on every seed");
    }

    #[test]
    fn config_pins_the_environment_sensitive_fields() {
        let cfg = single_membound(1, 1.0)[0].config();
        assert!(!cfg.validate_protocol && !cfg.oracle);
        assert_eq!(cfg.threads, 1);
        assert_eq!(cfg.engine, Engine::EventDriven);
        assert_eq!(cfg.mc.sched_impl, SchedImpl::Indexed);
    }

    #[test]
    fn traced_and_untraced_runs_report_the_same() {
        let job = single_membound(5, 1.0)[1].shortened(20_000, 2_000);
        let plain = run_job(&job, (job.insts, job.warmup), None, 0, &Probe::default()).unwrap();
        let tally = Arc::new(TraceTally::default());
        let probe = Probe {
            tally: Some(Arc::clone(&tally)),
            record: 100,
        };
        let traced = run_job(&job, (job.insts, job.warmup), None, 0, &probe).unwrap();
        assert_eq!(digest([&plain]), digest([&traced]));
        assert!(tally.entries.load(std::sync::atomic::Ordering::Relaxed) > 0);
        assert_eq!(tally.recorded().len(), 100);
    }
}
