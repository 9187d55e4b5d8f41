//! One workload in one process: set-up, the timed (or traced) pass,
//! the correctness checks, and the metrics derived from them.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use crow_sim::{SamplePlan, SimReport, System};

use crate::host;
use crate::replay;
use crate::serve::{self, Kind};
use crate::sim::{self, Batch, Probe, SimJob};
use crate::stats::{median, percentile, tail};
use crate::tracing::{span, timer_overhead_ns, TraceTally, Tracer};

/// How often the measured pass runs every job (see
/// [`sim::run_sequential`] and [`sim::run_campaign`]).
const REPS: usize = 8;
/// How often set-up is repeated; its median is reported.
const SETUP_REPS: usize = 5;
/// Instructions per core of the set-up run of the first job.
const SETUP_INSTS: u64 = 200_000;
const SERVE_SETUP_REPS: usize = 5;
/// Accesses of core 0 of the first job kept for the layer replays.
const RECORD: usize = 200_000;
/// Instructions per core of the short correctness jobs.
const CHECK_INSTS: u64 = 20_000;
/// Instructions per core of the jobs timed with and without tracing,
/// validator or oracle.
const OVERHEAD_INSTS: u64 = 150_000;
/// Generator lateness the open loop tolerates at its tail.
const MAX_LAG_SECS: f64 = 0.010;

/// Everything one run of one workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub digest: u64,
    /// Program counters: identical across runs with the same seed.
    pub counters: Vec<(&'static str, f64)>,
    pub metrics: Vec<(&'static str, f64)>,
}

/// Run parameters shared by the workloads.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Shrinks every size (1.0 for a measured run).
    pub shrink: f64,
    pub trace_dir: Option<PathBuf>,
    /// Scratch directory of this run (journals, sockets).
    pub workdir: PathBuf,
    /// The `crow-serve` binary.
    pub serve_bin: PathBuf,
}

impl Ctx {
    fn factor(&self) -> f64 {
        self.seconds / sim::REF_SECONDS * self.shrink
    }

    fn traced(&self) -> bool {
        self.trace_dir.is_some()
    }

    /// A smoke run: replays and probes shrink with the workloads.
    fn smoke(&self) -> bool {
        self.shrink < 1.0
    }
}

pub fn run(workload: &str, ctx: &Ctx) -> Outcome {
    let tracer = ctx.trace_dir.as_ref().map(|_| Tracer::new(workload));
    let mut out = match workload {
        "serve-mixed" => serve_mixed(ctx, tracer.as_deref()),
        _ => simulate(workload, ctx, tracer.clone()),
    };
    if let (Some(t), Some(dir)) = (&tracer, &ctx.trace_dir) {
        let path = dir.join(format!("{workload}-seed{}.spans.jsonl", ctx.seed));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| t.write(&path)) {
            out.problems.push(format!("{}: {e}", path.display()));
        }
    }
    out
}

// --- simulation workloads ---------------------------------------------

fn simulate(workload: &str, ctx: &Ctx, tracer: Option<Arc<Tracer>>) -> Outcome {
    let make: fn(u64, f64) -> Vec<SimJob> = match workload {
        "single-membound" => sim::single_membound,
        "mix4-full" => sim::mix4_full,
        _ => sim::mix4_sampled,
    };
    let sampled = workload == "mix4-sampled";
    let mut out = Outcome::default();

    // Set-up: generate the inputs, then build and briefly run the first
    // job, so that the process is warm before anything is timed. Each
    // round sets up four times on every CPU and keeps the fastest: the
    // rounds take about a second together, within which either CPU may
    // be slow most of the time.
    let mut setup = Vec::new();
    let mut jobs = Vec::new();
    let cpus = host::cpus();
    for _ in 0..SETUP_REPS {
        let mut best = f64::INFINITY;
        for cpu in (0..cpus).cycle().take(4 * cpus) {
            host::pin_thread([cpu]);
            let t = Instant::now();
            jobs = make(ctx.seed, ctx.factor());
            let first = jobs[0].shortened(SETUP_INSTS, SETUP_INSTS / 10);
            let scale = (first.insts, first.warmup);
            if let Err(e) = sim::run_job(&first, scale, None, 0, &Probe::default()) {
                out.problems.push(format!("set-up: {e}"));
            }
            best = best.min(t.elapsed().as_secs_f64());
        }
        setup.push(best);
    }
    host::pin_thread(0..cpus);

    let tallies: Vec<Arc<TraceTally>> = jobs.iter().map(|_| Arc::default()).collect();
    let probes: Vec<Probe> = tallies
        .iter()
        .enumerate()
        .map(|(i, t)| Probe {
            tally: ctx.traced().then(|| Arc::clone(t)),
            record: if i == 0 { RECORD } else { 0 },
        })
        .collect();
    let cpu0 = host::cpu_secs(None).unwrap_or(0.0);
    // The measured pass repeats every job; the traced pass runs it once.
    let reps = if ctx.traced() { 1 } else { REPS };
    let batch = span(tracer.as_deref(), "workload", 0, None, |root| {
        if sampled {
            let dir = ctx.workdir.join("campaign");
            sim::run_campaign(&jobs, &dir, tracer.clone(), root, &probes, reps)
        } else {
            sim::run_sequential(&jobs, tracer.as_deref(), root, &probes, reps)
        }
    });
    let cpu_s = host::cpu_secs(None).unwrap_or(0.0) - cpu0;
    let rss = host::peak_rss_mib(None).unwrap_or(0.0);

    out.attempted = jobs.len() as u64;
    out.failed = batch.reports.iter().filter(|r| r.is_none()).count() as u64;
    out.problems.extend(batch.errors.iter().cloned());
    out.digest = batch.digest();
    let totals = Totals::of(&jobs, &batch.reports);
    out.counters = totals.counters();
    if let Some(c) = &batch.campaign {
        out.problems.extend(c.resume_errors.iter().cloned());
        if c.restored != jobs.len() as u64 || c.rerun != 0 {
            out.problems.push(format!(
                "resume restored {} and re-ran {} of {} jobs",
                c.restored,
                c.rerun,
                jobs.len()
            ));
        }
        if c.resume_digest != out.digest {
            out.problems
                .push("resumed reports differ from the fresh ones".into());
        }
    }
    check_jobs(&jobs, sampled, &mut out.problems);

    match &tracer {
        None => {
            out.metrics = vec![
                ("setup_s", median(&setup)),
                ("wall_s", batch.wall),
                ("minst_per_s", totals.covered / batch.wall / 1e6),
                ("mcyc_per_s", totals.cpu_cycles / batch.wall / 1e6),
                ("rss_mib", rss),
                ("p50_ms", median(&batch.latencies) * 1e3),
            ];
        }
        Some(t) => {
            for (job, tally) in jobs.iter().zip(&tallies) {
                let n = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed) as f64;
                t.counter("workloads.entries", Some(job.idx), n(&tally.entries));
                t.counter("workloads.accesses", Some(job.idx), n(&tally.accesses));
            }
            let probe_job = jobs[1.min(jobs.len() - 1)].shortened(OVERHEAD_INSTS, 10_000);
            out.metrics = sim_layers(t, &jobs, &tallies, &totals, &probe_job, ctx);
            out.metrics.push(("host.cpu_s", cpu_s));
            out.metrics.push(("host.cpu_util", cpu_s / batch.elapsed));
            campaign_layers(&batch, ctx, &mut out);
        }
    }
    out
}

/// The short checks every simulation run makes: the validator and the
/// oracle stay clean, and tracing does not change a report.
fn check_jobs(jobs: &[SimJob], sampled: bool, problems: &mut Vec<String>) {
    // Prefer a CROW job: the oracle then follows remapped rows too.
    let job = &jobs[1.min(jobs.len() - 1)];
    let mut short = job.shortened(CHECK_INSTS, 2_000);
    if sampled {
        // Two windows, so a drain and a fast-forward are checked too.
        short.sample = Some(SamplePlan {
            window_insts: 5_000,
            warmup_insts: 2_500,
            ff_insts: 20_000,
        });
        short.insts = 60_000;
    }
    if let Err(e) = sim::checked_run(&short) {
        problems.push(e);
    }
    let scale = (short.insts, short.warmup);
    let plain = sim::run_job(&short, scale, None, 0, &Probe::default());
    let probe = Probe {
        tally: Some(Arc::default()),
        record: 0,
    };
    let traced = sim::run_job(&short, scale, None, 0, &probe);
    match (plain, traced) {
        (Ok(a), Ok(b)) if sim::digest([&a]) == sim::digest([&b]) => {}
        (Ok(_), Ok(_)) => problems.push("traced and untraced reports differ".into()),
        (Err(e), _) | (_, Err(e)) => problems.push(format!("trace check: {e}")),
    }
}

/// Sums over a batch's successful reports.
#[derive(Debug, Default)]
struct Totals {
    jobs: f64,
    covered: f64,
    detailed: f64,
    cpu_cycles: f64,
    mpki: f64,
    acts: f64,
    reads: f64,
    requests: f64,
    row_hits: f64,
    row_opens: f64,
    read_latency: f64,
    picks: f64,
    scanned: f64,
    wakeup_skips: f64,
    lookups: f64,
    crow_hits: f64,
    restore_evictions: f64,
    windows: f64,
    drain_cycles: f64,
    ci_pct: f64,
    sampled_jobs: f64,
}

impl Totals {
    fn of(jobs: &[SimJob], reports: &[Option<SimReport>]) -> Self {
        let mut t = Totals::default();
        for (job, r) in jobs.iter().zip(reports) {
            let Some(r) = r else { continue };
            let (covered, detailed) = job.covered(r);
            t.jobs += 1.0;
            t.covered += covered;
            t.detailed += detailed;
            t.cpu_cycles += r.cpu_cycles as f64;
            t.mpki += r.mpki.iter().sum::<f64>() / r.mpki.len().max(1) as f64;
            t.acts += r.commands.total_activations() as f64;
            t.reads += r.mc.reads as f64;
            t.requests += (r.mc.reads + r.mc.writes) as f64;
            t.row_hits += r.mc.row_hits as f64;
            t.row_opens += (r.mc.row_hits + r.mc.row_misses + r.mc.row_conflicts) as f64;
            t.read_latency += r.mc.read_latency_sum as f64;
            t.picks += r.sched.picks as f64;
            t.scanned += r.sched.scanned as f64;
            t.wakeup_skips += r.sched.wakeup_skips as f64;
            t.lookups += r.crow.cache_lookups as f64;
            t.crow_hits += r.crow.cache_hits as f64;
            t.restore_evictions += r.crow.restore_evictions as f64;
            if let Some(s) = &r.samples {
                t.sampled_jobs += 1.0;
                t.windows += s.windows as f64;
                t.drain_cycles += s.drain_cycles as f64;
                if s.ipc.mean > 0.0 {
                    t.ci_pct += s.ipc.ci95 / s.ipc.mean * 100.0;
                }
            }
        }
        t
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("jobs", self.jobs),
            ("insts_covered", self.covered),
            ("cpu_cycles", self.cpu_cycles),
            ("mem_requests", self.requests),
            ("activations", self.acts),
            ("crow_hits", self.crow_hits),
        ]
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Per-layer metrics of a traced simulation pass.
fn sim_layers(
    t: &Tracer,
    jobs: &[SimJob],
    tallies: &[Arc<TraceTally>],
    totals: &Totals,
    probe_job: &SimJob,
    ctx: &Ctx,
) -> Vec<(&'static str, f64)> {
    let warm_s = t.total_secs("cpu.warm");
    let run_s = t.total_secs("system.run");
    let new_ms = median(&t.durations("system.new")) * 1e3;
    let sim_s = warm_s + run_s;
    let timer = timer_overhead_ns();
    let entries: f64 = tallies
        .iter()
        .map(|x| x.entries.load(Ordering::Relaxed) as f64)
        .sum();
    let accesses: f64 = tallies
        .iter()
        .map(|x| x.accesses.load(Ordering::Relaxed) as f64)
        .sum();
    let trace_s: f64 = tallies.iter().map(|x| x.self_secs(timer)).sum();
    let replay_secs = if ctx.smoke() {
        0.0
    } else {
        replay::MIN_REPLAY_SECS
    };
    let cores = jobs[0].apps.len() as u32;
    let r = replay::replay_stream(
        &tallies[0].recorded(),
        &jobs[0].config(),
        cores,
        replay_secs,
    );
    let share = |ns: f64, n: f64| ratio(ns * n * 1e-9, sim_s);
    let trace_share = ratio(trace_s, sim_s);
    let llc_share = share(r.llc_ns_per_access, accesses);
    let decode_share = share(r.decode_ns, totals.requests);
    let mem_share = share(r.mem_ns_per_request, totals.requests);
    let core_share = share(r.ns_per_decide, totals.lookups + totals.restore_evictions);
    let reps = if ctx.smoke() { 1 } else { 5 };
    let probe = |cfg_fn: fn(&mut crow_sim::SystemConfig)| {
        move || {
            let mut cfg = probe_job.config();
            cfg_fn(&mut cfg);
            let mut sys = System::try_new(cfg, &probe_job.apps).expect("probe job builds");
            sys.warm(probe_job.warmup);
            std::hint::black_box(sys.run(sim::MAX_CYCLES));
        }
    };
    let (plain, validated) =
        replay::alternate(reps, probe(|_| {}), probe(|c| c.validate_protocol = true));
    let (plain2, oracled) = replay::alternate(reps, probe(|_| {}), probe(|c| c.oracle = true));
    let scale = (probe_job.insts, probe_job.warmup);
    let (untraced, traced) = replay::alternate(
        reps,
        || {
            let _ = sim::run_job(probe_job, scale, None, 0, &Probe::default());
        },
        || {
            let probe = Probe {
                tally: Some(Arc::default()),
                record: 0,
            };
            let _ = sim::run_job(probe_job, scale, None, 0, &probe);
        },
    );
    let mut m = vec![
        ("workloads.entries", entries),
        ("workloads.ns_per_entry", ratio(trace_s * 1e9, entries)),
        ("workloads.share", trace_share),
        ("cpu.mpki", ratio(totals.mpki, totals.jobs)),
        ("cpu.warm_s", warm_s),
        ("cpu.llc_ns_per_access", r.llc_ns_per_access),
        ("cpu.llc_replay_hit_ratio", r.llc_hit_ratio),
        ("cpu.llc_est_share", llc_share),
        (
            "dram.acts_per_kinst",
            ratio(totals.acts, totals.detailed / 1e3),
        ),
        ("dram.decode_ns", r.decode_ns),
        (
            "dram.validator_overhead_pct",
            (validated / plain - 1.0) * 100.0,
        ),
        ("dram.oracle_overhead_pct", (oracled / plain2 - 1.0) * 100.0),
        ("mem.requests", totals.requests),
        (
            "mem.row_hit_ratio",
            ratio(totals.row_hits, totals.row_opens),
        ),
        (
            "mem.read_latency_memcyc",
            ratio(totals.read_latency, totals.reads),
        ),
        ("mem.sched_picks", totals.picks),
        ("mem.scanned_per_pick", ratio(totals.scanned, totals.picks)),
        ("mem.wakeup_skips", totals.wakeup_skips),
        ("mem.ns_per_request", r.mem_ns_per_request),
        ("mem.est_share", mem_share),
        ("core.crow_lookups", totals.lookups),
        (
            "core.crow_hit_ratio",
            ratio(totals.crow_hits, totals.lookups),
        ),
        ("core.restore_evictions", totals.restore_evictions),
        ("core.ns_per_decide", r.ns_per_decide),
        ("system.new_ms", new_ms),
        ("system.run_s", run_s),
        ("system.ns_per_cycle", ratio(run_s * 1e9, totals.cpu_cycles)),
        (
            "system.unattributed_share",
            1.0 - trace_share - llc_share - decode_share - mem_share - core_share,
        ),
        ("trace.overhead_pct", (traced / untraced - 1.0) * 100.0),
    ];
    if totals.sampled_jobs > 0.0 {
        m.extend([
            ("sampling.windows", totals.windows),
            (
                "sampling.detailed_frac",
                ratio(totals.detailed, totals.covered),
            ),
            ("sampling.drain_cycles", totals.drain_cycles),
            ("sampling.ipc_ci95_pct", totals.ci_pct / totals.sampled_jobs),
        ]);
    }
    let micro = if ctx.smoke() { 0.001 } else { 0.25 };
    m.extend(replay::micro_cases(micro));
    m
}

/// Campaign and journal layers: the campaign's own counters (sampled
/// workload) and the codec and append replays (every workload).
fn campaign_layers(batch: &Batch, ctx: &Ctx, out: &mut Outcome) {
    if let Some(c) = &batch.campaign {
        out.metrics.extend([
            ("campaign.jobs", c.jobs as f64),
            ("campaign.retries", c.retries as f64),
            ("campaign.resume_ms", c.resume_secs * 1e3),
        ]);
    }
    if let Some(r) = batch.ok_reports().next() {
        codec_layers(r, ctx, out);
    }
}

fn codec_layers(report: &SimReport, ctx: &Ctx, out: &mut Outcome) {
    let secs = if ctx.smoke() { 0.0 } else { 0.05 };
    let (enc, dec) = replay::codec(report, secs);
    out.metrics.push(("campaign.json_encode_us", enc));
    out.metrics.push(("campaign.json_decode_us", dec));
    let n = if ctx.smoke() { 4 } else { 32 };
    match replay::journal_append(&ctx.workdir, report, n) {
        Ok((p50, p95)) => {
            out.metrics.push(("campaign.append_us_p50", p50));
            out.metrics.push(("campaign.append_us_p95", p95));
        }
        Err(e) => out.problems.push(format!("journal append replay: {e}")),
    }
}

// --- serve-mixed ------------------------------------------------------

fn serve_mixed(ctx: &Ctx, tracer: Option<&Tracer>) -> Outcome {
    let mut out = Outcome::default();
    match serve_inner(ctx, tracer, &mut out) {
        Ok(()) => {}
        Err(e) => {
            out.problems.push(e);
            out.failed = out.attempted.max(1);
            out.attempted = out.attempted.max(1);
        }
    }
    out
}

fn serve_inner(ctx: &Ctx, tracer: Option<&Tracer>, out: &mut Outcome) -> Result<(), String> {
    let n_primed = ((serve::PRIMED as f64 * ctx.shrink) as usize).clamp(4, serve::PRIMED);
    let seconds = ctx.seconds * ctx.shrink;

    // Set-up: boot a server on a fresh journal and prime it; repeated,
    // keeping the last server.
    let mut setup = Vec::new();
    let mut boots = Vec::new();
    let mut kept = None;
    let mut primed_seen = Vec::new();
    let mut arrivals = Vec::new();
    let mut primed = Vec::new();
    for k in 0..SERVE_SETUP_REPS {
        let t = Instant::now();
        primed = serve::primed(ctx.seed, n_primed);
        arrivals = serve::schedule(ctx.seed, seconds, serve::RATE, n_primed);
        let server = serve::Server::start(&ctx.serve_bin, &ctx.workdir.join(format!("srv{k}")))?;
        primed_seen = serve::prime(&server, &primed)?;
        setup.push(t.elapsed().as_secs_f64());
        boots.push(server.boot_secs);
        if let Some(old) = kept.replace(server) {
            old.stop()?;
        }
    }
    let server = kept.expect("at least one set-up");
    for (i, s) in primed_seen.iter().enumerate() {
        if !s.is_result() || s.cached() || !s.body().starts_with(",\"outcome\":\"ok\"") {
            return Err(format!("priming job {i} failed: {}", s.line));
        }
    }

    let before = server.stats()?;
    let cpu0 =
        host::cpu_secs(Some(server.pid())).unwrap_or(0.0) + host::cpu_secs(None).unwrap_or(0.0);
    let lp = span(tracer, "serve.open_loop", 0, None, |_| {
        serve::open_loop(&server, &arrivals, &primed)
    })?;
    let cpu_s = host::cpu_secs(Some(server.pid())).unwrap_or(0.0)
        + host::cpu_secs(None).unwrap_or(0.0)
        - cpu0;
    let after = server.stats()?;
    let rss = host::peak_rss_mib(Some(server.pid())).unwrap_or(0.0);
    let stat = |k: &str| {
        let g = |d: &crow_sim::Json| d.get(k).and_then(crow_sim::Json::as_u64).unwrap_or(0);
        (g(&after) - g(&before)) as f64
    };
    server.stop()?;

    // Per-request timings and checks.
    let secs = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64();
    let (mut hit_lat, mut fresh_lat, mut wait, mut run) = (vec![], vec![], vec![], vec![]);
    // Per fresh-job shape, its fastest run: (seconds, instructions, cycles).
    let mut fastest: BTreeMap<String, (f64, f64, f64)> = BTreeMap::new();
    let mut good = 0usize;
    let mut reports = Vec::new();
    let mut fresh_checked = Vec::new();
    let mut last = lp.start;
    out.attempted = arrivals.len() as u64;
    for (i, (a, s)) in arrivals.iter().zip(&lp.seen).enumerate() {
        let Some(done) = s.done else {
            out.failed += 1;
            continue;
        };
        last = last.max(done);
        if !s.is_result() {
            out.failed += 1;
            out.problems.push(format!("request {i}: {}", s.line));
            continue;
        }
        let l = secs(lp.due[i], done);
        let Some(report) = s.report() else {
            out.failed += 1;
            out.problems
                .push(format!("request {i}: undecodable report"));
            continue;
        };
        match &a.kind {
            Kind::Hit(j) => {
                hit_lat.push(l);
                good += usize::from(l <= serve::HIT_SLO.as_secs_f64());
                if !s.cached() || s.body() != primed_seen[*j].body() {
                    out.problems
                        .push(format!("request {i}: cached reply differs from priming"));
                }
            }
            Kind::Fresh(req) => {
                fresh_lat.push(l);
                good += usize::from(l <= serve::FRESH_SLO.as_secs_f64());
                if s.cached() {
                    out.problems
                        .push(format!("request {i}: fresh job answered from cache"));
                }
                let started = s.started.unwrap_or(done);
                wait.push(secs(lp.due[i], started));
                run.push(secs(started, done));
                // The server's own timing of `System::run`, free of
                // queueing, journal fsync and reply transit. Each shape
                // recurs several times a run with other seeds; like a
                // simulation job, it counts its fastest run, which is the
                // one that met neither a slowed vCPU nor the other worker.
                let best = fastest
                    .entry(req.shape())
                    .or_insert((f64::INFINITY, 0.0, 0.0));
                if report.wall_seconds < best.0 {
                    *best = (
                        report.wall_seconds,
                        req.total_insts() as f64,
                        report.cpu_cycles as f64,
                    );
                }
                if fresh_checked.len() < 2 {
                    fresh_checked.push((req.clone(), report.clone()));
                }
            }
        }
        reports.push(report);
    }
    out.digest = sim::digest(&reports);
    let wall = secs(lp.start, last);
    let lag = tail(&lp.lateness).0;
    if lag > MAX_LAG_SECS {
        out.problems.push(format!(
            "open-loop generator ran {:.1} ms late at its tail",
            lag * 1e3
        ));
    }
    // The server's answer for a fresh job is the in-process simulation's.
    let local_jobs: Vec<SimJob> = fresh_checked.iter().map(|(r, _)| r.as_job()).collect();
    let local_tallies: Vec<Arc<TraceTally>> = local_jobs.iter().map(|_| Arc::default()).collect();
    let mut local_reports = Vec::new();
    for (k, ((_, served), job)) in fresh_checked.iter().zip(&local_jobs).enumerate() {
        let probe = Probe {
            tally: tracer.map(|_| Arc::clone(&local_tallies[k])),
            record: if k == 0 { RECORD } else { 0 },
        };
        match sim::run_job(job, (job.insts, job.warmup), tracer, 0, &probe) {
            Ok(local) => {
                if sim::digest([served]) != sim::digest([&local]) {
                    out.problems.push(format!(
                        "{}: served report differs from local run",
                        job.label
                    ));
                }
                local_reports.push(Some(local));
            }
            Err(e) => {
                out.problems.push(format!("{}: {e}", job.label));
                local_reports.push(None);
            }
        }
    }
    out.counters = vec![
        ("requests", arrivals.len() as f64),
        ("hits", hit_lat.len() as f64),
        ("fresh", fresh_lat.len() as f64),
        ("server.cache_hits", stat("cache_hits")),
        ("server.jobs_run", stat("jobs_run")),
        ("server.cycles_simulated", stat("cycles_simulated")),
    ];
    if stat("shed") > 0.0 {
        out.problems
            .push(format!("server shed {} requests", stat("shed")));
    }

    let Some(t) = tracer else {
        let (sim_total, fresh_insts, fresh_cycles) = fastest
            .values()
            .fold((0.0, 0.0, 0.0), |(s, i, c), b| (s + b.0, i + b.1, c + b.2));
        out.metrics = vec![
            ("setup_s", median(&setup)),
            ("wall_s", wall),
            ("minst_per_s", ratio(fresh_insts, sim_total) / 1e6),
            ("mcyc_per_s", ratio(fresh_cycles, sim_total) / 1e6),
            ("rss_mib", rss),
            // Cached replies only: three in four requests, so the median
            // of all of them sits where a few more fresh jobs queued
            // ahead of cached replies move it a long way.
            ("p50_ms", median(&hit_lat) * 1e3),
        ];
        return Ok(());
    };
    let ms = |v: &[f64], p: f64| percentile(v, p) * 1e3;
    out.metrics = vec![
        ("server.boot_ms", median(&boots) * 1e3),
        ("server.cache_hits", stat("cache_hits")),
        ("server.jobs_run", stat("jobs_run")),
        ("server.shed", stat("shed")),
        ("server.cycles_simulated", stat("cycles_simulated")),
        ("server.queue_wait_ms_p50", ms(&wait, 50.0)),
        ("server.queue_wait_ms_p95", ms(&wait, 95.0)),
        ("server.run_ms_p50", ms(&run, 50.0)),
        ("server.run_ms_p95", ms(&run, 95.0)),
        ("client.hit_p50_ms", median(&hit_lat) * 1e3),
        ("client.hit_tail_ms", tail(&hit_lat).0 * 1e3),
        ("client.fresh_p50_ms", median(&fresh_lat) * 1e3),
        ("client.fresh_tail_ms", tail(&fresh_lat).0 * 1e3),
        ("client.goodput_rps", ratio(good as f64, wall)),
        ("client.gen_lag_tail_ms", lag * 1e3),
        ("host.cpu_s", cpu_s),
        ("host.cpu_util", ratio(cpu_s, wall)),
    ];
    // The simulation layers, from the fresh jobs re-run here traced.
    if !local_jobs.is_empty() {
        let totals = Totals::of(&local_jobs, &local_reports);
        let probe_job = local_jobs[0].clone();
        out.metrics.extend(sim_layers(
            t,
            &local_jobs,
            &local_tallies,
            &totals,
            &probe_job,
            ctx,
        ));
    }
    if let Some(r) = reports.first() {
        codec_layers(r, ctx, out);
    }
    Ok(())
}

/// A fresh scratch directory for one run, removed by the caller.
pub fn scratch_dir(base: &Path, workload: &str, seed: u64) -> PathBuf {
    base.join(format!("{workload}-seed{seed}-{}", std::process::id()))
}
