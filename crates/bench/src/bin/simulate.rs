//! Command-line simulator front end: run any workload under any
//! mechanism with the full paper platform (or a customized one) and get
//! a detailed report.
//!
//! ```sh
//! cargo run -p crow-bench --release --bin simulate -- \
//!     --app mcf --app libq --mechanism crow-8 --insts 500000 \
//!     --density 64 --llc-mib 8 --prefetch
//!
//! # Replay recorded trace files (crow_cpu::trace format):
//! cargo run -p crow-bench --release --bin simulate -- \
//!     --trace core0.trace --trace core1.trace --mechanism crow-combined
//! ```

use crow_cpu::trace::{load_trace, LoopedTrace, TraceEntry};
use crow_cpu::TraceSource;
use crow_dram::Command;
use crow_sim::{
    run_job_with, Campaign, CampaignPolicy, CrowError, FaultPlan, OutcomeKind, SamplePlan, Scale,
    SimJob, System, SystemConfig,
};
use crow_workloads::AppProfile;

struct Args {
    apps: Vec<String>,
    traces: Vec<String>,
    mechanism: String,
    insts: u64,
    warmup: u64,
    density: u32,
    llc_mib: u64,
    channels: u32,
    seed: u64,
    prefetch: bool,
    per_bank_refresh: bool,
    oracle: bool,
    ddr4: bool,
    validate: bool,
    faults: Option<String>,
    hammer: Option<String>,
    hammer_intensity: Option<u64>,
    timeout: Option<f64>,
    retries: Option<u32>,
    resume: bool,
    sample: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: simulate [--app NAME]... [--trace FILE]... [--mechanism M]\n\
         \x20        [--insts N] [--warmup N] [--density 8|16|32|64]\n\
         \x20        [--llc-mib N] [--channels N] [--seed N]\n\
         \x20        [--prefetch] [--per-bank-refresh] [--oracle] [--ddr4]\n\
         \x20        [--validate] [--faults SPEC]\n\
         \x20        [--hammer PATTERN] [--hammer-intensity N]\n\
         \x20        [--timeout SECS] [--retries N] [--resume]\n\
         \x20        [--sample SPEC]\n\
         \n\
         mechanisms: baseline, crow-N (copy rows), crow-ref, crow-combined,\n\
         \x20           ideal, no-refresh, tldram-N, salp-N, salp-N-o\n\
         apps: see `crow_workloads::AppProfile` (mcf, libq, ... or\n\
         \x20      random/streaming); --trace replays a recorded file instead\n\
         \n\
         --validate attaches the shadow protocol validator to every channel\n\
         --faults SPEC injects faults every N CPU cycles; SPEC is a comma\n\
         \x20    list of vrt=N (a new VRT weak row, remapped with ACT-c) and\n\
         \x20    drop=N (a lost command-bus slot); RowHammer is --hammer\n\
         --hammer PATTERN attaches a RowHammer attack scenario (single,\n\
         \x20    double, many-N, half-double); --hammer-intensity sets the\n\
         \x20    aggressor ACTs per refresh window (default 500000), and\n\
         \x20    CROW_HAMMER_* env overrides refine the scenario (strict\n\
         \x20    parse; see EXPERIMENTS.md)\n\
         \n\
         --timeout/--retries/--resume run the simulation as a supervised\n\
         \x20    campaign job (journaled under results/campaign/simulate.jsonl):\n\
         \x20    a panic, protocol violation, or overrun deadline is retried at\n\
         \x20    a degraded instruction budget, and --resume restores a\n\
         \x20    previously journaled result instead of re-running\n\
         \n\
         --sample SPEC runs statistical interval sampling: alternating\n\
         \x20    functional fast-forward and detailed measured windows.\n\
         \x20    SPEC is `default` or `WINDOW:WARMUP:FF` (instructions per\n\
         \x20    core); per-metric means and 95% confidence intervals land\n\
         \x20    in the report. Overrides CROW_SAMPLE env. Cannot be\n\
         \x20    combined with --hammer or --faults"
    );
    std::process::exit(2);
}

/// Rejects a removed option, naming what replaced it.
fn removed(what: &str, instead: &str) -> ! {
    eprintln!("simulate: {what} was removed; {instead}");
    std::process::exit(2);
}

/// Parses `--faults` into the VRT and bus-drop intervals.
fn parse_faults(spec: &str) -> (Option<u64>, Option<u64>) {
    let hammer = "use --hammer PATTERN [--hammer-intensity N] for RowHammer";
    if spec.eq_ignore_ascii_case("stress") {
        removed(
            "--faults stress",
            &format!("spell out the intervals, e.g. --faults vrt=40000,drop=10000, and {hammer}"),
        );
    }
    let (mut vrt, mut drop) = (None, None);
    for part in spec.split(',') {
        let Some((key, value)) = part.split_once('=') else {
            eprintln!("bad --faults item {part:?} (want key=value)");
            usage();
        };
        if matches!(key, "hammer" | "burst") {
            removed(&format!("--faults {key}=N"), hammer);
        }
        let n: u64 = value.parse().unwrap_or_else(|_| {
            eprintln!("bad --faults value in {part:?}");
            usage();
        });
        match key {
            "vrt" => vrt = Some(n),
            "drop" => drop = Some(n),
            other => {
                eprintln!("unknown --faults key {other}");
                usage();
            }
        }
    }
    (vrt, drop)
}

fn parse_args() -> Args {
    let mut a = Args {
        apps: Vec::new(),
        traces: Vec::new(),
        mechanism: "crow-8".into(),
        insts: 400_000,
        warmup: 50_000,
        density: 8,
        llc_mib: 8,
        channels: 4,
        seed: 0xC0DE,
        prefetch: false,
        per_bank_refresh: false,
        oracle: false,
        ddr4: false,
        validate: false,
        faults: None,
        hammer: None,
        hammer_intensity: None,
        timeout: None,
        retries: None,
        resume: false,
        sample: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--app" => a.apps.push(val("--app")),
            "--trace" => a.traces.push(val("--trace")),
            "--mechanism" | "-m" => a.mechanism = val("--mechanism"),
            "--insts" => a.insts = val("--insts").parse().unwrap_or_else(|_| usage()),
            "--warmup" => a.warmup = val("--warmup").parse().unwrap_or_else(|_| usage()),
            "--density" => a.density = val("--density").parse().unwrap_or_else(|_| usage()),
            "--llc-mib" => a.llc_mib = val("--llc-mib").parse().unwrap_or_else(|_| usage()),
            "--channels" => a.channels = val("--channels").parse().unwrap_or_else(|_| usage()),
            "--seed" => a.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--prefetch" => a.prefetch = true,
            "--ddr4" => a.ddr4 = true,
            "--per-bank-refresh" => a.per_bank_refresh = true,
            "--oracle" => a.oracle = true,
            "--validate" => a.validate = true,
            "--faults" => a.faults = Some(val("--faults")),
            "--fault-policy" => removed(
                "--fault-policy",
                "a protocol violation or a dry trace now always fails the run",
            ),
            "--hammer" => a.hammer = Some(val("--hammer")),
            "--hammer-intensity" => {
                a.hammer_intensity = Some(
                    val("--hammer-intensity")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                );
            }
            "--timeout" => a.timeout = Some(val("--timeout").parse().unwrap_or_else(|_| usage())),
            "--retries" => a.retries = Some(val("--retries").parse().unwrap_or_else(|_| usage())),
            "--resume" => a.resume = true,
            "--sample" => a.sample = Some(val("--sample")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    if a.apps.is_empty() && a.traces.is_empty() {
        a.apps.push("mcf".into());
    }
    a
}

/// The journal key: the job's fingerprint plus a segment for every
/// setting outside the wire protocol. The hammer segment records the
/// scenario as `CROW_HAMMER_*` resolved it, so env overrides key
/// distinct entries.
fn job_key(job: &SimJob, args: &Args, cfg: &SystemConfig) -> String {
    let mut key = job.fingerprint();
    if !args.traces.is_empty() {
        key += &format!("/trace:{}", args.traces.join("+"));
    }
    if args.per_bank_refresh {
        key += "/pbref";
    }
    if args.oracle {
        key += "/oracle";
    }
    if let Some(spec) = &args.faults {
        key += &format!("/faults:{spec}");
    }
    if let Some(sc) = &cfg.hammer {
        key += &format!(
            "/scenario:{}x{}s{}t{}p{}",
            sc.pattern.label(),
            sc.intensity,
            sc.seed,
            sc.flip.base_threshold,
            sc.flip.flip_p_inv
        );
    }
    key
}

fn main() {
    let args = parse_args();
    // The CLI flags own the per-run knobs (insts, warmup); the
    // environment scale supplies CROW_SAMPLE and rejects the knobs of
    // removed mechanisms. Malformed env is a diagnostic exit, never a
    // silent default.
    let env_scale = Scale::from_env().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    // The CLI flag wins over CROW_SAMPLE so a script can pin a plan for
    // one run without editing its environment.
    let sample = match &args.sample {
        Some(spec) => Some(SamplePlan::parse(spec).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })),
        None => env_scale.sample,
    };
    if args.hammer.is_none() && args.hammer_intensity.is_some() {
        eprintln!("--hammer-intensity needs --hammer");
        usage();
    }
    if args.hammer_intensity == Some(0) {
        eprintln!("--hammer-intensity must be positive");
        usage();
    }
    let job = SimJob {
        id: "simulate".into(),
        // Recorded traces replace the applications.
        apps: if args.traces.is_empty() {
            args.apps.clone()
        } else {
            Vec::new()
        },
        mechanism: args.mechanism.clone(),
        insts: args.insts,
        warmup: args.warmup,
        seed: args.seed,
        density: args.density,
        llc_mib: args.llc_mib,
        channels: args.channels,
        prefetch: args.prefetch,
        ddr4: args.ddr4,
        validate: args.validate,
        hammer: args
            .hammer
            .clone()
            .map(|p| (p, args.hammer_intensity.unwrap_or(500_000))),
        chaos: None,
        sample,
    };
    let mut cfg = job.to_config().unwrap_or_else(|e| {
        eprintln!("simulate: {e}");
        usage();
    });
    cfg.mc.per_bank_refresh = args.per_bank_refresh;
    cfg.oracle = args.oracle;
    if let Some(spec) = &args.faults {
        let (vrt, drop) = parse_faults(spec);
        cfg.vrt_interval_cycles = vrt;
        cfg.fault_plan = drop.map(|drop_interval| FaultPlan { drop_interval });
    }
    if let Some(sc) = &mut cfg.hammer {
        if let Err(e) = sc.apply_env() {
            eprintln!("simulate: {e}");
            std::process::exit(2);
        }
    }
    let key = job_key(&job, &args, &cfg);
    let label = cfg.mechanism.label();
    let hammering = cfg.hammer;
    let validating = cfg.validate_protocol;
    let injecting = args.faults.is_some();

    // Resolve inputs once, up front, so bad names and files fail fast.
    let mut names = Vec::new();
    let apps: Vec<&'static AppProfile> = job
        .apps
        .iter()
        .map(|n| {
            AppProfile::by_name(n).unwrap_or_else(|| {
                eprintln!("unknown app {n}");
                usage()
            })
        })
        .inspect(|a| names.push(a.name.to_string()))
        .collect();
    let trace_entries: Vec<Vec<TraceEntry>> = args
        .traces
        .iter()
        .map(|p| {
            let entries = load_trace(std::path::Path::new(p)).unwrap_or_else(|e| {
                eprintln!("cannot load {p}: {e}");
                std::process::exit(1);
            });
            names.push(p.clone());
            entries
        })
        .collect();
    let build = move |cfg: SystemConfig| -> Result<System, CrowError> {
        if trace_entries.is_empty() {
            System::try_new(cfg, &apps)
        } else {
            let traces: Vec<Box<dyn TraceSource>> = trace_entries
                .iter()
                .map(|entries| {
                    LoopedTrace::try_new(entries.clone())
                        .map(|t| Box::new(t) as Box<dyn TraceSource>)
                })
                .collect::<Result<_, _>>()?;
            System::try_with_traces(cfg, traces)
        }
    };

    // One campaign runs the job: journaled and retried at a degraded
    // budget when --timeout, --retries or --resume asks for it,
    // otherwise ephemeral with no retry.
    let supervised = args.timeout.is_some() || args.retries.is_some() || args.resume;
    let mut policy = CampaignPolicy::new(job.scale());
    policy.timeout = args
        .timeout
        .filter(|&s| s > 0.0)
        .map(|s| std::time::Duration::try_from_secs_f64(s).unwrap_or_else(|_| usage()));
    policy.max_retries = if supervised {
        args.retries.unwrap_or(1)
    } else {
        0
    };
    policy.resume = args.resume;
    let mut camp = if supervised {
        Campaign::new("simulate", policy).unwrap_or_else(|e| {
            eprintln!("warning: {e}; running unjournaled");
            Campaign::ephemeral("simulate", policy)
        })
    } else {
        Campaign::ephemeral("simulate", policy)
    };
    if camp.quarantined() > 0 {
        eprintln!(
            "simulate: quarantined {} malformed journal record(s)",
            camp.quarantined()
        );
    }
    if camp.corrupt() > 0 {
        eprintln!(
            "simulate: set aside {} CRC-failing journal record(s) to the .corrupt sidecar",
            camp.corrupt()
        );
    }
    let start = std::time::Instant::now();
    let outcomes = camp.run(vec![(key, cfg)], move |cfg, scale| {
        run_job_with(cfg.clone(), scale, &build)
    });
    let o = outcomes.into_iter().next().expect("one job in, one out");
    if supervised {
        eprintln!(
            "simulate campaign: {} after {} attempt(s)",
            match o.disposition() {
                OutcomeKind::Ok => "ok",
                OutcomeKind::Degraded => "completed at degraded scale",
                OutcomeKind::Panicked => "failed",
                OutcomeKind::TimedOut => "timed out",
                OutcomeKind::Skipped => "restored",
            },
            o.attempts.max(1)
        );
    }
    let restored = o.kind == OutcomeKind::Skipped;
    let Some(r) = o.result else {
        eprintln!(
            "simulate: {}",
            o.error.as_deref().unwrap_or("job produced no result")
        );
        std::process::exit(1);
    };
    if args.oracle && !restored {
        println!("data-integrity oracle: clean");
    }
    if restored {
        println!("[restored from campaign journal; wall-clock figures are from the original run]");
    }
    if validating {
        println!("shadow protocol validator: {} violation(s)", r.violations);
    }
    if injecting {
        let f = &r.faults;
        println!(
            "faults injected: vrt {} | drops {}",
            f.vrt_injected, f.drops_injected
        );
    }
    if r.trace_faults > 0 {
        println!(
            "trace faults: {} core(s) parked on a dry trace",
            r.trace_faults
        );
    }
    if let Some(sc) = &hammering {
        let h = &r.hammer;
        println!(
            "hammer ({} @ {} ACTs/tREFW): injected {} | live flips {} ({} rows) | \
             absorbed {} | detections {} | mitigation refreshes {}",
            sc.pattern.label(),
            sc.intensity,
            h.injected,
            h.flips,
            h.flipped_rows,
            h.absorbed,
            h.detections,
            h.mitigation_refreshes,
        );
    }

    println!(
        "== {} | {} | {} insts/core | {} Gbit | {} MiB LLC | {} ch{}{} ==",
        label,
        if args.ddr4 {
            "DDR4-2400"
        } else {
            "LPDDR4-3200"
        },
        args.insts,
        args.density,
        args.llc_mib,
        args.channels,
        if args.prefetch { " | prefetch" } else { "" },
        if args.per_bank_refresh {
            " | per-bank refresh"
        } else {
            ""
        },
    );
    for (i, name) in names.iter().enumerate() {
        println!(
            "core {i} ({name}): IPC {:.3}, MPKI {:.1}",
            r.ipc[i], r.mpki[i]
        );
    }
    if let Some(s) = &r.samples {
        println!(
            "sampling ({} windows of {} insts): IPC {:.3} +/- {:.3} | \
             energy {:.1} uJ +/- {:.1} | row-hit {:.3} +/- {:.3}",
            s.windows,
            s.plan.window_insts,
            s.ipc.mean,
            s.ipc.ci95,
            s.energy_nj.mean / 1e3,
            s.energy_nj.ci95 / 1e3,
            s.row_hit_rate.mean,
            s.row_hit_rate.ci95,
        );
        println!(
            "sampling budget: measured {} | warmed {} | fast-forwarded {} insts/core \
             ({} drain cycles)",
            s.measured_insts, s.warmed_insts, s.skipped_insts, s.drain_cycles,
        );
    }
    // Merge latency percentiles across channels.
    println!(
        "reads {} | writes {} | avg lat {:.0} | p50 <= {} | p99 <= {} | max {} (mem cycles)",
        r.mc.reads,
        r.mc.writes,
        r.mc.avg_read_latency(),
        r.mc.latency_percentile(0.5),
        r.mc.latency_percentile(0.99),
        r.mc.read_latency_max,
    );
    println!(
        "row buffer: hits {} misses {} conflicts {} ({:.1}% hit)",
        r.mc.row_hits,
        r.mc.row_misses,
        r.mc.row_conflicts,
        r.mc.row_hit_rate() * 100.0
    );
    println!(
        "commands: ACT {} ACT-c {} ACT-t {} PRE {} REF {} REFpb {}",
        r.commands.issued(Command::Act),
        r.commands.issued(Command::ActC),
        r.commands.issued(Command::ActT),
        r.commands.issued(Command::Pre),
        r.commands.issued(Command::Ref),
        r.commands.issued(Command::RefPb),
    );
    if r.crow.cache_lookups + r.crow.ref_redirects > 0 {
        println!(
            "CROW: hit rate {:.2} | installs {} | restore-evictions {} | ref redirects {} | hammer remaps {}",
            r.crow_hit_rate(),
            r.crow.cache_installs,
            r.crow.restore_evictions,
            r.crow.ref_redirects,
            r.crow.hammer_remaps,
        );
    }
    let e = &r.energy;
    println!(
        "energy: {:.3} mJ (act {:.0} uJ, rd {:.0} uJ, wr {:.0} uJ, ref {:.0} uJ, bg {:.0} uJ; refresh {:.1}%)",
        r.energy_mj(),
        e.act_nj / 1e3,
        e.rd_nj / 1e3,
        e.wr_nj / 1e3,
        e.ref_nj / 1e3,
        e.background_nj / 1e3,
        e.refresh_fraction() * 100.0,
    );
    println!(
        "simulated {} CPU cycles ({} mem) in {:.2?}{}",
        r.cpu_cycles,
        r.mem_cycles,
        start.elapsed(),
        if r.finished { "" } else { " [DID NOT FINISH]" },
    );
}
