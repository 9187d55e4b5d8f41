//! `crowbench`: the repository's benchmark.
//!
//! ```sh
//! bash crowbench/run.sh --workload single-membound --seed 1 --seconds 15 --trace 0
//! bash crowbench/run.sh --seed 1 --out results.json          # all workloads
//! bash crowbench/run.sh --seed 1 --trace traces/              # per-layer pass
//! bash crowbench/run.sh --smoke                               # every workload, tiny
//! bash crowbench/run.sh compare BASE_DIR HEAD_DIR
//! ```
//!
//! Each workload runs in a fresh child process of the runner, so its
//! set-up time and peak memory are its own. See `README.md`.

mod compare;
mod host;
mod replay;
mod run;
mod serve;
mod sim;
mod spec;
mod stats;
mod tracing;

use std::io::Read as _;
use std::os::unix::process::CommandExt as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use crow_sim::Json;

use spec::Spec;

/// Scratch space (run directories, default trace directory), inside the
/// benchmark's own directory.
fn out_base() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Size of every workload in `--smoke` mode, relative to a measured run.
const SMOKE_SHRINK: f64 = 0.01;
/// A child still running after this long is killed and the run failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(170);

fn usage() -> ExitCode {
    eprintln!(
        "usage: crowbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|DIR]\n\
         \x20                [--out FILE] [--smoke]\n\
         \x20      crowbench compare BASE_DIR HEAD_DIR [--summary FILE]"
    );
    ExitCode::from(2)
}

/// Every `CROW_*` variable changes what the program does (scale, engine,
/// validator, journal location, service knobs); a run with one set
/// would not measure the pinned configuration.
fn check_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("CROW_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "unset {} first: CROW_* variables alter the program under test",
            set.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = check_env() {
        eprintln!("crowbench: {e}");
        return ExitCode::from(2);
    }
    match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("child") => child_main(&args[1..]),
        _ => runner_main(&args),
    }
}

#[derive(Debug)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<PathBuf>,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse_opts(args: &[String], spec: &Spec) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds: spec.run_seconds,
        trace: None,
        out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !spec.workloads.contains(w) {
                    return Err(format!("unknown workload {w:?}"));
                }
                o.workload = Some(w.clone());
            }
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => None,
                    "1" => Some(out_base().join("trace")),
                    dir => Some(absolute(Path::new(dir))),
                }
            }
            "--out" => o.out = Some(absolute(Path::new(value()?))),
            "--smoke" => o.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

fn absolute(p: &Path) -> PathBuf {
    std::env::current_dir().map_or_else(|_| p.to_path_buf(), |d| d.join(p))
}

/// One child's report, as parsed by the runner.
struct ChildReport {
    workload: String,
    doc: Json,
}

impl ChildReport {
    fn correct(&self) -> bool {
        self.doc.get("correct").and_then(Json::as_bool) == Some(true)
    }
}

fn runner_main(args: &[String]) -> ExitCode {
    let spec = Spec::load();
    let opts = match parse_opts(args, &spec) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("crowbench: {e}");
            return usage();
        }
    };
    let workloads: Vec<String> = match &opts.workload {
        Some(w) => vec![w.clone()],
        None => spec.workloads.clone(),
    };
    // Smoke mode exercises both passes of every workload.
    let passes: Vec<Option<PathBuf>> = if opts.smoke {
        vec![None, Some(out_base().join("smoke-trace"))]
    } else {
        vec![opts.trace.clone()]
    };
    let mut reports = Vec::new();
    for w in &workloads {
        for trace in &passes {
            match spawn_child(w, &opts, trace.as_deref()) {
                Ok(doc) => reports.push(ChildReport {
                    workload: w.clone(),
                    doc,
                }),
                Err(e) => {
                    eprintln!("crowbench: {w}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let traced = opts.trace.is_some();
    for r in &reports {
        print_human(r, &spec);
    }
    if let Some(path) = &opts.out {
        let doc = Json::obj(vec![
            ("seed", Json::u64(opts.seed)),
            ("seconds", Json::f64(opts.seconds)),
            ("traced", Json::Bool(traced)),
            (
                "workloads",
                Json::Obj(
                    reports
                        .iter()
                        .map(|r| (r.workload.clone(), r.doc.clone()))
                        .collect(),
                ),
            ),
        ]);
        if let Err(e) = std::fs::write(path, doc.pretty()) {
            eprintln!("crowbench: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if let [only] = reports.as_slice() {
        let pick = |k: &str| only.doc.get(k).cloned().unwrap_or(Json::Null);
        let line = Json::obj(vec![
            ("correct", pick("correct")),
            ("attempted", pick("attempted")),
            ("failed", pick("failed")),
            ("metrics", pick("metrics")),
        ]);
        println!("{}", line.render());
    }
    if reports.iter().all(ChildReport::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_human(r: &ChildReport, spec: &Spec) {
    let w = &r.workload;
    if let Some(Json::Obj(metrics)) = r.doc.get("metrics") {
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = spec.find(name).map_or("", |s| s.unit.as_str());
            println!("{w} {name} {value} {unit}");
        }
    }
    if let Some(d) = r.doc.get("digest").and_then(Json::as_str) {
        println!("{w} digest {d}");
    }
    if let Some(problems) = r.doc.get("problems").and_then(Json::as_arr) {
        for p in problems {
            eprintln!("crowbench: {w}: FAILED: {}", p.as_str().unwrap_or("?"));
        }
    }
}

/// Runs one workload in a child process and returns its report.
fn spawn_child(workload: &str, opts: &Opts, trace: Option<&Path>) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let shrink = if opts.smoke { SMOKE_SHRINK } else { 1.0 };
    let trace_arg = trace.map_or_else(|| "-".to_string(), |p| p.display().to_string());
    // The allocator settings the server runs with (see `serve::Server`),
    // so every workload's peak memory follows live memory alike. The
    // child leads a process group of its own, so a server it started
    // goes down with it.
    let mut child = Command::new(exe)
        .process_group(0)
        .envs(serve::MALLOC_ENV)
        .args([
            "child",
            workload,
            &opts.seed.to_string(),
            &opts.seconds.to_string(),
            &shrink.to_string(),
            &trace_arg,
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stdout.read_to_string(&mut s);
        s
    });
    let deadline = Instant::now() + CHILD_TIMEOUT;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Ok(None) => {
                host::kill_group(child.id());
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!("timed out after {CHILD_TIMEOUT:?}"));
            }
            Err(e) => return Err(e.to_string()),
        }
    };
    let text = reader.join().unwrap_or_default();
    if !status.success() {
        host::kill_group(child.id());
        return Err(format!("child exited with {status}"));
    }
    let last = text.lines().last().unwrap_or("");
    Json::parse(last).map_err(|e| format!("unreadable child report: {e}"))
}

/// The child half: runs one workload in this process and prints its
/// report as one JSON line.
fn child_main(args: &[String]) -> ExitCode {
    let [workload, seed, seconds, shrink, trace] = args else {
        return usage();
    };
    let (Ok(seed), Ok(seconds), Ok(shrink)) = (seed.parse(), seconds.parse(), shrink.parse())
    else {
        return usage();
    };
    let spec = Spec::load();
    let base = out_base();
    let workdir = run::scratch_dir(&base, workload, seed);
    if let Err(e) = std::fs::create_dir_all(&workdir) {
        eprintln!("crowbench: {}: {e}", workdir.display());
        return ExitCode::FAILURE;
    }
    // Work from inside the run directory: socket paths stay short.
    if let Err(e) = std::env::set_current_dir(&workdir) {
        eprintln!("crowbench: {}: {e}", workdir.display());
        return ExitCode::FAILURE;
    }
    let serve_bin = std::env::current_exe()
        .map(|p| p.with_file_name("crow-serve"))
        .unwrap_or_default();
    let ctx = run::Ctx {
        seed,
        seconds,
        shrink,
        trace_dir: (trace != "-").then(|| PathBuf::from(trace)),
        workdir: PathBuf::from("."),
        serve_bin,
    };
    let outcome = run::run(workload, &ctx);
    let _ = std::env::set_current_dir(&base);
    let _ = std::fs::remove_dir_all(&workdir);
    println!(
        "{}",
        report(&outcome, &spec, ctx.trace_dir.is_some()).render()
    );
    ExitCode::SUCCESS
}

/// The child's report: the metrics `BENCHMARK.json` names, in its order.
/// A missing end-to-end metric, an unlisted name or a non-finite value
/// makes the run incorrect; a layer the workload does not exercise
/// reads 0.
fn report(o: &run::Outcome, spec: &Spec, traced: bool) -> Json {
    let mut problems = o.problems.clone();
    for (name, _) in &o.metrics {
        if !spec.metrics(traced).iter().any(|m| m.name == *name) {
            problems.push(format!("metric {name} is not in BENCHMARK.json"));
        }
    }
    let mut metrics = Vec::new();
    for m in spec.metrics(traced) {
        let value = match o.metrics.iter().find(|(n, _)| *n == m.name) {
            Some(&(_, v)) => v,
            None if traced => 0.0,
            None => {
                problems.push(format!("metric {} was not measured", m.name));
                0.0
            }
        };
        if !value.is_finite() {
            problems.push(format!("metric {} is {value}", m.name));
        }
        metrics.push((
            m.name.clone(),
            Json::obj(vec![
                (
                    "value",
                    Json::f64(if value.is_finite() { value } else { 0.0 }),
                ),
                ("unit", Json::str(m.unit.as_str())),
            ]),
        ));
    }
    let correct = problems.is_empty() && o.failed == 0 && o.attempted > 0;
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::u64(o.attempted.max(1))),
        ("failed", Json::u64(o.failed)),
        ("metrics", Json::Obj(metrics)),
        ("digest", Json::str(format!("{:016x}", o.digest))),
        (
            "counters",
            Json::Obj(
                o.counters
                    .iter()
                    .map(|&(k, v)| (k.to_string(), Json::f64(v)))
                    .collect(),
            ),
        ),
        (
            "problems",
            Json::Arr(problems.iter().map(|p| Json::str(p.as_str())).collect()),
        ),
    ])
}
