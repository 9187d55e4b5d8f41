//! Process-isolated job execution for the simulation service: child
//! sandboxes, hard kills, and circuit breakers.
//!
//! Thread-mode `crow-serve` runs attempts as `catch_unwind` threads
//! inside the server process. That contains panics, but three failure
//! classes leak through a thread boundary by construction:
//!
//! * a **wedged** attempt is merely *abandoned* — its thread keeps
//!   burning a core until the process exits;
//! * a **runaway allocation** is shared-fate — the kernel OOM-kills the
//!   whole server, healthy jobs included;
//! * a **corrupting** job shares an address space with every other job.
//!
//! [`Supervisor`] is the process backend of the shared executor
//! (`crate::exec`): each attempt re-execs the server binary as a
//! sandboxed child (`crow-serve --job-runner <parent-pid>`). The parent
//! writes one job spec to the child's stdin, the child runs the
//! simulation and writes a result envelope to stdout, and the parent
//! polls `try_wait` while enforcing the job deadline and an RSS cap read
//! from `/proc/<pid>/statm` — breaching either gets the child SIGKILLed
//! and reaped, so wedged and memory-bomb jobs actually *die*.
//!
//! Child crashes and kills are evidence for **per-fingerprint circuit
//! breakers** ([`Breakers`]): K consecutive failures for one fingerprint
//! open the breaker; further duplicates are answered with a structured
//! `quarantined` error for the cooldown, then a single half-open probe
//! decides between closing the breaker and re-opening it. A poison job
//! cannot occupy the worker pool in a crash loop.
//!
//! The hosting binary must dispatch `--job-runner` to
//! [`job_runner_main`] before any other argument parsing (`crow-serve`
//! does); embedders that cannot rearrange their `main` point
//! [`SuperviseConfig::runner_exe`] at a binary that does.

use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::campaign::{CampaignPolicy, Journaled as _, OutcomeKind};
use crate::error::CrowError;
use crate::exec::{self, lock, Ended, Executed};
use crate::experiments::Scale;
use crate::json::Json;
use crate::knobs::Knobs;
use crate::server::{parse_request_doc, run_sim, Request, SimJob};

// --- configuration ----------------------------------------------------

/// Where an accepted job executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsolationMode {
    /// In-process `catch_unwind` worker threads (the default):
    /// cheapest, but wedged attempts linger and a runaway allocation is
    /// shared-fate.
    Thread,
    /// One sandboxed child process per attempt, hard-killed on deadline
    /// or RSS-cap breach, with circuit breakers.
    Process,
}

impl IsolationMode {
    /// Stable wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            IsolationMode::Thread => "thread",
            IsolationMode::Process => "process",
        }
    }
}

/// Supervision knobs (env-overridable; see
/// [`SuperviseConfig::from_lookup`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SuperviseConfig {
    /// Job execution substrate (`CROW_SERVE_ISOLATION=process|thread`,
    /// default thread).
    pub isolation: IsolationMode,
    /// Child RSS cap in bytes; breach is a SIGKILL with a structured
    /// `resource-limit` error (`CROW_SERVE_RSS_MB`, default 4096 MiB;
    /// 0 disables the cap).
    pub rss_cap: Option<u64>,
    /// Consecutive child crashes/kills of one fingerprint that open its
    /// circuit breaker (`CROW_SERVE_BREAKER_K`, default 3; 0 disables
    /// the breaker).
    pub breaker_k: u32,
    /// How long an open breaker quarantines duplicates before allowing
    /// a half-open probe (`CROW_SERVE_BREAKER_COOLDOWN_SECS`, default
    /// 30 s).
    pub breaker_cooldown: Duration,
    /// The binary to re-exec as the job runner; `None` uses
    /// `current_exe()` (correct for `crow-serve`, which dispatches
    /// `--job-runner` before its own argument parsing).
    pub runner_exe: Option<PathBuf>,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        Self {
            isolation: IsolationMode::Thread,
            rss_cap: Some(4096 << 20),
            breaker_k: 3,
            breaker_cooldown: Duration::from_secs(30),
            runner_exe: None,
        }
    }
}

impl SuperviseConfig {
    /// Reads the knobs from the environment on top of the defaults.
    /// Malformed values are configuration errors, never silent defaults.
    pub fn from_env() -> Result<Self, CrowError> {
        Self::from_lookup(|k| std::env::var(k).ok())
    }

    /// [`SuperviseConfig::from_env`] against an arbitrary lookup
    /// (testable without mutating process-global state).
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, CrowError> {
        let env = Knobs::new("SuperviseConfig", &lookup);
        let mut c = Self::default();
        if let Some(v) = env.raw("CROW_SERVE_ISOLATION") {
            c.isolation = match v.trim() {
                "process" => IsolationMode::Process,
                "thread" => IsolationMode::Thread,
                _ => {
                    return Err(env.err(format!(
                        "CROW_SERVE_ISOLATION={v:?} must be \"process\" or \"thread\""
                    )))
                }
            };
        }
        if let Some(mb) = env.uint("CROW_SERVE_RSS_MB", 0)? {
            c.rss_cap = (mb > 0).then_some(mb << 20);
        }
        c.breaker_k = env.u32("CROW_SERVE_BREAKER_K", 0)?.unwrap_or(c.breaker_k);
        c.breaker_cooldown = env
            .secs("CROW_SERVE_BREAKER_COOLDOWN_SECS")?
            .unwrap_or(c.breaker_cooldown);
        Ok(c)
    }
}

// --- circuit breakers -------------------------------------------------

/// One breaker's position in the state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Failures below K: requests run normally.
    Closed,
    /// K consecutive failures: duplicates quarantined until cooldown.
    Open,
    /// Cooldown elapsed: exactly one probe runs; its outcome decides.
    HalfOpen,
}

impl BreakerState {
    /// Stable wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

#[derive(Debug)]
struct BreakerEntry {
    state: BreakerState,
    consecutive: u32,
    open_until: Instant,
    probing: bool,
}

/// What [`Breakers::admit`] decided for a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// Breaker closed (or disabled): run normally.
    Run,
    /// Breaker half-open and this request won the probe slot: run, and
    /// the outcome moves the breaker. The caller must end the probe via
    /// `record_success`/`record_failure`/`release_probe`.
    Probe,
    /// Breaker open (or a probe is already in flight): answer with a
    /// structured `quarantined` error instead of running.
    Quarantined {
        /// Conservative wait before a retry can be admitted.
        retry_after: Duration,
    },
}

/// Per-fingerprint circuit breakers.
///
/// State machine per fingerprint: `Closed` --K consecutive child
/// crashes/kills--> `Open` --cooldown--> `HalfOpen` --probe success-->
/// `Closed` (entry dropped) / --probe failure--> `Open` again.
/// Structured job failures (the child ran fine and reported an error)
/// never count: the breaker protects against *process-level* poison,
/// not unsatisfiable requests.
#[derive(Debug)]
pub struct Breakers {
    k: u32,
    cooldown: Duration,
    entries: Mutex<HashMap<String, BreakerEntry>>,
}

/// One breaker's externally visible state (health reporting).
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerInfo {
    /// The fingerprint the breaker guards.
    pub fingerprint: String,
    /// Current state (open entries past cooldown report half-open).
    pub state: BreakerState,
    /// Consecutive countable failures recorded.
    pub consecutive: u32,
    /// Remaining quarantine, zero unless open.
    pub retry_after: Duration,
}

impl Breakers {
    /// Breakers opening after `k` consecutive failures (0 disables) and
    /// quarantining for `cooldown`.
    pub fn new(k: u32, cooldown: Duration) -> Self {
        Self {
            k,
            cooldown,
            entries: Mutex::new(HashMap::new()),
        }
    }

    /// The configured failure threshold.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Gate one request for `fp`.
    pub fn admit(&self, fp: &str) -> Admit {
        if self.k == 0 {
            return Admit::Run;
        }
        let mut m = lock(&self.entries);
        let Some(e) = m.get_mut(fp) else {
            return Admit::Run;
        };
        match e.state {
            BreakerState::Closed => Admit::Run,
            BreakerState::Open => {
                let now = Instant::now();
                if now >= e.open_until {
                    e.state = BreakerState::HalfOpen;
                    e.probing = true;
                    Admit::Probe
                } else {
                    Admit::Quarantined {
                        retry_after: e.open_until - now,
                    }
                }
            }
            BreakerState::HalfOpen => {
                if e.probing {
                    Admit::Quarantined {
                        retry_after: self.cooldown,
                    }
                } else {
                    e.probing = true;
                    Admit::Probe
                }
            }
        }
    }

    /// Records one countable failure (child crash, deadline kill, RSS
    /// kill). Returns whether the breaker is open afterwards.
    pub fn record_failure(&self, fp: &str) -> bool {
        if self.k == 0 {
            return false;
        }
        let mut m = lock(&self.entries);
        let e = m.entry(fp.to_string()).or_insert(BreakerEntry {
            state: BreakerState::Closed,
            consecutive: 0,
            open_until: Instant::now(),
            probing: false,
        });
        e.consecutive += 1;
        match e.state {
            BreakerState::Closed if e.consecutive < self.k => false,
            // Threshold reached, probe failed, or already open: (re)open.
            _ => {
                e.state = BreakerState::Open;
                e.open_until = Instant::now() + self.cooldown;
                e.probing = false;
                true
            }
        }
    }

    /// Records a success: the breaker closes and its entry is dropped.
    pub fn record_success(&self, fp: &str) {
        lock(&self.entries).remove(fp);
    }

    /// Returns a held probe slot without deciding the breaker (the
    /// probe ended without process-level evidence: cache hit, spawn
    /// failure, or a structured job error).
    pub fn release_probe(&self, fp: &str) {
        if let Some(e) = lock(&self.entries).get_mut(fp) {
            if e.state == BreakerState::HalfOpen {
                e.probing = false;
            }
        }
    }

    /// All live breaker entries (health reporting).
    pub fn snapshot(&self) -> Vec<BreakerInfo> {
        let now = Instant::now();
        let mut out: Vec<BreakerInfo> = lock(&self.entries)
            .iter()
            .map(|(fp, e)| BreakerInfo {
                fingerprint: fp.clone(),
                state: e.state,
                consecutive: e.consecutive,
                retry_after: match e.state {
                    BreakerState::Open => e.open_until.saturating_duration_since(now),
                    _ => Duration::ZERO,
                },
            })
            .collect();
        out.sort_by(|a, b| a.fingerprint.cmp(&b.fingerprint));
        out
    }
}

// --- the supervisor ---------------------------------------------------

/// Cumulative child-process counters (monotonic over the server's
/// lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupCounters {
    /// Children spawned.
    pub spawned: u64,
    /// Children SIGKILLed at the job deadline.
    pub killed_deadline: u64,
    /// Children SIGKILLed over the RSS cap.
    pub killed_rss: u64,
    /// Children that exited abnormally (or produced garbage).
    pub crashes: u64,
    /// Retry attempts beyond the first, across all jobs.
    pub retries: u64,
}

/// One live child (health reporting).
#[derive(Debug, Clone, PartialEq)]
pub struct ChildSnapshot {
    /// OS process id.
    pub pid: u32,
    /// The fingerprint the child is executing.
    pub fingerprint: String,
    /// Time since spawn.
    pub elapsed: Duration,
}

#[derive(Debug)]
struct ChildInfo {
    fingerprint: String,
    started: Instant,
}

/// How often the parent polls a live child (exit, deadline, RSS).
const CHILD_POLL: Duration = Duration::from_millis(10);

/// Supervises sandboxed child processes for the serve worker pool (see
/// the module docs).
#[derive(Debug)]
pub struct Supervisor {
    cfg: SuperviseConfig,
    exe: PathBuf,
    /// The parent pid, passed as the child's second argument so leaked
    /// children are attributable to one server instance (`supervise_gate`
    /// scans `/proc/*/cmdline` for it).
    tag: String,
    children: Mutex<HashMap<u32, ChildInfo>>,
    breakers: Breakers,
    spawned: AtomicU64,
    killed_deadline: AtomicU64,
    killed_rss: AtomicU64,
    crashes: AtomicU64,
    retries: AtomicU64,
}

impl Supervisor {
    /// Builds a supervisor, resolving the runner executable.
    pub fn new(cfg: SuperviseConfig) -> Result<Self, CrowError> {
        let exe = match &cfg.runner_exe {
            Some(p) => p.clone(),
            None => std::env::current_exe().map_err(|e| {
                CrowError::Config(crow_dram::ConfigError::new(
                    "SuperviseConfig",
                    format!("cannot resolve current_exe: {e}"),
                ))
            })?,
        };
        Ok(Self {
            breakers: Breakers::new(cfg.breaker_k, cfg.breaker_cooldown),
            cfg,
            exe,
            tag: std::process::id().to_string(),
            children: Mutex::new(HashMap::new()),
            spawned: AtomicU64::new(0),
            killed_deadline: AtomicU64::new(0),
            killed_rss: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        })
    }

    /// The per-fingerprint circuit breakers.
    pub fn breakers(&self) -> &Breakers {
        &self.breakers
    }

    /// Cumulative counters.
    pub fn counters(&self) -> SupCounters {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        SupCounters {
            spawned: g(&self.spawned),
            killed_deadline: g(&self.killed_deadline),
            killed_rss: g(&self.killed_rss),
            crashes: g(&self.crashes),
            retries: g(&self.retries),
        }
    }

    /// Children alive right now.
    pub fn live_children(&self) -> Vec<ChildSnapshot> {
        let now = Instant::now();
        let mut out: Vec<ChildSnapshot> = lock(&self.children)
            .iter()
            .map(|(&pid, c)| ChildSnapshot {
                pid,
                fingerprint: c.fingerprint.clone(),
                elapsed: now.saturating_duration_since(c.started),
            })
            .collect();
        out.sort_by_key(|c| c.pid);
        out
    }

    /// Executes one job through the shared retry loop, one sandboxed
    /// child per attempt. The caller has already passed
    /// [`Breakers::admit`]; the loop ends any held probe.
    pub(crate) fn execute(
        &self,
        fp: &str,
        job: &SimJob,
        policy: &CampaignPolicy,
    ) -> Executed<Json> {
        let ex = exec::execute(policy, fp, Some(&self.breakers), |n, scale| {
            self.attempt(fp, &runner_spec(job, scale, n), policy.timeout)
        });
        self.retries
            .fetch_add(u64::from(ex.attempts - 1), Ordering::Relaxed);
        ex
    }

    /// The process backend: spawns, feeds, watches, and reaps one child
    /// running `spec`.
    fn attempt(&self, fp: &str, spec: &str, deadline: Option<Duration>) -> Ended<Json> {
        let spawned = Command::new(&self.exe)
            .arg("--job-runner")
            .arg(&self.tag)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn();
        let mut child = match spawned {
            Ok(c) => c,
            Err(e) => return Ended::Aborted(format!("spawn: {e}")),
        };
        self.spawned.fetch_add(1, Ordering::Relaxed);
        let pid = child.id();
        let info = ChildInfo {
            fingerprint: fp.to_string(),
            started: Instant::now(),
        };
        lock(&self.children).insert(pid, info);
        let end = self.watch(&mut child, spec, deadline);
        lock(&self.children).remove(&pid);
        end
    }

    /// The per-child supervision loop. On every return path the child
    /// has been reaped (`wait`), so no zombie survives.
    fn watch(&self, child: &mut Child, spec: &str, deadline: Option<Duration>) -> Ended<Json> {
        // The stdout reader must exist before the child can fill the
        // pipe, or a chatty child deadlocks against our try_wait loop.
        let reader = child.stdout.take().map(|mut out| {
            std::thread::spawn(move || {
                let mut text = String::new();
                let _ = out.read_to_string(&mut text);
                text
            })
        });
        let drain = |r: Option<std::thread::JoinHandle<String>>| {
            r.and_then(|h| h.join().ok()).unwrap_or_default()
        };
        if let Some(mut stdin) = child.stdin.take() {
            // A write failure means the child died instantly; its exit
            // status tells that story better than the EPIPE would.
            let _ = stdin.write_all(spec.as_bytes());
            let _ = stdin.write_all(b"\n");
        }
        let started = Instant::now();
        let status = loop {
            let breach = match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) => self.breach(child.id(), started, deadline),
                Err(e) => Some(self.crash(format!("wait failed: {e}"))),
            };
            if let Some(end) = breach {
                let _ = child.kill(); // SIGKILL on unix.
                let _ = child.wait(); // Reap; no zombie.
                drain(reader);
                return end;
            }
            std::thread::sleep(CHILD_POLL);
        };
        let out = drain(reader);
        if !status.success() {
            return self.crash(format!("child exited abnormally ({status})"));
        }
        let envelope = out
            .lines()
            .find(|l| !l.trim().is_empty())
            .and_then(|l| Json::parse(l).ok())
            .filter(|env| env.get("v").and_then(Json::as_u64) == Some(1));
        let Some(env) = envelope else {
            return self.crash("child exited 0 without a result envelope".into());
        };
        if env.get("ok").and_then(Json::as_bool) != Some(true) {
            // A structured failure: the child process worked; the job
            // itself errored. Retryable, but not breaker evidence.
            let msg = env
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("child reported an unspecified error");
            return Ended::Failed {
                kind: OutcomeKind::Panicked,
                error: format!("error: {msg}"),
                evidence: false,
            };
        }
        match env.get("report") {
            Some(report) => Ended::Done(report.clone()),
            None => self.crash("child result envelope has no report".into()),
        }
    }

    /// A deadline or RSS-cap breach of the live child `pid`, if any.
    fn breach(
        &self,
        pid: u32,
        started: Instant,
        deadline: Option<Duration>,
    ) -> Option<Ended<Json>> {
        if let Some(d) = deadline.filter(|&d| started.elapsed() >= d) {
            self.killed_deadline.fetch_add(1, Ordering::Relaxed);
            return Some(evidence(
                OutcomeKind::TimedOut,
                format!("deadline: child exceeded {d:?} (SIGKILL)"),
            ));
        }
        let cap = self.cfg.rss_cap?;
        let rss = rss_bytes(pid).filter(|&rss| rss > cap)?;
        self.killed_rss.fetch_add(1, Ordering::Relaxed);
        let e = CrowError::ResourceLimit {
            rss_mib: rss >> 20,
            cap_mib: cap >> 20,
        };
        Some(evidence(OutcomeKind::Panicked, e.to_string()))
    }

    /// A child crash: abnormal exit, or output that is not a result.
    fn crash(&self, detail: String) -> Ended<Json> {
        self.crashes.fetch_add(1, Ordering::Relaxed);
        evidence(OutcomeKind::Panicked, format!("crash: {detail}"))
    }
}

/// A failed attempt that counts toward the fingerprint's breaker.
fn evidence(kind: OutcomeKind, error: String) -> Ended<Json> {
    Ended::Failed {
        kind,
        error,
        evidence: true,
    }
}

/// Resident set size of `pid` in bytes, from `/proc/<pid>/statm`
/// (field 2 is resident pages; Linux pages are 4 KiB on every platform
/// this workspace targets). `None` on non-Linux hosts or a raced exit —
/// the cap is then simply not enforced for that poll tick.
fn rss_bytes(pid: u32) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/statm")).ok()?;
    let resident: u64 = text.split_whitespace().nth(1)?.parse().ok()?;
    Some(resident * 4096)
}

/// The one-line job spec the parent writes to a child's stdin: the
/// attempt, its degraded scale, and the job as a wire-format request.
fn runner_spec(job: &SimJob, scale: Scale, attempt: u32) -> String {
    Json::obj(vec![
        ("v", Json::u64(1)),
        ("attempt", Json::u64(u64::from(attempt))),
        ("insts", Json::u64(scale.insts)),
        ("warmup", Json::u64(scale.warmup)),
        ("job", job.to_json()),
    ])
    .render()
}

// --- the child side ---------------------------------------------------

/// Entry point of the sandboxed job runner (`crow-serve --job-runner`):
/// reads one job spec line from stdin, runs the simulation under
/// `catch_unwind`, writes the result envelope to stdout, and exits.
/// Deadlines, resource caps and retries are the *parent's* job; the
/// child runs its one attempt unbounded.
pub fn job_runner_main() -> ! {
    match run_spec_from_stdin() {
        Ok(envelope) => {
            println!("{envelope}");
            let _ = std::io::stdout().flush();
            std::process::exit(0);
        }
        Err(msg) => {
            eprintln!("crow-serve --job-runner: {msg}");
            std::process::exit(3);
        }
    }
}

fn run_spec_from_stdin() -> Result<String, String> {
    let mut line = String::new();
    std::io::stdin()
        .read_line(&mut line)
        .map_err(|e| format!("stdin: {e}"))?;
    let (attempt, scale, job) = parse_spec(line.trim())?;
    if let Some(chaos) = &job.chaos {
        apply_chaos(chaos, attempt);
    }
    let outcome = match catch_unwind(AssertUnwindSafe(|| run_sim(&job, scale))) {
        Ok(Ok(report)) => ("report", report.encode()),
        Ok(Err(e)) => ("error", Json::str(format!("error: {e}"))),
        Err(p) => (
            "error",
            Json::str(format!("panic: {}", exec::panic_message(p.as_ref()))),
        ),
    };
    let ok = Json::Bool(outcome.0 == "report");
    Ok(Json::obj(vec![("v", Json::u64(1)), ("ok", ok), outcome]).render())
}

/// Decodes a [`runner_spec`] line: the attempt, the scale to run at,
/// and the job, read back by the server's strict request parser.
fn parse_spec(line: &str) -> Result<(u64, Scale, SimJob), String> {
    let spec = Json::parse(line).map_err(|e| format!("spec is not JSON: {e}"))?;
    if spec.get("v").and_then(Json::as_u64) != Some(1) {
        return Err("spec: unsupported version".into());
    }
    let field = |k: &str| -> Result<u64, String> {
        spec.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("spec: missing or non-integer {k:?}"))
    };
    let job = match spec.get("job").map(parse_request_doc) {
        Some(Ok(Request::Sim(job))) => *job,
        Some(Err(e)) => return Err(format!("spec: bad job: {e}")),
        _ => return Err("spec: missing sim job".into()),
    };
    // The sampling plan rides the job, not the degrade ladder: a
    // degraded attempt keeps the job's plan.
    let scale = Scale {
        insts: field("insts")?,
        warmup: field("warmup")?,
        ..job.scale()
    };
    Ok((field("attempt")?, scale, job))
}

/// Deliberate misbehavior for chaos testing, applied in the child only
/// (the server refuses chaos jobs unless `CROW_SERVE_CHAOS=1` *and*
/// isolation is `process`, so none of these can ever run in-process).
fn apply_chaos(kind: &str, attempt: u64) {
    match kind {
        "crash" => std::process::abort(),
        "crash-first" if attempt == 0 => std::process::abort(),
        "crash-first" => {}
        "wedge" => loop {
            std::thread::sleep(Duration::from_millis(50));
        },
        "bomb" => {
            let mut hoard: Vec<Vec<u8>> = Vec::new();
            loop {
                // Nonzero fill: zeroed allocations come from calloc'd
                // copy-on-write pages and would never grow the RSS.
                hoard.push(vec![0xA5u8; 8 << 20]);
                if hoard.len() >= 192 {
                    // 1.5 GiB absolute safety stop: if the parent's cap
                    // is somehow not enforced, wedge instead of taking
                    // the host down (the deadline still reaps us).
                    loop {
                        std::thread::sleep(Duration::from_millis(50));
                    }
                }
                std::thread::sleep(Duration::from_millis(3));
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_walks_closed_open_halfopen_closed() {
        let b = Breakers::new(2, Duration::from_millis(50));
        assert_eq!(b.admit("fp"), Admit::Run);
        assert!(!b.record_failure("fp"), "below threshold stays closed");
        assert_eq!(b.admit("fp"), Admit::Run);
        assert!(b.record_failure("fp"), "K-th consecutive failure opens");
        match b.admit("fp") {
            Admit::Quarantined { retry_after } => {
                assert!(retry_after <= Duration::from_millis(50));
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(b.admit("fp"), Admit::Probe, "cooldown elapses to a probe");
        assert!(
            matches!(b.admit("fp"), Admit::Quarantined { .. }),
            "only one probe at a time"
        );
        assert!(b.record_failure("fp"), "failed probe re-opens");
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(b.admit("fp"), Admit::Probe);
        b.record_success("fp");
        assert_eq!(b.admit("fp"), Admit::Run, "success closes the breaker");
        assert!(b.snapshot().is_empty(), "closed entries are dropped");
    }

    #[test]
    fn breaker_released_probe_can_be_retaken() {
        let b = Breakers::new(1, Duration::from_millis(10));
        assert!(b.record_failure("fp"));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(b.admit("fp"), Admit::Probe);
        b.release_probe("fp");
        assert_eq!(b.admit("fp"), Admit::Probe, "released probe is retaken");
        let snap = b.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].state, BreakerState::HalfOpen);
    }

    #[test]
    fn breaker_is_per_fingerprint_and_disableable() {
        let b = Breakers::new(1, Duration::from_secs(60));
        assert!(b.record_failure("poison"));
        assert!(matches!(b.admit("poison"), Admit::Quarantined { .. }));
        assert_eq!(b.admit("healthy"), Admit::Run, "other fingerprints run");
        let off = Breakers::new(0, Duration::from_secs(60));
        for _ in 0..10 {
            assert!(!off.record_failure("fp"));
        }
        assert_eq!(off.admit("fp"), Admit::Run, "k=0 disables the breaker");
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let b = Breakers::new(3, Duration::from_secs(60));
        assert!(!b.record_failure("fp"));
        assert!(!b.record_failure("fp"));
        b.record_success("fp");
        assert!(!b.record_failure("fp"), "count restarted after success");
        assert!(!b.record_failure("fp"));
        assert!(b.record_failure("fp"));
    }

    #[test]
    fn supervise_config_lookup_is_strict() {
        let c = SuperviseConfig::from_lookup(|_| None).unwrap();
        assert_eq!(c.isolation, IsolationMode::Thread, "thread is the default");
        assert_eq!(c.rss_cap, Some(4096 << 20));
        assert_eq!(c.breaker_k, 3);
        let c = SuperviseConfig::from_lookup(|k| match k {
            "CROW_SERVE_ISOLATION" => Some("process".into()),
            "CROW_SERVE_RSS_MB" => Some("64".into()),
            "CROW_SERVE_BREAKER_K" => Some("5".into()),
            "CROW_SERVE_BREAKER_COOLDOWN_SECS" => Some("0.25".into()),
            _ => None,
        })
        .unwrap();
        assert_eq!(c.isolation, IsolationMode::Process);
        assert_eq!(c.rss_cap, Some(64 << 20));
        assert_eq!(c.breaker_k, 5);
        assert_eq!(c.breaker_cooldown, Duration::from_millis(250));
        // 0 disables the cap and the breaker.
        let c = SuperviseConfig::from_lookup(|k| match k {
            "CROW_SERVE_RSS_MB" => Some("0".into()),
            "CROW_SERVE_BREAKER_K" => Some("0".into()),
            _ => None,
        })
        .unwrap();
        assert_eq!(c.rss_cap, None);
        assert_eq!(c.breaker_k, 0);
        for (k, v) in [
            ("CROW_SERVE_ISOLATION", "container"),
            ("CROW_SERVE_ISOLATION", "Process"),
            ("CROW_SERVE_RSS_MB", "lots"),
            ("CROW_SERVE_RSS_MB", "-1"),
            ("CROW_SERVE_BREAKER_K", "3.5"),
            ("CROW_SERVE_BREAKER_K", "99999999999"),
            ("CROW_SERVE_BREAKER_COOLDOWN_SECS", "NaN"),
            ("CROW_SERVE_BREAKER_COOLDOWN_SECS", "-2"),
        ] {
            let err = SuperviseConfig::from_lookup(|q| (q == k).then(|| v.into()))
                .expect_err(&format!("{k}={v} must be rejected"))
                .to_string();
            assert!(err.contains(k), "names the variable: {err}");
        }
    }

    fn job(tweak: impl FnOnce(&mut SimJob)) -> SimJob {
        let mut job = SimJob {
            id: "j1".into(),
            apps: vec!["mcf".into(), "gcc".into()],
            mechanism: "crow-8".into(),
            insts: 50_000,
            warmup: 1_000,
            seed: 7,
            density: 16,
            llc_mib: 4,
            channels: 2,
            prefetch: true,
            ddr4: false,
            validate: false,
            hammer: None,
            chaos: None,
            sample: None,
        };
        tweak(&mut job);
        job
    }

    #[test]
    fn runner_spec_roundtrips_through_the_child_parser() {
        let sample = Some(crate::sampling::SamplePlan::default_profile());
        let jobs = [
            job(|_| {}),
            // DDR4 jobs carry no density (the strict parser rejects one).
            job(|j| (j.ddr4, j.density) = (true, 8)),
            job(|j| j.hammer = Some(("double".into(), 1000))),
            job(|j| j.chaos = Some("crash-first".into())),
            job(|j| j.sample = sample),
            job(|j| {
                (j.ddr4, j.density, j.validate, j.prefetch) = (true, 8, true, false);
                j.hammer = Some(("many-4".into(), 70_000));
                j.seed = u64::MAX;
            }),
        ];
        for job in jobs {
            let degraded = Scale {
                insts: job.insts / 2,
                ..job.scale()
            };
            let spec = runner_spec(&job, degraded, 2);
            let (attempt, scale, back) = parse_spec(&spec).unwrap();
            assert_eq!((attempt, scale), (2, degraded));
            assert_eq!(back, job);
            // The embedded job is a wire-format request, optionals left out.
            let doc = Json::parse(&spec).unwrap();
            let wire = doc.get("job").unwrap();
            assert_eq!(wire.get("op").unwrap().as_str(), Some("sim"));
            assert_eq!(wire.get("density").is_some(), !job.ddr4);
            assert_eq!(wire.get("hammer_pattern").is_some(), job.hammer.is_some());
            assert_eq!(wire.get("chaos").is_some(), job.chaos.is_some());
            assert_eq!(wire.get("sample_ff").is_some(), job.sample.is_some());
        }
        let empty_job = "{\"v\":1,\"attempt\":0,\"insts\":1,\"warmup\":0,\"job\":{}}";
        assert!(parse_spec(empty_job).unwrap_err().contains("bad job"));
        assert!(parse_spec("{\"v\":2}").unwrap_err().contains("version"));
    }
}
