//! Hardened simulation-as-a-service: the batch server core behind the
//! `crow-serve` binary.
//!
//! The service speaks JSONL — one request object in, a stream of event
//! objects out — over stdin/stdout and/or a Unix socket. Robustness is
//! the design driver, in this order:
//!
//! * **Malformed input is a response, never a panic.** Every request
//!   line passes a strict validator ([`parse_request`]): non-object
//!   documents, unknown keys, duplicate keys, wrong types, and
//!   out-of-range values (huge instruction counts, impossible
//!   densities) all become structured [`CrowError::Request`]-derived
//!   error events, and the connection keeps serving.
//! * **Overload sheds, it does not wedge.** Admission goes through a
//!   bounded queue ([`ServeConfig::queue_depth`]); a full queue answers
//!   `overloaded` immediately instead of buffering without bound.
//! * **Slow clients cannot hold the server.** Socket reads go through
//!   [`LineReader`], which enforces a byte cap per request line (the
//!   overflow is discarded and answered with `too-large`) and a stall
//!   deadline on partially received lines; writes get OS-level
//!   deadlines in the binary.
//! * **Every accepted job runs through the shared executor**
//!   (`crate::exec`): crash isolation via `catch_unwind` (or a
//!   sandboxed child under process isolation), per-attempt wall-clock
//!   deadlines, degrade-ladder retries — and its terminal outcome is
//!   journaled to a shared fsynced [`Journal`].
//! * **Duplicates simulate zero cycles.** The journal doubles as a
//!   fingerprint-keyed result cache: a request whose fingerprint is
//!   already journaled is answered from the record (`cached: true`),
//!   and concurrent duplicates wait on the in-flight run instead of
//!   racing it.
//! * **Drain is graceful and resumable.** [`Server::drain`] stops
//!   admission, lets every accepted job finish and journal, and joins
//!   all workers; a SIGKILL instead loses nothing that was journaled —
//!   a restarted server answers the same requests from the journal with
//!   zero re-simulated cycles.

use std::collections::{HashSet, VecDeque};
use std::io::Read;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crow_workloads::AppProfile;

use crate::campaign::{
    campaign_dir, CampaignPolicy, Journal, JournalRecord, Journaled, OutcomeKind,
};
use crate::config::{Mechanism, SystemConfig};
use crate::error::CrowError;
use crate::exec::{self, lock};
use crate::experiments::{run_job, Scale};
use crate::json::Json;
use crate::knobs::Knobs;
use crate::report::SimReport;
use crate::supervise::{Admit, IsolationMode, SupCounters, SuperviseConfig, Supervisor};

// --- configuration ----------------------------------------------------

/// Server tuning knobs (env-overridable; see [`ServeConfig::from_env`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Bounded admission queue depth; a full queue sheds with
    /// `overloaded` (`CROW_SERVE_QUEUE`, default 64).
    pub queue_depth: usize,
    /// Worker threads executing jobs (`CROW_SERVE_WORKERS`, default one
    /// per available core).
    pub workers: usize,
    /// Request line byte cap; longer lines are discarded and answered
    /// with `too-large` (`CROW_SERVE_MAX_LINE`, default 64 KiB).
    pub max_line_bytes: usize,
    /// How long a partially received request line may stall before the
    /// connection is dropped with a structured error
    /// (`CROW_SERVE_READ_TIMEOUT_SECS`, default 10 s).
    pub read_timeout: Duration,
    /// Per-attempt wall-clock deadline for one job
    /// (`CROW_SERVE_JOB_TIMEOUT_SECS`, default 120 s; 0 disables).
    pub job_timeout: Option<Duration>,
    /// Degrade-ladder retries after a failed/timed-out attempt
    /// (`CROW_SERVE_RETRIES`, default 1).
    pub max_retries: u32,
    /// Period of streamed `running` heartbeat events while a job
    /// simulates (`CROW_SERVE_HEARTBEAT_SECS`, default 5 s; 0 disables).
    pub heartbeat: Option<Duration>,
    /// Journal directory (`serve.jsonl` inside doubles as the result
    /// cache); `None` runs unjournaled — no caching, no resume.
    pub journal_dir: Option<PathBuf>,
    /// Job isolation substrate and its supervision knobs
    /// (`CROW_SERVE_ISOLATION` and friends; see
    /// [`SuperviseConfig::from_lookup`]). Thread mode is the default
    /// and matches the pre-supervision server exactly.
    pub supervise: SuperviseConfig,
    /// Accept `chaos` jobs — deliberate crash/wedge/memory-bomb
    /// misbehavior for testing the supervision machinery
    /// (`CROW_SERVE_CHAOS`, default off). Chaos jobs additionally
    /// require process isolation; they are never run in-process.
    pub allow_chaos: bool,
}

impl ServeConfig {
    /// Built-in defaults with the journal under `dir`.
    pub fn new(dir: Option<PathBuf>) -> Self {
        Self {
            queue_depth: 64,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            max_line_bytes: 64 * 1024,
            read_timeout: Duration::from_secs(10),
            job_timeout: Some(Duration::from_secs(120)),
            max_retries: 1,
            heartbeat: Some(Duration::from_secs(5)),
            journal_dir: dir,
            supervise: SuperviseConfig::default(),
            allow_chaos: false,
        }
    }

    /// Reads the knobs from the environment on top of [`ServeConfig::new`]
    /// with the default journal directory (`$CROW_CAMPAIGN_DIR` or
    /// `results/campaign`). Malformed values are configuration errors,
    /// never silent defaults.
    pub fn from_env() -> Result<Self, CrowError> {
        Self::from_lookup(|k| std::env::var(k).ok())
    }

    /// [`ServeConfig::from_env`] against an arbitrary lookup (testable
    /// without mutating process-global state).
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, CrowError> {
        let env = Knobs::new("ServeConfig", &lookup);
        let mut c = Self::new(Some(campaign_dir(&lookup)));
        let count = |k: &str, min: u64, d: usize| -> Result<usize, CrowError> {
            Ok(env.uint(k, min)?.map_or(d, |n| n as usize))
        };
        c.queue_depth = count("CROW_SERVE_QUEUE", 1, c.queue_depth)?;
        c.workers = count("CROW_SERVE_WORKERS", 1, c.workers)?;
        c.max_line_bytes = count("CROW_SERVE_MAX_LINE", 256, c.max_line_bytes)?;
        if let Some(d) = env.secs("CROW_SERVE_READ_TIMEOUT_SECS")? {
            if d.is_zero() {
                return Err(env.err("CROW_SERVE_READ_TIMEOUT_SECS must be positive"));
            }
            c.read_timeout = d;
        }
        // 0 disables the job deadline and the heartbeat.
        if let Some(d) = env.secs("CROW_SERVE_JOB_TIMEOUT_SECS")? {
            c.job_timeout = (!d.is_zero()).then_some(d);
        }
        if let Some(d) = env.secs("CROW_SERVE_HEARTBEAT_SECS")? {
            c.heartbeat = (!d.is_zero()).then_some(d);
        }
        c.max_retries = env.u32("CROW_SERVE_RETRIES", 0)?.unwrap_or(c.max_retries);
        c.supervise = SuperviseConfig::from_lookup(&lookup)?;
        c.allow_chaos = env.flag("CROW_SERVE_CHAOS")?.unwrap_or(false);
        Ok(c)
    }
}

// --- wire protocol ----------------------------------------------------

/// One simulation job, as validated from a `{"op":"sim",...}` request.
#[derive(Debug, Clone, PartialEq)]
pub struct SimJob {
    /// Client-chosen request id, echoed on every event for this job.
    /// Not part of the fingerprint: two ids asking for the same
    /// simulation share one result.
    pub id: String,
    /// Application names (one core each).
    pub apps: Vec<String>,
    /// Mechanism spelling (validated against [`Mechanism::parse`]).
    pub mechanism: String,
    /// Instructions per core.
    pub insts: u64,
    /// Functional warmup instructions per core.
    pub warmup: u64,
    /// Master seed.
    pub seed: u64,
    /// Chip density in Gbit (8/16/32/64).
    pub density: u32,
    /// LLC capacity in MiB.
    pub llc_mib: u64,
    /// Memory channels.
    pub channels: u32,
    /// Enable the stride prefetcher.
    pub prefetch: bool,
    /// Use the DDR4-2400 platform instead of LPDDR4-3200.
    pub ddr4: bool,
    /// Attach the shadow protocol validator.
    pub validate: bool,
    /// Active RowHammer attack scenario: (pattern spelling, intensity
    /// in aggressor ACTs per refresh window). The scenario uses the
    /// job's master seed and the paper-default flip physics.
    pub hammer: Option<(String, u64)>,
    /// Deliberate misbehavior for supervision testing (`crash`,
    /// `crash-first`, `wedge`, or `bomb`), applied inside the sandboxed
    /// child only. Accepted only when [`ServeConfig::allow_chaos`] is
    /// set *and* isolation is process — never run in-process.
    pub chaos: Option<String>,
    /// Interval-sampling schedule (`sample_window`/`sample_warmup`/
    /// `sample_ff` request keys); `None` runs every cycle in detail.
    /// Joins the fingerprint: sampled and full results never collide.
    /// Never set together with `hammer`.
    pub sample: Option<crate::sampling::SamplePlan>,
}

/// Hard ceilings the validator enforces on numeric request fields, so a
/// hostile `"insts": 1e18` is an error response instead of a job that
/// runs for a geological epoch.
pub const MAX_JOB_INSTS: u64 = 1_000_000_000;
const MAX_JOB_WARMUP: u64 = 1_000_000_000;
const MAX_JOB_APPS: usize = 8;
const MAX_JOB_CHANNELS: u32 = 16;
const MAX_JOB_LLC_MIB: u64 = 1024;
const MAX_JOB_HAMMER_INTENSITY: u64 = 16_000_000;
const MAX_ID_LEN: usize = 120;

/// Chaos modes a request may name via the `"chaos"` key: deliberate
/// child misbehavior for exercising the supervision machinery.
pub const CHAOS_MODES: [&str; 4] = ["crash", "crash-first", "wedge", "bomb"];

impl SimJob {
    /// The job's canonical fingerprint — everything that changes the
    /// simulated outcome and nothing that does not (the client id and
    /// the service knobs are excluded). Combined with the scale
    /// fingerprint it keys the journal cache, exactly like a campaign
    /// job.
    pub fn fingerprint(&self) -> String {
        format!(
            "serve/{}/{}/d{}/llc{}/ch{}/s{}{}{}{}{}{}{}",
            self.mechanism.to_ascii_lowercase(),
            self.apps.join("+"),
            self.density,
            self.llc_mib,
            self.channels,
            self.seed,
            if self.prefetch { "/pref" } else { "" },
            if self.ddr4 { "/ddr4" } else { "" },
            if self.validate { "/validate" } else { "" },
            match &self.hammer {
                Some((p, i)) => format!("/hammer:{p}x{i}"),
                None => String::new(),
            },
            match &self.chaos {
                Some(c) => format!("/chaos:{c}"),
                None => String::new(),
            },
            match &self.sample {
                Some(p) => format!("/sample:{}", p.fingerprint()),
                None => String::new(),
            },
        )
    }

    /// The simulation scale this job requests.
    pub fn scale(&self) -> Scale {
        Scale {
            insts: self.insts,
            warmup: self.warmup,
            mixes_per_group: 1,
            max_cycles: u64::MAX,
            threads: 1,
            checkpoints: false,
            sample: self.sample,
        }
    }

    /// The full journal fingerprint: [`Scale::key`] of the job
    /// fingerprint at this job's scale.
    pub fn journal_fingerprint(&self) -> String {
        self.scale().key(&self.fingerprint())
    }

    /// Builds the system configuration, resolving the mechanism and the
    /// attack pattern (geometry checks happen in `System::try_new`).
    ///
    /// # Errors
    ///
    /// A [`CrowError::Request`] for an unknown mechanism or pattern.
    pub fn to_config(&self) -> Result<SystemConfig, CrowError> {
        let mech = Mechanism::parse(&self.mechanism)
            .ok_or_else(|| bad_req(format!("unknown mechanism {:?}", self.mechanism)))?;
        let base = if self.ddr4 {
            SystemConfig::ddr4(mech)
        } else {
            check_density(self.density)?;
            SystemConfig::paper_default(mech).with_density(self.density)
        };
        let mut cfg = base.with_llc_bytes(self.llc_mib << 20);
        cfg.channels = self.channels;
        cfg.seed = self.seed;
        if self.prefetch {
            cfg = cfg.with_prefetcher();
        }
        if self.validate {
            cfg.validate_protocol = true;
        }
        if let Some((pattern, intensity)) = &self.hammer {
            let p = crate::hammer::AttackPattern::parse(pattern)
                .ok_or_else(|| bad_req(format!("unknown hammer pattern {pattern:?}")))?;
            cfg = cfg.with_hammer(crate::hammer::HammerScenario::new(p, *intensity));
        }
        Ok(cfg)
    }

    /// The job as a wire-format `{"op":"sim",...}` request — the parent
    /// half of the child wire format (see [`crate::supervise`]), read
    /// back by [`parse_request`]. Absent optionals are left out, and so
    /// is `density` for DDR4 jobs (the parser rejects it there).
    pub fn to_json(&self) -> Json {
        let apps = self.apps.iter().map(|a| Json::str(a.as_str())).collect();
        let mut pairs = vec![
            ("op", Json::str("sim")),
            ("id", Json::str(self.id.as_str())),
            ("apps", Json::Arr(apps)),
            ("mechanism", Json::str(self.mechanism.as_str())),
            ("insts", Json::u64(self.insts)),
            ("warmup", Json::u64(self.warmup)),
            ("seed", Json::u64(self.seed)),
            ("llc_mib", Json::u64(self.llc_mib)),
            ("channels", Json::u64(u64::from(self.channels))),
            ("prefetch", Json::Bool(self.prefetch)),
            ("ddr4", Json::Bool(self.ddr4)),
            ("validate", Json::Bool(self.validate)),
        ];
        if !self.ddr4 {
            pairs.push(("density", Json::u64(u64::from(self.density))));
        }
        if let Some((pattern, intensity)) = &self.hammer {
            pairs.push(("hammer_pattern", Json::str(pattern.as_str())));
            pairs.push(("hammer_intensity", Json::u64(*intensity)));
        }
        if let Some(chaos) = &self.chaos {
            pairs.push(("chaos", Json::str(chaos.as_str())));
        }
        if let Some(p) = &self.sample {
            pairs.push(("sample_window", Json::u64(p.window_insts)));
            pairs.push(("sample_warmup", Json::u64(p.warmup_insts)));
            pairs.push(("sample_ff", Json::u64(p.ff_insts)));
        }
        Json::obj(pairs)
    }
}

/// A validated request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run (or answer from cache) one simulation.
    Sim(Box<SimJob>),
    /// Liveness probe; answered inline with `pong`.
    Ping,
    /// Server counters; answered inline.
    Stats,
    /// Supervision health: queue depth, live children, breaker states,
    /// cumulative kill/retry counters; answered inline.
    Health,
    /// Begin a graceful drain (equivalent to SIGTERM).
    Shutdown,
}

fn bad_req(reason: impl Into<String>) -> CrowError {
    CrowError::Request {
        reason: reason.into(),
    }
}

/// The LPDDR4 chip densities the platform models (paper Fig. 13), the
/// check [`crow_dram::DramConfig::with_density`] asserts.
fn check_density(density: u32) -> Result<(), CrowError> {
    if density.is_power_of_two() && (8..=64).contains(&density) {
        Ok(())
    } else {
        Err(bad_req("\"density\" must be 8, 16, 32, or 64 (Gbit)"))
    }
}

/// The wire `code` for a [`CrowError`] carried by an error event.
pub fn error_code(e: &CrowError) -> &'static str {
    match e {
        CrowError::Request { .. } => "bad-request",
        CrowError::Config(_) | CrowError::Controller(_) => "bad-config",
        CrowError::Trace(_) => "trace",
        CrowError::Protocol { .. } => "protocol",
        CrowError::Journal { .. } => "journal",
        CrowError::Quarantined { .. } => "quarantined",
        CrowError::ResourceLimit { .. } => "resource-limit",
    }
}

/// Strictly validates one request line. On failure the error carries
/// the client id when one could still be recovered from the document,
/// so the error response can be correlated.
pub fn parse_request(line: &str) -> Result<Request, (Option<String>, CrowError)> {
    let doc = Json::parse(line).map_err(|e| (None, bad_req(format!("not JSON: {e}"))))?;
    let recovered_id = doc
        .get("id")
        .and_then(Json::as_str)
        .filter(|s| id_ok(s))
        .map(str::to_string);
    parse_request_doc(&doc).map_err(|e| (recovered_id, e))
}

fn id_ok(s: &str) -> bool {
    !s.is_empty() && s.len() <= MAX_ID_LEN && s.chars().all(|c| !c.is_control())
}

pub(crate) fn parse_request_doc(doc: &Json) -> Result<Request, CrowError> {
    let pairs = doc
        .as_obj()
        .ok_or_else(|| bad_req("request must be a JSON object"))?;
    // Duplicate keys are an error, not a silent first-or-last-wins.
    let mut seen = HashSet::new();
    for (k, _) in pairs {
        if !seen.insert(k.as_str()) {
            return Err(bad_req(format!("duplicate key {k:?}")));
        }
    }
    let op = doc
        .get("op")
        .ok_or_else(|| bad_req("missing required key \"op\""))?
        .as_str()
        .ok_or_else(|| bad_req("\"op\" must be a string"))?;
    match op {
        "ping" | "stats" | "health" | "shutdown" => {
            for (k, _) in pairs {
                if k != "op" && k != "id" {
                    return Err(bad_req(format!("unknown key {k:?} for op {op:?}")));
                }
            }
            Ok(match op {
                "ping" => Request::Ping,
                "stats" => Request::Stats,
                "health" => Request::Health,
                _ => Request::Shutdown,
            })
        }
        "sim" => parse_sim(doc, pairs).map(|j| Request::Sim(Box::new(j))),
        other => Err(bad_req(format!(
            "unknown op {other:?} (expected sim, ping, stats, health, or shutdown)"
        ))),
    }
}

/// The string at `key`, if present; any other type is a bad request.
fn str_key<'a>(doc: &'a Json, key: &str) -> Result<Option<&'a str>, CrowError> {
    doc.get(key)
        .map(|v| {
            v.as_str()
                .ok_or_else(|| bad_req(format!("{key:?} must be a string")))
        })
        .transpose()
}

fn parse_sim(doc: &Json, pairs: &[(String, Json)]) -> Result<SimJob, CrowError> {
    const KEYS: [&str; 19] = [
        "op",
        "id",
        "apps",
        "mechanism",
        "insts",
        "warmup",
        "seed",
        "density",
        "llc_mib",
        "channels",
        "prefetch",
        "ddr4",
        "validate",
        "hammer_pattern",
        "hammer_intensity",
        "chaos",
        "sample_window",
        "sample_warmup",
        "sample_ff",
    ];
    for (k, _) in pairs {
        if !KEYS.contains(&k.as_str()) {
            return Err(bad_req(format!("unknown key {k:?} for op \"sim\"")));
        }
    }
    let id = str_key(doc, "id")?.ok_or_else(|| bad_req("missing required key \"id\""))?;
    if !id_ok(id) {
        return Err(bad_req(format!(
            "\"id\" must be 1..={MAX_ID_LEN} non-control characters"
        )));
    }
    let apps_json = doc
        .get("apps")
        .ok_or_else(|| bad_req("missing required key \"apps\""))?
        .as_arr()
        .ok_or_else(|| bad_req("\"apps\" must be an array of application names"))?;
    if apps_json.is_empty() || apps_json.len() > MAX_JOB_APPS {
        return Err(bad_req(format!(
            "\"apps\" must list 1..={MAX_JOB_APPS} applications"
        )));
    }
    let mut apps = Vec::with_capacity(apps_json.len());
    for a in apps_json {
        let name = a
            .as_str()
            .ok_or_else(|| bad_req("\"apps\" entries must be strings"))?;
        if AppProfile::by_name(name).is_none() {
            return Err(bad_req(format!("unknown application {name:?}")));
        }
        apps.push(name.to_string());
    }
    let uint = |key: &str, default: u64, max: u64| -> Result<u64, CrowError> {
        match doc.get(key) {
            None => Ok(default),
            Some(v) => {
                let n = v
                    .as_u64()
                    .ok_or_else(|| bad_req(format!("{key:?} must be an unsigned integer")))?;
                if n > max {
                    return Err(bad_req(format!("{key:?} must be at most {max}")));
                }
                Ok(n)
            }
        }
    };
    let flag = |key: &str| -> Result<bool, CrowError> {
        match doc.get(key) {
            None => Ok(false),
            Some(v) => v
                .as_bool()
                .ok_or_else(|| bad_req(format!("{key:?} must be a boolean"))),
        }
    };
    let mechanism = str_key(doc, "mechanism")?.unwrap_or("baseline");
    if Mechanism::parse(mechanism).is_none() {
        return Err(bad_req(format!("unknown mechanism {mechanism:?}")));
    }
    let insts = uint("insts", 100_000, MAX_JOB_INSTS)?;
    if insts == 0 {
        return Err(bad_req("\"insts\" must be positive"));
    }
    let density = u32::try_from(uint("density", 8, 64)?).expect("bounded above by 64");
    check_density(density)?;
    let channels = u32::try_from(uint("channels", 4, u64::from(MAX_JOB_CHANNELS))?)
        .expect("bounded above by MAX_JOB_CHANNELS");
    if channels == 0 {
        return Err(bad_req("\"channels\" must be positive"));
    }
    let llc_mib = uint("llc_mib", 8, MAX_JOB_LLC_MIB)?;
    if llc_mib == 0 {
        return Err(bad_req("\"llc_mib\" must be positive"));
    }
    let ddr4 = flag("ddr4")?;
    if ddr4 && doc.get("density").is_some() {
        return Err(bad_req("\"density\" applies to the LPDDR4 platform only"));
    }
    let hammer = match str_key(doc, "hammer_pattern")? {
        None if doc.get("hammer_intensity").is_some() => {
            return Err(bad_req("\"hammer_intensity\" requires \"hammer_pattern\""));
        }
        None => None,
        Some(s) => {
            if crate::hammer::AttackPattern::parse(s).is_none() {
                return Err(bad_req(format!("unknown hammer pattern {s:?}")));
            }
            let intensity = uint("hammer_intensity", 500_000, MAX_JOB_HAMMER_INTENSITY)?;
            if intensity == 0 {
                return Err(bad_req("\"hammer_intensity\" must be positive"));
            }
            Some((s.to_string(), intensity))
        }
    };
    let chaos = match str_key(doc, "chaos")? {
        Some(s) if !CHAOS_MODES.contains(&s) => {
            return Err(bad_req(format!(
                "unknown chaos mode {s:?} (expected crash, crash-first, wedge, or bomb)"
            )));
        }
        chaos => chaos.map(str::to_string),
    };
    let sample = if doc.get("sample_window").is_none()
        && doc.get("sample_warmup").is_none()
        && doc.get("sample_ff").is_none()
    {
        None
    } else {
        // Any subset of the three keys enables sampling; unspecified
        // fields come from the default profile, mirroring the
        // CROW_SAMPLE_* environment knobs.
        let d = crate::sampling::SamplePlan::default_profile();
        let plan = crate::sampling::SamplePlan {
            window_insts: uint("sample_window", d.window_insts, MAX_JOB_INSTS)?,
            warmup_insts: uint("sample_warmup", d.warmup_insts, MAX_JOB_INSTS)?,
            ff_insts: uint("sample_ff", d.ff_insts, MAX_JOB_INSTS)?,
        };
        if plan.window_insts == 0 {
            return Err(bad_req("\"sample_window\" must be positive"));
        }
        Some(plan)
    };
    if hammer.is_some() && sample.is_some() {
        return Err(bad_req(
            "\"hammer_pattern\" cannot be combined with \"sample_*\" keys: \
             the sampling fast-forward skips the attack's injections",
        ));
    }
    Ok(SimJob {
        id: id.to_string(),
        apps,
        mechanism: mechanism.to_string(),
        insts,
        warmup: uint("warmup", 10_000, MAX_JOB_WARMUP)?,
        seed: uint("seed", 0xC0DE, u64::MAX)?,
        density,
        llc_mib,
        channels,
        prefetch: flag("prefetch")?,
        ddr4,
        validate: flag("validate")?,
        hammer,
        chaos,
        sample,
    })
}

// --- responses --------------------------------------------------------

/// Where a connection's outbound event lines go. Cheap to clone; jobs
/// hold one so results reach the submitting connection (or vanish
/// harmlessly if it is gone — the result is journaled either way).
#[derive(Debug, Clone)]
pub struct Reply(mpsc::Sender<String>);

impl Reply {
    /// A reply channel and its receiving end (the connection writer).
    pub fn pair() -> (Reply, mpsc::Receiver<String>) {
        let (tx, rx) = mpsc::channel();
        (Reply(tx), rx)
    }

    fn send(&self, doc: Json) {
        // A gone connection is not an error: the job still journals.
        let _ = self.0.send(doc.render());
    }

    fn event(&self, kind: &str, id: Option<&str>, extra: Vec<(String, Json)>) {
        let mut pairs = vec![("event".into(), Json::str(kind))];
        pairs.push((
            "id".into(),
            match id {
                Some(s) => Json::str(s),
                None => Json::Null,
            },
        ));
        pairs.extend(extra);
        self.send(Json::Obj(pairs));
    }

    /// Emits a structured error event.
    pub fn error(&self, id: Option<&str>, code: &str, message: &str) {
        self.event(
            "error",
            id,
            vec![
                ("code".into(), Json::str(code)),
                ("error".into(), Json::str(message)),
            ],
        );
    }
}

// --- bounded line reader ----------------------------------------------

/// What one [`LineReader::poll`] produced.
#[derive(Debug, PartialEq, Eq)]
pub enum LineRead {
    /// A complete request line (without the newline).
    Line(String),
    /// The peer closed the stream.
    Eof,
    /// Nothing new; poll again (lets the caller check shutdown flags).
    Idle,
    /// A partial line sat unfinished past the stall deadline; the
    /// caller should answer with a structured error and drop the
    /// connection.
    Stalled,
    /// A line exceeded the byte cap; the overflow was discarded through
    /// the next newline. The connection stays usable.
    TooLong,
}

/// An incremental, bounded, stall-detecting line reader.
///
/// Reads are expected to come from a stream with a short OS read
/// timeout (the poll tick); `WouldBlock`/`TimedOut` are how the reader
/// notices time passing. A line longer than `cap` flips into discard
/// mode — bytes are dropped, not buffered — until the newline arrives,
/// then reports [`LineRead::TooLong`]. A line that starts arriving but
/// does not finish within `deadline` reports [`LineRead::Stalled`].
#[derive(Debug)]
pub struct LineReader {
    buf: Vec<u8>,
    cap: usize,
    deadline: Duration,
    started: Option<Instant>,
    discarding: bool,
}

impl LineReader {
    /// A reader enforcing `cap` bytes per line and `deadline` per
    /// partial line.
    pub fn new(cap: usize, deadline: Duration) -> Self {
        Self {
            buf: Vec::new(),
            cap,
            deadline,
            started: None,
            discarding: false,
        }
    }

    fn take_buffered(&mut self) -> Option<LineRead> {
        let nl = self.buf.iter().position(|&b| b == b'\n')?;
        let rest = self.buf.split_off(nl + 1);
        let mut line = std::mem::replace(&mut self.buf, rest);
        line.pop(); // the newline
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        self.started = (!self.buf.is_empty()).then(Instant::now);
        // The cap applies to the extracted line too: an oversized line
        // whose newline arrived in the same chunk as its overflow never
        // entered discard mode but must still be rejected.
        if self.discarding || line.len() > self.cap {
            self.discarding = false;
            return Some(LineRead::TooLong);
        }
        Some(LineRead::Line(String::from_utf8_lossy(&line).into_owned()))
    }

    /// Advances the reader by at most one `read` call.
    pub fn poll(&mut self, r: &mut impl Read) -> std::io::Result<LineRead> {
        if let Some(out) = self.take_buffered() {
            return Ok(out);
        }
        let mut chunk = [0u8; 4096];
        match r.read(&mut chunk) {
            Ok(0) => {
                if self.buf.is_empty() && !self.discarding {
                    return Ok(LineRead::Eof);
                }
                // A trailing partial line still gets an answer (it will
                // parse-error or report too-long); EOF follows next poll.
                self.buf.push(b'\n');
                Ok(self.take_buffered().expect("newline just appended"))
            }
            Ok(n) => {
                if self.started.is_none() {
                    self.started = Some(Instant::now());
                }
                if self.discarding {
                    // Keep only anything at/after a newline.
                    match chunk[..n].iter().position(|&b| b == b'\n') {
                        Some(nl) => self.buf.extend_from_slice(&chunk[nl..n]),
                        None => return Ok(LineRead::Idle),
                    }
                } else {
                    self.buf.extend_from_slice(&chunk[..n]);
                    if self.buf.len() > self.cap && !self.buf.contains(&b'\n') {
                        self.buf.clear();
                        self.discarding = true;
                        return Ok(LineRead::Idle);
                    }
                }
                match self.take_buffered() {
                    Some(out) => Ok(out),
                    None => Ok(LineRead::Idle),
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if let Some(t0) = self.started {
                    if t0.elapsed() > self.deadline {
                        self.buf.clear();
                        self.discarding = false;
                        self.started = None;
                        return Ok(LineRead::Stalled);
                    }
                }
                Ok(LineRead::Idle)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(LineRead::Idle),
            Err(e) => Err(e),
        }
    }
}

// --- the server -------------------------------------------------------

#[derive(Debug, Default)]
struct Counters {
    received: AtomicU64,
    accepted: AtomicU64,
    shed: AtomicU64,
    bad_requests: AtomicU64,
    jobs_run: AtomicU64,
    cache_hits: AtomicU64,
    cycles_simulated: AtomicU64,
    results: AtomicU64,
    failures: AtomicU64,
    quarantined: AtomicU64,
    abandoned_attempts: AtomicU64,
}

struct QueuedJob {
    job: SimJob,
    reply: Reply,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<QueuedJob>,
    closed: bool,
}

struct Shared {
    cfg: ServeConfig,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    journal: Option<Mutex<Journal>>,
    inflight: Mutex<HashSet<String>>,
    inflight_cv: Condvar,
    draining: AtomicBool,
    stats: Counters,
    /// Present iff isolation is process: jobs run in sandboxed children
    /// under deadline/RSS supervision with per-fingerprint breakers.
    supervisor: Option<Supervisor>,
}

/// Final accounting returned by [`Server::drain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainSummary {
    /// Worker threads joined (all of them, or the drain is not clean).
    pub workers_joined: usize,
    /// Fresh simulations executed over the server's lifetime.
    pub jobs_run: u64,
    /// Requests answered from the journal cache.
    pub cache_hits: u64,
    /// Requests shed by the bounded admission queue.
    pub shed: u64,
    /// Requests rejected by the strict validator.
    pub bad_requests: u64,
    /// Jobs still queued after the drain (always 0 on a clean drain).
    pub abandoned: usize,
    /// Attempt threads abandoned past their deadline (thread mode) —
    /// leaked detached threads the process carries until exit.
    pub abandoned_attempts: u64,
    /// Sandboxed children SIGKILLed by the supervisor (deadline plus
    /// RSS-cap kills; process mode only).
    pub killed_children: u64,
    /// Requests refused because their fingerprint's breaker was open.
    pub quarantined: u64,
}

/// The batch simulation server (see the module docs).
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Opens the journal (resuming any prior records — that is the
    /// cache) and starts the worker pool.
    pub fn new(cfg: ServeConfig) -> Result<Self, CrowError> {
        let journal = match &cfg.journal_dir {
            Some(dir) => Some(Mutex::new(Journal::open(&dir.join("serve.jsonl"), true)?)),
            None => None,
        };
        let supervisor = match cfg.supervise.isolation {
            IsolationMode::Process => Some(Supervisor::new(cfg.supervise.clone())?),
            IsolationMode::Thread => None,
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState::default()),
            queue_cv: Condvar::new(),
            journal,
            inflight: Mutex::new(HashSet::new()),
            inflight_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            stats: Counters::default(),
            supervisor,
            cfg,
        });
        // Exactly `cfg.workers` threads; 0 is admission-only (tests).
        let workers = (0..shared.cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("crow-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .map_err(|e| {
                        let reason = format!("cannot spawn worker: {e}");
                        CrowError::Config(crow_dram::ConfigError::new("ServeConfig", reason))
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { shared, workers })
    }

    /// Handles one request line from a connection: validates, answers
    /// inline ops immediately, and admits simulation jobs through the
    /// bounded queue. Never panics, never blocks on simulation work.
    pub fn handle_line(&self, line: &str, reply: &Reply) {
        self.shared.stats.received.fetch_add(1, Ordering::Relaxed);
        match parse_request(line) {
            Err((id, e)) => {
                self.shared
                    .stats
                    .bad_requests
                    .fetch_add(1, Ordering::Relaxed);
                reply.error(id.as_deref(), error_code(&e), &e.to_string());
            }
            Ok(Request::Ping) => reply.event("pong", None, Vec::new()),
            Ok(Request::Stats) => reply.send(self.stats_json()),
            Ok(Request::Health) => reply.send(self.health_json()),
            Ok(Request::Shutdown) => {
                self.shared.draining.store(true, Ordering::SeqCst);
                reply.event("draining", None, Vec::new());
            }
            Ok(Request::Sim(job)) => self.submit(*job, reply.clone()),
        }
    }

    /// Admits one validated job (or sheds it with a structured
    /// response).
    pub fn submit(&self, job: SimJob, reply: Reply) {
        if self.shared.draining.load(Ordering::SeqCst) {
            self.shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            reply.error(
                Some(&job.id),
                "draining",
                "server is draining; not accepting new jobs",
            );
            return;
        }
        // Chaos is opt-in twice over: the operator must enable it AND
        // run process isolation, so deliberate misbehavior can never
        // execute inside the server process itself.
        if job.chaos.is_some() && !(self.shared.cfg.allow_chaos && self.shared.supervisor.is_some())
        {
            self.shared
                .stats
                .bad_requests
                .fetch_add(1, Ordering::Relaxed);
            reply.error(
                Some(&job.id),
                "bad-request",
                "chaos jobs require CROW_SERVE_CHAOS=1 and CROW_SERVE_ISOLATION=process",
            );
            return;
        }
        let fingerprint = job.journal_fingerprint();
        {
            let mut q = lock(&self.shared.queue);
            if q.closed || q.jobs.len() >= self.shared.cfg.queue_depth {
                drop(q);
                self.shared.stats.shed.fetch_add(1, Ordering::Relaxed);
                reply.error(
                    Some(&job.id),
                    "overloaded",
                    &format!(
                        "admission queue full (depth {}); retry later",
                        self.shared.cfg.queue_depth
                    ),
                );
                return;
            }
            // The `accepted` event goes out while the queue lock is still
            // held, so it is ordered before any worker event for the job.
            self.shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
            reply.event(
                "accepted",
                Some(&job.id),
                vec![
                    ("fingerprint".into(), Json::str(fingerprint)),
                    ("queue_depth".into(), Json::u64((q.jobs.len() + 1) as u64)),
                ],
            );
            q.jobs.push_back(QueuedJob { job, reply });
        }
        self.shared.queue_cv.notify_one();
    }

    /// The configuration the server was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.cfg
    }

    /// Whether a drain was requested (shutdown op or owner decision).
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Requests a drain without consuming the server (used by signal
    /// handlers; follow with [`Server::drain`]).
    pub fn request_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Jobs currently waiting for a worker.
    pub fn queue_len(&self) -> usize {
        lock(&self.shared.queue).jobs.len()
    }

    /// Server counters as a `stats` event document.
    pub fn stats_json(&self) -> Json {
        let s = &self.shared.stats;
        let g = |a: &AtomicU64| Json::u64(a.load(Ordering::Relaxed));
        let sup = self
            .shared
            .supervisor
            .as_ref()
            .map(Supervisor::counters)
            .unwrap_or_default();
        Json::Obj(vec![
            ("event".into(), Json::str("stats")),
            ("received".into(), g(&s.received)),
            ("accepted".into(), g(&s.accepted)),
            ("shed".into(), g(&s.shed)),
            ("bad_requests".into(), g(&s.bad_requests)),
            ("jobs_run".into(), g(&s.jobs_run)),
            ("cache_hits".into(), g(&s.cache_hits)),
            ("cycles_simulated".into(), g(&s.cycles_simulated)),
            ("results".into(), g(&s.results)),
            ("failures".into(), g(&s.failures)),
            ("quarantined".into(), g(&s.quarantined)),
            ("abandoned_attempts".into(), g(&s.abandoned_attempts)),
            ("children_spawned".into(), Json::u64(sup.spawned)),
            (
                "children_killed".into(),
                Json::u64(sup.killed_deadline + sup.killed_rss),
            ),
            ("queue_depth".into(), Json::u64(self.queue_len() as u64)),
            ("draining".into(), Json::Bool(self.draining())),
        ])
    }

    /// Supervision health as a `health` event document: queue depth,
    /// live sandboxed children, per-fingerprint breaker states, and the
    /// cumulative kill/retry counters. Thread mode answers the same
    /// shape with zeros and empty arrays, so dashboards need no mode
    /// switch.
    pub fn health_json(&self) -> Json {
        let s = &self.shared.stats;
        let (children, breakers, sup) = match self.shared.supervisor.as_ref() {
            Some(sup) => (
                sup.live_children(),
                sup.breakers().snapshot(),
                sup.counters(),
            ),
            None => (Vec::new(), Vec::new(), SupCounters::default()),
        };
        let children: Vec<Json> = children
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("pid", Json::u64(u64::from(c.pid))),
                    ("fingerprint", Json::str(c.fingerprint.as_str())),
                    ("elapsed_secs", Json::f64(c.elapsed.as_secs_f64())),
                ])
            })
            .collect();
        let breakers = breakers
            .iter()
            .map(|b| {
                Json::obj(vec![
                    ("fingerprint", Json::str(b.fingerprint.as_str())),
                    ("state", Json::str(b.state.as_str())),
                    ("consecutive_failures", Json::u64(u64::from(b.consecutive))),
                    ("retry_after_secs", Json::f64(b.retry_after.as_secs_f64())),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("event".into(), Json::str("health")),
            (
                "isolation".into(),
                Json::str(self.shared.cfg.supervise.isolation.as_str()),
            ),
            ("queue_depth".into(), Json::u64(self.queue_len() as u64)),
            ("draining".into(), Json::Bool(self.draining())),
            ("live_children".into(), Json::u64(children.len() as u64)),
            ("children".into(), Json::Arr(children)),
            ("breakers".into(), Json::Arr(breakers)),
            (
                "quarantined".into(),
                Json::u64(s.quarantined.load(Ordering::Relaxed)),
            ),
            (
                "abandoned_attempts".into(),
                Json::u64(s.abandoned_attempts.load(Ordering::Relaxed)),
            ),
            (
                "counters".into(),
                Json::obj(vec![
                    ("children_spawned", Json::u64(sup.spawned)),
                    ("children_killed_deadline", Json::u64(sup.killed_deadline)),
                    ("children_killed_rss", Json::u64(sup.killed_rss)),
                    ("child_crashes", Json::u64(sup.crashes)),
                    ("child_retries", Json::u64(sup.retries)),
                ]),
            ),
        ])
    }

    /// Gracefully drains: no new admissions, every already-accepted job
    /// finishes (and journals), every worker thread is joined. Returns
    /// the final accounting.
    pub fn drain(self) -> DrainSummary {
        self.shared.draining.store(true, Ordering::SeqCst);
        {
            let mut q = lock(&self.shared.queue);
            q.closed = true;
        }
        self.shared.queue_cv.notify_all();
        let mut joined = 0;
        for w in self.workers {
            if w.join().is_ok() {
                joined += 1;
            }
        }
        let s = &self.shared.stats;
        let sup = self
            .shared
            .supervisor
            .as_ref()
            .map(Supervisor::counters)
            .unwrap_or_default();
        DrainSummary {
            workers_joined: joined,
            jobs_run: s.jobs_run.load(Ordering::Relaxed),
            cache_hits: s.cache_hits.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
            bad_requests: s.bad_requests.load(Ordering::Relaxed),
            abandoned: lock(&self.shared.queue).jobs.len(),
            abandoned_attempts: s.abandoned_attempts.load(Ordering::Relaxed),
            killed_children: sup.killed_deadline + sup.killed_rss,
            quarantined: s.quarantined.load(Ordering::Relaxed),
        }
    }
}

// --- worker side ------------------------------------------------------

fn worker_loop(shared: &Shared) {
    loop {
        let item = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(item) = q.jobs.pop_front() {
                    break item;
                }
                if q.closed {
                    return;
                }
                q = shared
                    .queue_cv
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        process_job(shared, item);
    }
}

/// The journaled record that may answer `fp` without re-running it.
/// Thread mode: any record. Process mode: successes only — journaled
/// failures stay retryable so a crash-looping fingerprint keeps feeding
/// its circuit breaker instead of turning into a permanently cached
/// error.
fn cached_record(shared: &Shared, fp: &str) -> Option<JournalRecord> {
    let rec = lock(shared.journal.as_ref()?).lookup(fp).cloned()?;
    (shared.supervisor.is_none() || rec.payload.is_some()).then_some(rec)
}

/// The wire `code` for a terminal job failure. Timeouts and
/// resource-cap kills get dedicated codes so clients can react
/// differently (back off vs. shrink the job); everything else is
/// `failed`.
fn failure_code(kind: OutcomeKind, error: Option<&str>) -> &'static str {
    if kind == OutcomeKind::TimedOut {
        "timeout"
    } else if error.is_some_and(|e| e.starts_with("resource-limit")) {
        "resource-limit"
    } else {
        "failed"
    }
}

/// Answers `id` from a journal record — a `result` event for a success,
/// a coded `error` event otherwise — so a cached reply and the reply
/// that first computed the job share every byte from `outcome` on.
fn reply_record(reply: &Reply, id: &str, rec: &JournalRecord, cached: bool) {
    let report = rec.payload.as_deref().and_then(|t| Json::parse(t).ok());
    match report {
        Some(report) => reply.event(
            "result",
            Some(id),
            vec![
                ("cached".into(), Json::Bool(cached)),
                ("outcome".into(), Json::str(rec.kind.as_str())),
                ("attempts".into(), Json::u64(u64::from(rec.attempts))),
                ("report".into(), report),
            ],
        ),
        None => reply.error(
            Some(id),
            failure_code(rec.kind, rec.error.as_deref()),
            rec.error.as_deref().unwrap_or("job produced no result"),
        ),
    }
}

/// Removes the in-flight claim on drop, so even a panicking worker
/// cannot leave a fingerprint permanently claimed (which would wedge
/// every future duplicate).
struct InflightGuard<'a> {
    shared: &'a Shared,
    fp: String,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        lock(&self.shared.inflight).remove(&self.fp);
        self.shared.inflight_cv.notify_all();
    }
}

/// One job: breaker admission, journal cache, in-flight dedup,
/// execution, journal, reply.
fn process_job(shared: &Shared, item: QueuedJob) {
    let QueuedJob { job, reply } = item;
    let fp = job.journal_fingerprint();
    let sup = shared.supervisor.as_ref();

    // Circuit breaker first: a quarantined fingerprint is refused
    // before any cache or dedup work. The refusal is never journaled —
    // the cooldown is transient supervision state, not a result.
    let probe = match sup.map(|s| s.breakers().admit(&fp)) {
        Some(Admit::Quarantined { retry_after }) => {
            shared.stats.quarantined.fetch_add(1, Ordering::Relaxed);
            let e = CrowError::Quarantined {
                fingerprint: fp.clone(),
                retry_after_ms: u64::try_from(retry_after.as_millis()).unwrap_or(u64::MAX),
            };
            reply.error(Some(&job.id), error_code(&e), &e.to_string());
            return;
        }
        admit => admit == Some(Admit::Probe),
    };

    // The journal cache and the in-flight gate are checked together
    // under the in-flight lock. A running worker journals before it
    // drops its claim, so a duplicate either finds the record or waits
    // for the run that writes it: zero cycles simulated either way.
    let _guard = {
        let mut infl = lock(&shared.inflight);
        loop {
            if let Some(rec) = cached_record(shared, &fp) {
                drop(infl);
                // A probe that does not execute hands its slot back, or
                // the breaker would wedge half-open forever.
                if let (true, Some(sup)) = (probe, sup) {
                    sup.breakers().release_probe(&fp);
                }
                shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                shared.stats.results.fetch_add(1, Ordering::Relaxed);
                reply_record(&reply, &job.id, &rec, true);
                return;
            }
            if infl.insert(fp.clone()) {
                break InflightGuard {
                    shared,
                    fp: fp.clone(),
                };
            }
            infl = shared
                .inflight_cv
                .wait(infl)
                .unwrap_or_else(PoisonError::into_inner);
        }
    };

    let mut policy = CampaignPolicy::new(job.scale());
    policy.timeout = shared.cfg.job_timeout;
    policy.max_retries = shared.cfg.max_retries;
    reply.event(
        "started",
        Some(&job.id),
        vec![("insts".into(), Json::u64(job.insts))],
    );

    // Heartbeats while the job simulates, so a long-running request is
    // visibly alive to the client.
    let (hb_done_tx, hb_done_rx) = mpsc::channel::<()>();
    let heartbeat = shared.cfg.heartbeat.map(|period| {
        let reply = reply.clone();
        let id = job.id.clone();
        std::thread::spawn(move || {
            let start = Instant::now();
            while let Err(mpsc::RecvTimeoutError::Timeout) = hb_done_rx.recv_timeout(period) {
                reply.event(
                    "running",
                    Some(&id),
                    vec![(
                        "elapsed_secs".into(),
                        Json::f64(start.elapsed().as_secs_f64()),
                    )],
                );
            }
        })
    });

    let s = &shared.stats;
    let ex = match sup {
        Some(sup) => sup.execute(&fp, &job, &policy),
        None => {
            let ex = exec::execute(&policy, &fp, None, |_, scale| {
                let job = job.clone();
                exec::in_thread(policy.timeout, move || {
                    run_sim(&job, scale).map(|r| r.encode())
                })
            });
            s.abandoned_attempts
                .fetch_add(ex.timeouts, Ordering::Relaxed);
            ex
        }
    };
    drop(hb_done_tx);
    if let Some(h) = heartbeat {
        let _ = h.join();
    }

    s.jobs_run.fetch_add(1, Ordering::Relaxed);
    let cycles = ex.result.as_ref().and_then(|r| r.get("cpu_cycles"));
    let cycles = cycles.and_then(Json::as_u64).unwrap_or(0);
    s.cycles_simulated.fetch_add(cycles, Ordering::Relaxed);
    let answered = if ex.result.is_some() {
        &s.results
    } else {
        &s.failures
    };
    answered.fetch_add(1, Ordering::Relaxed);

    // Journal the terminal outcome (fsynced) before answering, so a
    // client that saw a result can always get it again after a crash.
    let rec = ex.record(fp);
    if let Some(journal) = shared.journal.as_ref() {
        if let Err(e) = lock(journal).append(&rec) {
            // A journal write failure must not kill the job; the server
            // just stops being a cache for it.
            eprintln!("crow-serve: {e}");
        }
    }
    reply_record(&reply, &job.id, &rec, false);
}

/// Executes one validated job at the given (possibly degraded) scale.
/// `pub(crate)` so the child half of process isolation
/// ([`crate::supervise::job_runner_main`]) runs the identical function.
pub(crate) fn run_sim(job: &SimJob, scale: Scale) -> Result<SimReport, CrowError> {
    let apps: Vec<&'static AppProfile> = job
        .apps
        .iter()
        .map(|n| {
            AppProfile::by_name(n).ok_or_else(|| bad_req(format!("unknown application {n:?}")))
        })
        .collect::<Result<_, _>>()?;
    run_job(job.to_config()?, &apps, scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ServeConfig {
        let mut c = ServeConfig::new(None);
        c.workers = 2;
        c.queue_depth = 4;
        c.heartbeat = None;
        c.job_timeout = Some(Duration::from_secs(60));
        c
    }

    #[test]
    fn serve_config_env_parsing_is_strict() {
        let c = ServeConfig::from_lookup(|_| None).unwrap();
        assert_eq!(c.queue_depth, 64);
        assert_eq!(c.max_line_bytes, 64 * 1024);
        assert_eq!(
            c.journal_dir.as_deref(),
            Some(std::path::Path::new("results/campaign"))
        );
        let c = ServeConfig::from_lookup(|k| match k {
            "CROW_SERVE_QUEUE" => Some("2".into()),
            "CROW_SERVE_WORKERS" => Some("3".into()),
            "CROW_SERVE_MAX_LINE" => Some("4096".into()),
            "CROW_SERVE_READ_TIMEOUT_SECS" => Some("0.5".into()),
            "CROW_SERVE_JOB_TIMEOUT_SECS" => Some("0".into()),
            "CROW_SERVE_HEARTBEAT_SECS" => Some("0".into()),
            "CROW_CAMPAIGN_DIR" => Some("/tmp/x".into()),
            "CROW_SERVE_ISOLATION" => Some("process".into()),
            "CROW_SERVE_CHAOS" => Some("yes".into()),
            _ => None,
        })
        .unwrap();
        assert_eq!((c.queue_depth, c.workers, c.max_line_bytes), (2, 3, 4096));
        assert_eq!(c.read_timeout, Duration::from_millis(500));
        assert_eq!(c.job_timeout, None, "0 disables the deadline");
        assert_eq!(c.heartbeat, None);
        assert_eq!(
            c.journal_dir.as_deref(),
            Some(std::path::Path::new("/tmp/x"))
        );
        assert_eq!(
            c.supervise.isolation,
            IsolationMode::Process,
            "supervision knobs flow through ServeConfig"
        );
        assert!(c.allow_chaos);
        let off = ServeConfig::from_lookup(|k| (k == "CROW_SERVE_CHAOS").then(|| "no".into()));
        assert!(
            !off.unwrap().allow_chaos,
            "one boolean grammar for every flag"
        );
        for (k, v) in [
            ("CROW_SERVE_QUEUE", "0"),
            ("CROW_SERVE_QUEUE", "many"),
            ("CROW_SERVE_WORKERS", "-1"),
            ("CROW_SERVE_MAX_LINE", "10"),
            ("CROW_SERVE_READ_TIMEOUT_SECS", "0"),
            ("CROW_SERVE_READ_TIMEOUT_SECS", "NaN"),
            ("CROW_SERVE_JOB_TIMEOUT_SECS", "-3"),
            ("CROW_SERVE_RETRIES", "x"),
            ("CROW_SERVE_ISOLATION", "vm"),
            ("CROW_SERVE_CHAOS", "maybe"),
        ] {
            let err = ServeConfig::from_lookup(|q| (q == k).then(|| v.into()))
                .expect_err(&format!("{k}={v} must be rejected"))
                .to_string();
            assert!(err.contains(k), "names the variable: {err}");
        }
    }

    #[test]
    fn parse_request_accepts_the_documented_shapes() {
        assert_eq!(parse_request("{\"op\":\"ping\"}").unwrap(), Request::Ping);
        assert_eq!(parse_request("{\"op\":\"stats\"}").unwrap(), Request::Stats);
        assert_eq!(
            parse_request("{\"op\":\"health\"}").unwrap(),
            Request::Health
        );
        assert_eq!(
            parse_request("{\"op\":\"shutdown\"}").unwrap(),
            Request::Shutdown
        );
        let r = parse_request(
            "{\"op\":\"sim\",\"id\":\"j1\",\"apps\":[\"mcf\"],\"mechanism\":\"crow-8\",\
             \"insts\":50000,\"warmup\":1000,\"seed\":7,\"density\":16,\"llc_mib\":4,\
             \"channels\":2,\"prefetch\":true,\"validate\":false}",
        )
        .unwrap();
        let Request::Sim(job) = r else {
            panic!("expected a sim job")
        };
        assert_eq!(job.id, "j1");
        assert_eq!(job.apps, vec!["mcf".to_string()]);
        assert_eq!((job.insts, job.warmup, job.seed), (50_000, 1_000, 7));
        assert_eq!((job.density, job.llc_mib, job.channels), (16, 4, 2));
        assert!(job.prefetch && !job.validate && !job.ddr4);
        // Defaults kick in for omitted keys.
        let r = parse_request("{\"op\":\"sim\",\"id\":\"j2\",\"apps\":[\"gcc\",\"mcf\"]}").unwrap();
        let Request::Sim(job) = r else {
            panic!("expected a sim job")
        };
        assert_eq!(job.mechanism, "baseline");
        assert_eq!((job.insts, job.density, job.channels), (100_000, 8, 4));
        assert_eq!(job.hammer, None);
        // An attack scenario: pattern validated, intensity defaulted.
        let r = parse_request(
            "{\"op\":\"sim\",\"id\":\"j3\",\"apps\":[\"mcf\"],\"mechanism\":\"para\",\
             \"hammer_pattern\":\"double\"}",
        )
        .unwrap();
        let Request::Sim(job) = r else {
            panic!("expected a sim job")
        };
        assert_eq!(job.hammer, Some(("double".to_string(), 500_000)));
        assert!(job.fingerprint().contains("/hammer:doublex500000"));
        // A chaos job parses (acceptance is gated at submit, not parse)
        // and the mode is part of the fingerprint.
        let r =
            parse_request("{\"op\":\"sim\",\"id\":\"j4\",\"apps\":[\"mcf\"],\"chaos\":\"wedge\"}")
                .unwrap();
        let Request::Sim(job) = r else {
            panic!("expected a sim job")
        };
        assert_eq!(job.chaos.as_deref(), Some("wedge"));
        assert!(job.fingerprint().contains("/chaos:wedge"));
    }

    #[test]
    fn parse_request_rejects_hostile_shapes() {
        let cases: &[(&str, &str)] = &[
            ("", "not JSON"),
            ("{\"op\":\"sim\",", "not JSON"),
            ("[1,2,3]", "object"),
            ("{\"op\":\"launch\"}", "unknown op"),
            ("{\"id\":\"x\"}", "missing required key \"op\""),
            ("{\"op\":\"ping\",\"op\":\"ping\"}", "duplicate key"),
            ("{\"op\":\"ping\",\"turbo\":1}", "unknown key"),
            (
                "{\"op\":\"sim\",\"apps\":[\"mcf\"]}",
                "missing required key \"id\"",
            ),
            ("{\"op\":\"sim\",\"id\":\"\",\"apps\":[\"mcf\"]}", "\"id\""),
            ("{\"op\":\"sim\",\"id\":\"x\",\"apps\":[]}", "apps"),
            (
                "{\"op\":\"sim\",\"id\":\"x\",\"apps\":[\"nosuch\"]}",
                "unknown application",
            ),
            (
                "{\"op\":\"sim\",\"id\":\"x\",\"apps\":[\"mcf\"],\"mechanism\":\"warp\"}",
                "unknown mechanism",
            ),
            (
                "{\"op\":\"sim\",\"id\":\"x\",\"apps\":[\"mcf\"],\"insts\":99999999999999}",
                "at most",
            ),
            (
                "{\"op\":\"sim\",\"id\":\"x\",\"apps\":[\"mcf\"],\"insts\":0}",
                "positive",
            ),
            (
                "{\"op\":\"sim\",\"id\":\"x\",\"apps\":[\"mcf\"],\"insts\":1e9}",
                "unsigned integer",
            ),
            (
                "{\"op\":\"sim\",\"id\":\"x\",\"apps\":[\"mcf\"],\"insts\":-5}",
                "unsigned integer",
            ),
            (
                "{\"op\":\"sim\",\"id\":\"x\",\"apps\":[\"mcf\"],\"density\":12}",
                "density",
            ),
            (
                "{\"op\":\"sim\",\"id\":\"x\",\"apps\":[\"mcf\"],\"ddr4\":true,\"density\":16}",
                "LPDDR4",
            ),
            (
                "{\"op\":\"sim\",\"id\":\"x\",\"apps\":[\"mcf\"],\"prefetch\":\"yes\"}",
                "boolean",
            ),
            (
                "{\"op\":\"sim\",\"id\":\"x\",\"apps\":[\"mcf\"],\"gpu\":true}",
                "unknown key",
            ),
            (
                "{\"op\":\"sim\",\"id\":\"x\",\"apps\":[\"mcf\"],\"hammer_pattern\":\"septuple\"}",
                "unknown hammer pattern",
            ),
            (
                "{\"op\":\"sim\",\"id\":\"x\",\"apps\":[\"mcf\"],\"hammer_intensity\":1000}",
                "requires \"hammer_pattern\"",
            ),
            (
                "{\"op\":\"sim\",\"id\":\"x\",\"apps\":[\"mcf\"],\"hammer_pattern\":\"double\",\
                 \"hammer_intensity\":0}",
                "positive",
            ),
            (
                "{\"op\":\"sim\",\"id\":\"x\",\"apps\":[\"mcf\"],\"hammer_pattern\":\"double\",\
                 \"sample_ff\":100000}",
                "cannot be combined",
            ),
            (
                "{\"op\":\"sim\",\"id\":\"x\",\"apps\":[\"mcf\"],\"chaos\":\"teapot\"}",
                "unknown chaos mode",
            ),
            (
                "{\"op\":\"sim\",\"id\":\"x\",\"apps\":[\"mcf\"],\"chaos\":7}",
                "\"chaos\" must be a string",
            ),
        ];
        for (line, needle) in cases {
            let (_, e) = parse_request(line).expect_err(&format!("{line:?} must be rejected"));
            let msg = e.to_string();
            assert!(
                msg.contains(needle),
                "{line:?}: expected {needle:?} in {msg:?}"
            );
            assert_eq!(error_code(&e), "bad-request");
        }
        // The id is recovered for correlation when the document parsed.
        let (id, _) =
            parse_request("{\"op\":\"sim\",\"id\":\"j9\",\"apps\":[\"mcf\"],\"bogus\":1}")
                .expect_err("unknown key");
        assert_eq!(id.as_deref(), Some("j9"));
    }

    #[test]
    fn fingerprint_excludes_id_and_embeds_scale() {
        let mk = |id: &str, insts: u64| {
            let Request::Sim(j) = parse_request(&format!(
                "{{\"op\":\"sim\",\"id\":\"{id}\",\"apps\":[\"mcf\"],\"insts\":{insts}}}"
            ))
            .unwrap() else {
                panic!("sim")
            };
            j
        };
        let a = mk("a", 50_000);
        let b = mk("b", 50_000);
        let c = mk("a", 60_000);
        assert_eq!(a.journal_fingerprint(), b.journal_fingerprint());
        assert_ne!(a.journal_fingerprint(), c.journal_fingerprint());
    }

    /// A scripted reader: a sequence of chunks and errors.
    struct Script(VecDeque<std::io::Result<Vec<u8>>>);

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(Ok(bytes)) => {
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Some(Err(e)) => Err(e),
            }
        }
    }

    fn wouldblock() -> std::io::Result<Vec<u8>> {
        Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "tick"))
    }

    #[test]
    fn line_reader_splits_reassembles_and_caps() {
        let mut r = Script(VecDeque::from([
            Ok(b"{\"op\":\"pi".to_vec()),
            wouldblock(),
            Ok(b"ng\"}\n{\"op\":\"stats\"}\n".to_vec()),
        ]));
        let mut lr = LineReader::new(64, Duration::from_secs(5));
        assert_eq!(lr.poll(&mut r).unwrap(), LineRead::Idle);
        assert_eq!(lr.poll(&mut r).unwrap(), LineRead::Idle);
        assert_eq!(
            lr.poll(&mut r).unwrap(),
            LineRead::Line("{\"op\":\"ping\"}".into())
        );
        assert_eq!(
            lr.poll(&mut r).unwrap(),
            LineRead::Line("{\"op\":\"stats\"}".into())
        );
        assert_eq!(lr.poll(&mut r).unwrap(), LineRead::Eof);

        // Over-cap line: discarded, reported, connection stays usable.
        let huge = vec![b'x'; 200];
        let mut r = Script(VecDeque::from([
            Ok(huge.clone()),
            Ok(huge),
            Ok(b"tail\n{\"op\":\"ping\"}\n".to_vec()),
        ]));
        let mut lr = LineReader::new(64, Duration::from_secs(5));
        assert_eq!(lr.poll(&mut r).unwrap(), LineRead::Idle);
        assert_eq!(lr.poll(&mut r).unwrap(), LineRead::Idle);
        assert_eq!(lr.poll(&mut r).unwrap(), LineRead::TooLong);
        assert_eq!(
            lr.poll(&mut r).unwrap(),
            LineRead::Line("{\"op\":\"ping\"}".into())
        );

        // A trailing partial line is surfaced before EOF.
        let mut r = Script(VecDeque::from([Ok(b"{\"tail".to_vec())]));
        let mut lr = LineReader::new(64, Duration::from_secs(5));
        assert_eq!(lr.poll(&mut r).unwrap(), LineRead::Idle);
        assert_eq!(lr.poll(&mut r).unwrap(), LineRead::Line("{\"tail".into()));
        assert_eq!(lr.poll(&mut r).unwrap(), LineRead::Eof);
    }

    #[test]
    fn line_reader_stalls_a_partial_line() {
        let mut lr = LineReader::new(64, Duration::from_millis(20));
        let mut r = Script(VecDeque::from([Ok(b"{\"half".to_vec()), wouldblock()]));
        assert_eq!(lr.poll(&mut r).unwrap(), LineRead::Idle);
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(lr.poll(&mut r).unwrap(), LineRead::Stalled);
        // An idle connection (no pending bytes) never stalls.
        let mut lr = LineReader::new(64, Duration::from_millis(20));
        let mut r = Script(VecDeque::from([wouldblock(), wouldblock()]));
        assert_eq!(lr.poll(&mut r).unwrap(), LineRead::Idle);
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(lr.poll(&mut r).unwrap(), LineRead::Idle);
    }

    #[test]
    fn inline_ops_answer_and_bad_lines_get_structured_errors() {
        let server = Server::new(quick_cfg()).unwrap();
        let (reply, rx) = Reply::pair();
        server.handle_line("{\"op\":\"ping\"}", &reply);
        let pong = Json::parse(&rx.recv().unwrap()).unwrap();
        assert_eq!(pong.get("event").unwrap().as_str(), Some("pong"));
        server.handle_line("complete garbage", &reply);
        let err = Json::parse(&rx.recv().unwrap()).unwrap();
        assert_eq!(err.get("event").unwrap().as_str(), Some("error"));
        assert_eq!(err.get("code").unwrap().as_str(), Some("bad-request"));
        server.handle_line("{\"op\":\"stats\"}", &reply);
        let stats = Json::parse(&rx.recv().unwrap()).unwrap();
        assert_eq!(stats.get("bad_requests").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("received").unwrap().as_u64(), Some(3));
        let sum = server.drain();
        assert_eq!(sum.workers_joined, 2);
        assert_eq!(sum.bad_requests, 1);
    }

    #[test]
    fn full_queue_sheds_with_overloaded() {
        // Admission-only server (no workers consume the queue), so the
        // test is deterministic: two jobs fill the queue, the third is
        // shed immediately with a structured response.
        let mut cfg = quick_cfg();
        cfg.queue_depth = 2;
        cfg.workers = 0;
        let server = Server::new(cfg).unwrap();
        let (reply, rx) = Reply::pair();
        let line = |id: &str| format!("{{\"op\":\"sim\",\"id\":\"{id}\",\"apps\":[\"mcf\"]}}");
        server.handle_line(&line("a"), &reply);
        server.handle_line(&line("b"), &reply);
        server.handle_line(&line("c"), &reply);
        let mut events = Vec::new();
        while let Ok(l) = rx.try_recv() {
            events.push(Json::parse(&l).unwrap());
        }
        assert_eq!(events.len(), 3);
        for (doc, id) in events.iter().zip(["a", "b"]) {
            assert_eq!(doc.get("event").unwrap().as_str(), Some("accepted"));
            assert_eq!(doc.get("id").unwrap().as_str(), Some(id));
            assert!(doc.get("fingerprint").unwrap().as_str().is_some());
        }
        assert_eq!(events[2].get("code").unwrap().as_str(), Some("overloaded"));
        assert_eq!(events[2].get("id").unwrap().as_str(), Some("c"));
        assert_eq!(server.queue_len(), 2);
        let sum = server.drain();
        assert_eq!(sum.shed, 1);
        assert_eq!(sum.abandoned, 2, "nothing consumed an admission-only queue");
    }

    #[test]
    fn draining_server_rejects_new_jobs() {
        let server = Server::new(quick_cfg()).unwrap();
        let (reply, rx) = Reply::pair();
        server.handle_line("{\"op\":\"shutdown\"}", &reply);
        let doc = Json::parse(&rx.recv().unwrap()).unwrap();
        assert_eq!(doc.get("event").unwrap().as_str(), Some("draining"));
        server.handle_line(
            "{\"op\":\"sim\",\"id\":\"late\",\"apps\":[\"mcf\"]}",
            &reply,
        );
        let doc = Json::parse(&rx.recv().unwrap()).unwrap();
        assert_eq!(doc.get("code").unwrap().as_str(), Some("draining"));
        assert!(server.draining());
        server.drain();
    }

    #[test]
    fn chaos_jobs_are_refused_without_process_isolation_and_opt_in() {
        // Default (thread) server: chaos is a structured refusal at
        // submit, never an in-process execution.
        let server = Server::new(quick_cfg()).unwrap();
        let (reply, rx) = Reply::pair();
        server.handle_line(
            "{\"op\":\"sim\",\"id\":\"boom\",\"apps\":[\"mcf\"],\"chaos\":\"crash\"}",
            &reply,
        );
        let doc = Json::parse(&rx.recv().unwrap()).unwrap();
        assert_eq!(doc.get("event").unwrap().as_str(), Some("error"));
        assert_eq!(doc.get("code").unwrap().as_str(), Some("bad-request"));
        assert_eq!(doc.get("id").unwrap().as_str(), Some("boom"));
        let msg = doc.get("error").unwrap().as_str().unwrap().to_string();
        assert!(msg.contains("CROW_SERVE_CHAOS"), "{msg}");
        assert!(msg.contains("CROW_SERVE_ISOLATION"), "{msg}");
        let sum = server.drain();
        assert_eq!(sum.bad_requests, 1);
        assert_eq!((sum.killed_children, sum.quarantined), (0, 0));
    }

    #[test]
    fn health_op_answers_a_uniform_shape_in_thread_mode() {
        let server = Server::new(quick_cfg()).unwrap();
        let (reply, rx) = Reply::pair();
        server.handle_line("{\"op\":\"health\"}", &reply);
        let doc = Json::parse(&rx.recv().unwrap()).unwrap();
        assert_eq!(doc.get("event").unwrap().as_str(), Some("health"));
        assert_eq!(doc.get("isolation").unwrap().as_str(), Some("thread"));
        assert_eq!(doc.get("live_children").unwrap().as_u64(), Some(0));
        assert_eq!(doc.get("children").unwrap().as_arr().unwrap().len(), 0);
        assert_eq!(doc.get("breakers").unwrap().as_arr().unwrap().len(), 0);
        assert_eq!(doc.get("quarantined").unwrap().as_u64(), Some(0));
        let counters = doc.get("counters").unwrap();
        assert_eq!(counters.get("children_spawned").unwrap().as_u64(), Some(0));
        assert_eq!(counters.get("child_retries").unwrap().as_u64(), Some(0));
        // Stats also carries the supervision counters (zeros here).
        server.handle_line("{\"op\":\"stats\"}", &reply);
        let stats = Json::parse(&rx.recv().unwrap()).unwrap();
        assert_eq!(stats.get("children_spawned").unwrap().as_u64(), Some(0));
        assert_eq!(stats.get("abandoned_attempts").unwrap().as_u64(), Some(0));
        server.drain();
    }
}
