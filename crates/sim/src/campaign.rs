//! Supervised experiment campaigns: crash-isolated workers, deadlines,
//! degrade/retry policies, and resumable result journals.
//!
//! Reproducing the paper's evaluation means running hundreds of
//! independent simulations per figure, and one panicking or wedged job
//! must not take the whole figure — and with it an hours-long `bench
//! all` — down. A [`Campaign`] supervises the job set through the shared
//! executor (`crate::exec`):
//!
//! * every attempt runs on its own thread under
//!   [`std::panic::catch_unwind`], so a panic (or a structured
//!   [`CrowError`], e.g. a protocol violation from
//!   [`crate::System::run_checked`]) becomes a recorded [`JobOutcome`]
//!   instead of a dead pool;
//! * an attempt past its wall-clock deadline is abandoned (its thread
//!   keeps running detached and its late result is discarded);
//! * failed or timed-out jobs are retried after a backoff at a
//!   *degraded* [`Scale`] — half the instructions per extra attempt,
//!   floored at [`CampaignPolicy::min_insts`] — so a marginal job
//!   degrades gracefully before the campaign gives up on it;
//! * every terminal outcome is appended to a durable JSONL journal, one
//!   fsynced record per job carrying the job's config fingerprint and a
//!   content hash. On a resumed campaign ([`CampaignPolicy::resume`]),
//!   jobs whose fingerprint matches a journaled record are restored
//!   ([`OutcomeKind::Skipped`]) without re-running, which makes an
//!   interrupted `bench all` resumable after a crash, an OOM kill, or
//!   Ctrl-C. Corrupt or torn trailing records (a crash mid-append) are
//!   quarantined to a `.quarantine` sidecar instead of poisoning the
//!   whole file.
//!
//! Fingerprints embed the requested [`Scale`], so changing `CROW_INSTS`
//! invalidates journaled results instead of silently reusing them.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use crate::error::CrowError;
use crate::exec::{self, lock};
use crate::experiments::Scale;
use crate::json::Json;
use crate::knobs::Knobs;

/// How a supervised job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeKind {
    /// Completed at the requested scale.
    Ok,
    /// Completed, but only at a degraded (reduced-instruction) scale.
    Degraded,
    /// Every attempt panicked or returned a structured error.
    Panicked,
    /// Every attempt overran its wall-clock deadline.
    TimedOut,
    /// Not run this invocation: restored from a journaled record.
    Skipped,
}

impl OutcomeKind {
    /// Stable journal token.
    pub fn as_str(self) -> &'static str {
        match self {
            OutcomeKind::Ok => "ok",
            OutcomeKind::Degraded => "degraded",
            OutcomeKind::Panicked => "panicked",
            OutcomeKind::TimedOut => "timed_out",
            OutcomeKind::Skipped => "skipped",
        }
    }

    /// Parses a journal token.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "ok" => OutcomeKind::Ok,
            "degraded" => OutcomeKind::Degraded,
            "panicked" => OutcomeKind::Panicked,
            "timed_out" => OutcomeKind::TimedOut,
            "skipped" => OutcomeKind::Skipped,
            _ => return None,
        })
    }
}

/// The supervised result of one job.
#[derive(Debug, Clone)]
pub struct JobOutcome<R> {
    /// Full fingerprint the job was journaled under.
    pub fingerprint: String,
    /// How the job ended *this invocation*.
    pub kind: OutcomeKind,
    /// For [`OutcomeKind::Skipped`]: how the journaled run ended.
    pub journaled: Option<OutcomeKind>,
    /// Attempts actually executed (0 for restored jobs).
    pub attempts: u32,
    /// The last panic/error/deadline message for failed jobs.
    pub error: Option<String>,
    /// The job's result, when one exists (fresh or restored).
    pub result: Option<R>,
}

impl<R> JobOutcome<R> {
    /// The job's final disposition: restored jobs report the journaled
    /// kind, so a resumed campaign summarizes identically to the
    /// uninterrupted one.
    pub fn disposition(&self) -> OutcomeKind {
        if self.kind == OutcomeKind::Skipped {
            self.journaled.unwrap_or(OutcomeKind::Skipped)
        } else {
            self.kind
        }
    }
}

/// Per-campaign outcome counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Jobs that completed at the requested scale.
    pub ok: u64,
    /// Jobs that completed at a degraded scale.
    pub degraded: u64,
    /// Jobs that exhausted retries panicking/erroring.
    pub panicked: u64,
    /// Jobs that exhausted retries over deadline.
    pub timed_out: u64,
    /// Jobs restored from the journal without running.
    pub skipped: u64,
    /// Extra attempts beyond the first, across all jobs.
    pub retries: u64,
    /// Attempts abandoned at their deadline: the worker thread was left
    /// behind, still running detached, and its result discarded. Like
    /// `retries` this counts *attempts*, not jobs — a nonzero value
    /// under thread isolation means that many leaked threads lived
    /// until process exit.
    pub abandoned: u64,
}

impl OutcomeCounts {
    fn add(&mut self, kind: OutcomeKind) {
        match kind {
            OutcomeKind::Ok => self.ok += 1,
            OutcomeKind::Degraded => self.degraded += 1,
            OutcomeKind::Panicked => self.panicked += 1,
            OutcomeKind::TimedOut => self.timed_out += 1,
            OutcomeKind::Skipped => self.skipped += 1,
        }
    }

    /// Folds another campaign's counters into this one, for reports
    /// spanning several campaigns.
    pub fn merge(&mut self, other: &OutcomeCounts) {
        self.ok += other.ok;
        self.degraded += other.degraded;
        self.panicked += other.panicked;
        self.timed_out += other.timed_out;
        self.skipped += other.skipped;
        self.retries += other.retries;
        self.abandoned += other.abandoned;
    }

    /// Total jobs accounted.
    pub fn total(&self) -> u64 {
        self.ok + self.degraded + self.panicked + self.timed_out + self.skipped
    }

    /// Jobs that produced no usable result.
    pub fn failed(&self) -> u64 {
        self.panicked + self.timed_out
    }

    /// JSON object for figure summaries.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("ok".into(), Json::u64(self.ok)),
            ("degraded".into(), Json::u64(self.degraded)),
            ("panicked".into(), Json::u64(self.panicked)),
            ("timed_out".into(), Json::u64(self.timed_out)),
            ("skipped".into(), Json::u64(self.skipped)),
            ("retries".into(), Json::u64(self.retries)),
            ("abandoned".into(), Json::u64(self.abandoned)),
        ])
    }
}

impl std::fmt::Display for OutcomeCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ok {} | degraded {} | panicked {} | timed-out {} | skipped {} | retries {} | abandoned {}",
            self.ok,
            self.degraded,
            self.panicked,
            self.timed_out,
            self.skipped,
            self.retries,
            self.abandoned
        )
    }
}

/// Supervision knobs for one campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignPolicy {
    /// Scale attempts start from (retries degrade it).
    pub scale: Scale,
    /// Per-attempt wall-clock deadline (`None`: no deadline).
    pub timeout: Option<Duration>,
    /// Extra attempts after the first before giving up.
    pub max_retries: u32,
    /// Floor of the degrade ladder, instructions per core.
    pub min_insts: u64,
    /// Base retry backoff (attempt `k` waits `k * backoff`).
    pub backoff: Duration,
    /// Worker threads (0: one per available core).
    pub threads: usize,
    /// Restore journaled results instead of re-running them.
    pub resume: bool,
}

impl CampaignPolicy {
    /// Defaults: one degraded retry, no deadline, fresh journal.
    pub fn new(scale: Scale) -> Self {
        Self {
            scale,
            timeout: None,
            max_retries: 1,
            min_insts: 10_000,
            backoff: Duration::from_millis(100),
            threads: 0,
            resume: false,
        }
    }

    /// Reads the supervision knobs from the environment on top of
    /// [`CampaignPolicy::new`]: `CROW_TIMEOUT_SECS` (fractional seconds,
    /// 0 disables), `CROW_RETRIES`, and `CROW_RESUME` (a boolean).
    /// Malformed values are configuration errors, not silent defaults.
    pub fn from_env(scale: Scale) -> Result<Self, CrowError> {
        Self::from_lookup(scale, |k| std::env::var(k).ok())
    }

    /// [`CampaignPolicy::from_env`] against an arbitrary lookup
    /// (testable without mutating process-global state).
    pub fn from_lookup(
        scale: Scale,
        lookup: impl Fn(&str) -> Option<String>,
    ) -> Result<Self, CrowError> {
        let env = Knobs::new("CampaignPolicy", &lookup);
        let mut p = Self::new(scale);
        if let Some(d) = env.secs("CROW_TIMEOUT_SECS")? {
            p.timeout = (!d.is_zero()).then_some(d);
        }
        p.max_retries = env.u32("CROW_RETRIES", 0)?.unwrap_or(p.max_retries);
        p.resume = env.flag("CROW_RESUME")?.unwrap_or(p.resume);
        Ok(p)
    }

    /// The degrade ladder: attempt 0 runs the requested scale, each
    /// retry halves instructions and warmup (floored at `min_insts`).
    pub fn scale_for_attempt(&self, attempt: u32) -> Scale {
        let mut s = self.scale;
        let shift = attempt.min(32);
        s.insts = (s.insts >> shift).max(self.min_insts.min(self.scale.insts));
        s.warmup >>= shift;
        s
    }

    fn worker_threads(&self, jobs: usize) -> usize {
        let auto = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        if self.threads > 0 { self.threads } else { auto }.min(jobs)
    }
}

/// The campaign journal directory: `$CROW_CAMPAIGN_DIR`, or
/// `results/campaign` when unset.
pub(crate) fn campaign_dir(lookup: &dyn Fn(&str) -> Option<String>) -> PathBuf {
    lookup("CROW_CAMPAIGN_DIR").map_or_else(|| PathBuf::from("results/campaign"), PathBuf::from)
}

/// A result type that can ride the journal.
pub trait Journaled: Sized {
    /// Encodes the result for the journal payload.
    fn encode(&self) -> Json;
    /// Decodes a journal payload (`None`: shape mismatch, re-run).
    fn decode(v: &Json) -> Option<Self>;
}

impl Journaled for f64 {
    fn encode(&self) -> Json {
        Json::f64(*self)
    }
    fn decode(v: &Json) -> Option<Self> {
        v.as_f64()
    }
}

impl Journaled for u64 {
    fn encode(&self) -> Json {
        Json::u64(*self)
    }
    fn decode(v: &Json) -> Option<Self> {
        v.as_u64()
    }
}

impl Journaled for Json {
    fn encode(&self) -> Json {
        self.clone()
    }
    fn decode(v: &Json) -> Option<Self> {
        Some(v.clone())
    }
}

impl Journaled for String {
    fn encode(&self) -> Json {
        Json::str(self.clone())
    }
    fn decode(v: &Json) -> Option<Self> {
        v.as_str().map(str::to_string)
    }
}

/// Race-safe directory creation for result trees (`results/campaign/`):
/// concurrent server jobs, campaign workers, and whole processes may
/// all try to create the same directory on their first write. `std::fs::create_dir_all` walks components with a
/// check-then-create step, so a loser of that race can surface
/// `AlreadyExists` (or a transient `NotFound` on some filesystems when
/// a sibling renames intermediates). This helper treats "somebody else
/// created it first" as success and retries the transient case once.
pub fn ensure_dir(path: &Path) -> std::io::Result<()> {
    for attempt in 0..2 {
        match std::fs::create_dir_all(path) {
            Ok(()) => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => return Ok(()),
            Err(e) => {
                if path.is_dir() {
                    return Ok(()); // Lost the race to a concurrent creator.
                }
                if attempt == 1 {
                    return Err(e);
                }
            }
        }
    }
    unreachable!("loop returns on the second attempt")
}

/// 64-bit FNV-1a (journal content hashing).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`), bitwise.
/// Journal records are small and verified once at open, so a lookup
/// table buys nothing here. Where FNV-1a is a *content* hash (did this
/// body produce this line?), the CRC detects *storage* damage — bit
/// rot, torn sectors — with guaranteed burst-error coverage.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = 0u32.wrapping_sub(crc & 1);
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// One durable journal record (a single JSONL line).
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// Full job fingerprint (job id + scale).
    pub fingerprint: String,
    /// Terminal outcome of the journaled run.
    pub kind: OutcomeKind,
    /// Attempts the journaled run executed.
    pub attempts: u32,
    /// Failure message, for failed records.
    pub error: Option<String>,
    /// Compact-rendered result payload, for successful records.
    pub payload: Option<String>,
}

impl JournalRecord {
    fn body(&self) -> String {
        format!(
            "{}|{}|{}|{}|{}",
            self.fingerprint,
            self.kind.as_str(),
            self.attempts,
            self.error.as_deref().unwrap_or("-"),
            self.payload.as_deref().unwrap_or("-"),
        )
    }

    /// Renders the record as one JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        let payload = match &self.payload {
            // Payload text is a compact rendering produced by `Json`;
            // re-parse so it embeds as a JSON value, not a string.
            Some(text) => Json::parse(text).unwrap_or(Json::Null),
            None => Json::Null,
        };
        let body = self.body();
        Json::Obj(vec![
            ("v".into(), Json::u64(1)),
            (
                "hash".into(),
                Json::str(format!("{:016x}", fnv1a64(body.as_bytes()))),
            ),
            (
                "crc".into(),
                Json::str(format!("{:08x}", crc32(body.as_bytes()))),
            ),
            ("fp".into(), Json::str(self.fingerprint.clone())),
            ("kind".into(), Json::str(self.kind.as_str())),
            ("attempts".into(), Json::u64(u64::from(self.attempts))),
            (
                "error".into(),
                match &self.error {
                    Some(e) => Json::str(e.clone()),
                    None => Json::Null,
                },
            ),
            ("payload".into(), payload),
        ])
        .render()
    }

    /// Parses and verifies one JSONL line (`None`: corrupt/torn record).
    pub fn from_line(line: &str) -> Option<Self> {
        match classify_line(line) {
            LineVerdict::Ok(rec) => Some(rec),
            LineVerdict::Corrupt | LineVerdict::Malformed => None,
        }
    }
}

/// How one journal line parsed (drives the two quarantine sidecars).
#[derive(Debug, Clone, PartialEq)]
pub enum LineVerdict {
    /// Structurally valid and every checksum matched.
    Ok(JournalRecord),
    /// Structurally valid, but a checksum failed: the record was
    /// written whole and damaged afterwards (bit rot, a torn sector).
    /// Quarantined to the `.corrupt` sidecar.
    Corrupt,
    /// Not a record at all: a torn tail from a crash mid-append, or a
    /// foreign line. Quarantined to the `.quarantine` sidecar.
    Malformed,
}

/// Classifies one journal line (see [`LineVerdict`]). Lines without a
/// `crc` field are legacy (pre-CRC) records and verify on the FNV
/// content hash alone, so old journals keep resuming.
pub fn classify_line(line: &str) -> LineVerdict {
    let Ok(v) = Json::parse(line) else {
        return LineVerdict::Malformed;
    };
    let field = |k: &str| v.get(k);
    let rec = (|| -> Option<JournalRecord> {
        if field("v")?.as_u64()? != 1 {
            return None;
        }
        Some(JournalRecord {
            fingerprint: field("fp")?.as_str()?.to_string(),
            kind: OutcomeKind::parse(field("kind")?.as_str()?)?,
            attempts: u32::try_from(field("attempts")?.as_u64()?).ok()?,
            error: match field("error")? {
                Json::Null => None,
                e => Some(e.as_str()?.to_string()),
            },
            payload: match field("payload")? {
                Json::Null => None,
                p => Some(p.render()),
            },
        })
    })();
    let Some(rec) = rec else {
        return LineVerdict::Malformed;
    };
    let body = rec.body();
    let crc = match v.get("crc") {
        None => None, // Legacy record: FNV-only verification.
        Some(c) => match c.as_str() {
            Some(s) => Some(s),
            None => return LineVerdict::Malformed,
        },
    };
    if let Some(want) = crc {
        if want != format!("{:08x}", crc32(body.as_bytes())) {
            return LineVerdict::Corrupt;
        }
    }
    let Some(want_hash) = v.get("hash").and_then(Json::as_str) else {
        return LineVerdict::Malformed;
    };
    if want_hash != format!("{:016x}", fnv1a64(body.as_bytes())) {
        // With a matching CRC this is contradictory damage; either way
        // the record was structurally complete, so a CRC-bearing line
        // is storage corruption while a legacy line stays malformed
        // (preserving the pre-CRC quarantine behavior).
        return if crc.is_some() {
            LineVerdict::Corrupt
        } else {
            LineVerdict::Malformed
        };
    }
    LineVerdict::Ok(rec)
}

/// The durable per-campaign JSONL journal.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: std::fs::File,
    records: HashMap<String, JournalRecord>,
    quarantined: usize,
    corrupt: usize,
}

impl Journal {
    /// Opens (resume) or truncates (fresh) the journal at `path`.
    ///
    /// On resume, lines that are not records at all — e.g. a torn
    /// trailing record from a crash mid-append — are moved to
    /// `<path>.quarantine`, while structurally whole records whose CRC
    /// (or content hash) fails are moved to `<path>.corrupt`, and the
    /// journal is rewritten with the surviving records, so one bad line
    /// never invalidates the file or aborts the resume.
    pub fn open(path: &Path, resume: bool) -> Result<Self, CrowError> {
        let io = |e: std::io::Error| CrowError::Journal {
            path: path.display().to_string(),
            reason: e.to_string(),
        };
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                ensure_dir(parent).map_err(io)?;
            }
        }
        let mut records = HashMap::new();
        let mut quarantined = 0;
        let mut corrupt = 0;
        if resume && path.exists() {
            let text = std::fs::read_to_string(path).map_err(io)?;
            let mut good = Vec::new();
            let mut malformed = Vec::new();
            let mut damaged = Vec::new();
            for line in text.lines() {
                if line.trim().is_empty() {
                    continue;
                }
                match classify_line(line) {
                    LineVerdict::Ok(rec) => {
                        records.insert(rec.fingerprint.clone(), rec);
                        good.push(line);
                    }
                    LineVerdict::Malformed => malformed.push(line),
                    LineVerdict::Corrupt => damaged.push(line),
                }
            }
            if !malformed.is_empty() || !damaged.is_empty() {
                quarantined = malformed.len();
                corrupt = damaged.len();
                append_sidecar(path, ".quarantine", &malformed).map_err(io)?;
                append_sidecar(path, ".corrupt", &damaged).map_err(io)?;
                // Rewrite the journal with only the surviving records.
                let mut clean = String::new();
                for line in &good {
                    clean.push_str(line);
                    clean.push('\n');
                }
                std::fs::write(path, clean).map_err(io)?;
            }
        } else if path.exists() {
            std::fs::remove_file(path).map_err(io)?;
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(io)?;
        Ok(Self {
            path: path.to_path_buf(),
            file,
            records,
            quarantined,
            corrupt,
        })
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Malformed (torn/foreign) lines quarantined while opening.
    pub fn quarantined(&self) -> usize {
        self.quarantined
    }

    /// Checksum-failing records moved to the `.corrupt` sidecar while
    /// opening.
    pub fn corrupt(&self) -> usize {
        self.corrupt
    }

    /// Journaled records restored at open.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the journal restored nothing.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Looks up a journaled record by full fingerprint.
    pub fn lookup(&self, fingerprint: &str) -> Option<&JournalRecord> {
        self.records.get(fingerprint)
    }

    /// Durably appends one record (fsynced before returning) and makes
    /// it visible to subsequent [`Journal::lookup`] calls, so a journal
    /// shared by long-running server workers doubles as a result cache.
    pub fn append(&mut self, rec: &JournalRecord) -> Result<(), CrowError> {
        let io = |e: std::io::Error| CrowError::Journal {
            path: self.path.display().to_string(),
            reason: e.to_string(),
        };
        writeln!(self.file, "{}", rec.to_line()).map_err(io)?;
        self.file.sync_data().map_err(io)?;
        self.records.insert(rec.fingerprint.clone(), rec.clone());
        Ok(())
    }
}

/// Appends `lines` to the `<path><ext>` sidecar (fsynced); a no-op for
/// an empty batch so clean opens never create empty sidecars.
fn append_sidecar(path: &Path, ext: &str, lines: &[&str]) -> std::io::Result<()> {
    if lines.is_empty() {
        return Ok(());
    }
    let mut sidecar = path.as_os_str().to_owned();
    sidecar.push(ext);
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(PathBuf::from(sidecar))?;
    for line in lines {
        writeln!(f, "{line}")?;
    }
    f.sync_data()
}

/// A supervised job campaign (see the module docs).
#[derive(Debug)]
pub struct Campaign {
    name: String,
    policy: CampaignPolicy,
    journal: Option<Journal>,
    this_run: OutcomeCounts,
    dispositions: OutcomeCounts,
}

impl Campaign {
    /// A journaled campaign under `dir/<name>.jsonl`.
    pub fn at_dir(name: &str, policy: CampaignPolicy, dir: &Path) -> Result<Self, CrowError> {
        let journal = Journal::open(&dir.join(format!("{name}.jsonl")), policy.resume)?;
        Ok(Self {
            journal: Some(journal),
            ..Self::ephemeral(name, policy)
        })
    }

    /// A journaled campaign under the default directory:
    /// `$CROW_CAMPAIGN_DIR` or `results/campaign`.
    pub fn new(name: &str, policy: CampaignPolicy) -> Result<Self, CrowError> {
        Self::at_dir(name, policy, &campaign_dir(&|k| std::env::var(k).ok()))
    }

    /// An unjournaled campaign (supervision only; nothing to resume).
    pub fn ephemeral(name: &str, policy: CampaignPolicy) -> Self {
        Self {
            name: name.to_string(),
            policy,
            journal: None,
            this_run: OutcomeCounts::default(),
            dispositions: OutcomeCounts::default(),
        }
    }

    /// The campaign name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The active policy.
    pub fn policy(&self) -> &CampaignPolicy {
        &self.policy
    }

    /// The journal path, when journaled.
    pub fn journal_path(&self) -> Option<&Path> {
        self.journal.as_ref().map(Journal::path)
    }

    /// Journal records quarantined at open (malformed lines).
    pub fn quarantined(&self) -> usize {
        self.journal.as_ref().map_or(0, Journal::quarantined)
    }

    /// Journal records moved to the `.corrupt` sidecar at open
    /// (checksum failures).
    pub fn corrupt(&self) -> usize {
        self.journal.as_ref().map_or(0, Journal::corrupt)
    }

    /// What happened *this invocation* (restored jobs count as skipped).
    pub fn counts(&self) -> OutcomeCounts {
        self.this_run
    }

    /// Final job dispositions: restored jobs count under their journaled
    /// kind, so a resumed campaign reports identically to a clean one.
    pub fn dispositions(&self) -> OutcomeCounts {
        self.dispositions
    }

    /// Runs `jobs` (pairs of job fingerprint and job data) to completion
    /// under supervision, returning outcomes in input order.
    ///
    /// [`CampaignPolicy::threads`] workers each take one job at a time
    /// through the shared executor (`crate::exec`): `worker` receives
    /// the job and the scale chosen for the current attempt, and must
    /// honour the scale for the degrade ladder to mean anything. A
    /// worker panic or `Err` triggers the retry policy; an attempt
    /// overrunning [`CampaignPolicy::timeout`] is abandoned (the thread
    /// is left behind and its result discarded) and retried the same
    /// way. Each finished job is journaled as it completes. `run` may be
    /// called repeatedly on one campaign — each call shares the journal
    /// and accumulates the counters.
    pub fn run<J, R, F>(&mut self, jobs: Vec<(String, J)>, worker: F) -> Vec<JobOutcome<R>>
    where
        J: Send + Sync + 'static,
        R: Journaled + Send + 'static,
        F: Fn(&J, Scale) -> Result<R, CrowError> + Send + Sync + 'static,
    {
        let scale = self.policy.scale;
        let fps: Vec<String> = jobs.iter().map(|(fp, _)| scale.key(fp)).collect();
        let mut outcomes: Vec<Option<JobOutcome<R>>> =
            fps.iter().map(|fp| self.restore(fp)).collect();
        let pending: Vec<usize> = (0..fps.len()).filter(|&i| outcomes[i].is_none()).collect();
        let (jobs, worker) = (Arc::new(jobs), Arc::new(worker));
        let policy = self.policy;
        let next = AtomicUsize::new(0);
        let done = Mutex::new(Vec::new());
        let (name, journal) = (&self.name, Mutex::new(self.journal.as_mut()));
        std::thread::scope(|s| {
            for _ in 0..policy.worker_threads(pending.len()) {
                s.spawn(|| {
                    while let Some(&i) = pending.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let ex = exec::execute(&policy, &fps[i], None, |_, scale| {
                            let (jobs, worker) = (Arc::clone(&jobs), Arc::clone(&worker));
                            exec::in_thread(policy.timeout, move || worker(&jobs[i].1, scale))
                        });
                        if let Some(j) = lock(&journal).as_mut() {
                            if let Err(e) = j.append(&ex.record(fps[i].clone())) {
                                // A journal write failure must not kill the
                                // campaign; it just stops being resumable.
                                eprintln!("campaign {name}: {e}");
                            }
                        }
                        lock(&done).push((i, ex));
                    }
                });
            }
        });
        for (i, ex) in done.into_inner().unwrap_or_else(PoisonError::into_inner) {
            for c in [&mut self.this_run, &mut self.dispositions] {
                c.add(ex.kind);
                c.retries += u64::from(ex.attempts - 1);
            }
            // A leaked thread is a this-run runtime artifact, not a job
            // disposition: a resumed run restoring this job leaks nothing.
            self.this_run.abandoned += ex.timeouts;
            outcomes[i] = Some(JobOutcome {
                fingerprint: fps[i].clone(),
                kind: ex.kind,
                journaled: None,
                attempts: ex.attempts,
                error: ex.error,
                result: ex.result,
            });
        }
        outcomes
            .into_iter()
            .map(|o| o.expect("every job restored or run"))
            .collect()
    }

    /// Restores the journaled outcome of `fp`, if any, crediting the
    /// original run's retries so a fully restored campaign reports the
    /// same counters as the uninterrupted one.
    fn restore<R: Journaled>(&mut self, fp: &str) -> Option<JobOutcome<R>> {
        let rec = self.journal.as_ref()?.lookup(fp)?;
        let result = match &rec.payload {
            Some(text) => Some(R::decode(&Json::parse(text).ok()?)?),
            None => None,
        };
        self.this_run.add(OutcomeKind::Skipped);
        self.dispositions.add(rec.kind);
        self.dispositions.retries += u64::from(rec.attempts.saturating_sub(1));
        Some(JobOutcome {
            fingerprint: fp.to_string(),
            kind: OutcomeKind::Skipped,
            journaled: Some(rec.kind),
            attempts: 0,
            error: rec.error.clone(),
            result,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn test_scale() -> Scale {
        Scale {
            insts: 80_000,
            warmup: 8_000,
            mixes_per_group: 1,
            max_cycles: 1_000_000,
            threads: 1,
            checkpoints: false,
            sample: None,
        }
    }

    fn quick_policy() -> CampaignPolicy {
        let mut p = CampaignPolicy::new(test_scale());
        p.backoff = Duration::from_millis(1);
        p
    }

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let d = std::env::temp_dir().join(format!(
            "crow-campaign-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn ensure_dir_survives_a_creation_race() {
        let base = temp_dir("race");
        let target = base.join("results").join("campaign").join("nested");
        let barrier = Arc::new(std::sync::Barrier::new(8));
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let target = target.clone();
                    let barrier = Arc::clone(&barrier);
                    s.spawn(move || {
                        barrier.wait();
                        ensure_dir(&target)
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("no panic").expect("every racer succeeds");
            }
        });
        assert!(target.is_dir());
        // Idempotent on an existing directory.
        ensure_dir(&target).unwrap();
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn journal_append_is_visible_to_lookup() {
        let dir = temp_dir("appendvis");
        let mut j = Journal::open(&dir.join("j.jsonl"), false).unwrap();
        assert!(j.lookup("job-x").is_none());
        j.append(&JournalRecord {
            fingerprint: "job-x".into(),
            kind: OutcomeKind::Ok,
            attempts: 1,
            error: None,
            payload: Some(Json::u64(9).render()),
        })
        .unwrap();
        assert_eq!(j.lookup("job-x").unwrap().kind, OutcomeKind::Ok);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn degrade_ladder_halves_and_floors() {
        let p = quick_policy();
        assert_eq!(p.scale_for_attempt(0), test_scale());
        assert_eq!(p.scale_for_attempt(1).insts, 40_000);
        assert_eq!(p.scale_for_attempt(1).warmup, 4_000);
        assert_eq!(p.scale_for_attempt(2).insts, 20_000);
        assert_eq!(p.scale_for_attempt(10).insts, 10_000, "floored");
        assert_eq!(p.scale_for_attempt(64).insts, 10_000, "shift clamped");
    }

    #[test]
    fn policy_from_lookup_is_strict() {
        let s = test_scale();
        let ok = CampaignPolicy::from_lookup(s, |k| match k {
            "CROW_TIMEOUT_SECS" => Some("2.5".into()),
            "CROW_RETRIES" => Some("3".into()),
            "CROW_RESUME" => Some("1".into()),
            _ => None,
        })
        .unwrap();
        assert_eq!(ok.timeout, Some(Duration::from_secs_f64(2.5)));
        assert_eq!(ok.max_retries, 3);
        assert!(ok.resume);
        for (v, want) in [("yes", true), ("no", false), ("false", false)] {
            let p = CampaignPolicy::from_lookup(s, |k| (k == "CROW_RESUME").then(|| v.into()));
            assert_eq!(p.unwrap().resume, want, "CROW_RESUME={v}");
        }
        assert!(
            CampaignPolicy::from_lookup(s, |k| (k == "CROW_RESUME").then(|| "2".into())).is_err()
        );
        let bad = CampaignPolicy::from_lookup(s, |k| {
            (k == "CROW_TIMEOUT_SECS").then(|| "2,5".to_string())
        });
        assert!(bad.unwrap_err().to_string().contains("CROW_TIMEOUT_SECS"));
        let bad = CampaignPolicy::from_lookup(s, |k| (k == "CROW_RETRIES").then(|| "x".into()));
        assert!(bad.is_err());
        assert!(
            CampaignPolicy::from_lookup(s, |k| (k == "CROW_TIMEOUT_SECS").then(|| "0".into()))
                .unwrap()
                .timeout
                .is_none(),
            "0 disables the deadline"
        );
    }

    #[test]
    fn journal_record_roundtrip_and_hash() {
        let rec = JournalRecord {
            fingerprint: "fig8/mcf/CROW-8@insts=400000".into(),
            kind: OutcomeKind::Degraded,
            attempts: 2,
            error: None,
            payload: Some(Json::f64(1.25).render()),
        };
        let line = rec.to_line();
        assert_eq!(JournalRecord::from_line(&line).unwrap(), rec);
        // Any body corruption invalidates the checksums.
        let tampered = line.replace("degraded", "ok");
        assert!(JournalRecord::from_line(&tampered).is_none());
        assert_eq!(classify_line(&tampered), LineVerdict::Corrupt);
        assert!(JournalRecord::from_line("{\"v\":1,\"torn...").is_none());
        assert_eq!(
            classify_line("{\"v\":1,\"torn..."),
            LineVerdict::Malformed,
            "a torn line is malformed, not corrupt"
        );
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The classic IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn legacy_record_without_crc_still_resumes() {
        // A hand-built pre-CRC line: v, hash, fp, kind, attempts,
        // error, payload — exactly what PR 6 wrote.
        let rec = JournalRecord {
            fingerprint: "legacy-job".into(),
            kind: OutcomeKind::Ok,
            attempts: 1,
            error: None,
            payload: Some(Json::u64(5).render()),
        };
        let legacy = Json::Obj(vec![
            ("v".into(), Json::u64(1)),
            (
                "hash".into(),
                Json::str(format!("{:016x}", fnv1a64(rec.body().as_bytes()))),
            ),
            ("fp".into(), Json::str("legacy-job")),
            ("kind".into(), Json::str("ok")),
            ("attempts".into(), Json::u64(1)),
            ("error".into(), Json::Null),
            ("payload".into(), Json::u64(5)),
        ])
        .render();
        assert_eq!(classify_line(&legacy), LineVerdict::Ok(rec));
        // A tampered legacy line has no CRC to contradict the FNV
        // mismatch: it stays malformed (pre-CRC quarantine behavior).
        let tampered = legacy.replace("\"attempts\":1", "\"attempts\":3");
        assert_eq!(classify_line(&tampered), LineVerdict::Malformed);
        // End-to-end: a legacy journal resumes cleanly.
        let dir = temp_dir("legacy");
        let path = dir.join("camp.jsonl");
        std::fs::write(&path, format!("{legacy}\n")).unwrap();
        let j = Journal::open(&path, true).unwrap();
        assert_eq!((j.len(), j.quarantined(), j.corrupt()), (1, 0, 0));
        assert!(j.lookup("legacy-job").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crc_failing_record_is_quarantined_to_corrupt_sidecar() {
        let dir = temp_dir("crc");
        let path = dir.join("camp.jsonl");
        let good = JournalRecord {
            fingerprint: "job-good".into(),
            kind: OutcomeKind::Ok,
            attempts: 1,
            error: None,
            payload: Some(Json::u64(7).render()),
        };
        let victim = JournalRecord {
            fingerprint: "job-bitrot".into(),
            kind: OutcomeKind::Ok,
            attempts: 1,
            error: None,
            payload: Some(Json::u64(41).render()),
        };
        // Flip one payload digit after the record was written whole.
        let damaged = victim.to_line().replace("41", "43");
        std::fs::write(&path, format!("{}\n{damaged}\n", good.to_line())).unwrap();
        let j = Journal::open(&path, true).unwrap();
        assert_eq!((j.len(), j.quarantined(), j.corrupt()), (1, 0, 1));
        assert!(j.lookup("job-good").is_some());
        assert!(j.lookup("job-bitrot").is_none(), "damaged record dropped");
        let sidecar = std::fs::read_to_string(dir.join("camp.jsonl.corrupt")).unwrap();
        assert!(sidecar.contains("job-bitrot"));
        assert!(
            !dir.join("camp.jsonl.quarantine").exists(),
            "checksum damage goes to .corrupt, not .quarantine"
        );
        // The rewritten journal now opens cleanly and the job re-runs.
        let again = Journal::open(&path, true).unwrap();
        assert_eq!(
            (again.len(), again.quarantined(), again.corrupt()),
            (1, 0, 0)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_quarantines_torn_tail() {
        let dir = temp_dir("torn");
        let path = dir.join("camp.jsonl");
        let good = JournalRecord {
            fingerprint: "job-a".into(),
            kind: OutcomeKind::Ok,
            attempts: 1,
            error: None,
            payload: Some(Json::u64(7).render()),
        };
        std::fs::write(
            &path,
            format!("{}\n{{\"v\":1,\"hash\":\"torn-mid-wri", good.to_line()),
        )
        .unwrap();
        let j = Journal::open(&path, true).unwrap();
        assert_eq!(j.len(), 1);
        assert_eq!(j.quarantined(), 1);
        assert!(j.lookup("job-a").is_some());
        let q = std::fs::read_to_string(dir.join("camp.jsonl.quarantine")).unwrap();
        assert!(q.contains("torn-mid-wri"));
        // The rewritten journal now parses cleanly.
        let again = Journal::open(&path, true).unwrap();
        assert_eq!(again.len(), 1);
        assert_eq!(again.quarantined(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn panicking_job_is_isolated() {
        let mut camp = Campaign::ephemeral("iso", quick_policy());
        let ran = Arc::new(AtomicUsize::new(0));
        let ran2 = Arc::clone(&ran);
        let jobs: Vec<(String, u64)> = (0..8).map(|i| (format!("job-{i}"), i)).collect();
        let outs = camp.run(jobs, move |&i, _scale| {
            ran2.fetch_add(1, Ordering::Relaxed);
            if i == 3 {
                panic!("deliberate worker panic");
            }
            Ok(i * 2)
        });
        assert_eq!(outs.len(), 8);
        for (i, o) in outs.iter().enumerate() {
            if i == 3 {
                assert_eq!(o.kind, OutcomeKind::Panicked);
                assert!(o.error.as_deref().unwrap().contains("deliberate"));
                assert!(o.result.is_none());
            } else {
                assert_eq!(o.kind, OutcomeKind::Ok);
                assert_eq!(o.result, Some(i as u64 * 2));
            }
        }
        let c = camp.counts();
        assert_eq!((c.ok, c.panicked, c.retries), (7, 1, 1));
        // 8 first attempts + 1 retry of the panicking job.
        assert_eq!(ran.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn structured_error_is_a_failed_job_not_a_dead_campaign() {
        let mut camp = Campaign::ephemeral("err", quick_policy());
        let outs = camp.run(
            vec![("bad".to_string(), 0u64), ("good".to_string(), 1u64)],
            |&i, _| {
                if i == 0 {
                    Err(CrowError::Protocol {
                        violations: 3,
                        first: None,
                    })
                } else {
                    Ok(i)
                }
            },
        );
        assert_eq!(outs[0].kind, OutcomeKind::Panicked);
        assert!(outs[0].error.as_deref().unwrap().contains("violation"));
        assert_eq!(outs[1].kind, OutcomeKind::Ok);
    }

    #[test]
    fn flaky_job_degrades_instead_of_failing() {
        let full = test_scale().insts;
        let mut camp = Campaign::ephemeral("flaky", quick_policy());
        let outs = camp.run(vec![("flaky".to_string(), ())], move |(), scale| {
            if scale.insts == full {
                panic!("only works degraded");
            }
            Ok(scale.insts)
        });
        assert_eq!(outs[0].kind, OutcomeKind::Degraded);
        assert_eq!(outs[0].result, Some(full / 2));
        assert_eq!(outs[0].attempts, 2);
        assert_eq!(camp.dispositions().degraded, 1);
    }

    #[test]
    fn wedged_job_times_out_and_slot_is_refilled() {
        let mut policy = quick_policy();
        policy.timeout = Some(Duration::from_millis(40));
        policy.max_retries = 1;
        policy.threads = 1; // The wedge must not block the other job.
        let mut camp = Campaign::ephemeral("wedge", policy);
        let jobs = vec![("wedge".to_string(), true), ("quick".to_string(), false)];
        let outs = camp.run(jobs, |&wedge, _| {
            if wedge {
                std::thread::sleep(Duration::from_secs(30));
            }
            Ok(1u64)
        });
        assert_eq!(outs[0].kind, OutcomeKind::TimedOut);
        assert!(outs[0].error.as_deref().unwrap().contains("deadline"));
        assert_eq!(outs[1].kind, OutcomeKind::Ok);
        assert_eq!(camp.counts().timed_out, 1);
        // Both attempts of the wedged job were abandoned at their
        // deadline (threads leaked until process exit) — and the leak
        // is now accounted, not silent.
        assert_eq!(camp.counts().abandoned, 2);
        assert_eq!(
            camp.counts().to_json().get("abandoned").unwrap().as_u64(),
            Some(2),
            "abandoned attempts surface in .summary.json outcomes"
        );
    }

    #[test]
    fn journal_resume_skips_completed_jobs() {
        let dir = temp_dir("resume");
        let jobs =
            |n: u64| -> Vec<(String, u64)> { (0..n).map(|i| (format!("job-{i}"), i)).collect() };
        // First invocation completes 3 of 6 jobs, then "crashes".
        let mut first = Campaign::at_dir("camp", quick_policy(), &dir).unwrap();
        let outs = first.run(jobs(3), |&i, _| Ok(i + 100));
        assert!(outs.iter().all(|o| o.kind == OutcomeKind::Ok));
        drop(first);
        // Second invocation resumes: only the 3 missing jobs run.
        let mut policy = quick_policy();
        policy.resume = true;
        let mut second = Campaign::at_dir("camp", policy, &dir).unwrap();
        let ran = Arc::new(AtomicUsize::new(0));
        let ran2 = Arc::clone(&ran);
        let outs = second.run(jobs(6), move |&i, _| {
            ran2.fetch_add(1, Ordering::Relaxed);
            Ok(i + 100)
        });
        assert_eq!(ran.load(Ordering::Relaxed), 3, "completed jobs not re-run");
        for (i, o) in outs.iter().enumerate() {
            assert_eq!(o.result, Some(i as u64 + 100));
            let expect = if i < 3 {
                OutcomeKind::Skipped
            } else {
                OutcomeKind::Ok
            };
            assert_eq!(o.kind, expect);
            assert_eq!(o.disposition(), OutcomeKind::Ok);
        }
        let c = second.counts();
        assert_eq!((c.ok, c.skipped), (3, 3));
        let d = second.dispositions();
        assert_eq!((d.ok, d.skipped), (6, 0), "dispositions match a clean run");
        // Without resume, the journal is truncated and everything re-runs.
        let mut fresh = Campaign::at_dir("camp", quick_policy(), &dir).unwrap();
        let outs = fresh.run(jobs(2), |&i, _| Ok(i));
        assert!(outs.iter().all(|o| o.kind == OutcomeKind::Ok));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_jobs_are_journaled_and_not_rerun() {
        let dir = temp_dir("failjournal");
        let mut policy = quick_policy();
        policy.max_retries = 0;
        let mut first = Campaign::at_dir("camp", policy, &dir).unwrap();
        let outs = first.run(vec![("boom".to_string(), ())], |(), _| -> Result<u64, _> {
            panic!("always")
        });
        assert_eq!(outs[0].kind, OutcomeKind::Panicked);
        drop(first);
        let mut policy = quick_policy();
        policy.resume = true;
        let mut second = Campaign::at_dir("camp", policy, &dir).unwrap();
        let outs = second.run(vec![("boom".to_string(), ())], |(), _| Ok(1u64));
        assert_eq!(outs[0].kind, OutcomeKind::Skipped);
        assert_eq!(outs[0].disposition(), OutcomeKind::Panicked);
        assert!(outs[0].result.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scale_change_invalidates_journal_entries() {
        let dir = temp_dir("scalefp");
        let mut first = Campaign::at_dir("camp", quick_policy(), &dir).unwrap();
        first.run(vec![("j".to_string(), ())], |(), _| Ok(1u64));
        drop(first);
        let mut policy = quick_policy();
        policy.scale.insts *= 2;
        policy.resume = true;
        let mut second = Campaign::at_dir("camp", policy, &dir).unwrap();
        let ran = Arc::new(AtomicUsize::new(0));
        let ran2 = Arc::clone(&ran);
        second.run(vec![("j".to_string(), ())], move |(), _| {
            ran2.fetch_add(1, Ordering::Relaxed);
            Ok(2u64)
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1, "different scale re-runs");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn counts_display_and_json() {
        let mut c = OutcomeCounts::default();
        c.add(OutcomeKind::Ok);
        c.add(OutcomeKind::TimedOut);
        c.retries = 2;
        c.abandoned = 3;
        let s = c.to_string();
        assert!(s.contains("ok 1") && s.contains("timed-out 1") && s.contains("retries 2"));
        assert!(s.contains("abandoned 3"));
        assert_eq!(c.total(), 2, "abandoned counts attempts, not jobs");
        assert_eq!(c.failed(), 1);
        let j = c.to_json();
        assert_eq!(j.get("timed_out").unwrap().as_u64(), Some(1));
        assert_eq!(j.get("abandoned").unwrap().as_u64(), Some(3));
        let mut m = OutcomeCounts::default();
        m.merge(&c);
        assert_eq!(m.abandoned, 3);
    }
}
