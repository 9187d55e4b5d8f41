//! `serve-mixed`: `crow-serve` on a Unix socket under an open loop of
//! seeded Poisson arrivals, three in four repeating a primed job.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crow_sim::{Journaled, Json, Mechanism, SimReport};
use crow_workloads::{mixes_for_group, AppProfile, MixGroup};

use crate::sim::{mix_seed, SimJob};

/// glibc settings every measured process runs with: the default initial
/// mmap threshold, pinned, and a single malloc arena (see
/// [`Server::start`]).
pub const MALLOC_ENV: [(&str, &str); 2] = [
    ("MALLOC_MMAP_THRESHOLD_", "131072"),
    ("MALLOC_ARENA_MAX", "1"),
];
/// Mean arrival rate of the open loop, requests per second.
pub const RATE: f64 = 50.0;
/// Share of arrivals that repeat a primed job.
pub const HIT_FRAC: f64 = 0.75;
/// Jobs primed into the server's journal before the timed phase.
pub const PRIMED: usize = 64;
/// Latency objectives for goodput: cached replies and fresh jobs.
pub const HIT_SLO: Duration = Duration::from_millis(25);
pub const FRESH_SLO: Duration = Duration::from_secs(1);

/// Fresh jobs cycle through a fixed catalogue of shapes: one-core jobs
/// of memory-bound applications at 300k to 1.2M instructions, and one
/// four-core mix of each intensity pair. The seed decides arrival times,
/// which arrivals repeat a primed job, and every job's own seed; drawing
/// the shapes from it too would change how much simulation a run holds.
/// Sizes are tuned so each of the two server workers is about a third
/// busy: busier, and so many cached replies wait behind fresh jobs that
/// the median request flips between the two paths from run to run.
const FRESH_APPS: [&str; 8] = [
    "mcf", "omnetpp", "soplex", "milc", "libq", "lbm", "GemsFDTD", "sphinx3",
];
const FRESH_INSTS: [u64; 4] = [200_000, 400_000, 600_000, 800_000];
const FRESH_GROUPS: [MixGroup; 4] = [
    MixGroup::Llll,
    MixGroup::Llhh,
    MixGroup::Mmhh,
    MixGroup::Hhhh,
];
/// Instructions per core of a four-core fresh job.
const FRESH_MIX_INSTS: u64 = 120_000;

/// The `k`-th fresh job's applications and instructions per core.
fn fresh_shape(k: usize) -> (Vec<&'static str>, u64) {
    // Every fifth fresh job is a four-core mix.
    if k % 5 == 4 {
        let group = FRESH_GROUPS[(k / 5) % FRESH_GROUPS.len()];
        let mix = mixes_for_group(group, 1, 1)[0];
        (mix.iter().map(|a| a.name).collect(), FRESH_MIX_INSTS)
    } else {
        (
            vec![FRESH_APPS[k % FRESH_APPS.len()]],
            FRESH_INSTS[(k / FRESH_APPS.len()) % FRESH_INSTS.len()],
        )
    }
}

const PRIMED_APPS: [&str; 8] = [
    "gcc", "mcf", "povray", "libq", "astar", "milc", "namd", "omnetpp",
];

/// One simulation request as sent on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub apps: Vec<&'static str>,
    pub mechanism: &'static str,
    pub insts: u64,
    pub warmup: u64,
    pub seed: u64,
}

impl Request {
    /// The request line, every job field explicit so no server default
    /// applies.
    pub fn line(&self, id: &str) -> String {
        Json::obj(vec![
            ("op", Json::str("sim")),
            ("id", Json::str(id)),
            (
                "apps",
                Json::Arr(self.apps.iter().map(|a| Json::str(*a)).collect()),
            ),
            ("mechanism", Json::str(self.mechanism)),
            ("insts", Json::u64(self.insts)),
            ("warmup", Json::u64(self.warmup)),
            ("seed", Json::u64(self.seed)),
            ("density", Json::u64(8)),
            ("llc_mib", Json::u64(8)),
            ("channels", Json::u64(4)),
            ("prefetch", Json::Bool(false)),
            ("ddr4", Json::Bool(false)),
            ("validate", Json::Bool(false)),
        ])
        .render()
    }

    /// The same job as an in-process simulation (the server builds the
    /// identical configuration).
    pub fn as_job(&self) -> SimJob {
        SimJob {
            idx: 0,
            label: format!("{}/{}", self.apps.join("+"), self.mechanism),
            apps: self
                .apps
                .iter()
                .map(|a| AppProfile::by_name(a).expect("suite app"))
                .collect(),
            mechanism: Mechanism::parse(self.mechanism).expect("known mechanism"),
            insts: self.insts,
            warmup: self.warmup,
            seed: self.seed,
            sample: None,
        }
    }

    pub fn total_insts(&self) -> u64 {
        self.insts * self.apps.len() as u64
    }

    /// Everything but the seed: requests of one shape simulate the same
    /// amount of work.
    pub fn shape(&self) -> String {
        format!("{}/{}/{}", self.apps.join("+"), self.mechanism, self.insts)
    }
}

/// The jobs primed before the timed phase: small, one in four on four
/// cores, so that cached replies vary in size.
pub fn primed(seed: u64, n: usize) -> Vec<Request> {
    (0..n)
        .map(|i| {
            let apps = if i % 4 == 3 {
                PRIMED_APPS[i % 8..]
                    .iter()
                    .chain(&PRIMED_APPS)
                    .take(4)
                    .copied()
                    .collect()
            } else {
                vec![PRIMED_APPS[i % 8]]
            };
            Request {
                apps,
                mechanism: if i % 2 == 0 { "baseline" } else { "crow-8" },
                insts: 20_000,
                warmup: 5_000,
                seed: mix_seed(seed, 2_000_000 + i as u64),
            }
        })
        .collect()
}

#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    /// Repeats primed job `i`.
    Hit(usize),
    Fresh(Request),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Seconds after the start of the open loop.
    pub at: f64,
    pub kind: Kind,
}

/// The seeded open-loop schedule: Poisson arrivals at `rate` over
/// `seconds`, a share `HIT_FRAC` repeating one of `primed` jobs and the
/// rest fresh jobs that never repeat.
pub fn schedule(seed: u64, seconds: f64, rate: f64, primed: usize) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(mix_seed(seed, 0x5e_77e));
    // Uniform in [0, 1) from the top 53 bits.
    let unit = |rng: &mut StdRng| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    let mut out = Vec::new();
    let mut at = 0.0;
    let mut fresh = 0;
    loop {
        at += -(1.0 - unit(&mut rng)).ln() / rate;
        if at >= seconds {
            return out;
        }
        let kind = if unit(&mut rng) < HIT_FRAC {
            Kind::Hit(rng.gen_range(0..primed))
        } else {
            let (apps, insts) = fresh_shape(fresh);
            fresh += 1;
            Kind::Fresh(Request {
                apps,
                mechanism: if fresh % 2 == 0 { "baseline" } else { "crow-8" },
                insts,
                warmup: 10_000,
                seed: mix_seed(seed, 1_000_000 + out.len() as u64),
            })
        };
        out.push(Arrival { at, kind });
    }
}

// --- server process ---------------------------------------------------

/// A running `crow-serve`, killed and reaped when dropped.
pub struct Server {
    child: Child,
    pub socket: PathBuf,
    pub boot_secs: f64,
}

impl Server {
    /// Starts the server in `dir` (journal and socket live there) with a
    /// cleared environment plus the pinned service knobs, and waits until
    /// it answers a ping.
    pub fn start(bin: &Path, dir: &Path) -> Result<Self, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let log = std::fs::File::create(dir.join("serve.log")).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let child = Command::new(bin)
            .args(["--socket", "serve.sock"])
            .current_dir(dir)
            .env_clear()
            .envs([
                ("CROW_CAMPAIGN_DIR", "."),
                ("CROW_SERVE_ISOLATION", "thread"),
                ("CROW_SERVE_WORKERS", "2"),
                ("CROW_SERVE_QUEUE", "64"),
                ("CROW_SERVE_MAX_LINE", "65536"),
                ("CROW_SERVE_READ_TIMEOUT_SECS", "10"),
                ("CROW_SERVE_JOB_TIMEOUT_SECS", "120"),
                ("CROW_SERVE_RETRIES", "1"),
                ("CROW_SERVE_HEARTBEAT_SECS", "0"),
                ("CROW_SERVE_CHAOS", "0"),
            ])
            // A fixed mmap threshold: glibc otherwise raises it after
            // freeing a large block, and a simulator's multi-MiB arrays
            // then stay resident in whichever of the per-thread arenas
            // served them. One arena: with one per thread, the heap
            // fragments by which worker happened to serve which job.
            // Either way peak RSS would follow thread timing instead of
            // live memory (measured: 18.6 to 20.1 MiB across seeds with
            // per-thread arenas, 18.5 to 18.9 with one).
            .envs(MALLOC_ENV)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut server = Self {
            child,
            socket: dir.join("serve.sock"),
            boot_secs: 0.0,
        };
        let deadline = t + Duration::from_secs(20);
        loop {
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("crow-serve exited during boot: {status}"));
            }
            if let Ok(reply) = server.inline("{\"op\":\"ping\"}") {
                if reply.contains("pong") {
                    break;
                }
            }
            if Instant::now() > deadline {
                return Err("crow-serve did not answer within 20 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        server.boot_secs = t.elapsed().as_secs_f64();
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends one inline op on a connection of its own and returns the
    /// reply line.
    pub fn inline(&self, op: &str) -> Result<String, String> {
        let mut s = UnixStream::connect(&self.socket).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        writeln!(s, "{op}").map_err(|e| e.to_string())?;
        let mut line = String::new();
        BufReader::new(&s)
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        Ok(line.trim_end().to_string())
    }

    /// The server's `stats` counters.
    pub fn stats(&self) -> Result<Json, String> {
        let line = self.inline("{\"op\":\"stats\"}")?;
        Json::parse(&line).map_err(|e| e.to_string())
    }

    /// Drains the server through the `shutdown` op and waits for it to
    /// exit (killing it after ten seconds).
    pub fn stop(mut self) -> Result<(), String> {
        let asked = self.inline("{\"op\":\"shutdown\"}");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return match (asked, status.success()) {
                    (Ok(_), true) => Ok(()),
                    (Err(e), _) => Err(format!("shutdown op failed: {e}")),
                    (_, false) => Err(format!("crow-serve exited with {status}")),
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("crow-serve did not drain within 10 s".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

// --- client -----------------------------------------------------------

/// One event line and when it arrived.
struct Event {
    at: Instant,
    line: String,
}

/// A connection whose replies a reader thread timestamps as they arrive.
pub struct Conn {
    stream: UnixStream,
    events: mpsc::Receiver<Event>,
    reader: Option<JoinHandle<()>>,
}

impl Conn {
    pub fn open(socket: &Path) -> Result<Self, String> {
        let stream = UnixStream::connect(socket).map_err(|e| e.to_string())?;
        let read_half = stream.try_clone().map_err(|e| e.to_string())?;
        let (tx, events) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(read_half).lines() {
                let Ok(line) = line else { return };
                let at = Instant::now();
                if tx.send(Event { at, line }).is_err() {
                    return;
                }
            }
        });
        Ok(Self {
            stream,
            events,
            reader: Some(reader),
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| e.to_string())
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// What the client saw for one request.
#[derive(Debug, Clone, Default)]
pub struct Seen {
    pub started: Option<Instant>,
    pub done: Option<Instant>,
    /// The terminal event line (`result` or `error`).
    pub line: String,
}

impl Seen {
    pub fn is_result(&self) -> bool {
        self.line.starts_with("{\"event\":\"result\"")
    }

    pub fn cached(&self) -> bool {
        self.line.contains("\"cached\":true")
    }

    /// The reply from its outcome on: identical for a cached reply and
    /// the reply that first computed the job.
    pub fn body(&self) -> &str {
        self.line
            .find(",\"outcome\":")
            .map_or("", |i| &self.line[i..])
    }

    pub fn report(&self) -> Option<SimReport> {
        let doc = Json::parse(&self.line).ok()?;
        SimReport::decode(doc.get("report")?)
    }
}

/// Routes one event to the request it names (ids are `<prefix><index>`).
fn route(ev: Event, prefix: char, seen: &mut [Seen]) -> bool {
    let Ok(doc) = Json::parse(&ev.line) else {
        return false;
    };
    let idx = doc
        .get("id")
        .and_then(Json::as_str)
        .and_then(|id| id.strip_prefix(prefix))
        .and_then(|n| n.parse::<usize>().ok());
    let Some(s) = idx.and_then(|i| seen.get_mut(i)) else {
        return false;
    };
    match doc.get("event").and_then(Json::as_str) {
        Some("started") => s.started = Some(ev.at),
        Some("result" | "error") => {
            s.done = Some(ev.at);
            s.line = ev.line;
            return true;
        }
        _ => {}
    }
    false
}

/// Sends the primed jobs with at most 16 outstanding and waits for every
/// reply.
pub fn prime(server: &Server, jobs: &[Request]) -> Result<Vec<Seen>, String> {
    let mut conn = Conn::open(&server.socket)?;
    let mut seen = vec![Seen::default(); jobs.len()];
    let (mut sent, mut done) = (0, 0);
    let deadline = Instant::now() + Duration::from_secs(120);
    while done < jobs.len() {
        while sent < jobs.len() && sent - done < 16 {
            conn.send(&jobs[sent].line(&format!("p{sent}")))?;
            sent += 1;
        }
        let left = deadline.saturating_duration_since(Instant::now());
        let ev = conn
            .events
            .recv_timeout(left)
            .map_err(|_| format!("priming stalled at {done} of {} replies", jobs.len()))?;
        if route(ev, 'p', &mut seen) {
            done += 1;
        }
    }
    Ok(seen)
}

/// The open loop: sends each arrival at its scheduled time on one
/// connection and collects every reply.
pub struct Loop {
    pub seen: Vec<Seen>,
    /// Scheduled send instants.
    pub due: Vec<Instant>,
    /// How late each send left, seconds.
    pub lateness: Vec<f64>,
    pub start: Instant,
}

pub fn open_loop(
    server: &Server,
    arrivals: &[Arrival],
    primed: &[Request],
) -> Result<Loop, String> {
    let mut conn = Conn::open(&server.socket)?;
    let mut seen = vec![Seen::default(); arrivals.len()];
    let mut due = Vec::with_capacity(arrivals.len());
    let mut lateness = Vec::with_capacity(arrivals.len());
    let mut done = 0;
    let start = Instant::now();
    for (i, a) in arrivals.iter().enumerate() {
        let at = start + Duration::from_secs_f64(a.at);
        while let Some(wait) = at.checked_duration_since(Instant::now()) {
            // Route replies while waiting, so the channel stays short.
            match conn.events.recv_timeout(wait) {
                Ok(ev) => done += usize::from(route(ev, 'r', &mut seen)),
                Err(mpsc::RecvTimeoutError::Timeout) => break,
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err("server closed the connection".into())
                }
            }
        }
        let req = match &a.kind {
            Kind::Hit(j) => &primed[*j],
            Kind::Fresh(r) => r,
        };
        let line = req.line(&format!("r{i}"));
        lateness.push(Instant::now().saturating_duration_since(at).as_secs_f64());
        due.push(at);
        conn.send(&line)?;
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    while done < arrivals.len() {
        let left = deadline.saturating_duration_since(Instant::now());
        let ev = conn.events.recv_timeout(left).map_err(|_| {
            format!(
                "{} of {} requests unanswered",
                arrivals.len() - done,
                arrivals.len()
            )
        })?;
        done += usize::from(route(ev, 'r', &mut seen));
    }
    Ok(Loop {
        seen,
        due,
        lateness,
        start,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_repeats_per_seed_and_differs_across_seeds() {
        let a = schedule(7, 10.0, RATE, PRIMED);
        assert_eq!(a, schedule(7, 10.0, RATE, PRIMED));
        assert_ne!(a, schedule(8, 10.0, RATE, PRIMED));
        // About RATE per second, about HIT_FRAC repeats.
        assert!((350..650).contains(&a.len()), "{}", a.len());
        let hits = a.iter().filter(|x| matches!(x.kind, Kind::Hit(_))).count();
        let frac = hits as f64 / a.len() as f64;
        assert!((0.65..0.85).contains(&frac), "{frac}");
        assert!(a.windows(2).all(|w| w[0].at < w[1].at));
        assert!(a.last().unwrap().at < 10.0);
    }

    #[test]
    fn every_fresh_shape_recurs_within_a_run() {
        let a = schedule(5, 20.0, RATE, PRIMED);
        let mut count = std::collections::BTreeMap::new();
        for x in &a {
            if let Kind::Fresh(r) = &x.kind {
                *count.entry(r.shape()).or_insert(0) += 1;
            }
        }
        // 8 apps at 4 sizes, and 4 mixes.
        assert_eq!(count.len(), 36);
        assert!(count.values().all(|&n| n >= 4), "{count:?}");
    }

    #[test]
    fn fresh_jobs_never_repeat_and_requests_parse() {
        let a = schedule(3, 20.0, RATE, PRIMED);
        let mut seeds: Vec<u64> = a
            .iter()
            .filter_map(|x| match &x.kind {
                Kind::Fresh(r) => Some(r.seed),
                Kind::Hit(_) => None,
            })
            .collect();
        let n = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), n);
        for r in primed(3, PRIMED)
            .iter()
            .chain(a.iter().filter_map(|x| match &x.kind {
                Kind::Fresh(r) => Some(r),
                Kind::Hit(_) => None,
            }))
        {
            let req = crow_sim::server::parse_request(&r.line("x1")).expect("valid request");
            assert!(matches!(req, crow_sim::Request::Sim(_)));
            assert!((1..=4).contains(&r.apps.len()));
        }
    }
}
