//! Shared harness utilities: text tables, app selection, alone-run IPC
//! caching for weighted speedup, the supervised figure campaign wrapper
//! every figure harness runs its jobs through, and the deadline-bounded
//! [`ServeClient`] for talking to a `crow-serve` socket.

use std::collections::HashMap;
use std::io::Write as _;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use crow_mem::SchedStats;
use crow_sim::server::{LineRead, LineReader};
use crow_sim::{
    run_job, Campaign, CampaignPolicy, CrowError, Json, Mechanism, Scale, SimReport, SystemConfig,
};
use crow_workloads::AppProfile;

/// A simple fixed-width text table builder.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    ///
    /// # Panics
    ///
    /// Panics on a width mismatch.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&line(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Section header for reports.
pub fn heading(title: &str) -> String {
    format!("\n=== {title} ===\n")
}

/// [`Scale::from_env`] for binaries: a malformed override prints one
/// diagnostic and exits instead of unwinding.
pub fn scale_from_env_or_exit() -> Scale {
    Scale::from_env().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// The stand-in report for a job that produced no result (panicked or
/// timed out through every retry): NaN metrics so downstream figure
/// arithmetic propagates "unknown" instead of a silently wrong number,
/// and `finished: false`. The campaign trailer tells the reader why.
pub fn failed_report() -> SimReport {
    SimReport {
        ipc: vec![f64::NAN; 4],
        mpki: vec![f64::NAN; 4],
        cpu_cycles: 0,
        mem_cycles: 0,
        mc: Default::default(),
        commands: Default::default(),
        crow: Default::default(),
        energy: Default::default(),
        finished: false,
        violations: 0,
        trace_faults: 0,
        faults: Default::default(),
        sched: Default::default(),
        hammer: Default::default(),
        samples: None,
        wall_seconds: 0.0,
        sim_cycles_per_sec: 0.0,
    }
}

/// The supervised campaign wrapper for figure harnesses.
///
/// Wraps a journaled [`Campaign`] (policy from the environment:
/// `CROW_TIMEOUT_SECS`, `CROW_RETRIES`, `CROW_RESUME`; journal under
/// `$CROW_CAMPAIGN_DIR` or `results/campaign/<name>.jsonl`) and adapts
/// its outcomes back to the plain `Vec<SimReport>` shape the figure
/// arithmetic expects, substituting [`failed_report`] for jobs that
/// produced nothing. Call [`FigCampaign::finish`] at the end of the
/// figure to emit the outcome counters (text trailer + a JSON summary
/// next to the journal).
pub struct FigCampaign {
    camp: Campaign,
    sched: SchedStats,
    /// Sampling aggregate over this campaign's sampled reports:
    /// (reports, windows, mean relative IPC CI half-width numerator).
    /// Zero reports means the campaign ran full-detail and the summary
    /// omits its sampling section.
    sampled: (u64, u64, f64),
}

impl FigCampaign {
    /// Opens the campaign for figure `name` at the requested scale.
    ///
    /// A bad environment knob is fatal (exit 2); an unwritable journal
    /// degrades to supervision without resumability, with a warning.
    pub fn new(name: &str, scale: Scale) -> Self {
        let policy = CampaignPolicy::from_env(scale).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
        let camp = Campaign::new(name, policy).unwrap_or_else(|e| {
            eprintln!("warning: {e}; campaign '{name}' runs unjournaled");
            Campaign::ephemeral(name, policy)
        });
        if camp.quarantined() > 0 {
            eprintln!(
                "campaign {name}: quarantined {} malformed journal record(s)",
                camp.quarantined()
            );
        }
        if camp.corrupt() > 0 {
            eprintln!(
                "campaign {name}: set aside {} CRC-failing journal record(s) to the .corrupt sidecar",
                camp.corrupt()
            );
        }
        Self {
            camp,
            sched: SchedStats::new(),
            sampled: (0, 0, 0.0),
        }
    }

    /// Runs one supervised batch; may be called repeatedly (job ids must
    /// be unique across the whole campaign for the journal to resume
    /// correctly).
    pub fn run<J, F>(&mut self, jobs: Vec<(String, J)>, worker: F) -> Vec<SimReport>
    where
        J: Send + Sync + 'static,
        F: Fn(&J, Scale) -> Result<SimReport, CrowError> + Send + Sync + 'static,
    {
        self.camp
            .run(jobs, worker)
            .into_iter()
            .map(|o| o.result.unwrap_or_else(failed_report))
            .inspect(|r| {
                self.sched.merge(&r.sched);
                if let Some(s) = &r.samples {
                    self.sampled.0 += 1;
                    self.sampled.1 += s.windows;
                    if s.ipc.mean > 0.0 {
                        self.sampled.2 += s.ipc.ci95 / s.ipc.mean;
                    }
                }
            })
            .collect()
    }

    /// Finishes the campaign: writes `<journal>.summary.json` with the
    /// final job dispositions and returns the text trailer appended to
    /// the figure output. Dispositions count a journal-restored job
    /// under its original outcome, so a resumed figure regeneration
    /// produces byte-identical output to an uninterrupted one; how many
    /// jobs were restored this invocation goes to stderr only.
    pub fn finish(&self) -> String {
        let d = self.camp.dispositions();
        let c = self.camp.counts();
        if c.skipped > 0 {
            eprintln!(
                "campaign {}: restored {} journaled job(s), ran {}",
                self.camp.name(),
                c.skipped,
                c.total() - c.skipped
            );
        }
        if let Some(path) = self.camp.journal_path() {
            let s = &self.sched;
            // Dispositions are resume-stable by construction, but
            // abandonment is a this-run thread leak (never journaled):
            // surface the live number, not the always-zero disposition.
            let mut outcomes = d;
            outcomes.abandoned = c.abandoned;
            let summary = Json::Obj(vec![
                ("campaign".into(), Json::str(self.camp.name())),
                ("outcomes".into(), outcomes.to_json()),
                (
                    "scheduler".into(),
                    Json::Obj(vec![
                        ("picks".into(), Json::u64(s.picks)),
                        ("scanned".into(), Json::u64(s.scanned)),
                        ("scanned_per_pick".into(), Json::f64(s.scanned_per_pick())),
                        ("fastpath_skips".into(), Json::u64(s.fastpath_skips)),
                        ("rebuilds".into(), Json::u64(s.rebuilds)),
                        ("wakeup_skips".into(), Json::u64(s.wakeup_skips)),
                    ]),
                ),
            ]);
            // Sampled campaigns additionally record how much statistical
            // sampling they did and how tight the windows' confidence
            // intervals came out, so a figure consumer can judge the
            // sampled numbers without re-reading every journal record.
            let summary = match (summary, self.sampled) {
                (s, (0, _, _)) => s,
                (Json::Obj(mut fields), (n, windows, rel_ci)) => {
                    fields.push((
                        "sampling".into(),
                        Json::Obj(vec![
                            ("sampled_reports".into(), Json::u64(n)),
                            ("windows".into(), Json::u64(windows)),
                            ("mean_rel_ipc_ci95".into(), Json::f64(rel_ci / n as f64)),
                        ]),
                    ));
                    Json::Obj(fields)
                }
                (s, _) => s,
            };
            let mut spath = path.as_os_str().to_owned();
            spath.push(".summary.json");
            if let Err(e) = std::fs::write(spath, summary.pretty()) {
                eprintln!("campaign {}: cannot write summary: {e}", self.camp.name());
            }
        }
        format!("\ncampaign {}: {}\n", self.camp.name(), d)
    }
}

/// A deadline-bounded JSONL client for a `crow-serve` Unix socket.
///
/// Every socket read and write carries a deadline, so a stalled or dead
/// server turns into a structured I/O error instead of a hung client —
/// the mirror image of the server's own per-connection read deadlines.
/// Inbound lines go through the same bounded [`LineReader`] the server
/// uses; an event line the server should never produce (over 1 MiB)
/// is treated as a protocol error, not buffered without bound.
#[derive(Debug)]
pub struct ServeClient {
    stream: UnixStream,
    lr: LineReader,
    deadline: Duration,
}

impl ServeClient {
    /// Connects to the server socket; `deadline` bounds every
    /// subsequent send and receive.
    pub fn connect(path: &Path, deadline: Duration) -> std::io::Result<Self> {
        let stream = UnixStream::connect(path)?;
        // Short OS timeout = the poll tick; the real deadline is
        // enforced wall-clock in `recv`.
        stream.set_read_timeout(Some(Duration::from_millis(50)))?;
        stream.set_write_timeout(Some(deadline))?;
        Ok(Self {
            stream,
            lr: LineReader::new(1 << 20, deadline),
            deadline,
        })
    }

    /// Sends one request line.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        writeln!(self.stream, "{line}")
    }

    /// Receives the next event within the deadline (`None`: the server
    /// closed the connection).
    pub fn recv(&mut self) -> std::io::Result<Option<Json>> {
        let start = Instant::now();
        loop {
            match self.lr.poll(&mut self.stream)? {
                LineRead::Line(line) => {
                    return Json::parse(&line)
                        .map(Some)
                        .map_err(|e| std::io::Error::other(format!("bad event line: {e}")));
                }
                LineRead::Eof => return Ok(None),
                LineRead::Idle => {
                    if start.elapsed() > self.deadline {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            format!("no event within {:?}", self.deadline),
                        ));
                    }
                }
                LineRead::Stalled | LineRead::TooLong => {
                    return Err(std::io::Error::other("oversized or stalled event line"));
                }
            }
        }
    }

    /// Receives events until `pred` matches, returning the matching
    /// event (heartbeats and other interleaved events are skipped).
    /// Each individual receive gets the full deadline.
    pub fn recv_until(&mut self, pred: impl Fn(&Json) -> bool) -> std::io::Result<Json> {
        loop {
            match self.recv()? {
                Some(ev) if pred(&ev) => return Ok(ev),
                Some(_) => {}
                None => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed before the expected event",
                    ))
                }
            }
        }
    }

    /// Sends a request and waits for its terminal event: a `result` or
    /// `error` carrying the given id.
    pub fn run_job(&mut self, line: &str, id: &str) -> std::io::Result<Json> {
        self.send(line)?;
        self.recv_until(|ev| {
            let kind = ev.get("event").and_then(Json::as_str);
            (kind == Some("result") || kind == Some("error"))
                && ev.get("id").and_then(Json::as_str) == Some(id)
        })
    }

    /// Asks for the supervision health document (queue depth, live
    /// children, breaker states, kill/retry counters).
    pub fn health(&mut self) -> std::io::Result<Json> {
        self.send("{\"op\":\"health\"}")?;
        self.recv_until(|ev| ev.get("event").and_then(Json::as_str) == Some("health"))
    }
}

/// The single-core application set the performance figures sweep.
///
/// Defaults to a 14-app representative subset spanning the intensity
/// classes (full runs take minutes); set `CROW_APPS=all` for the full
/// 44-application suite.
pub fn fig_apps() -> Vec<&'static AppProfile> {
    if std::env::var("CROW_APPS").as_deref() == Ok("all") {
        return AppProfile::all().iter().collect();
    }
    [
        "mcf",
        "milc",
        "omnetpp",
        "soplex",
        "libq",
        "lbm",
        "GemsFDTD",
        "sphinx3",
        "tpcc64",
        "h264-dec",
        "xalancbmk",
        "gcc",
        "astar",
        "jp2-encode",
    ]
    .iter()
    .map(|n| AppProfile::by_name(n).expect("known app"))
    .collect()
}

/// Single-core speedup of `r` over `base`.
pub fn speedup1(r: &SimReport, base: &SimReport) -> f64 {
    r.ipc[0] / base.ipc[0]
}

/// DRAM energy of `r` normalized to `base`.
pub fn energy_norm(r: &SimReport, base: &SimReport) -> f64 {
    r.energy.total_nj() / base.energy.total_nj()
}

/// One application alone on the baseline paper platform.
fn alone_run(app: &'static AppProfile, scale: Scale) -> Result<SimReport, CrowError> {
    run_job(
        SystemConfig::paper_default(Mechanism::Baseline),
        &[app],
        scale,
    )
}

/// An alone run's IPC as a weighted-speedup divisor: floored at 1e-9 so
/// a run that retired nothing cannot divide by zero. A failed run's NaN
/// passes through (`f64::max` would floor it too), so its mixes read NaN
/// instead of a speedup about 1e9 times too large.
fn alone_ipc(r: &SimReport) -> f64 {
    let ipc = r.ipc[0];
    if ipc < 1e-9 {
        1e-9
    } else {
        ipc
    }
}

/// Caches alone-run IPCs (baseline mechanism) for weighted-speedup
/// computations across many mixes.
#[derive(Debug, Default)]
pub struct AloneIpcCache {
    map: HashMap<&'static str, f64>,
}

impl AloneIpcCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The alone (single-core, baseline) IPC of `app`.
    pub fn get(&mut self, app: &'static AppProfile, scale: Scale) -> f64 {
        if let Some(&v) = self.map.get(app.name) {
            return v;
        }
        let v = alone_ipc(&alone_run(app, scale).unwrap_or_else(|_| failed_report()));
        self.map.insert(app.name, v);
        v
    }

    /// Pre-computes alone IPCs for many apps under `camp`'s supervision
    /// (one journaled job per app, id `alone/<app>`).
    pub fn prefill(&mut self, apps: &[&'static AppProfile], camp: &mut FigCampaign) {
        let missing: Vec<&'static AppProfile> = apps
            .iter()
            .filter(|a| !self.map.contains_key(a.name))
            .copied()
            .collect();
        let mut uniq: Vec<&'static AppProfile> = Vec::new();
        for a in missing {
            if !uniq.iter().any(|u| u.name == a.name) {
                uniq.push(a);
            }
        }
        let jobs: Vec<(String, &'static AppProfile)> = uniq
            .iter()
            .map(|a| (format!("alone/{}", a.name), *a))
            .collect();
        let reports = camp.run(jobs, |app, scale| alone_run(app, scale));
        for (app, r) in uniq.iter().zip(reports) {
            self.map.insert(app.name, alone_ipc(&r));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["app", "speedup"]);
        t.row(vec!["mcf", "1.10"]);
        t.row(vec!["libq", "1.02"]);
        let s = t.render();
        assert!(s.contains("app"));
        assert!(s.lines().count() == 4);
        let lens: Vec<usize> = s.lines().map(str::len).collect();
        assert_eq!(lens[0], lens[2], "columns aligned");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn table_rejects_bad_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn fig_apps_default_subset() {
        let apps = fig_apps();
        assert!(apps.len() >= 10);
        assert!(apps.iter().any(|a| a.name == "mcf"));
    }

    #[test]
    fn alone_ipc_floors_a_number_and_keeps_nan() {
        assert!(alone_ipc(&failed_report()).is_nan());
        let mut r = failed_report();
        r.ipc[0] = 0.0;
        assert_eq!(alone_ipc(&r), 1e-9);
        r.ipc[0] = 0.75;
        assert_eq!(alone_ipc(&r), 0.75);
    }

    #[test]
    fn alone_cache_reuses_runs() {
        let mut c = AloneIpcCache::new();
        let app = AppProfile::by_name("povray").unwrap();
        let a = c.get(app, Scale::tiny());
        let b = c.get(app, Scale::tiny());
        assert_eq!(a, b);
        assert!(a > 0.0);
    }
}
