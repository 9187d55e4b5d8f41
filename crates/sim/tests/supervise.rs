//! Chaos tests for process-isolated job execution: children that crash,
//! wedge, or bomb memory are hard-killed and surfaced as structured
//! errors, healthy jobs keep completing, circuit breakers quarantine
//! poison fingerprints, and the results that do land are byte-identical
//! to thread-mode execution.
//!
//! Every server here points `runner_exe` at the `job_runner` example
//! binary (a test binary's own `current_exe()` is the libtest harness,
//! which must never be re-exec'd).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crow_sim::server::{Reply, ServeConfig, Server};
use crow_sim::supervise::IsolationMode;
use crow_sim::Json;

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let d = std::env::temp_dir().join(format!(
        "crow-supervise-test-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The `job_runner` example binary, which cargo builds alongside the
/// test: `<target>/debug/deps/<test>` -> `<target>/debug/examples/job_runner`.
fn runner_exe() -> PathBuf {
    let mut p = std::env::current_exe().unwrap();
    p.pop();
    if p.ends_with("deps") {
        p.pop();
    }
    let exe = p.join("examples").join("job_runner");
    assert!(
        exe.exists(),
        "{} missing (cargo builds examples with tests)",
        exe.display()
    );
    exe
}

fn process_cfg(dir: &Path) -> ServeConfig {
    let mut cfg = ServeConfig::new(Some(dir.to_path_buf()));
    cfg.workers = 2;
    cfg.heartbeat = None;
    cfg.job_timeout = Some(Duration::from_secs(120));
    cfg.supervise.isolation = IsolationMode::Process;
    cfg.supervise.runner_exe = Some(runner_exe());
    cfg.allow_chaos = true;
    cfg
}

fn thread_cfg(dir: &Path) -> ServeConfig {
    let mut cfg = ServeConfig::new(Some(dir.to_path_buf()));
    cfg.workers = 2;
    cfg.heartbeat = None;
    cfg.job_timeout = Some(Duration::from_secs(120));
    cfg
}

fn job_line(id: &str, chaos: Option<&str>) -> String {
    let base = format!(
        "{{\"op\":\"sim\",\"id\":\"{id}\",\"apps\":[\"mcf\"],\"insts\":20000,\
         \"warmup\":1000,\"channels\":1,\"llc_mib\":1"
    );
    match chaos {
        Some(c) => format!("{base},\"chaos\":\"{c}\"}}"),
        None => format!("{base}}}"),
    }
}

/// Collects terminal events (`result`/`error`), stashing terminals for
/// other ids so concurrent completion order cannot hang a wait.
struct Terminals {
    rx: std::sync::mpsc::Receiver<String>,
    stash: std::collections::HashMap<String, Json>,
}

impl Terminals {
    fn new(rx: std::sync::mpsc::Receiver<String>) -> Self {
        Self {
            rx,
            stash: std::collections::HashMap::new(),
        }
    }

    fn wait(&mut self, id: &str) -> Json {
        if let Some(ev) = self.stash.remove(id) {
            return ev;
        }
        let deadline = Instant::now() + Duration::from_secs(120);
        while Instant::now() < deadline {
            let line = self
                .rx
                .recv_timeout(Duration::from_secs(120))
                .expect("an event before the deadline");
            let ev = Json::parse(&line).expect("valid event JSON");
            let kind = ev.get("event").and_then(Json::as_str);
            if kind != Some("result") && kind != Some("error") {
                continue;
            }
            let got = ev
                .get("id")
                .and_then(Json::as_str)
                .expect("terminal events carry an id")
                .to_owned();
            if got == id {
                return ev;
            }
            self.stash.insert(got, ev);
        }
        panic!("no terminal event for {id}");
    }
}

/// Render a report with the wall-clock fields removed: everything an
/// architectural simulation computes is deterministic, but how long it
/// took to compute is not.
fn deterministic_bytes(report: &Json) -> String {
    match report {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| k != "wall_seconds" && k != "sim_cycles_per_sec")
                .cloned()
                .collect(),
        )
        .render(),
        other => other.render(),
    }
}

fn stat(server: &Server, key: &str) -> u64 {
    server
        .stats_json()
        .get(key)
        .and_then(Json::as_u64)
        .expect("counter present")
}

fn sup_counter(server: &Server, key: &str) -> u64 {
    server
        .health_json()
        .get("counters")
        .and_then(|c| c.get(key))
        .and_then(Json::as_u64)
        .expect("health counter present")
}

fn live_children(server: &Server) -> u64 {
    server
        .health_json()
        .get("live_children")
        .and_then(Json::as_u64)
        .expect("live_children present")
}

#[test]
fn process_mode_matches_thread_mode_byte_for_byte() {
    // Thread mode first: the reference bytes.
    let tdir = temp_dir("parity-thread");
    let server = Server::new(thread_cfg(&tdir)).unwrap();
    let (reply, rx) = Reply::pair();
    let mut rx = Terminals::new(rx);
    server.handle_line(&job_line("ref", None), &reply);
    let reference = rx.wait("ref");
    assert_eq!(reference.get("event").unwrap().as_str(), Some("result"));
    let reference_report = deterministic_bytes(reference.get("report").unwrap());
    server.drain();

    // Process mode: same job, sandboxed child, identical report bytes.
    let pdir = temp_dir("parity-process");
    let server = Server::new(process_cfg(&pdir)).unwrap();
    let (reply, rx) = Reply::pair();
    let mut rx = Terminals::new(rx);
    server.handle_line(&job_line("iso", None), &reply);
    let iso = rx.wait("iso");
    assert_eq!(iso.get("event").unwrap().as_str(), Some("result"));
    assert_eq!(iso.get("outcome").unwrap().as_str(), Some("ok"));
    assert_eq!(iso.get("cached").unwrap().as_bool(), Some(false));
    assert_eq!(
        deterministic_bytes(iso.get("report").unwrap()),
        reference_report,
        "a sandboxed child computes the same bytes as an in-process thread"
    );
    let iso_report = iso.get("report").unwrap().render();
    assert_eq!(sup_counter(&server, "children_spawned"), 1);
    assert_eq!(live_children(&server), 0, "the child was reaped");
    assert!(
        stat(&server, "cycles_simulated") > 0,
        "cycles flow from the child report"
    );

    // A duplicate is a cache hit: no second child.
    server.handle_line(&job_line("iso-dup", None), &reply);
    let dup = rx.wait("iso-dup");
    assert_eq!(dup.get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(dup.get("report").unwrap().render(), iso_report);
    assert_eq!(sup_counter(&server, "children_spawned"), 1);
    let sum = server.drain();
    assert_eq!(sum.jobs_run, 1);
    assert_eq!(sum.killed_children, 0);
    std::fs::remove_dir_all(&tdir).ok();
    std::fs::remove_dir_all(&pdir).ok();
}

#[test]
fn crash_on_first_attempt_retries_and_dedups() {
    let dir = temp_dir("crash-first");
    let mut cfg = process_cfg(&dir);
    cfg.max_retries = 1;
    let server = Server::new(cfg).unwrap();
    let (reply, rx) = Reply::pair();
    let mut rx = Terminals::new(rx);
    server.handle_line(&job_line("cf", Some("crash-first")), &reply);
    let ev = rx.wait("cf");
    assert_eq!(ev.get("event").unwrap().as_str(), Some("result"));
    assert_eq!(
        ev.get("outcome").unwrap().as_str(),
        Some("degraded"),
        "the retry ran at the degraded rung"
    );
    assert_eq!(ev.get("attempts").unwrap().as_u64(), Some(2));
    let report = ev.get("report").unwrap().render();
    assert_eq!(sup_counter(&server, "children_spawned"), 2);
    assert_eq!(sup_counter(&server, "child_crashes"), 1);
    assert_eq!(sup_counter(&server, "child_retries"), 1);

    // The success journaled; a duplicate under a different id is served
    // from cache byte-identically, with no third child.
    server.handle_line(&job_line("cf-dup", Some("crash-first")), &reply);
    let dup = rx.wait("cf-dup");
    assert_eq!(dup.get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(dup.get("report").unwrap().render(), report);
    assert_eq!(sup_counter(&server, "children_spawned"), 2);
    server.drain();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wedged_child_is_deadline_killed_and_the_slot_refills() {
    let dir = temp_dir("wedge");
    let mut cfg = process_cfg(&dir);
    cfg.workers = 1;
    cfg.max_retries = 0;
    cfg.job_timeout = Some(Duration::from_millis(500));
    let server = Server::new(cfg).unwrap();
    let (reply, rx) = Reply::pair();
    let mut rx = Terminals::new(rx);
    server.handle_line(&job_line("stuck", Some("wedge")), &reply);
    let ev = rx.wait("stuck");
    assert_eq!(ev.get("event").unwrap().as_str(), Some("error"));
    assert_eq!(ev.get("code").unwrap().as_str(), Some("timeout"));
    let msg = ev.get("error").unwrap().as_str().unwrap().to_string();
    assert!(msg.contains("deadline"), "{msg}");
    assert_eq!(sup_counter(&server, "children_killed_deadline"), 1);
    assert_eq!(
        live_children(&server),
        0,
        "the wedged child is dead, not abandoned"
    );

    // The single worker slot is genuinely free again: a healthy job
    // completes on it.
    server.handle_line(&job_line("after", None), &reply);
    let ok = rx.wait("after");
    assert_eq!(ok.get("event").unwrap().as_str(), Some("result"));
    let sum = server.drain();
    assert_eq!(sum.killed_children, 1);
    assert_eq!(
        sum.abandoned_attempts, 0,
        "process mode abandons no threads"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn memory_bomb_is_rss_killed_with_a_structured_error() {
    let dir = temp_dir("bomb");
    let mut cfg = process_cfg(&dir);
    cfg.workers = 1;
    cfg.max_retries = 0;
    cfg.supervise.rss_cap = Some(64 << 20);
    // Deadline backstop in case RSS polling is unavailable on the host.
    cfg.job_timeout = Some(Duration::from_secs(30));
    let server = Server::new(cfg).unwrap();
    let (reply, rx) = Reply::pair();
    let mut rx = Terminals::new(rx);
    server.handle_line(&job_line("hog", Some("bomb")), &reply);
    let ev = rx.wait("hog");
    assert_eq!(ev.get("event").unwrap().as_str(), Some("error"));
    assert_eq!(ev.get("code").unwrap().as_str(), Some("resource-limit"));
    let msg = ev.get("error").unwrap().as_str().unwrap().to_string();
    assert!(
        msg.contains("resource-limit") && msg.contains("SIGKILL"),
        "{msg}"
    );
    assert_eq!(sup_counter(&server, "children_killed_rss"), 1);
    assert_eq!(live_children(&server), 0);
    let sum = server.drain();
    assert_eq!(sum.killed_children, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn externally_sigkilled_child_is_reported_as_a_crash() {
    let dir = temp_dir("sigkill");
    let mut cfg = process_cfg(&dir);
    cfg.workers = 1;
    cfg.max_retries = 0;
    let server = Server::new(cfg).unwrap();
    let (reply, rx) = Reply::pair();
    let mut rx = Terminals::new(rx);
    // A wedged child sticks around long enough to find and kill.
    server.handle_line(&job_line("victim", Some("wedge")), &reply);
    let deadline = Instant::now() + Duration::from_secs(30);
    let pid = loop {
        let h = server.health_json();
        let children = h.get("children").unwrap().as_arr().unwrap();
        if let Some(c) = children.first() {
            break c.get("pid").unwrap().as_u64().unwrap();
        }
        assert!(Instant::now() < deadline, "no child appeared in health");
        std::thread::sleep(Duration::from_millis(20));
    };
    let status = std::process::Command::new("sh")
        .arg("-c")
        .arg(format!("kill -9 {pid}"))
        .status()
        .unwrap();
    assert!(status.success(), "kill -9 {pid}");
    let ev = rx.wait("victim");
    assert_eq!(ev.get("event").unwrap().as_str(), Some("error"));
    assert_eq!(ev.get("code").unwrap().as_str(), Some("failed"));
    let msg = ev.get("error").unwrap().as_str().unwrap().to_string();
    assert!(msg.contains("crash"), "{msg}");
    assert_eq!(live_children(&server), 0, "the killed child was reaped");
    server.drain();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn breaker_opens_quarantines_duplicates_and_reprobes() {
    let dir = temp_dir("breaker");
    let mut cfg = process_cfg(&dir);
    cfg.workers = 1;
    cfg.max_retries = 3;
    cfg.supervise.breaker_k = 2;
    cfg.supervise.breaker_cooldown = Duration::from_millis(300);
    let server = Server::new(cfg).unwrap();
    let (reply, rx) = Reply::pair();
    let mut rx = Terminals::new(rx);

    // Two consecutive child crashes open the breaker mid-retry-ladder:
    // the job stops burning attempts the moment the fingerprint is
    // declared poison.
    server.handle_line(&job_line("poison", Some("crash")), &reply);
    let ev = rx.wait("poison");
    assert_eq!(ev.get("event").unwrap().as_str(), Some("error"));
    assert_eq!(ev.get("code").unwrap().as_str(), Some("failed"));
    let msg = ev.get("error").unwrap().as_str().unwrap().to_string();
    assert!(msg.contains("circuit breaker opened"), "{msg}");
    assert_eq!(
        sup_counter(&server, "children_spawned"),
        2,
        "the breaker stopped the ladder after K crashes, not after max_retries"
    );

    // Duplicates are quarantined without a single re-execution.
    server.handle_line(&job_line("poison-dup", Some("crash")), &reply);
    let dup = rx.wait("poison-dup");
    assert_eq!(dup.get("event").unwrap().as_str(), Some("error"));
    assert_eq!(dup.get("code").unwrap().as_str(), Some("quarantined"));
    let msg = dup.get("error").unwrap().as_str().unwrap().to_string();
    assert!(msg.contains("circuit breaker open"), "{msg}");
    assert_eq!(
        sup_counter(&server, "children_spawned"),
        2,
        "quarantine spawned nothing"
    );
    assert_eq!(stat(&server, "quarantined"), 1);
    let breakers = server.health_json();
    let breakers = breakers.get("breakers").unwrap().as_arr().unwrap();
    assert_eq!(breakers.len(), 1);
    assert_eq!(breakers[0].get("state").unwrap().as_str(), Some("open"));

    // A healthy, different fingerprint is unaffected by the open breaker.
    server.handle_line(&job_line("healthy", None), &reply);
    let ok = rx.wait("healthy");
    assert_eq!(ok.get("event").unwrap().as_str(), Some("result"));

    // Past the cooldown, one probe runs — and its crash re-opens the
    // breaker immediately (a single failure, not K again).
    std::thread::sleep(Duration::from_millis(350));
    server.handle_line(&job_line("probe", Some("crash")), &reply);
    let probe = rx.wait("probe");
    assert_eq!(probe.get("event").unwrap().as_str(), Some("error"));
    let msg = probe.get("error").unwrap().as_str().unwrap().to_string();
    assert!(msg.contains("circuit breaker opened"), "{msg}");
    server.handle_line(&job_line("still-poison", Some("crash")), &reply);
    let again = rx.wait("still-poison");
    assert_eq!(again.get("code").unwrap().as_str(), Some("quarantined"));
    let sum = server.drain();
    assert_eq!(sum.quarantined, 2);
    std::fs::remove_dir_all(&dir).ok();
}
