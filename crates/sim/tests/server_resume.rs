//! Resume and dedup semantics of the simulation service: duplicate
//! requests are answered from the journal with zero re-simulated
//! cycles, concurrent duplicates share one run, and a server restarted
//! over the same journal directory replies byte-identically without
//! re-running anything that was journaled.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use crow_sim::server::{Reply, ServeConfig, Server};
use crow_sim::Json;

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let d = std::env::temp_dir().join(format!(
        "crow-serve-test-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn serve_cfg(dir: &std::path::Path) -> ServeConfig {
    let mut cfg = ServeConfig::new(Some(dir.to_path_buf()));
    cfg.workers = 2;
    cfg.heartbeat = None;
    cfg.job_timeout = Some(Duration::from_secs(120));
    cfg
}

const JOB: &str = "{\"op\":\"sim\",\"id\":\"ID\",\"apps\":[\"mcf\"],\"insts\":20000,\
     \"warmup\":1000,\"channels\":1,\"llc_mib\":1}";

fn job_line(id: &str) -> String {
    JOB.replace("ID", id)
}

/// Collects terminal events (`result`/`error`) from a reply channel.
/// Concurrent jobs finish in any order, so terminals for other ids are
/// stashed instead of dropped — waiting for A then B cannot hang just
/// because B's event arrived first.
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
        let deadline = std::time::Instant::now() + Duration::from_secs(120);
        while std::time::Instant::now() < deadline {
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

fn stat(server: &Server, key: &str) -> u64 {
    server
        .stats_json()
        .get(key)
        .and_then(Json::as_u64)
        .expect("counter present")
}

#[test]
fn duplicates_and_restart_simulate_zero_cycles() {
    let dir = temp_dir("restart");

    // First server: run the job once, then serve a duplicate from cache.
    let server = Server::new(serve_cfg(&dir)).unwrap();
    let (reply, rx) = Reply::pair();
    let mut rx = Terminals::new(rx);
    server.handle_line(&job_line("first"), &reply);
    let fresh = rx.wait("first");
    assert_eq!(fresh.get("event").unwrap().as_str(), Some("result"));
    assert_eq!(fresh.get("cached").unwrap().as_bool(), Some(false));
    let fresh_report = fresh.get("report").unwrap().render();

    server.handle_line(&job_line("dup"), &reply);
    let dup = rx.wait("dup");
    assert_eq!(dup.get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(
        dup.get("report").unwrap().render(),
        fresh_report,
        "cached reply is byte-identical"
    );
    assert_eq!(stat(&server, "jobs_run"), 1, "the duplicate did not run");
    assert_eq!(stat(&server, "cache_hits"), 1);
    let cycles_after_first = stat(&server, "cycles_simulated");
    assert!(cycles_after_first > 0);
    let sum = server.drain();
    assert_eq!(sum.jobs_run, 1);
    assert_eq!(sum.abandoned, 0);

    // Restarted server over the same journal: the same request must be
    // answered byte-identically with zero simulated cycles.
    let server = Server::new(serve_cfg(&dir)).unwrap();
    let (reply, rx) = Reply::pair();
    let mut rx = Terminals::new(rx);
    server.handle_line(&job_line("after-restart"), &reply);
    let restored = rx.wait("after-restart");
    assert_eq!(restored.get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(restored.get("report").unwrap().render(), fresh_report);
    assert_eq!(stat(&server, "jobs_run"), 0, "nothing re-ran after restart");
    assert_eq!(stat(&server, "cycles_simulated"), 0);
    server.drain();
    std::fs::remove_dir_all(&dir).ok();
}

/// A journal, its requests and the cached replies, all written by an
/// earlier build of the service: a server over that journal answers
/// every request from it byte for byte and re-runs nothing.
#[test]
fn earlier_build_journal_answers_byte_identically() {
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/serve");
    let read = |f: &str| std::fs::read_to_string(fixture.join(f)).expect("fixture file");
    let dir = temp_dir("fixture");
    std::fs::write(dir.join("serve.jsonl"), read("serve.jsonl")).unwrap();
    let server = Server::new(serve_cfg(&dir)).unwrap();
    let (reply, rx) = Reply::pair();
    let mut rx = Terminals::new(rx);
    for line in read("requests.jsonl").lines() {
        server.handle_line(line, &reply);
    }
    let replies = read("replies.jsonl");
    for want in replies.lines() {
        let doc = Json::parse(want).unwrap();
        let id = doc.get("id").and_then(Json::as_str).unwrap();
        assert_eq!(rx.wait(id).render(), want, "reply to {id}");
    }
    assert_eq!(stat(&server, "jobs_run"), 0, "nothing re-ran");
    assert_eq!(stat(&server, "cache_hits"), replies.lines().count() as u64);
    server.drain();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_duplicates_share_one_run() {
    let dir = temp_dir("inflight");
    let server = Server::new(serve_cfg(&dir)).unwrap();
    let (reply, rx) = Reply::pair();
    let mut rx = Terminals::new(rx);
    // Submit the same simulation four times back-to-back; with two
    // workers at least two are in the system concurrently. The
    // in-flight gate must collapse them onto a single run.
    for i in 0..4 {
        server.handle_line(&job_line(&format!("dup-{i}")), &reply);
    }
    let mut reports = Vec::new();
    for i in 0..4 {
        let ev = rx.wait(&format!("dup-{i}"));
        assert_eq!(ev.get("event").unwrap().as_str(), Some("result"));
        reports.push(ev.get("report").unwrap().render());
    }
    assert!(
        reports.windows(2).all(|w| w[0] == w[1]),
        "every duplicate sees the same bytes"
    );
    assert_eq!(stat(&server, "jobs_run"), 1, "one simulation for four ids");
    assert_eq!(stat(&server, "cache_hits"), 3);
    let sum = server.drain();
    assert_eq!(sum.jobs_run, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn distinct_jobs_do_not_dedup() {
    let dir = temp_dir("distinct");
    let server = Server::new(serve_cfg(&dir)).unwrap();
    let (reply, rx) = Reply::pair();
    let mut rx = Terminals::new(rx);
    server.handle_line(&job_line("seed-a"), &reply);
    server.handle_line(
        &job_line("seed-b").replace("\"llc_mib\":1", "\"llc_mib\":2"),
        &reply,
    );
    let a = rx.wait("seed-a");
    let b = rx.wait("seed-b");
    assert_eq!(a.get("event").unwrap().as_str(), Some("result"));
    assert_eq!(b.get("event").unwrap().as_str(), Some("result"));
    assert_ne!(
        a.get("report").unwrap().render(),
        b.get("report").unwrap().render(),
        "different configs produce different results"
    );
    assert_eq!(stat(&server, "jobs_run"), 2);
    assert_eq!(stat(&server, "cache_hits"), 0);
    server.drain();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_jobs_are_cached_as_failures() {
    let dir = temp_dir("fail");
    let mut cfg = serve_cfg(&dir);
    cfg.max_retries = 0;
    // An impossible per-attempt deadline forces a timeout outcome.
    cfg.job_timeout = Some(Duration::from_millis(1));
    let server = Server::new(cfg).unwrap();
    let (reply, rx) = Reply::pair();
    let mut rx = Terminals::new(rx);
    server.handle_line(&job_line("doomed"), &reply);
    let ev = rx.wait("doomed");
    assert_eq!(ev.get("event").unwrap().as_str(), Some("error"));
    assert_eq!(ev.get("code").unwrap().as_str(), Some("timeout"));
    // The failure is journaled too: a duplicate is answered from the
    // journal instead of burning another attempt.
    server.handle_line(&job_line("doomed-again"), &reply);
    let again = rx.wait("doomed-again");
    assert_eq!(again.get("event").unwrap().as_str(), Some("error"));
    assert_eq!(stat(&server, "jobs_run"), 1);
    assert_eq!(stat(&server, "cache_hits"), 1);
    server.drain();
    std::fs::remove_dir_all(&dir).ok();
}
