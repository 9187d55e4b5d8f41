//! Kill-and-resume integration test for the supervised campaign layer.
//!
//! Drives the `campaign_selftest` binary as a real subprocess: a run
//! killed mid-campaign leaves a partial journal; the resumed run must
//! re-run only the missing jobs and reproduce the uninterrupted run's
//! figure JSON byte-for-byte.

use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_campaign_selftest");

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("crow-campaign-{tag}-{}", std::process::id()))
}

fn selftest(dir: &Path, extra: &[&str]) -> std::process::Output {
    Command::new(BIN)
        .arg("--dir")
        .arg(dir)
        .args(extra)
        .output()
        .expect("spawn campaign_selftest")
}

#[test]
fn kill_and_resume_matches_uninterrupted_run() {
    let clean = tmp("clean");
    let crashed = tmp("crashed");
    for d in [&clean, &crashed] {
        std::fs::remove_dir_all(d).ok();
    }

    // Uninterrupted reference run: all nine jobs run fresh.
    let out = selftest(&clean, &["--expect-fresh", "9", "--expect-restored", "0"]);
    assert!(
        out.status.success(),
        "clean run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let reference = std::fs::read(clean.join("selftest.json")).expect("clean selftest.json");

    // Crash mid-campaign: the kill job exits 9 after three compute jobs
    // have been journaled.
    let out = selftest(&crashed, &["--kill-after", "3"]);
    assert_eq!(
        out.status.code(),
        Some(9),
        "kill job must abort the process"
    );
    assert!(
        !crashed.join("selftest.json").exists(),
        "crashed run must not have written figure JSON"
    );
    let journal = std::fs::read_to_string(crashed.join("selftest-sim.jsonl"))
        .expect("partial journal survives the crash");
    assert_eq!(
        journal.lines().count(),
        3,
        "three jobs journaled before the kill"
    );

    // Resume: exactly the three journaled jobs are restored, the other
    // six (five sim + one wedge) run fresh.
    let out = selftest(
        &crashed,
        &["--resume", "--expect-restored", "3", "--expect-fresh", "6"],
    );
    assert!(
        out.status.success(),
        "resume run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let resumed = std::fs::read(crashed.join("selftest.json")).expect("resumed selftest.json");
    assert_eq!(
        reference, resumed,
        "resumed figure JSON must be byte-identical to the uninterrupted run"
    );

    // A second resume restores everything -- zero re-runs.
    let out = selftest(
        &crashed,
        &["--resume", "--expect-restored", "9", "--expect-fresh", "0"],
    );
    assert!(
        out.status.success(),
        "full-journal resume failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let resumed = std::fs::read(crashed.join("selftest.json")).expect("resumed selftest.json");
    assert_eq!(
        reference, resumed,
        "zero-re-run resume must not change the JSON"
    );

    for d in [&clean, &crashed] {
        std::fs::remove_dir_all(d).ok();
    }
}

/// Journals written by an earlier build of the campaign layer, with
/// that build's figure JSON: resuming them re-runs nothing and
/// reproduces the JSON byte for byte.
#[test]
fn earlier_build_journal_resumes_with_zero_reruns() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/campaign");
    let dir = tmp("fixture");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    for f in ["selftest-sim.jsonl", "selftest-wedge.jsonl"] {
        std::fs::copy(fixture.join(f), dir.join(f)).expect("fixture journal");
    }
    let out = selftest(
        &dir,
        &["--resume", "--expect-restored", "9", "--expect-fresh", "0"],
    );
    assert!(
        out.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(dir.join("selftest.json")).unwrap(),
        std::fs::read(fixture.join("selftest.json")).unwrap(),
        "the resumed figure JSON matches the earlier build's"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn panics_and_timeouts_are_recorded_outcomes() {
    let dir = tmp("taxonomy");
    std::fs::remove_dir_all(&dir).ok();

    let out = selftest(&dir, &[]);
    assert!(
        out.status.success(),
        "selftest failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(dir.join("selftest.json")).expect("selftest.json");
    let doc = crow_sim::Json::parse(&text).expect("figure JSON parses");

    let outcomes = doc.get("outcomes").expect("outcomes object");
    let count = |k: &str| outcomes.get(k).and_then(crow_sim::Json::as_u64).unwrap();
    assert_eq!(count("ok"), 6, "six compute jobs succeed");
    assert_eq!(
        count("degraded"),
        1,
        "flaky job completes at degraded scale"
    );
    assert_eq!(count("panicked"), 1, "panicking job is isolated, not fatal");
    assert_eq!(count("timed_out"), 1, "wedged job hits the deadline");
    assert_eq!(count("retries"), 2, "panic retry + flaky degrade retry");

    // Per-job kinds carry through to the figure data.
    let jobs = match doc.get("jobs") {
        Some(crow_sim::Json::Arr(v)) => v,
        other => panic!("jobs array missing: {other:?}"),
    };
    let kind_of = |frag: &str| {
        jobs.iter()
            .find(|j| {
                j.get("fp")
                    .and_then(crow_sim::Json::as_str)
                    .unwrap()
                    .starts_with(frag)
            })
            .and_then(|j| j.get("kind"))
            .and_then(crow_sim::Json::as_str)
            .unwrap()
            .to_string()
    };
    assert_eq!(kind_of("panic@"), "panicked");
    assert_eq!(kind_of("flaky@"), "degraded");
    assert_eq!(kind_of("wedge@"), "timed_out");

    std::fs::remove_dir_all(&dir).ok();
}
