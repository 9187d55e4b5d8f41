//! Simulated results pinned to committed bytes.
//!
//! Both engines share the core model, and the fixture journals are only
//! ever restored, so the equivalence tests cannot notice a change that
//! moves every engine's results together. This test can: it re-runs four
//! fixed configurations and compares each report's journal encoding with
//! `fixtures/pinned/reports.jsonl`, one report per line. The wall-clock
//! fields and the scheduler work counters are left out, by the same rule
//! as `engine_equivalence.rs`'s `normalize`.
//!
//! The fixture records the simulator's results and must not be
//! regenerated to make this test pass. On a mismatch the actual lines are
//! written next to the test binary's scratch files for inspection.

use crow_mem::SchedImpl;
use crow_sim::{Engine, Journaled, Json, Mechanism, SamplePlan, System, SystemConfig};
use crow_workloads::{mixes_for_group, AppProfile, MixGroup};

const FIXTURE: &str = include_str!("fixtures/pinned/reports.jsonl");

/// Fields outside the pin: wall-clock measurements and scheduler work.
const UNPINNED: [&str; 3] = ["wall_seconds", "sim_cycles_per_sec", "sched"];

fn app(name: &str) -> &'static AppProfile {
    AppProfile::by_name(name).unwrap()
}

/// Instructions per core of the full-detail runs, and of their
/// functional warmup.
const INSTS: u64 = 250_000;
const WARMUP: u64 = 50_000;

/// The small test platform with everything the environment could change
/// set explicitly.
fn config(mechanism: Mechanism) -> SystemConfig {
    let mut cfg = SystemConfig::quick_test(mechanism);
    cfg.cpu.target_insts = INSTS;
    cfg.engine = Engine::EventDriven;
    cfg.mc.sched_impl = SchedImpl::Indexed;
    cfg.validate_protocol = false;
    cfg
}

/// One report's encoding with the unpinned fields removed.
fn pinned_line(cfg: SystemConfig, apps: &[&AppProfile]) -> String {
    let mut sys = System::new(cfg, apps);
    sys.warm(WARMUP);
    // Far beyond every run here: a core model that never reaches its
    // target fails instead of hanging.
    let r = sys.run(50_000_000);
    assert!(r.finished);
    if let Some(s) = &r.samples {
        assert!(s.windows >= 2, "a sampled run must span two windows");
    }
    let Json::Obj(mut fields) = r.encode() else {
        panic!("a report encodes as an object")
    };
    fields.retain(|(k, _)| !UNPINNED.contains(&k.as_str()));
    Json::Obj(fields).render()
}

fn actual_lines() -> Vec<(&'static str, String)> {
    let llmm = mixes_for_group(MixGroup::Llmm, 1, 1)[0];
    let mut sampled = config(Mechanism::crow_cache(8));
    sampled.sample = Some(SamplePlan::default_profile());
    sampled.cpu.target_insts = 2 * SamplePlan::default_profile().interval_insts();
    vec![
        (
            "mcf/Baseline",
            pinned_line(config(Mechanism::Baseline), &[app("mcf")]),
        ),
        (
            "omnetpp/CROW-8",
            pinned_line(config(Mechanism::crow_cache(8)), &[app("omnetpp")]),
        ),
        (
            "LLMM mix/CROW-8",
            pinned_line(config(Mechanism::crow_cache(8)), &llmm),
        ),
        ("sampled libq/CROW-8", pinned_line(sampled, &[app("libq")])),
    ]
}

#[test]
fn reports_match_the_pinned_fixture() {
    let actual = actual_lines();
    let pinned: Vec<&str> = FIXTURE.lines().collect();
    let mismatched: Vec<&str> = actual
        .iter()
        .enumerate()
        .filter(|(i, (_, line))| pinned.get(*i) != Some(&line.as_str()))
        .map(|(_, (label, _))| *label)
        .collect();
    if mismatched.is_empty() && pinned.len() == actual.len() {
        return;
    }
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("pinned_reports.jsonl");
    let text: String = actual.iter().map(|(_, l)| format!("{l}\n")).collect();
    std::fs::write(&out, text).unwrap();
    panic!(
        "reports moved from the pinned fixture ({} pinned, {} run); mismatched: {mismatched:?}; \
         actual lines written to {}",
        pinned.len(),
        actual.len(),
        out.display()
    );
}
