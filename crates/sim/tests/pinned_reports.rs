//! Simulated results pinned to committed bytes.
//!
//! Both engines share the core model, and the fixture journals are only
//! ever restored, so the equivalence tests cannot notice a change that
//! moves every engine's results together. This test can: it re-runs eight
//! fixed configurations and compares each report's journal encoding with
//! `fixtures/pinned/reports.jsonl`, one report per line. The last four
//! reach controller paths the first four do not: per-bank refresh with
//! several open rows to drain (SALP-8, open page) and with the TRR
//! flush, CROW-ref's longer refresh interval, and the sampling
//! fast-forward's replay into the data-integrity oracle. The wall-clock
//! fields and the scheduler work counters are left out, by the same rule
//! as `engine_equivalence.rs`'s `normalize`.
//!
//! The scheduler work counters (`sched`) are pinned on their own, in
//! `fixtures/pinned/sched.jsonl`. They differ between scheduler
//! implementations, but for this one fixed engine and scheduler they
//! record when each controller ticked: a real tick scans and picks, a
//! skipped one with requests queued counts a wakeup skip. So an engine
//! change that moves a controller tick without moving any result fails
//! here rather than only in the benchmark's digest.
//!
//! `reports.jsonl` records the simulator's results and must not be
//! regenerated to make this test pass. `sched.jsonl` records scheduler
//! work, not results: only a change that sets out to alter that work
//! (and leaves `reports.jsonl` matching) regenerates it, and says so. On
//! a mismatch the actual lines are written next to the test binary's
//! scratch files for inspection.

use crow_mem::SchedImpl;
use crow_sim::{Engine, Journaled, Json, Mechanism, SamplePlan, System, SystemConfig};
use crow_workloads::{mixes_for_group, AppProfile, MixGroup};
use std::sync::OnceLock;

const REPORTS: &str = include_str!("fixtures/pinned/reports.jsonl");
const SCHED: &str = include_str!("fixtures/pinned/sched.jsonl");

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

/// One pinned run: its label, the report's encoding without the
/// unpinned fields, and the encoding of its `sched` counters.
struct Pinned {
    label: &'static str,
    report: String,
    sched: String,
}

/// Runs one configuration and encodes its pinned fields.
fn pinned(label: &'static str, cfg: SystemConfig, apps: &[&AppProfile]) -> Pinned {
    let oracle = cfg.oracle;
    let mut sys = System::new(cfg, apps);
    sys.warm(WARMUP);
    // Far beyond every run here: a core model that never reaches its
    // target fails instead of hanging.
    let r = sys.run(50_000_000);
    assert!(r.finished);
    if oracle {
        let reads = |mc: &crow_mem::MemController| mc.channel().oracle().map_or(0, |o| o.reads());
        assert!(
            sys.controllers().iter().all(|mc| reads(mc) > 0),
            "{label}: oracle saw no reads"
        );
        sys.assert_data_integrity();
    }
    if let Some(s) = &r.samples {
        assert!(s.windows >= 2, "a sampled run must span two windows");
    }
    let Json::Obj(mut fields) = r.encode() else {
        panic!("a report encodes as an object")
    };
    let sched = fields
        .iter()
        .find(|(k, _)| k == "sched")
        .map(|(_, v)| v.render())
        .expect("a report encodes its sched counters");
    fields.retain(|(k, _)| !UNPINNED.contains(&k.as_str()));
    Pinned {
        label,
        report: Json::Obj(fields).render(),
        sched,
    }
}

/// The pinned runs, shared by both tests.
fn runs() -> &'static [Pinned] {
    static RUNS: OnceLock<Vec<Pinned>> = OnceLock::new();
    RUNS.get_or_init(run_all)
}

fn run_all() -> Vec<Pinned> {
    let llmm = mixes_for_group(MixGroup::Llmm, 1, 1)[0];
    let sampled = || {
        let mut cfg = config(Mechanism::crow_cache(8));
        cfg.sample = Some(SamplePlan::default_profile());
        cfg.cpu.target_insts = 2 * SamplePlan::default_profile().interval_insts();
        cfg
    };
    let per_bank = |mechanism| {
        let mut cfg = config(mechanism);
        cfg.mc.per_bank_refresh = true;
        cfg
    };
    let mut sampled_oracle = sampled();
    sampled_oracle.oracle = true;
    let salp_open = Mechanism::Salp {
        subarrays: 8,
        open_page: true,
    };
    vec![
        pinned("mcf/Baseline", config(Mechanism::Baseline), &[app("mcf")]),
        pinned(
            "omnetpp/CROW-8",
            config(Mechanism::crow_cache(8)),
            &[app("omnetpp")],
        ),
        pinned("LLMM mix/CROW-8", config(Mechanism::crow_cache(8)), &llmm),
        pinned("sampled libq/CROW-8", sampled(), &[app("libq")]),
        pinned(
            "mcf/SALP-8-O/per-bank refresh",
            per_bank(salp_open),
            &[app("mcf")],
        ),
        // A threshold low enough that the per-bank flushes queue
        // neighbour refreshes.
        pinned(
            "mcf/TRR-4/per-bank refresh",
            per_bank(Mechanism::Trr {
                entries: 16,
                threshold: 4,
            }),
            &[app("mcf")],
        ),
        pinned(
            "mcf/CROW-8+ref",
            config(Mechanism::crow_combined()),
            &[app("mcf")],
        ),
        pinned("sampled mcf/CROW-8/oracle", sampled_oracle, &[app("mcf")]),
    ]
}

/// Compares one line per run with `fixture`; on a mismatch writes the
/// actual lines to `name` in the scratch directory and panics.
fn assert_matches(fixture: &str, name: &str, line: fn(&Pinned) -> &str) {
    let actual = runs();
    let pinned: Vec<&str> = fixture.lines().collect();
    let mismatched: Vec<&str> = actual
        .iter()
        .enumerate()
        .filter(|(i, run)| pinned.get(*i) != Some(&line(run)))
        .map(|(_, run)| run.label)
        .collect();
    if mismatched.is_empty() && pinned.len() == actual.len() {
        return;
    }
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let text: String = actual
        .iter()
        .map(|run| format!("{}\n", line(run)))
        .collect();
    std::fs::write(&out, text).unwrap();
    panic!(
        "runs moved from the pinned {name} ({} pinned, {} run); mismatched: {mismatched:?}; \
         actual lines written to {}",
        pinned.len(),
        actual.len(),
        out.display()
    );
}

#[test]
fn reports_match_the_pinned_fixture() {
    assert_matches(REPORTS, "reports.jsonl", |run| &run.report);
}

#[test]
fn controller_tick_schedule_matches_the_pinned_fixture() {
    assert_matches(SCHED, "sched.jsonl", |run| &run.sched);
}
