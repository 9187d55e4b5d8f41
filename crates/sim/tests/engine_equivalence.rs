//! The event-driven engine must be an *exact* optimization: for any
//! workload and mechanism, it produces a bit-identical [`SimReport`] to
//! the naive cycle-by-cycle stepper — only wall-clock fields (and the
//! scheduler diagnostics, which count implementation work rather than
//! architectural events) may differ.
//!
//! The same contract covers the indexed scheduler: every test runs the
//! full engine × scheduler-implementation matrix, so four configurations
//! must agree bit-for-bit, not two.

use crow_mem::SchedImpl;
use crow_sim::{Engine, FaultPlan, Mechanism, SamplePlan, System, SystemConfig};
use crow_workloads::AppProfile;

/// The engine × scheduler-implementation matrix every equivalence test
/// sweeps. The first entry is the reference everything else is
/// compared against.
const MATRIX: [(Engine, SchedImpl); 4] = [
    (Engine::Naive, SchedImpl::Linear),
    (Engine::Naive, SchedImpl::Indexed),
    (Engine::EventDriven, SchedImpl::Linear),
    (Engine::EventDriven, SchedImpl::Indexed),
];

/// Zeroes the fields excluded from the equivalence contract: wall-clock
/// measurements and the scheduler work counters (the whole point of the
/// indexed path is that those differ).
fn normalize(r: &mut crow_sim::SimReport) {
    r.wall_seconds = 0.0;
    r.sim_cycles_per_sec = 0.0;
    r.sched = Default::default();
}

/// Runs one configuration under the full matrix on `channels` memory
/// channels and compares the reports (normalized) against the
/// naive/linear reference.
fn assert_equivalent_on(channels: u32, mechanism: Mechanism, apps: &[&str], vrt: Option<u64>) {
    let profiles: Vec<&AppProfile> = apps
        .iter()
        .map(|n| AppProfile::by_name(n).unwrap())
        .collect();
    let mut reports = Vec::new();
    for (engine, sched_impl) in MATRIX {
        let mut cfg = SystemConfig::quick_test(mechanism);
        cfg.channels = channels;
        cfg.engine = engine;
        cfg.mc.sched_impl = sched_impl;
        cfg.vrt_interval_cycles = vrt;
        let mut sys = System::new(cfg, &profiles);
        let mut r = sys.run(2_000_000);
        normalize(&mut r);
        reports.push(r);
    }
    for (i, r) in reports.iter().enumerate().skip(1) {
        assert_eq!(
            format!("{:?}", reports[0]),
            format!("{r:?}"),
            "{:?} diverged from {:?} for {mechanism:?} on {apps:?} ({channels} ch)",
            MATRIX[i],
            MATRIX[0],
        );
    }
}

/// [`assert_equivalent_on`] for one application on one channel.
fn assert_equivalent(mechanism: Mechanism, app: &str, vrt: Option<u64>) {
    assert_equivalent_on(1, mechanism, &[app], vrt);
}

#[test]
fn baseline_mcf_matches() {
    assert_equivalent(Mechanism::Baseline, "mcf", None);
}

#[test]
fn baseline_low_mpki_matches() {
    assert_equivalent(Mechanism::Baseline, "povray", None);
}

#[test]
fn crow_cache_mcf_matches() {
    assert_equivalent(Mechanism::crow_cache(8), "mcf", None);
}

#[test]
fn crow_cache_low_mpki_matches() {
    assert_equivalent(Mechanism::crow_cache(8), "povray", None);
}

#[test]
fn crow_combined_with_vrt_matches() {
    // VRT injections are scheduled by CPU-cycle count, so the skipper
    // must stop exactly at each injection boundary.
    assert_equivalent(Mechanism::crow_combined(), "libq", Some(100_000));
}

#[test]
fn fault_plan_under_both_engines_matches() {
    // Bus drops and VRT remaps share one CPU-cycle schedule, so all
    // four configurations must apply the exact same injections —
    // including the validator's violation count and both fault
    // counters — and produce bit-identical reports.
    let profile = AppProfile::by_name("mcf").unwrap();
    let mut reports = Vec::new();
    for (engine, sched_impl) in MATRIX {
        let mut cfg = SystemConfig::quick_test(Mechanism::crow_cache(8));
        cfg.engine = engine;
        cfg.mc.sched_impl = sched_impl;
        cfg.validate_protocol = true;
        cfg.fault_plan = Some(FaultPlan {
            drop_interval: 10_000,
        });
        cfg.vrt_interval_cycles = Some(40_000);
        let mut sys = System::new(cfg, &[profile]);
        let mut r = sys.run(2_000_000);
        normalize(&mut r);
        reports.push(r);
    }
    for (i, r) in reports.iter().enumerate().skip(1) {
        assert_eq!(
            format!("{:?}", reports[0]),
            format!("{r:?}"),
            "{:?} diverged under an active fault plan",
            MATRIX[i],
        );
    }
    let f = reports[0].faults;
    assert!(
        f.vrt_injected > 0 && f.drops_injected > 0,
        "both injectors must fire: {f:?}"
    );
    assert!(reports[0].mc.bus_drops > 0, "drops must cost real slots");
    assert_eq!(reports[0].violations, 0, "faults must not break protocol");
}

#[test]
fn crow8_validated_run_is_violation_free_on_both_engines() {
    // Acceptance: a full CROW-8 run with the shadow validator attached
    // reports zero protocol violations on every engine × scheduler
    // combination.
    let profile = AppProfile::by_name("mcf").unwrap();
    for (engine, sched_impl) in MATRIX {
        let mut cfg = SystemConfig::quick_test(Mechanism::crow_cache(8));
        cfg.engine = engine;
        cfg.mc.sched_impl = sched_impl;
        cfg.validate_protocol = true;
        let mut sys = System::new(cfg, &[profile]);
        let r = sys
            .run_checked(30_000_000)
            .unwrap_or_else(|e| panic!("{engine:?}/{sched_impl:?}: {e}"));
        assert!(r.finished, "{engine:?}/{sched_impl:?} did not finish");
        assert_eq!(r.violations, 0);
        let observed: u64 = sys
            .controllers()
            .iter()
            .map(|mc| mc.channel().validator().expect("attached").observed())
            .sum();
        assert!(
            observed > 0,
            "{engine:?}/{sched_impl:?}: validator saw no commands"
        );
    }
}

#[test]
fn four_channel_baseline_mcf_matches() {
    assert_equivalent_on(4, Mechanism::Baseline, &["mcf"], None);
}

#[test]
fn four_channel_crow_cache_multicore_mix_matches() {
    assert_equivalent_on(
        4,
        Mechanism::crow_cache(8),
        &["mcf", "povray", "libq", "gcc"],
        None,
    );
}

#[test]
fn four_channel_with_vrt_matches() {
    // VRT injections land on CPU-cycle boundaries and rotate across
    // channels, so the skipper must stop exactly at each one.
    assert_equivalent_on(4, Mechanism::crow_combined(), &["libq"], Some(100_000));
}

#[test]
fn random_driver_lockstep_fuzz() {
    // The `random` microbenchmark is the adversarial input for the
    // event engine and the indexed scheduler: uniformly random lines
    // keep every channel's queues churning. Run it with the shadow
    // validator attached across several seeds and demand bit-identical
    // checked reports from every matrix cell.
    let profile = AppProfile::by_name("random").unwrap();
    for seed in [0xC401u64, 0xC402, 0xC403] {
        let run = |(engine, sched_impl): (Engine, SchedImpl)| {
            let mut cfg = SystemConfig::quick_test(Mechanism::crow_cache(8));
            cfg.channels = 4;
            cfg.seed = seed;
            cfg.engine = engine;
            cfg.mc.sched_impl = sched_impl;
            cfg.validate_protocol = true;
            let mut sys = System::new(cfg, &[profile, profile]);
            let mut r = sys
                .run_checked(2_000_000)
                .unwrap_or_else(|e| panic!("seed {seed:#x} {engine:?}/{sched_impl:?}: {e}"));
            assert_eq!(r.violations, 0, "seed {seed:#x} {engine:?}/{sched_impl:?}");
            normalize(&mut r);
            format!("{r:?}")
        };
        let reference = run(MATRIX[0]);
        for cell in &MATRIX[1..] {
            assert_eq!(
                reference,
                run(*cell),
                "random-driver fuzz diverged at seed {seed:#x} under {cell:?}",
            );
        }
    }
}

#[test]
fn multicore_mix_matches() {
    let apps: Vec<&AppProfile> = ["mcf", "povray", "libq", "gcc"]
        .iter()
        .map(|n| AppProfile::by_name(n).unwrap())
        .collect();
    let mut reports = Vec::new();
    for (engine, sched_impl) in MATRIX {
        let mut cfg = SystemConfig::quick_test(Mechanism::crow_cache(8));
        cfg.engine = engine;
        cfg.mc.sched_impl = sched_impl;
        let mut sys = System::new(cfg, &apps);
        let mut r = sys.run(2_000_000);
        normalize(&mut r);
        reports.push(r);
    }
    for (i, r) in reports.iter().enumerate().skip(1) {
        assert_eq!(
            format!("{:?}", reports[0]),
            format!("{r:?}"),
            "{:?} diverged in the multicore mix",
            MATRIX[i],
        );
    }
}

/// How much of a run the event-driven engine stepped, on the paper
/// platform (4 channels, 8 MiB LLC) after a functional warmup: the
/// share of CPU cycles that ran `CpuCluster::cycle`
/// (`System::stepped_cycles`), and the share of the core-cycles in those
/// cycles that ran a core's step (`System::stepped_core_cycles`).
fn stepped_share(mechanism: Mechanism, apps: &[&AppProfile], insts: u64) -> (f64, f64) {
    let mut cfg = SystemConfig::paper_default(mechanism).with_llc_bytes(8 << 20);
    cfg.engine = Engine::EventDriven;
    cfg.mc.sched_impl = SchedImpl::Indexed;
    cfg.cpu.target_insts = insts;
    let mut sys = System::new(cfg, apps);
    sys.warm(50_000);
    // Far beyond either run: an engine that loses a completion fails
    // here instead of hanging.
    let r = sys.run(50_000_000);
    assert!(r.finished);
    let stepped = sys.stepped_cycles() as f64;
    (
        stepped / r.cpu_cycles as f64,
        sys.stepped_core_cycles() as f64 / (apps.len() as f64 * stepped),
    )
}

#[test]
fn stepped_cycle_share_stays_bounded() {
    // Counters, not wall-clock: the share of cycles in which the
    // cluster ran `CpuCluster::cycle` instead of a closed-form replay.
    // The controllers tick on their own through an inert stretch, and
    // the cluster steps only in a cycle whose tick delivers a
    // completion: omnetpp steps 4.45% of its cycles and the LLMM mix
    // 5.30%. An engine that steps the cluster in every cycle with a due
    // memory tick steps 10.0% and 11.6%, and a core model that demands
    // the whole window ready 22.7% and 42.6%. The bounds leave between
    // two and three points of margin.
    let (omnetpp, _) = stepped_share(
        Mechanism::Baseline,
        &[AppProfile::by_name("omnetpp").unwrap()],
        200_000,
    );
    assert!(omnetpp < 0.07, "omnetpp stepped {omnetpp:.4} of its cycles");
    let llmm = crow_workloads::mixes_for_group(crow_workloads::MixGroup::Llmm, 1, 1)[0];
    let (mix, cores) = stepped_share(Mechanism::crow_cache(8), &llmm, 100_000);
    assert!(mix < 0.08, "the LLMM mix stepped {mix:.4} of its cycles");
    // Inside a stepped cycle, a core that is itself inert is skipped:
    // the LLMM mix runs 25.6% of the core-cycles in its stepped cycles.
    // A cluster that steps every core in every stepped cycle runs all
    // of them.
    assert!(
        cores <= 0.35,
        "the LLMM mix stepped {cores:.4} of the core-cycles in its stepped cycles"
    );
}

/// Runs `apps` under every matrix cell with the cycle cap `cap` and
/// compares the normalized reports; returns the reference report.
fn assert_capped_equivalent(
    cfg: &SystemConfig,
    apps: &[&AppProfile],
    cap: u64,
) -> crow_sim::SimReport {
    let run = |(engine, sched_impl): (Engine, SchedImpl)| {
        let mut cfg = cfg.clone();
        cfg.engine = engine;
        cfg.mc.sched_impl = sched_impl;
        let mut sys = System::new(cfg, apps);
        let mut r = sys.run(cap);
        normalize(&mut r);
        r
    };
    let reference = run(MATRIX[0]);
    for cell in &MATRIX[1..] {
        assert_eq!(
            format!("{reference:?}"),
            format!("{:?}", run(*cell)),
            "{cell:?} diverged from {:?} at cap {cap}",
            MATRIX[0],
        );
    }
    reference
}

#[test]
fn runs_stopped_by_the_cycle_cap_match() {
    // A run the cap stops leaves cores mid-stretch and controllers idle
    // since their last tick; the report must still see them at the cap.
    let llmm = crow_workloads::mixes_for_group(crow_workloads::MixGroup::Llmm, 1, 1)[0];
    let mut cfg = SystemConfig::quick_test(Mechanism::crow_cache(8));
    cfg.cpu.target_insts = 1_000_000;
    for cap in [1_000, 9_973, 40_000, 123_457] {
        let r = assert_capped_equivalent(&cfg, &llmm, cap);
        assert!(!r.finished, "cap {cap} did not stop the run");
    }
}

#[test]
fn sampled_runs_stopped_by_the_cycle_cap_match() {
    // Caps swept across a five-window sampled run of about 69,800
    // cycles, so they land mid-window, mid-warmup and, at 14,967 and
    // 42,883, mid-drain, where only the run-end settle charges the
    // controllers.
    let llhh = crow_workloads::mixes_for_group(crow_workloads::MixGroup::Llhh, 1, 1)[0];
    let mut cfg = SystemConfig::quick_test(Mechanism::crow_cache(8));
    cfg.cpu.target_insts = 150_000;
    cfg.sample = Some(SamplePlan {
        window_insts: 5_000,
        warmup_insts: 2_500,
        ff_insts: 20_000,
    });
    let stopped = (4_000..=70_000)
        .step_by(997)
        .filter(|&cap| !assert_capped_equivalent(&cfg, &llhh, cap).finished)
        .count();
    assert!(stopped >= 60, "only {stopped} caps stopped the run");
}
