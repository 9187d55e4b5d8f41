//! Interval sampling rides on the same determinism contract as the
//! engines themselves: for a fixed seed and plan, a sampled run must
//! produce a bit-identical [`SimReport`] across the full engine ×
//! scheduler-implementation matrix, and a *degenerate* plan (one
//! window covering the whole run, no warmup, no fast-forward) must
//! reproduce the full run's architectural report exactly — sampling
//! machinery engaged, zero approximation.

use crow_mem::SchedImpl;
use crow_sim::sampling::SamplePlan;
use crow_sim::{Engine, Mechanism, System, SystemConfig};
use crow_workloads::AppProfile;

/// Simulated CPU-cycle cap per run: far above what any run here needs
/// (the longest takes about 0.7M), so an engine that loses a completion
/// fails the `finished` check instead of hanging the test.
const MAX_CYCLES: u64 = 50_000_000;

const MATRIX: [(Engine, SchedImpl); 4] = [
    (Engine::Naive, SchedImpl::Linear),
    (Engine::Naive, SchedImpl::Indexed),
    (Engine::EventDriven, SchedImpl::Linear),
    (Engine::EventDriven, SchedImpl::Indexed),
];

/// Zeroes the fields the equivalence contract excludes: wall-clock
/// measurements and the scheduler work counters.
fn normalize(r: &mut crow_sim::SimReport) {
    r.wall_seconds = 0.0;
    r.sim_cycles_per_sec = 0.0;
    r.sched = Default::default();
}

fn run_sampled(
    mechanism: Mechanism,
    app: &str,
    plan: SamplePlan,
    insts: u64,
    engine: Engine,
    sched_impl: SchedImpl,
) -> crow_sim::SimReport {
    let profile = AppProfile::by_name(app).unwrap();
    let mut cfg = SystemConfig::quick_test(mechanism);
    cfg.engine = engine;
    cfg.mc.sched_impl = sched_impl;
    cfg.cpu.target_insts = insts;
    cfg.sample = Some(plan);
    let mut sys = System::new(cfg, &[profile]);
    let mut r = sys.run(MAX_CYCLES);
    assert!(
        r.finished,
        "{mechanism:?}/{app} under {engine:?}/{sched_impl:?}"
    );
    normalize(&mut r);
    r
}

/// A sampled run (drain → fast-forward → warmup → window intervals)
/// must agree bit-for-bit across all four engine × scheduler cells,
/// including the per-window statistics.
fn assert_sampled_equivalent(mechanism: Mechanism, app: &str) {
    let plan = SamplePlan {
        window_insts: 5_000,
        warmup_insts: 2_500,
        ff_insts: 42_500,
    };
    let reports: Vec<_> = MATRIX
        .iter()
        .map(|&(engine, sched_impl)| run_sampled(mechanism, app, plan, 400_000, engine, sched_impl))
        .collect();
    let samples = reports[0].samples.as_ref().expect("sampling engaged");
    assert!(samples.windows >= 2, "plan must measure several windows");
    for (i, r) in reports.iter().enumerate().skip(1) {
        assert_eq!(
            format!("{:?}", reports[0]),
            format!("{r:?}"),
            "sampled {:?} diverged from {:?} for {mechanism:?} on {app}",
            MATRIX[i],
            MATRIX[0],
        );
    }
}

#[test]
fn sampled_baseline_mcf_matches_across_matrix() {
    assert_sampled_equivalent(Mechanism::Baseline, "mcf");
}

#[test]
fn sampled_crow_cache_random_matches_across_matrix() {
    // The random-access stress keeps every bank churning, so the
    // drain/fast-forward boundaries land mid-burst — the adversarial
    // input for the interval bookkeeping.
    assert_sampled_equivalent(Mechanism::crow_cache(8), "random");
}

#[test]
fn sampled_combined_libq_matches_across_matrix() {
    assert_sampled_equivalent(Mechanism::crow_combined(), "libq");
}

/// Functional fast-forward advances the CROW table without issuing
/// commands, so the controller mirrors the modeled activations into
/// the data-integrity oracle; a sampled run with the oracle attached
/// must stay violation-free (fast-forward-installed copy rows must
/// carry the adopted contents the detailed windows then check).
#[test]
fn sampled_runs_stay_clean_under_the_data_integrity_oracle() {
    for (mechanism, app) in [
        (Mechanism::crow_combined(), "mcf"),
        (Mechanism::crow_cache(8), "random"),
    ] {
        let profile = AppProfile::by_name(app).unwrap();
        let mut cfg = SystemConfig::quick_test(mechanism);
        cfg.cpu.target_insts = 400_000;
        cfg.sample = Some(SamplePlan {
            window_insts: 5_000,
            warmup_insts: 2_500,
            ff_insts: 42_500,
        });
        cfg.oracle = true;
        let mut sys = System::new(cfg, &[profile]);
        let r = sys.run(MAX_CYCLES);
        assert!(r.finished, "{mechanism:?}/{app}");
        assert!(
            r.samples.as_ref().is_some_and(|s| s.windows >= 2),
            "{mechanism:?}/{app}: sampling engaged",
        );
        sys.assert_data_integrity();
    }
}

/// A plan whose single window spans the whole run is not an
/// approximation at all: no fast-forward ever happens, so the
/// architectural report must equal the unsampled run's bit-for-bit
/// (only the `samples` block and wall-clock fields differ).
#[test]
fn degenerate_plan_reproduces_the_full_run_exactly() {
    let total = 200_000u64;
    for mechanism in [Mechanism::Baseline, Mechanism::crow_cache(8)] {
        let profile = AppProfile::by_name("mcf").unwrap();
        let run = |sample: Option<SamplePlan>| {
            let mut cfg = SystemConfig::quick_test(mechanism);
            cfg.cpu.target_insts = total;
            cfg.sample = sample;
            let mut sys = System::new(cfg, &[profile]);
            let mut r = sys.run(MAX_CYCLES);
            assert!(r.finished, "{mechanism:?}, sampled: {}", sample.is_some());
            normalize(&mut r);
            r
        };
        let full = run(None);
        let mut sampled = run(Some(SamplePlan {
            window_insts: total,
            warmup_insts: 0,
            ff_insts: 0,
        }));
        let s = sampled.samples.take().expect("sampling engaged");
        assert_eq!(s.windows, 1, "{mechanism:?}: one window spans the run");
        assert_eq!(s.skipped_insts, 0, "{mechanism:?}: nothing fast-forwarded");
        assert_eq!(
            format!("{full:?}"),
            format!("{sampled:?}"),
            "{mechanism:?}: degenerate plan altered the architectural report",
        );
        let full_ipc: f64 = full.ipc.iter().sum();
        assert!(
            (s.ipc.mean - full_ipc).abs() < 1e-12,
            "{mechanism:?}: window IPC must equal the run IPC exactly",
        );
    }
}
