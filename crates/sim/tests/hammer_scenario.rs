//! End-to-end RowHammer attack-scenario tests: aggressor traffic flows
//! through the real controller, the flip model watches the issued
//! command stream, and every mitigation (PARA, TRR-like, CROW §4.3)
//! measurably suppresses live corruption relative to the unmitigated
//! run. The scenario must also preserve the engine-equivalence
//! contract: naive and event-driven steppers (× both scheduler
//! implementations) produce bit-identical reports under attack.

use crow_core::{HammerConfig, RetentionProfile};
use crow_mem::SchedImpl;
use crow_sim::{
    AttackPattern, Engine, FlipParams, HammerScenario, Mechanism, SimReport, System, SystemConfig,
};
use crow_workloads::AppProfile;

/// Flip physics compressed for a short run: low threshold, high flip
/// probability, no retention-weak rows (keeps the counts readable).
/// FR-FCFS batches row hits, so the ~16 K injected reads collapse to a
/// few hundred ACTs per aggressor row over a 2 M-cycle run — the
/// threshold must sit well below that regime.
fn quick_flip_params() -> FlipParams {
    FlipParams {
        base_threshold: 128,
        weak_divisor: 4,
        w1: 4,
        w2: 1,
        flip_p_inv: 4,
        profile: RetentionProfile::FixedPerSubarray { n: 0 },
    }
}

/// A high-intensity scenario. The requested rate outruns tRC, so the
/// queue backpressure path (reject → retry) is exercised continuously;
/// the achieved activation rate is the bank's service rate.
fn quick_scenario(pattern: AttackPattern) -> HammerScenario {
    let mut sc = HammerScenario::new(pattern, 4_000_000);
    sc.flip = quick_flip_params();
    sc
}

fn attack_cfg(mechanism: Mechanism, pattern: AttackPattern) -> SystemConfig {
    SystemConfig::quick_test(mechanism).with_hammer(quick_scenario(pattern))
}

fn run_attack(mechanism: Mechanism, pattern: AttackPattern) -> SimReport {
    let profile = AppProfile::by_name("mcf").unwrap();
    let mut sys = System::new(attack_cfg(mechanism, pattern), &[profile]);
    sys.run(2_000_000)
}

#[test]
fn unmitigated_attack_injects_and_flips() {
    let r = run_attack(Mechanism::Baseline, AttackPattern::DoubleSided);
    assert!(r.hammer.injected > 1_000, "injected {}", r.hammer.injected);
    assert!(r.hammer.flips > 0, "no flips: {:?}", r.hammer);
    assert!(r.hammer.flipped_rows > 0);
    assert_eq!(r.hammer.absorbed, 0, "no CROW table to absorb flips");
    assert_eq!(r.hammer.mitigation_refreshes, 0);
}

#[test]
fn every_pattern_hammers() {
    for pattern in [
        AttackPattern::SingleSided,
        AttackPattern::DoubleSided,
        AttackPattern::ManySided(8),
        AttackPattern::HalfDouble,
    ] {
        let r = run_attack(Mechanism::Baseline, pattern);
        assert!(
            r.hammer.injected > 1_000,
            "{pattern:?} injected {}",
            r.hammer.injected
        );
        assert!(r.hammer.flips > 0, "{pattern:?} produced no flips");
    }
}

#[test]
fn mitigations_suppress_live_flips() {
    let base = run_attack(Mechanism::Baseline, AttackPattern::DoubleSided);
    assert!(
        base.hammer.flips > 10,
        "baseline flips {}",
        base.hammer.flips
    );

    // PARA with an aggressive hazard for the short run. A specific
    // victim is refreshed every ~2 × hazard aggressor ACTs (the draw
    // picks one side), so the expected between-refresh disturbance is
    // 2 × 8 × w1 = 64 units, below the lowest jittered threshold (96).
    let para = run_attack(Mechanism::Para { hazard: 8 }, AttackPattern::DoubleSided);
    assert!(
        para.hammer.flips < base.hammer.flips / 2,
        "PARA {} vs baseline {}",
        para.hammer.flips,
        base.hammer.flips
    );
    assert!(para.hammer.mitigation_refreshes > 0);

    // TRR-like sampler. Tables flush (and clear) at every REF, and the
    // achieved rate is only a few ACTs per aggressor row per tREFI, so
    // the short-run threshold must be tiny.
    let trr = run_attack(
        Mechanism::Trr {
            entries: 16,
            threshold: 2,
        },
        AttackPattern::DoubleSided,
    );
    assert!(
        trr.hammer.flips < base.hammer.flips / 2,
        "TRR {} vs baseline {}",
        trr.hammer.flips,
        base.hammer.flips
    );
    assert!(trr.hammer.mitigation_refreshes > 0);

    // CROW §4.3: detector threshold low enough to fire before the flip
    // regime opens (8 ACTs per aggressor ≈ 64 victim units < 96);
    // victims are remapped so further flips land in the abandoned
    // physical rows (absorbed, not corruption).
    let crow = run_attack(
        Mechanism::RowHammer {
            copy_rows: 8,
            hammer: HammerConfig {
                threshold: 8,
                window_cycles: 102_400_000,
            },
        },
        AttackPattern::DoubleSided,
    );
    assert!(crow.hammer.detections > 0, "detector never fired");
    assert!(
        crow.hammer.flips < base.hammer.flips / 2,
        "CROW {} vs baseline {}",
        crow.hammer.flips,
        base.hammer.flips
    );
}

#[test]
fn attack_reports_are_engine_invariant() {
    // The full engine × scheduler matrix must agree bit-for-bit on a
    // run with live flips, and on a CROW §4.3 run whose detector queues
    // `ACT-c` victim copies (only wall-clock and scheduler diagnostics
    // may differ).
    let matrix = [
        (Engine::Naive, SchedImpl::Linear),
        (Engine::Naive, SchedImpl::Indexed),
        (Engine::EventDriven, SchedImpl::Linear),
        (Engine::EventDriven, SchedImpl::Indexed),
    ];
    let crow_hammer = Mechanism::RowHammer {
        copy_rows: 8,
        hammer: HammerConfig {
            threshold: 8,
            window_cycles: 102_400_000,
        },
    };
    let profile = AppProfile::by_name("mcf").unwrap();
    for mechanism in [Mechanism::crow_cache(8), crow_hammer] {
        let mut reports = Vec::new();
        for (engine, sched_impl) in matrix {
            let mut cfg = attack_cfg(mechanism, AttackPattern::DoubleSided);
            cfg.engine = engine;
            cfg.mc.sched_impl = sched_impl;
            cfg.oracle = true;
            let mut sys = System::new(cfg, &[profile]);
            let mut r = sys.run(2_000_000);
            sys.assert_data_integrity();
            r.wall_seconds = 0.0;
            r.sim_cycles_per_sec = 0.0;
            r.sched = Default::default();
            reports.push(r);
        }
        if mechanism == crow_hammer {
            assert!(reports[0].mc.hammer_copies > 0, "want victim copies");
        } else {
            assert!(reports[0].hammer.flips > 0, "want a run with live flips");
        }
        for (i, r) in reports.iter().enumerate().skip(1) {
            assert_eq!(
                format!("{:?}", reports[0]),
                format!("{r:?}"),
                "{:?} diverged under attack on {mechanism:?}",
                matrix[i],
            );
        }
    }
}

#[test]
fn attack_run_is_validator_clean() {
    let profile = AppProfile::by_name("mcf").unwrap();
    for mech in [
        Mechanism::Baseline,
        Mechanism::Para { hazard: 64 },
        Mechanism::Trr {
            entries: 16,
            threshold: 32,
        },
        Mechanism::crow_hammer(),
    ] {
        let mut cfg = attack_cfg(mech, AttackPattern::HalfDouble);
        cfg.validate_protocol = true;
        let mut sys = System::new(cfg, &[profile]);
        let r = sys
            .run_checked(2_000_000)
            .unwrap_or_else(|e| panic!("{mech:?}: {e}"));
        assert_eq!(r.violations, 0, "{mech:?} violated the protocol");
        assert!(r.hammer.injected > 0, "{mech:?} injected nothing");
    }
}
