//! Cross-crate integration tests: whole-system runs under every
//! mechanism, data-integrity verification, determinism, and the
//! qualitative orderings the paper's evaluation rests on.

use crow::sim::{run_job, Mechanism, Scale, SimReport, SystemConfig};
use crow::workloads::AppProfile;

fn app(name: &str) -> &'static AppProfile {
    AppProfile::by_name(name).unwrap()
}

/// `quick_test`'s 30 000 instructions per core, without warmup.
fn quick_scale(max_cycles: u64) -> Scale {
    Scale {
        warmup: 0,
        max_cycles,
        ..Scale::tiny()
    }
}

fn quick(mechanism: Mechanism, name: &str, oracle: bool) -> SimReport {
    let mut cfg = SystemConfig::quick_test(mechanism);
    cfg.oracle = oracle;
    let r = run_job(cfg, &[app(name)], quick_scale(40_000_000)).unwrap();
    assert!(r.finished, "{name} under {mechanism:?} did not finish");
    r
}

#[test]
fn every_mechanism_runs_cleanly() {
    let mechanisms = [
        Mechanism::Baseline,
        Mechanism::crow_cache(1),
        Mechanism::crow_cache(8),
        Mechanism::CrowCache {
            copy_rows: 8,
            share_factor: 4,
        },
        Mechanism::crow_ref(),
        Mechanism::crow_combined(),
        Mechanism::IdealCache,
        Mechanism::IdealCacheNoRefresh,
        Mechanism::NoRefresh,
        Mechanism::Salp {
            subarrays: 32,
            open_page: true,
        },
    ];
    for mech in mechanisms {
        let r = quick(mech, "omnetpp", mech.models_row_contents());
        assert!(r.ipc[0] > 0.0, "{mech:?}");
        assert!(r.mc.reads > 0, "{mech:?}");
    }
    // TL-DRAM is a timing-only model (no content tracking).
    let r = quick(Mechanism::TlDram { near_rows: 8 }, "omnetpp", false);
    assert!(r.ipc[0] > 0.0);
}

#[test]
fn mechanism_ordering_on_memory_intensive_app() {
    let base = quick(Mechanism::Baseline, "mcf", false);
    let crow1 = quick(Mechanism::crow_cache(1), "mcf", false);
    let crow8 = quick(Mechanism::crow_cache(8), "mcf", false);
    let ideal = quick(Mechanism::IdealCache, "mcf", false);
    // CROW-8 catches more reuse than CROW-1; the ideal bounds both.
    assert!(crow8.crow_hit_rate() >= crow1.crow_hit_rate());
    assert!(crow8.ipc[0] > base.ipc[0], "CROW-8 must speed up mcf");
    assert!(ideal.ipc[0] >= crow8.ipc[0] * 0.98);
}

#[test]
fn combined_mechanism_beats_each_alone_on_dense_chips() {
    let scale = Scale {
        insts: 60_000,
        warmup: 10_000,
        mixes_per_group: 1,
        max_cycles: 200_000_000,
        threads: 1,
        checkpoints: false,
        sample: None,
    };
    let apps = [app("mcf")];
    let run = |mech| {
        let cfg = SystemConfig::paper_default(mech).with_density(64);
        run_job(cfg, &apps, scale).unwrap()
    };
    let base = run(Mechanism::Baseline);
    let cache = run(Mechanism::crow_cache(8));
    let cref = run(Mechanism::crow_ref());
    let both = run(Mechanism::crow_combined());
    let s = |r: &SimReport| r.ipc[0] / base.ipc[0];
    assert!(s(&cache) > 1.0, "cache {}", s(&cache));
    assert!(s(&cref) > 1.0, "ref {}", s(&cref));
    assert!(
        s(&both) > s(&cache) && s(&both) > s(&cref),
        "combined {} vs cache {} / ref {}",
        s(&both),
        s(&cache),
        s(&cref)
    );
}

#[test]
fn crow_ref_halves_refresh_rate_and_saves_energy_at_64gbit() {
    let scale = Scale {
        insts: 60_000,
        warmup: 5_000,
        mixes_per_group: 1,
        max_cycles: 200_000_000,
        threads: 1,
        checkpoints: false,
        sample: None,
    };
    let run = |mech| {
        let cfg = SystemConfig::paper_default(mech).with_density(64);
        run_job(cfg, &[app("libq")], scale).unwrap()
    };
    let base = run(Mechanism::Baseline);
    let cref = run(Mechanism::crow_ref());
    assert!(cref.mc.refreshes < base.mc.refreshes);
    assert!(
        cref.energy.total_nj() < base.energy.total_nj(),
        "ref energy {} vs base {}",
        cref.energy.total_nj(),
        base.energy.total_nj()
    );
    assert!(base.energy.refresh_fraction() > cref.energy.refresh_fraction());
}

#[test]
fn data_integrity_holds_under_four_core_contention() {
    let mut cfg = SystemConfig::quick_test(Mechanism::crow_combined());
    cfg.oracle = true;
    let apps = [app("mcf"), app("milc"), app("omnetpp"), app("tpcc64")];
    let scale = Scale {
        insts: 12_000,
        ..quick_scale(100_000_000)
    };
    let r = run_job(cfg, &apps, scale).unwrap();
    assert!(r.finished);
    assert!(r.crow.cache_hits > 0);
}

#[test]
fn runs_are_deterministic_per_seed() {
    let run = |seed: u64| {
        let mut cfg = SystemConfig::quick_test(Mechanism::crow_combined());
        cfg.seed = seed;
        run_job(cfg, &[app("soplex")], quick_scale(40_000_000)).unwrap()
    };
    let a = run(1);
    let b = run(1);
    let c = run(2);
    assert_eq!(a.ipc, b.ipc);
    assert_eq!(a.cpu_cycles, b.cpu_cycles);
    assert_eq!(a.mc.reads, b.mc.reads);
    assert_ne!(a.cpu_cycles, c.cpu_cycles, "different seeds should differ");
}

#[test]
fn prefetcher_helps_streaming_workloads() {
    let scale = Scale::tiny();
    let run = |cfg| run_job(cfg, &[app("libq")], scale).unwrap();
    let base = run(SystemConfig::quick_test(Mechanism::Baseline));
    let pf = run(SystemConfig::quick_test(Mechanism::Baseline).with_prefetcher());
    assert!(
        pf.ipc[0] > base.ipc[0] * 1.02,
        "prefetch {} vs base {}",
        pf.ipc[0],
        base.ipc[0]
    );
}

#[test]
fn rowhammer_mechanism_remaps_victims_under_attack() {
    // A real RowHammer attacker bypasses the caches (clflush-style), so
    // the attack is modeled at the memory-controller level: alternating
    // activations of two aggressor rows, exactly like the `rowhammer`
    // example.
    use crow::core::{CrowConfig, CrowSubstrate, HammerConfig, Owner};
    use crow::dram::DramConfig;
    use crow::mem::{McConfig, MemController, MemRequest, ReqKind};

    let mut crow_cfg = CrowConfig::tiny_test();
    crow_cfg.hammer = Some(HammerConfig {
        threshold: 30,
        window_cycles: 50_000_000,
    });
    let mut mc = MemController::new(
        McConfig::paper_default(),
        DramConfig::tiny_test(),
        Some(CrowSubstrate::new(crow_cfg)),
    );
    mc.attach_oracle();
    let mut out = Vec::new();
    let mut now = 0u64;
    let mut id = 0u64;
    // Aggressors in different subarrays: the tiny geometry has only two
    // copy rows per subarray, just enough for one aggressor's victims.
    for _ in 0..120 {
        for row in [20u32, 100] {
            id += 1;
            mc.try_enqueue(MemRequest::new(id, ReqKind::Read, 0, 0, row, 0, 0))
                .unwrap();
        }
        while out.len() < id as usize && now < 10_000_000 {
            mc.tick(now, &mut out);
            now += 1;
        }
    }
    let crow_state = mc.crow().unwrap();
    assert!(
        crow_state.stats().hammer_remaps >= 2,
        "expected victim remaps, got {:?}",
        crow_state.stats()
    );
    // The victims adjacent to both aggressors are remapped and pinned.
    for victim in [19u32, 21, 99, 101] {
        let hit = crow_state.table().lookup(0, victim / 64, victim);
        assert!(
            matches!(hit, Some((_, e)) if e.owner == Owner::Hammer),
            "victim {victim} not remapped"
        );
    }
    // Accesses to a remapped victim are redirected to its copy row.
    id += 1;
    mc.try_enqueue(MemRequest::new(id, ReqKind::Read, 0, 0, 21, 0, 0))
        .unwrap();
    while out.len() < id as usize && now < 10_000_000 {
        mc.tick(now, &mut out);
        now += 1;
    }
    assert!(mc.crow().unwrap().stats().ref_redirects >= 1);
    mc.channel().oracle().unwrap().assert_clean();
}

#[test]
fn table_sharing_trades_little_performance_for_storage() {
    let dedicated = quick(Mechanism::crow_cache(8), "omnetpp", false);
    let shared = quick(
        Mechanism::CrowCache {
            copy_rows: 8,
            share_factor: 4,
        },
        "omnetpp",
        false,
    );
    // Sharing can only lower the hit rate (paper Sec. 6.1: 7.1% -> 6.1%
    // average speedup), but must stay within a sane band.
    assert!(shared.crow_hit_rate() <= dedicated.crow_hit_rate() + 1e-9);
    assert!(shared.ipc[0] > dedicated.ipc[0] * 0.9);
}
