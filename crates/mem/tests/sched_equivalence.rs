//! Randomized cross-check of the indexed scheduler against the linear
//! reference: two controllers (identical configuration except for
//! `sched_impl`) are driven in lockstep with the same mixed
//! read/write/maintenance-copy request stream and must produce
//! bit-identical completions, controller statistics, and DRAM command
//! streams, with the shadow protocol validator and data-integrity
//! oracle attached and clean on both sides.

use crow_core::{CrowConfig, CrowSubstrate};
use crow_dram::DramConfig;
use crow_mem::{
    Completion, McConfig, MemController, MemRequest, ReqKind, RowPolicy, SchedImpl, SchedKind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn controller(cfg: McConfig, dram: DramConfig, with_crow: bool) -> MemController {
    let crow = with_crow.then(|| CrowSubstrate::new(CrowConfig::tiny_test()));
    let mut mc = MemController::new(cfg, dram, crow);
    mc.attach_validator();
    if with_crow {
        mc.attach_oracle();
    }
    mc
}

fn fingerprint(mc: &MemController) -> String {
    format!(
        "{:?}|{:?}|{:?}",
        mc.stats(),
        mc.channel().stats(),
        mc.crow().map(|c| *c.stats())
    )
}

/// Drives both controllers of `pair` through `requests` mixed requests
/// plus periodic weak-row remaps, asserting identical behavior
/// throughout and at drain.
fn drive(pair: &mut [MemController; 2], requests: usize, seed: u64, label: &str) {
    let dram = DramConfig::tiny_test();
    let (ranks, banks, rows) = (dram.ranks, dram.banks, dram.rows_per_bank);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sent = 0usize;
    let mut now = 0u64;
    let mut id = 0u64;
    let mut out_a: Vec<Completion> = Vec::new();
    let mut out_b: Vec<Completion> = Vec::new();
    while sent < requests || pair[0].pending() > 0 || pair[1].pending() > 0 {
        if sent < requests {
            for _ in 0..rng.gen_range(1..=3usize) {
                if sent >= requests {
                    break;
                }
                let kind = if rng.gen_bool(0.65) {
                    ReqKind::Read
                } else {
                    ReqKind::Write
                };
                let rank = rng.gen_range(0..ranks);
                let bank = rng.gen_range(0..banks);
                // Skewed row distribution: mostly a hot set (row hits and
                // conflicts within a subarray), sometimes anywhere.
                let row = if rng.gen_bool(0.7) {
                    rng.gen_range(0..4u32)
                } else {
                    rng.gen_range(0..rows)
                };
                let req = MemRequest::new(id, kind, rank, bank, row, rng.gen_range(0..16u32), 0);
                let ra = pair[0].try_enqueue(req);
                let rb = pair[1].try_enqueue(req);
                assert_eq!(
                    ra.is_ok(),
                    rb.is_ok(),
                    "{label}: acceptance diverged at request {id}"
                );
                if ra.is_err() {
                    break;
                }
                sent += 1;
                id += 1;
            }
            // Occasional maintenance traffic, applied to both sides.
            if sent % 701 == 700 {
                let row = rng.gen_range(0..rows);
                for mc in pair.iter_mut() {
                    mc.remap_weak_row_in_rank(0, 0, row);
                }
            }
        }
        for _ in 0..rng.gen_range(1..40usize) {
            pair[0].tick(now, &mut out_a);
            pair[1].tick(now, &mut out_b);
            assert_eq!(out_a, out_b, "{label}: completions diverged at cycle {now}");
            out_a.clear();
            out_b.clear();
            now += 1;
        }
        assert_eq!(
            fingerprint(&pair[0]),
            fingerprint(&pair[1]),
            "{label}: state diverged by cycle {now}"
        );
        assert!(now < 100_000_000, "{label}: queues did not drain");
    }
    for mc in pair.iter_mut() {
        mc.finish_validation(now);
    }
    for (side, mc) in pair.iter().enumerate() {
        let v = mc.channel().validator().expect("validator attached");
        assert!(v.observed() > 0);
        v.assert_clean();
        if let Some(o) = mc.channel().oracle() {
            o.assert_clean();
        }
        assert!(side <= 1);
    }
    assert_eq!(
        fingerprint(&pair[0]),
        fingerprint(&pair[1]),
        "{label}: final state diverged"
    );
}

fn pair_for(cfg: McConfig, with_crow: bool) -> [MemController; 2] {
    let dram = DramConfig::tiny_test();
    [
        controller(
            cfg.with_sched_impl(SchedImpl::Indexed),
            dram.clone(),
            with_crow,
        ),
        controller(cfg.with_sched_impl(SchedImpl::Linear), dram, with_crow),
    ]
}

/// The headline fuzz cross-check: ≥10k mixed requests across the row
/// policy × scheduler matrix, indexed vs. linear, CROW attached.
#[test]
fn indexed_matches_linear_across_policy_and_sched_matrix() {
    let policies = [
        RowPolicy::Timeout { cycles: 120 },
        RowPolicy::OpenPage,
        RowPolicy::ClosedPage,
    ];
    let scheds = [
        SchedKind::FrFcfsCap { cap: 4 },
        SchedKind::FrFcfs,
        SchedKind::Fcfs,
    ];
    let mut total = 0usize;
    for (pi, &policy) in policies.iter().enumerate() {
        for (si, &sched) in scheds.iter().enumerate() {
            // The paper-default combination carries the bulk of the
            // request budget; every other combination gets a slice.
            let n = if pi == 0 && si == 0 { 4_000 } else { 800 };
            let mut cfg = McConfig::paper_default();
            cfg.policy = policy;
            cfg.sched = sched;
            let label = format!("{policy:?}/{sched:?}");
            let mut pair = pair_for(cfg, true);
            drive(&mut pair, n, 0x5EED_0000 + (pi * 3 + si) as u64, &label);
            // The indexed side must actually use its fast paths on the
            // dense default combination (otherwise this test proves
            // nothing about the optimised code).
            if pi == 0 && si == 0 {
                let s = pair[0].sched_stats();
                assert!(s.picks > 0);
                assert!(s.fastpath_skips > 0, "readiness cache never engaged: {s:?}");
            }
            total += n;
        }
    }
    assert!(total >= 10_000, "fuzz volume too small: {total}");
}

/// Per-bank refresh exercises the bank-granular hold-back skip in the
/// indexed selector.
#[test]
fn indexed_matches_linear_under_per_bank_refresh() {
    let mut cfg = McConfig::paper_default();
    cfg.per_bank_refresh = true;
    cfg.max_postponed_refreshes = 4;
    let mut pair = pair_for(cfg, true);
    drive(&mut pair, 1_200, 0xBA7E, "per-bank-refresh");
}

/// Without CROW the copy-op path degenerates (ops are popped unserved);
/// the two implementations must still agree.
#[test]
fn indexed_matches_linear_without_crow() {
    let mut pair = pair_for(McConfig::paper_default(), false);
    pair[0].remap_weak_row(0, 7);
    pair[1].remap_weak_row(0, 7);
    drive(&mut pair, 1_000, 0xD1CE, "no-crow");
}
