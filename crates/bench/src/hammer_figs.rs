//! RowHammer attack-scenario figure: live flip count and workload
//! slowdown versus attack intensity, for each mitigation (none, PARA,
//! TRR-like, CROW §4.3) under each aggressor pattern.
//!
//! The paper argues CROW's RowHammer mitigation by overhead only; this
//! figure supplies the missing evaluation. Like the rest of the harness
//! it compresses the physics to keep a regeneration in the minutes
//! range while preserving relative behaviour: flip thresholds scale
//! with the instruction budget ([`flip_params`]), and every
//! mitigation's knob is scaled to the same compressed regime so the
//! *ordering* of tolerated intensities is the meaningful output, not
//! the absolute counts.

use crow_core::{HammerConfig, RetentionProfile};
use crow_sim::metrics::geomean;
use crow_sim::{
    run_job, AttackPattern, FlipParams, HammerScenario, Mechanism, Scale, SystemConfig,
};
use crow_workloads::AppProfile;

use crate::util::{heading, FigCampaign, Table};

/// Compressed flip physics (see the module docs). Disturbance
/// accumulates in proportion to simulated time, and the runs are
/// instruction-bound, so the threshold scales with the instruction
/// budget: the aggregate aggressor ACT rate is bound by the injection
/// service rate (FR-FCFS row-hit batching caps it near one ACT per tRC
/// per bank), so a double-sided victim gains roughly `insts / 26`
/// units over a saturated run while patterns that spread the same ACT
/// budget over more rows (single/many/half-double) concentrate about
/// half that on any one victim. `insts / 72` puts every pattern's peak
/// victim above the maximum jitter at saturation, while distance-2
/// collateral on rows CROW cannot remap (≤ `w2` × a quarter of the ACT
/// budget) stays well below the minimum jitter. No retention-weak
/// rows: the flip counts stay attributable to the attack instead of to
/// background demand traffic.
fn flip_params(scale: Scale) -> FlipParams {
    FlipParams {
        base_threshold: (scale.insts / 72).max(256),
        weak_divisor: 4,
        w1: 5,
        w2: 1,
        // Once a row is over threshold, flips should be near-certain
        // within a few more ACTs: the figure separates mitigations by
        // whether the threshold is *reached*, not by draw luck.
        flip_p_inv: 4,
        profile: RetentionProfile::FixedPerSubarray { n: 0 },
    }
}

/// The mitigation roster, with each knob scaled to the compressed flip
/// regime (detector/counter thresholds sit well below the ~400-pair
/// flip point, exactly as real deployments sit below real HCfirst).
fn mitigations() -> Vec<(&'static str, Mechanism)> {
    vec![
        ("none", Mechanism::Baseline),
        ("PARA", Mechanism::Para { hazard: 16 }),
        (
            "TRR",
            Mechanism::Trr {
                entries: 32,
                threshold: 4,
            },
        ),
        // Detection at 16 ACTs so half-double's lightly-hammered near
        // pair is caught before the far pair's distance-2 collateral
        // lands on the victim; 16 copy rows so the 9 neighbours of an
        // 8-sided attack all fit.
        (
            "CROW",
            Mechanism::RowHammer {
                copy_rows: 16,
                hammer: HammerConfig {
                    threshold: 16,
                    window_cycles: 102_400_000,
                },
            },
        ),
    ]
}

/// Aggressor activations per refresh window, swept log-ish up to the
/// bank's tRC saturation point.
const INTENSITIES: [u64; 4] = [16_000, 64_000, 256_000, 1_000_000];

const PATTERNS: [AttackPattern; 4] = [
    AttackPattern::SingleSided,
    AttackPattern::DoubleSided,
    AttackPattern::ManySided(8),
    AttackPattern::HalfDouble,
];

/// One figure job: the mechanism under test plus an optional attack
/// (pattern, intensity); `None` is the no-attack baseline run.
type HammerJob = (Mechanism, Option<(AttackPattern, u64)>);

/// The highest swept intensity a mitigation fully tolerates (zero live
/// flips at that intensity and every lower one), as a display string.
fn tolerated(flips_by_intensity: &[(u64, u64)]) -> String {
    let mut best = None;
    for &(intensity, flips) in flips_by_intensity {
        if flips > 0 {
            break;
        }
        best = Some(intensity);
    }
    match best {
        Some(i) => format!("{i}"),
        None => "<min".into(),
    }
}

/// Figure: flips and slowdown vs intensity per mitigation, one table
/// per aggressor pattern, plus the tolerated-intensity summary.
pub fn hammer(scale: Scale) -> String {
    // Attack scenarios cannot be sampled (the fast-forward would skip
    // the aggressor injections), so this figure always runs in detail.
    let scale = Scale {
        sample: None,
        ..scale
    };
    let app = AppProfile::by_name("mcf").expect("mcf profile exists");
    let mechs = mitigations();
    let mut camp = FigCampaign::new("hammer", scale);

    // No-attack baselines, one per mitigation (the denominator of each
    // mitigation's slowdown — CROW also *speeds up* the workload via
    // caching, and that must not masquerade as attack tolerance).
    let base_jobs: Vec<(String, HammerJob)> = mechs
        .iter()
        .map(|(lbl, m)| (format!("base/{lbl}"), (*m, None)))
        .collect();
    let worker = move |(mech, attack): &HammerJob, scale: Scale| {
        let mut cfg = SystemConfig::paper_default(*mech);
        if let Some((pattern, intensity)) = attack {
            let mut sc = HammerScenario::new(*pattern, *intensity);
            sc.flip = flip_params(scale);
            cfg = cfg.with_hammer(sc);
        }
        run_job(cfg, &[app], scale)
    };
    let baselines = camp.run(base_jobs, worker);

    let mut out = heading("RowHammer: live flips and slowdown vs attack intensity per mitigation");
    let mut summary: Vec<(String, Vec<(u64, u64)>)> = Vec::new();
    for pattern in PATTERNS {
        let mut jobs = Vec::new();
        for &intensity in &INTENSITIES {
            for (lbl, m) in &mechs {
                let id = format!("{}/{lbl}/i{intensity}", pattern.label());
                jobs.push((id, (*m, Some((pattern, intensity)))));
            }
        }
        let reports = camp.run(jobs, worker);
        let mut cols = vec!["ACTs/tREFW".to_string()];
        for (lbl, _) in &mechs {
            cols.push(format!("{lbl} flips"));
            cols.push(format!("{lbl} slowdown"));
        }
        let mut tab = Table::new(cols);
        let mut per_mech: Vec<Vec<(u64, u64)>> = vec![Vec::new(); mechs.len()];
        for (i, &intensity) in INTENSITIES.iter().enumerate() {
            let chunk = &reports[i * mechs.len()..(i + 1) * mechs.len()];
            let mut row = vec![format!("{intensity}")];
            for (k, r) in chunk.iter().enumerate() {
                let slowdown = baselines[k].ipc_sum() / r.ipc_sum().max(1e-12);
                row.push(format!("{}", r.hammer.flips));
                row.push(format!("{slowdown:.3}"));
                per_mech[k].push((intensity, r.hammer.flips));
            }
            tab.row(row);
        }
        out.push_str(&format!("\n-- {} --\n", pattern.label()));
        out.push_str(&tab.render());
        for (k, (lbl, _)) in mechs.iter().enumerate() {
            summary.push((format!("{}/{lbl}", pattern.label()), per_mech[k].clone()));
        }
    }

    out.push_str("\ntolerated intensity (max swept ACTs/tREFW with zero live flips):\n");
    let mut tab = Table::new(vec!["pattern", "none", "PARA", "TRR", "CROW"]);
    for pattern in PATTERNS {
        let mut row = vec![pattern.label()];
        for (lbl, _) in &mechs {
            let key = format!("{}/{lbl}", pattern.label());
            let fl = summary
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.as_slice())
                .unwrap_or(&[]);
            row.push(tolerated(fl));
        }
        tab.row(row);
    }
    out.push_str(&tab.render());
    let crow_speed: Vec<f64> = (0..mechs.len())
        .filter(|&k| mechs[k].0 == "CROW")
        .map(|k| baselines[k].ipc_sum() / baselines[0].ipc_sum())
        .collect();
    out.push_str(&format!(
        "\nexpected: CROW tolerates a higher intensity than 'none' at matched or better\n\
         performance (CROW no-attack speedup over baseline: {:.3})\n",
        geomean(&crow_speed)
    ));
    out.push_str(&camp.finish());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerated_reports_the_prefix_of_zero_flip_intensities() {
        assert_eq!(tolerated(&[(8, 0), (64, 0), (512, 3), (4000, 9)]), "64");
        assert_eq!(tolerated(&[(8, 1), (64, 0)]), "<min");
        assert_eq!(tolerated(&[(8, 0), (64, 0)]), "64");
        assert_eq!(tolerated(&[]), "<min");
    }

    #[test]
    fn roster_and_sweep_cover_the_required_matrix() {
        let m = mitigations();
        assert_eq!(m.len(), 4);
        assert!(m.iter().any(|(l, _)| *l == "CROW"));
        assert_eq!(PATTERNS.len(), 4);
        assert!(INTENSITIES.windows(2).all(|w| w[0] < w[1]));
    }
}
