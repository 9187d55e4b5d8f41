//! Core performance figures: Fig. 8 (single-core speedup + CROW-table
//! hit rate), Fig. 9 (four-core weighted speedup), Fig. 10 (DRAM
//! energy).

use crow_sim::metrics::geomean;
use crow_sim::{run_job, weighted_speedup, Mechanism, Scale, SimReport, SystemConfig};
use crow_workloads::{mixes_for_group, AppProfile, MixGroup};

use crate::util::{energy_norm, fig_apps, heading, speedup1, AloneIpcCache, FigCampaign, Table};

/// A stable job id for a four-app mix.
pub(crate) fn mix_id(mix: &[&'static AppProfile]) -> String {
    mix.iter().map(|a| a.name).collect::<Vec<_>>().join("+")
}

/// The CROW-cache configurations Fig. 8/9 sweep. The paper's largest
/// point is CROW-256; copy-row indices are 8-bit here, so the largest
/// configuration is CROW-128 (the diminishing-returns trend is already
/// flat well before that, see `EXPERIMENTS.md`).
pub fn cache_configs() -> Vec<Mechanism> {
    vec![
        Mechanism::crow_cache(1),
        Mechanism::crow_cache(8),
        Mechanism::crow_cache(128),
        Mechanism::IdealCache,
    ]
}

/// Runs every (app, mechanism) pair under `camp`'s supervision and
/// returns reports keyed by (app index, mech index); index 0 is the
/// baseline.
fn run_grid(
    camp: &mut FigCampaign,
    apps: &[&'static AppProfile],
    mechs: &[Mechanism],
) -> Vec<Vec<SimReport>> {
    let mut jobs = Vec::new();
    for &app in apps {
        for &mech in mechs {
            jobs.push((format!("{}/{}", app.name, mech.label()), (app, mech)));
        }
    }
    let reports = camp.run(jobs, |&(app, mech), scale| {
        run_job(SystemConfig::paper_default(mech), &[app], scale)
    });
    reports
        .chunks(mechs.len())
        .map(<[SimReport]>::to_vec)
        .collect()
}

/// Fig. 8: single-core speedup and CROW-table hit rate for CROW-1/8/128
/// and Ideal CROW-cache.
pub fn fig8(scale: Scale) -> String {
    let apps = fig_apps();
    let mut mechs = vec![Mechanism::Baseline];
    mechs.extend(cache_configs());
    let mut camp = FigCampaign::new("fig8", scale);
    let grid = run_grid(&mut camp, &apps, &mechs);
    let mut tab = Table::new(vec![
        "app (mpki)",
        "CROW-1",
        "CROW-8",
        "CROW-128",
        "Ideal",
        "hit1",
        "hit8",
        "hit128",
    ]);
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 4];
    let mut restore_fraction = Vec::new();
    for (app, row) in apps.iter().zip(&grid) {
        let base = &row[0];
        let sp: Vec<f64> = (1..=4).map(|i| speedup1(&row[i], base)).collect();
        for (c, &s) in cols.iter_mut().zip(&sp) {
            c.push(s);
        }
        restore_fraction.push(row[1].crow.restore_eviction_fraction());
        tab.row(vec![
            format!("{} ({:.1})", app.name, base.mpki[0]),
            format!("{:.3}", sp[0]),
            format!("{:.3}", sp[1]),
            format!("{:.3}", sp[2]),
            format!("{:.3}", sp[3]),
            format!("{:.2}", row[1].crow_hit_rate()),
            format!("{:.2}", row[2].crow_hit_rate()),
            format!("{:.2}", row[3].crow_hit_rate()),
        ]);
    }
    tab.row(vec![
        "geomean".to_string(),
        format!("{:.3}", geomean(&cols[0])),
        format!("{:.3}", geomean(&cols[1])),
        format!("{:.3}", geomean(&cols[2])),
        format!("{:.3}", geomean(&cols[3])),
        String::new(),
        String::new(),
        String::new(),
    ]);
    let mut out = heading("Fig. 8: single-core CROW-cache speedup and hit rate");
    out.push_str(&tab.render());
    out.push_str(&format!(
        "\nCROW-1 full-restore eviction fraction of activations: {:.2}% (paper Sec. 8.1.1: 0.6%)\n",
        restore_fraction.iter().sum::<f64>() / restore_fraction.len() as f64 * 100.0
    ));
    out.push_str("paper: CROW-1 +5.5%, CROW-8 +7.1%, CROW-256 +7.8% avg; hit rates 69/85/91%\n");
    out.push_str(&camp.finish());
    out
}

/// Fig. 9: weighted speedup of four-core mix groups.
pub fn fig9(scale: Scale) -> String {
    let mechs: Vec<Mechanism> = {
        let mut m = vec![Mechanism::Baseline];
        m.extend(cache_configs());
        m
    };
    let mut alone = AloneIpcCache::new();
    let mut camp = FigCampaign::new("fig9", scale);
    let mut tab = Table::new(vec![
        "group",
        "CROW-1",
        "CROW-8",
        "CROW-128",
        "Ideal",
        "(min..max CROW-8)",
    ]);
    let mut out = heading("Fig. 9: four-core weighted speedup by mix group");
    for group in MixGroup::ALL {
        let mixes = mixes_for_group(group, scale.mixes_per_group, 77);
        // Prefill alone IPCs.
        let all_apps: Vec<&'static AppProfile> = mixes.iter().flatten().copied().collect();
        alone.prefill(&all_apps, &mut camp);
        // Run every (mix, mech) under supervision.
        let mut jobs = Vec::new();
        for mix in &mixes {
            for &mech in &mechs {
                jobs.push((format!("{}/{}", mix_id(mix), mech.label()), (*mix, mech)));
            }
        }
        let reports = camp.run(jobs, |(mix, mech), scale| {
            run_job(SystemConfig::paper_default(*mech), mix, scale)
        });
        // Weighted speedups normalized to the baseline run of each mix.
        let mut per_mech: Vec<Vec<f64>> = vec![Vec::new(); mechs.len() - 1];
        for (mix, chunk) in mixes.iter().zip(reports.chunks(mechs.len())) {
            let alone_ipcs: Vec<f64> = mix.iter().map(|a| alone.get(a, scale)).collect();
            let ws_base = weighted_speedup(&chunk[0].ipc, &alone_ipcs);
            for (k, r) in chunk.iter().skip(1).enumerate() {
                let ws = weighted_speedup(&r.ipc, &alone_ipcs);
                per_mech[k].push(ws / ws_base);
            }
        }
        let avg: Vec<f64> = per_mech
            .iter()
            .map(|v| v.iter().sum::<f64>() / v.len() as f64)
            .collect();
        let crow8 = &per_mech[1];
        let min = crow8.iter().copied().fold(f64::MAX, f64::min);
        let max = crow8.iter().copied().fold(f64::MIN, f64::max);
        tab.row(vec![
            group.label().to_string(),
            format!("{:.3}", avg[0]),
            format!("{:.3}", avg[1]),
            format!("{:.3}", avg[2]),
            format!("{:.3}", avg[3]),
            format!("{min:.3}..{max:.3}"),
        ]);
    }
    out.push_str(&tab.render());
    out.push_str("\npaper: CROW-8 +7.4% for HHHH, +0.4% for LLLL; CROW-8 >> CROW-1 on 4 cores\n");
    out.push_str(&camp.finish());
    out
}

/// Fig. 10: DRAM energy with CROW-cache, normalized to the baseline
/// (single-core average and a four-core HHHH average).
pub fn fig10(scale: Scale) -> String {
    let apps = fig_apps();
    let mechs = [Mechanism::Baseline, Mechanism::crow_cache(8)];
    let mut camp = FigCampaign::new("fig10", scale);
    let grid = run_grid(&mut camp, &apps, &mechs);
    let singles: Vec<f64> = grid
        .iter()
        .map(|row| energy_norm(&row[1], &row[0]))
        .collect();

    let mixes = mixes_for_group(MixGroup::Hhhh, scale.mixes_per_group, 78);
    let mut jobs = Vec::new();
    for mix in &mixes {
        for &mech in &mechs {
            jobs.push((format!("{}/{}", mix_id(mix), mech.label()), (*mix, mech)));
        }
    }
    let reports = camp.run(jobs, |(mix, mech), scale| {
        run_job(SystemConfig::paper_default(*mech), mix, scale)
    });
    let fours: Vec<f64> = reports
        .chunks(2)
        .map(|c| energy_norm(&c[1], &c[0]))
        .collect();

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let mut out = heading("Fig. 10: normalized DRAM energy with CROW-cache");
    let mut tab = Table::new(vec!["system", "energy vs baseline"]);
    tab.row(vec![
        "single-core avg".to_string(),
        format!("{:.3}", avg(&singles)),
    ]);
    tab.row(vec![
        "four-core (HHHH) avg".to_string(),
        format!("{:.3}", avg(&fours)),
    ]);
    out.push_str(&tab.render());
    out.push_str("\npaper: 0.918 single-core, 0.931 four-core (-8.2% / -6.9%)\n");
    out.push_str(&camp.finish());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_tiny_scale_produces_table() {
        // One app at tiny scale to keep the test fast. Point the
        // campaign journal at a scratch directory so the test leaves no
        // results/ tree behind.
        std::env::remove_var("CROW_APPS");
        let dir = std::env::temp_dir().join(format!("crow-fig8-test-{}", std::process::id()));
        std::env::set_var("CROW_CAMPAIGN_DIR", &dir);
        let s = fig8(Scale::tiny());
        std::env::remove_var("CROW_CAMPAIGN_DIR");
        std::fs::remove_dir_all(&dir).ok();
        assert!(s.contains("geomean"));
        assert!(s.contains("mcf"));
        assert!(s.contains("campaign fig8: ok"), "outcome trailer present");
    }
}
