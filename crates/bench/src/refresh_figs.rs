//! Refresh figures: Fig. 13 (CROW-ref vs chip density) and Fig. 14
//! (CROW-cache + CROW-ref vs LLC capacity, against the ideal).

use crow_sim::metrics::geomean;
use crow_sim::{run_job, Mechanism, Scale, SimReport, SystemConfig};
use crow_workloads::{mixes_for_group, MixGroup};

use crate::perf_figs::mix_id;
use crate::util::{energy_norm, fig_apps, heading, FigCampaign, Table};

fn throughput_speedup(r: &SimReport, base: &SimReport) -> f64 {
    r.ipc_sum() / base.ipc_sum()
}

/// Fig. 13: CROW-ref speedup and normalized DRAM energy for 8–64 Gbit
/// chips (single-core average and four-core HHHH average).
pub fn fig13(scale: Scale) -> String {
    let apps = fig_apps();
    let mixes = mixes_for_group(MixGroup::Hhhh, scale.mixes_per_group, 79);
    let mut tab = Table::new(vec![
        "density",
        "1c speedup",
        "1c energy",
        "4c speedup",
        "4c energy",
    ]);
    let mut camp = FigCampaign::new("fig13", scale);
    for density in [8u32, 16, 32, 64] {
        // Single-core jobs.
        let mut jobs = Vec::new();
        for &app in &apps {
            for mech in [Mechanism::Baseline, Mechanism::crow_ref()] {
                let id = format!("d{density}/{}/{}", app.name, mech.label());
                jobs.push((id, (vec![app], mech)));
            }
        }
        for mix in &mixes {
            for mech in [Mechanism::Baseline, Mechanism::crow_ref()] {
                let id = format!("d{density}/{}/{}", mix_id(mix), mech.label());
                jobs.push((id, (mix.to_vec(), mech)));
            }
        }
        let reports = camp.run(jobs, move |(apps, mech), scale| {
            let cfg = SystemConfig::paper_default(*mech).with_density(density);
            run_job(cfg, apps, scale)
        });
        let (singles, fours) = reports.split_at(apps.len() * 2);
        let sp1: Vec<f64> = singles
            .chunks(2)
            .map(|c| throughput_speedup(&c[1], &c[0]))
            .collect();
        let en1: Vec<f64> = singles
            .chunks(2)
            .map(|c| energy_norm(&c[1], &c[0]))
            .collect();
        let sp4: Vec<f64> = fours
            .chunks(2)
            .map(|c| throughput_speedup(&c[1], &c[0]))
            .collect();
        let en4: Vec<f64> = fours.chunks(2).map(|c| energy_norm(&c[1], &c[0])).collect();
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        tab.row(vec![
            format!("{density} Gbit"),
            format!("{:.3}", geomean(&sp1)),
            format!("{:.3}", avg(&en1)),
            format!("{:.3}", geomean(&sp4)),
            format!("{:.3}", avg(&en4)),
        ]);
    }
    let mut out = heading("Fig. 13: CROW-ref speedup and DRAM energy vs chip density");
    out.push_str(&tab.render());
    out.push_str("\npaper at 64 Gbit: +7.1% / -17.2% single-core, +11.9% / -7.8% four-core\n");
    out.push_str(&camp.finish());
    out
}

/// Fig. 14: CROW-cache, CROW-ref, their combination, and the ideal
/// (100% hit rate, no refresh) across LLC capacities, on four-core HHHH
/// mixes with 64 Gbit chips.
pub fn fig14(scale: Scale) -> String {
    let mixes = mixes_for_group(MixGroup::Hhhh, scale.mixes_per_group, 80);
    let mechs = [
        Mechanism::Baseline,
        Mechanism::crow_cache(8),
        Mechanism::crow_ref(),
        Mechanism::crow_combined(),
        Mechanism::IdealCacheNoRefresh,
    ];
    let mut tab = Table::new(vec![
        "LLC",
        "cache",
        "ref",
        "cache+ref",
        "ideal",
        "energy cache+ref",
    ]);
    let mut camp = FigCampaign::new("fig14", scale);
    for llc_mib in [1u64, 8, 32] {
        let mut jobs = Vec::new();
        for mix in &mixes {
            for &mech in &mechs {
                let id = format!("llc{llc_mib}/{}/{}", mix_id(mix), mech.label());
                jobs.push((id, (mix.to_vec(), mech)));
            }
        }
        let reports = camp.run(jobs, move |(apps, mech), scale| {
            let cfg = SystemConfig::paper_default(*mech)
                .with_density(64)
                .with_llc_bytes(llc_mib << 20);
            run_job(cfg, apps, scale)
        });
        let mut sp: Vec<Vec<f64>> = vec![Vec::new(); 4];
        let mut en_combined = Vec::new();
        for chunk in reports.chunks(mechs.len()) {
            let base = &chunk[0];
            for k in 0..4 {
                sp[k].push(throughput_speedup(&chunk[k + 1], base));
            }
            en_combined.push(energy_norm(&chunk[3], base));
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        tab.row(vec![
            format!("{llc_mib} MiB"),
            format!("{:.3}", avg(&sp[0])),
            format!("{:.3}", avg(&sp[1])),
            format!("{:.3}", avg(&sp[2])),
            format!("{:.3}", avg(&sp[3])),
            format!("{:.3}", avg(&en_combined)),
        ]);
    }
    let mut out =
        heading("Fig. 14: combined CROW-cache + CROW-ref vs LLC capacity (4-core HHHH, 64 Gbit)");
    out.push_str(&tab.render());
    out.push_str(
        "\npaper at 8 MiB: combined +20.0% speedup, 0.777 energy; combined > cache, > ref;\n\
         combined reaches ~71% of the ideal's speedup and ~99% of its energy saving\n",
    );
    out.push_str(&camp.finish());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_speedup_is_ratio() {
        let mk = |ipc: f64| SimReport {
            ipc: vec![ipc],
            mpki: vec![0.0],
            cpu_cycles: 1,
            mem_cycles: 1,
            mc: Default::default(),
            commands: Default::default(),
            crow: Default::default(),
            energy: Default::default(),
            finished: true,
            violations: 0,
            trace_faults: 0,
            faults: Default::default(),
            sched: Default::default(),
            hammer: Default::default(),
            samples: None,
            wall_seconds: 0.0,
            sim_cycles_per_sec: 0.0,
        };
        assert!((throughput_speedup(&mk(2.0), &mk(1.0)) - 2.0).abs() < 1e-12);
    }
}
