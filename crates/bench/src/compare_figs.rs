//! Comparison figures: Fig. 11 (CROW vs TL-DRAM vs SALP) and Fig. 12
//! (CROW-cache with a stride prefetcher).

use crow_baselines::{SalpConfig, TlDramConfig};
use crow_sim::metrics::geomean;
use crow_sim::{run_job, Mechanism, Scale, SystemConfig};
use crow_workloads::AppProfile;

use crate::util::{energy_norm, fig_apps, heading, speedup1, FigCampaign, Table};

/// Fig. 11: performance, DRAM energy, and chip area of CROW-cache
/// against TL-DRAM and SALP.
pub fn fig11(scale: Scale) -> String {
    let apps = fig_apps();
    let mechs: Vec<(String, Mechanism)> = {
        let mut v = vec![("baseline".to_string(), Mechanism::Baseline)];
        for n in [1u8, 8] {
            v.push((format!("CROW-{n}"), Mechanism::crow_cache(n)));
        }
        for t in TlDramConfig::PAPER_POINTS {
            v.push((
                t.label(),
                Mechanism::TlDram {
                    near_rows: t.near_rows,
                },
            ));
        }
        for s in SalpConfig::paper_points() {
            v.push((
                s.label(),
                Mechanism::Salp {
                    subarrays: s.subarrays,
                    open_page: s.open_page,
                },
            ));
        }
        v
    };
    let mut camp = FigCampaign::new("fig11", scale);
    let mut jobs = Vec::new();
    for &app in &apps {
        for (label, mech) in &mechs {
            jobs.push((format!("{}/{label}", app.name), (app, *mech)));
        }
    }
    let reports = camp.run(jobs, |&(app, mech), scale| {
        run_job(SystemConfig::paper_default(mech), &[app], scale)
    });
    let rows: Vec<&[crow_sim::SimReport]> = reports.chunks(mechs.len()).collect();

    let area_of = |label: &str| -> f64 {
        if let Some(n) = label.strip_prefix("CROW-") {
            let n: u8 = n.parse().unwrap();
            crow_circuit::DecoderAreaModel::calibrated().chip_overhead(n)
        } else if label.starts_with("TL-DRAM-") {
            let n: u8 = label.trim_start_matches("TL-DRAM-").parse().unwrap();
            TlDramConfig { near_rows: n }.chip_area_overhead()
        } else if label.starts_with("SALP-") {
            let core = label.trim_start_matches("SALP-").trim_end_matches("-O");
            SalpConfig {
                subarrays: core.parse().unwrap(),
                open_page: false,
            }
            .chip_area_overhead()
        } else {
            0.0
        }
    };

    let mut tab = Table::new(vec!["mechanism", "speedup", "energy", "chip area"]);
    for (k, (label, _)) in mechs.iter().enumerate().skip(1) {
        let sp: Vec<f64> = rows.iter().map(|r| speedup1(&r[k], &r[0])).collect();
        let en: Vec<f64> = rows.iter().map(|r| energy_norm(&r[k], &r[0])).collect();
        tab.row(vec![
            label.clone(),
            format!("{:.3}", geomean(&sp)),
            format!("{:.3}", en.iter().sum::<f64>() / en.len() as f64),
            format!("{:.2}%", area_of(label) * 100.0),
        ]);
    }
    let mut out = heading("Fig. 11: CROW-cache vs TL-DRAM vs SALP");
    out.push_str(&tab.render());
    out.push_str(
        "\npaper: TL-DRAM-8 +13.8% at 6.9% area; CROW-8 +7.1% at 0.48% area;\n\
         SALP-O fastest but large energy overhead (multiple live row buffers)\n",
    );
    out.push_str(&camp.finish());
    out
}

/// Fig. 12: CROW-cache combined with a stride (RPT) prefetcher.
pub fn fig12(scale: Scale) -> String {
    let apps: Vec<&'static AppProfile> = ["libq", "mcf", "omnetpp", "sphinx3", "lbm", "gcc"]
        .iter()
        .map(|n| AppProfile::by_name(n).unwrap())
        .collect();
    #[derive(Clone, Copy)]
    struct Cfg {
        mech: Mechanism,
        prefetch: bool,
    }
    let cfgs = [
        Cfg {
            mech: Mechanism::Baseline,
            prefetch: false,
        },
        Cfg {
            mech: Mechanism::Baseline,
            prefetch: true,
        },
        Cfg {
            mech: Mechanism::crow_cache(8),
            prefetch: false,
        },
        Cfg {
            mech: Mechanism::crow_cache(8),
            prefetch: true,
        },
    ];
    let mut camp = FigCampaign::new("fig12", scale);
    let mut jobs = Vec::new();
    for &app in &apps {
        for &c in &cfgs {
            let id = format!(
                "{}/{}{}",
                app.name,
                c.mech.label(),
                if c.prefetch { "+pref" } else { "" }
            );
            jobs.push((id, (app, c)));
        }
    }
    let reports = camp.run(jobs, |&(app, c), scale| {
        let mut cfg = SystemConfig::paper_default(c.mech);
        if c.prefetch {
            cfg = cfg.with_prefetcher();
        }
        run_job(cfg, &[app], scale)
    });
    let mut tab = Table::new(vec!["app", "pref", "CROW-8", "pref+CROW-8"]);
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for (app, row) in apps.iter().zip(reports.chunks(cfgs.len())) {
        let base = &row[0];
        let sp: Vec<f64> = (1..=3).map(|i| speedup1(&row[i], base)).collect();
        for (c, &s) in cols.iter_mut().zip(&sp) {
            c.push(s);
        }
        tab.row(vec![
            app.name.to_string(),
            format!("{:.3}", sp[0]),
            format!("{:.3}", sp[1]),
            format!("{:.3}", sp[2]),
        ]);
    }
    tab.row(vec![
        "geomean".to_string(),
        format!("{:.3}", geomean(&cols[0])),
        format!("{:.3}", geomean(&cols[1])),
        format!("{:.3}", geomean(&cols[2])),
    ]);
    let mut out = heading("Fig. 12: CROW-cache and prefetching (speedup vs no-prefetch baseline)");
    out.push_str(&tab.render());
    out.push_str("\npaper: CROW-cache adds +5.7% on top of the prefetcher on average\n");
    out.push_str(&camp.finish());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_apps_resolve() {
        for n in ["libq", "mcf", "omnetpp", "sphinx3", "lbm", "gcc"] {
            assert!(AppProfile::by_name(n).is_some());
        }
    }

    #[test]
    fn fig11_area_column_is_static() {
        // Area values do not depend on simulation, check them directly.
        let crow8 = crow_circuit::DecoderAreaModel::calibrated().chip_overhead(8);
        let tl8 = TlDramConfig { near_rows: 8 }.chip_area_overhead();
        assert!(crow8 < tl8);
    }
}
