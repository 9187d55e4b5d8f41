//! Quickstart: build the paper's Table 2 system, run one application
//! under the baseline and under CROW (cache + ref), and print a summary.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use crow::sim::{run_job, Mechanism, Scale, SystemConfig};
use crow::workloads::AppProfile;

fn main() {
    let app = AppProfile::by_name("mcf").expect("mcf is part of the suite");
    let scale = Scale::from_env().expect("CROW_* scale overrides must be unsigned integers");
    println!(
        "workload: {} (target {:.1} MPKI), {} instructions",
        app.name, app.mpki, scale.insts
    );

    for mech in [
        Mechanism::Baseline,
        Mechanism::crow_cache(8),
        Mechanism::crow_combined(),
    ] {
        let cfg = SystemConfig::paper_default(mech);
        let report = run_job(cfg, &[app], scale).expect("the paper platform runs mcf");
        println!(
            "{:<12} ipc {:.3} | avg read latency {:>6.1} mem cycles | \
             row hit rate {:.2} | CROW hit rate {:.2} | refreshes {:>4} | energy {:.2} mJ",
            mech.label(),
            report.ipc[0],
            report.mc.avg_read_latency(),
            report.mc.row_hit_rate(),
            report.crow_hit_rate(),
            report.mc.refreshes,
            report.energy_mj(),
        );
    }
    println!("\nCROW-8 activates duplicated rows with ACT-t at reduced tRCD/tRAS;");
    println!("the combined mechanism also remaps weak rows and halves the refresh rate.");
}
