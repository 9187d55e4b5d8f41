//! CROW-ref walkthrough: weak-row statistics (Eq. 1–2), a synthetic
//! retention profile, the remapping plan, and the measured refresh
//! savings across chip densities (paper §4.2, Fig. 13).
//!
//! ```sh
//! cargo run --release --example refresh_savings
//! ```

use crow::core::retention::RetentionProfile;
use crow::core::{weakrows, CrowConfig, CrowSubstrate};
use crow::sim::{run_job, Mechanism, Scale, SystemConfig};
use crow::workloads::AppProfile;

fn main() {
    println!("-- Weak-row statistics (paper Eq. 1-2) --");
    let p_row = weakrows::p_weak_row(weakrows::PAPER_BER_256MS, weakrows::PAPER_CELLS_PER_ROW);
    println!("P(a row holds a weak cell at 256 ms) = {p_row:.3e}");
    for n in [1, 2, 4, 8] {
        println!(
            "P(any subarray in the chip has more than {n} weak rows) = {:.2e}",
            weakrows::p_chip_exceeds(n, 512, p_row, 1024)
        );
    }
    println!("=> 8 copy rows per subarray virtually always suffice.\n");

    println!("-- Remapping plan on a measured-BER retention profile --");
    let crow_cfg = CrowConfig::paper_default();
    let weak = RetentionProfile::paper_measured().generate(
        crow_cfg.banks,
        crow_cfg.subarrays_per_bank,
        crow_cfg.rows_per_subarray,
        crow_cfg.copy_rows,
        42,
    );
    let mut substrate = CrowSubstrate::new(crow_cfg);
    let remapped = substrate.install_ref_plan(&weak);
    println!(
        "profiled {} weak rows across the channel; remapped {} to strong copy rows",
        weak.total_weak_regular(),
        remapped
    );
    println!(
        "refresh interval multiplier: x{}\n",
        substrate.refresh_multiplier()
    );

    println!("-- Measured impact vs chip density (cf. paper Fig. 13) --");
    let app = AppProfile::by_name("libq").unwrap();
    let scale = Scale::from_env().expect("CROW_* scale overrides must be unsigned integers");
    for density in [8u32, 16, 32, 64] {
        let run = |mech| {
            let cfg = SystemConfig::paper_default(mech).with_density(density);
            run_job(cfg, &[app], scale).expect("the paper platform runs libq")
        };
        let base = run(Mechanism::Baseline);
        let cref = run(Mechanism::crow_ref());
        println!(
            "{density:>2} Gbit: speedup {:.3} | energy {:.3} | refreshes {} -> {}",
            cref.ipc[0] / base.ipc[0],
            cref.energy.total_nj() / base.energy.total_nj(),
            base.mc.refreshes,
            cref.mc.refreshes,
        );
    }
}
